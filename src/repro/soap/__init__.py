"""SOAP stack: envelopes, encoding, faults, WSDL, and the static server.

This package plays the role Apache Axis (plus Tomcat) plays in the paper:

* :mod:`repro.soap.encoding` — XML encoding of the shared RMI type model;
* :mod:`repro.soap.envelope` — SOAP Request / SOAP Response documents;
* :mod:`repro.soap.faults` — SOAP Faults, including the ones SDE emits
  ("Server not initialized", "Malformed SOAP Request", "Non existent Method");
* :mod:`repro.soap.wsdl` — WSDL generation and parsing (the analogue of
  Axis' ``Java2WSDL``; ``WSDL2Java`` is :func:`~repro.soap.wsdl.parse_wsdl`
  plus the client stack's bind, :mod:`repro.cluster.protocols`);
* :mod:`repro.soap.server` — the *static* SOAP server: the Table 1
  baseline ("Axis-Tomcat") and the §7 export target.  Every SOAP client,
  the Table 1 "Axis" client included, is the fleet's
  :class:`~repro.cluster.protocols.SoapProtocolClient`.
"""

from repro.soap.faults import SoapFault, FaultCodes
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.server import StaticSoapServer, SoapServiceDefinition

__all__ = [
    "SoapFault",
    "FaultCodes",
    "SoapRequest",
    "SoapResponse",
    "StaticSoapServer",
    "SoapServiceDefinition",
]
