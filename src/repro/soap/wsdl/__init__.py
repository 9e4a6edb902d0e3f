"""WSDL generation and parsing.

These are the analogues of Apache Axis' ``Java2WSDL`` and ``WSDL2Java`` tools
the paper builds on (§3):

* :func:`repro.soap.wsdl.generator.generate_wsdl` renders an
  :class:`~repro.interface.InterfaceDescription` into a WSDL document;
* :func:`repro.soap.wsdl.parser.parse_wsdl` recovers the description from a
  WSDL document retrieved over HTTP.  With the SOAP client stack's bind
  (:class:`~repro.cluster.protocols.SoapProtocolClient`), which turns the
  description into an encoder and a prepared POST per replica, it is the
  ``WSDL2Java`` analogue; the CDE's stub class gives the typed stubs.
"""

from repro.soap.wsdl.generator import generate_wsdl
from repro.soap.wsdl.parser import parse_wsdl

__all__ = ["generate_wsdl", "parse_wsdl"]
