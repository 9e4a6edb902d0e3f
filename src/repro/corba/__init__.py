"""CORBA stack: IDL, IOR, GIOP/IIOP, ORB, DSI, and the static baseline.

This package plays the role OpenORB plays in the paper (§2.2):

* :mod:`repro.corba.idl` — CORBA-IDL generation and parsing with the
  IDL-to-Java style type mapping the paper describes;
* :mod:`repro.corba.ior` — Interoperable Object References;
* :mod:`repro.corba.cdr` — binary marshalling (Common Data Representation);
* :mod:`repro.corba.giop` — GIOP Request/Reply framing carried over the
  simulated IIOP transport;
* :mod:`repro.corba.orb` / :mod:`repro.corba.poa` /
  :mod:`repro.corba.servant` — the Object Request Broker, object adapter and
  servants;
* :mod:`repro.corba.dsi` — the Dynamic Skeleton Interface SDE serves
  through; CDE's dynamic invocation is
  :meth:`~repro.corba.orb.RemoteObjectReference.invoke_async` with an
  operation named at run time;
* :mod:`repro.corba.server` / :mod:`repro.corba.client` — the *static*
  CORBA server and client used as the Table 1 baseline ("OpenORB/OpenORB").
"""

from repro.corba.ior import IOR
from repro.corba.orb import ClientOrb, ServerOrb, RemoteObjectReference
from repro.corba.servant import Servant, StaticServant
from repro.corba.dsi import DynamicServant, ServerRequest
from repro.corba.server import StaticCorbaServer, CorbaServiceDefinition
from repro.corba.client import StaticCorbaClient

__all__ = [
    "IOR",
    "ClientOrb",
    "ServerOrb",
    "RemoteObjectReference",
    "Servant",
    "StaticServant",
    "DynamicServant",
    "ServerRequest",
    "StaticCorbaServer",
    "CorbaServiceDefinition",
    "StaticCorbaClient",
]
