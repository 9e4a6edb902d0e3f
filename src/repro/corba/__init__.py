"""CORBA stack: IDL, IOR, GIOP/IIOP, ORB, DSI, and the static server.

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
  :meth:`~repro.corba.orb.ClientOrb.invoke_async` — the one way a GIOP
  request leaves a client — with an operation named at run time;
* :mod:`repro.corba.server` — the *static* CORBA server: the Table 1
  baseline ("OpenORB" server) and the §7 export target, deploying a
  :class:`~repro.interface.ServiceDefinition`.  Every CORBA
  client, the Table 1 "OpenORB" client included, is the fleet's
  :class:`~repro.cluster.protocols.CorbaProtocolClient`.
"""

from repro.corba.ior import IOR
from repro.corba.orb import ClientOrb, ServerOrb
from repro.corba.servant import Servant, StaticServant
from repro.corba.dsi import DynamicServant, ServerRequest
from repro.corba.server import StaticCorbaServer

__all__ = [
    "IOR",
    "ClientOrb",
    "ServerOrb",
    "Servant",
    "StaticServant",
    "DynamicServant",
    "ServerRequest",
    "StaticCorbaServer",
]
