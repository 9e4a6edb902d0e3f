"""Minimal HTTP/1.1 substrate running over the simulated network.

The paper relies on HTTP twice: as the transport for SOAP request/response
traffic (§2.1) and as the publication channel for WSDL, CORBA-IDL and IOR
documents served by SDE's integrated Interface Server (§5.1/§5.2).  This
package provides a request/response message model with a textual wire format,
a route-based :class:`HttpServer` and an asynchronous :class:`HttpClient`, both
built on the shared :mod:`repro.net.transport` layer.
"""

from repro.net.http.messages import HttpRequest, HttpResponse, StatusCodes
from repro.net.http.server import HttpServer, Route
from repro.net.http.client import HttpClient, PreparedRequest

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "StatusCodes",
    "HttpServer",
    "Route",
    "HttpClient",
    "PreparedRequest",
]
