"""Static CORBA server — the "OpenORB server" baseline of Table 1.

A :class:`StaticCorbaServer` deploys a fixed service behind a server ORB:
the CORBA-IDL document and the IOR are generated at deployment time and
served over HTTP on the server's host (Figure 2 step 1), where the fleet's
CORBA client stack fetches them as it does an SDE replica's.  There is no
live update machinery — the static baseline, like a plain OpenORB
deployment, requires a restart to change the interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.corba.idl import generate_idl
from repro.corba.ior import IOR
from repro.corba.orb import ServerOrb
from repro.corba.poa import PortableObjectAdapter
from repro.corba.servant import StaticServant
from repro.errors import CorbaError
from repro.interface import InterfaceDescription, OperationSignature
from repro.net.http import HttpRequest, HttpResponse, HttpServer
from repro.net.latency import CostModel
from repro.net.simnet import Host
from repro.rmitypes import StructType


@dataclass
class CorbaServiceDefinition:
    """A statically deployed CORBA service: signatures plus implementations."""

    service_name: str
    namespace: str
    operations: list[tuple[OperationSignature, Callable[..., Any]]] = field(default_factory=list)
    structs: list[StructType] = field(default_factory=list)

    def add_operation(
        self, signature: OperationSignature, implementation: Callable[..., Any]
    ) -> None:
        """Register an operation and its implementation."""
        if any(existing.name == signature.name for existing, _ in self.operations):
            raise CorbaError(f"operation {signature.name!r} is already defined")
        self.operations.append((signature, implementation))

    def signatures(self) -> tuple[OperationSignature, ...]:
        """The operation signatures in registration order."""
        return tuple(signature for signature, _ in self.operations)


class StaticCorbaServer:
    """A statically deployed CORBA service bound to a simulated host."""

    def __init__(
        self,
        host: Host,
        iiop_port: int,
        definition: CorbaServiceDefinition,
        cost_model: CostModel | None = None,
        speed_factor: float = 1.0,
        http_port: int = 8080,
    ) -> None:
        self.host = host
        self.iiop_port = iiop_port
        self.definition = definition
        self.object_key = definition.service_name

        self.poa = PortableObjectAdapter()
        self.servant = StaticServant(definition.service_name)
        for signature, implementation in definition.operations:
            self.servant.register(signature, implementation)
        self.poa.activate_object(self.object_key, self.servant)

        self.orb = ServerOrb(
            host,
            iiop_port,
            poa=self.poa,
            cost_model=cost_model,
            speed_factor=speed_factor,
        )

        self.description = InterfaceDescription(
            service_name=definition.service_name,
            namespace=definition.namespace,
            endpoint_url=f"iiop://{host.name}:{iiop_port}/{self.object_key}",
        ).with_operations(definition.signatures(), definition.structs)
        self._idl_document = generate_idl(self.description)

        #: Serves the IDL document and the stringified IOR (Figure 2 step 1).
        self.http_server = HttpServer(host, http_port, name=f"corba:{definition.service_name}")
        self._documents = {
            self._document_path("idl"): self._idl_document,
            self._document_path("ior"): self.ior.stringify(),
        }
        for path in self._documents:
            self.http_server.add_route(path, self._serve, methods=("GET",))

    # -- documents -------------------------------------------------------------

    def _document_path(self, extension: str) -> str:
        return f"/idl/{self.definition.service_name}.{extension}"

    def _serve(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.ok_text(self._documents[request.path], "text/plain; charset=utf-8")

    @property
    def document_url(self) -> str:
        """The URL from which the IDL document is served."""
        return f"{self.http_server.url}{self._document_path('idl')}"

    @property
    def ior_url(self) -> str:
        """The URL from which the stringified IOR is served."""
        return f"{self.http_server.url}{self._document_path('ior')}"

    @property
    def publisher(self) -> "StaticCorbaServer":
        """The server publishes its own (fixed) IDL document and IOR."""
        return self

    @property
    def idl_document(self) -> str:
        """The CORBA-IDL document describing this (fixed) service."""
        return self._idl_document

    @property
    def ior(self) -> IOR:
        """The IOR naming the deployed object."""
        return IOR(
            type_id=self.servant.repository_id,
            host=self.host.name,
            port=self.iiop_port,
            object_key=self.object_key,
        )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Deploy: start the server ORB and serve the documents."""
        self.orb.start()
        self.http_server.start()

    def stop(self) -> None:
        """Undeploy the service."""
        self.orb.stop()
        self.http_server.stop()

    @property
    def calls_served(self) -> int:
        """Number of successful invocations handled by the ORB."""
        return self.orb.requests_handled

    def __repr__(self) -> str:
        return f"StaticCorbaServer({self.definition.service_name!r} at {self.host.name}:{self.iiop_port})"
