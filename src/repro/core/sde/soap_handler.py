"""The SOAP Call Handler (§5.1.3).

"The SOAP Call Handler acts as the communication end point that performs the
SOAP to Java and Java to SOAP translation for remote method invocations."
Here it binds an HTTP endpoint on the server host, parses incoming SOAP
Requests, feeds them through the shared dispatch logic of
:class:`~repro.core.sde.call_handler.CallHandler`, and encodes the outcome as
a SOAP Response (value or fault).  A call answered during dispatch is
encoded and returned in that frame; one a §5.7 stall holds back is answered
through the transport layer's :class:`~repro.net.transport.Deferred`, which
delays the reply without blocking the simulated server, and per-connection
FIFO ordering guarantees stalled replies drain in arrival order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.sde.call_handler import CallHandler, DispatchOutcome
from repro.errors import (
    MalformedRequestError,
    NonExistentMethodError,
    ServerNotInitializedError,
    SoapError,
)
from repro.interface import OperationSignature
from repro.net.http import HttpRequest, HttpResponse, HttpServer
from repro.net.http.messages import frame, response_head
from repro.net.transport import Deferred
from repro.obs import hooks as _obs_hooks
from repro.rmitypes import TypeRegistry
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.faults import SoapFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sde.manager import ManagedServer, SDEManager

#: Every SOAP reply's status line and headers, as ``HttpResponse.ok_xml``'s.
_OK_XML = response_head(200, HttpResponse.ok_xml("").headers)


class SoapCallHandler(CallHandler):
    """HTTP/SOAP communication endpoint for a managed SOAP server class."""

    def __init__(self, manager: "SDEManager", server: "ManagedServer", port: int) -> None:
        super().__init__(manager, server)
        self.port = port
        self.http_server = HttpServer(
            manager.host,
            port,
            name=f"sde-soap:{server.dynamic_class.name}",
            cores=manager.server_core,
        )
        self.http_server.add_route(self.endpoint_path, self._handle, methods=("GET", "POST"))
        #: The class's struct types and the registry decoding requests with
        #: them, rebuilt only when the structs change.
        self._registry: tuple[tuple, TypeRegistry] = ((), TypeRegistry())

    # -- endpoint ------------------------------------------------------------

    @property
    def endpoint_path(self) -> str:
        """HTTP path of the SOAP endpoint."""
        return f"/sde/{self.dynamic_class.name}"

    @property
    def endpoint_url(self) -> str:
        return f"http://{self.manager.host.name}:{self.port}{self.endpoint_path}"

    def start(self) -> None:
        self.http_server.start()

    def stop(self) -> None:
        self.http_server.stop()

    # -- request handling ---------------------------------------------------------

    def _handle(self, request: HttpRequest):
        if request.method == "GET":
            # Convenience: point clients at the published WSDL document.
            return HttpResponse.ok_text(self.server.publisher.document_url)

        structs = self.server.dynamic_class.struct_types
        cached_structs, registry = self._registry
        if structs != cached_structs:
            registry = TypeRegistry(structs)
            self._registry = structs, registry
        try:
            soap_request = SoapRequest.from_xml(request.body, registry)
        except SoapError as exc:
            self.note_malformed_request(str(exc))
            fault = SoapFault.malformed_request(str(exc))
            return self._encoded(SoapResponse.for_fault("", fault), len(request.body))

        if soap_request.trace_context is not None and _obs_hooks.ACTIVE is not None:
            # Staged for CallHandler.dispatch, which consumes and clears it
            # synchronously before this frame returns.
            _obs_hooks.SERVER_WIRE_CONTEXT = soap_request.trace_context
        reply = _SoapReply(self, soap_request.operation, len(request.body))
        self.dispatch(soap_request.operation, soap_request.arguments, reply)
        if reply.response is not None:
            return reply.response
        reply.deferred = Deferred(f"soap reply for {soap_request.operation}")
        return reply.deferred

    # -- fault mapping ----------------------------------------------------------------

    def _encoded(self, response: SoapResponse, request_size: int) -> tuple[bytes, float]:
        xml, wire = response.to_xml_and_wire()
        return frame(*_OK_XML, wire), self._processing_delay(request_size, len(xml))

    def _fault_for(self, operation: str, error: BaseException) -> SoapFault:
        if isinstance(error, ServerNotInitializedError):
            return SoapFault.server_not_initialized()
        if isinstance(error, NonExistentMethodError):
            return SoapFault.non_existent_method(operation, error.interface_version)
        if isinstance(error, MalformedRequestError):
            return SoapFault.malformed_request(str(error))
        return SoapFault.application_fault(error)

    # -- cost accounting ---------------------------------------------------------------

    def _processing_delay(self, request_size: int, response_size: int) -> float:
        cost_model = self.manager.config.cost_model
        if cost_model is None:
            return 0.0
        cost = cost_model.text_processing(request_size)
        cost += cost_model.text_processing(response_size)
        cost += cost_model.dynamic_dispatch_overhead()
        return cost


class _SoapReply(DispatchOutcome):
    """Where one SOAP call's dispatch reports: into :attr:`response` while
    ``dispatch`` runs, into :attr:`deferred` once a §5.7 stall has held the
    call past it."""

    def __init__(self, handler: SoapCallHandler, operation: str, request_size: int) -> None:
        self.handler = handler
        self.operation = operation
        #: Read on arrival: the reply is rendered in the namespace served then.
        self.namespace = handler.server.publisher.namespace
        self.request_size = request_size
        self.response: tuple[bytes, float] | None = None
        self.deferred: Deferred | None = None

    def on_result(self, value: Any, signature: OperationSignature) -> None:
        self._reply(SoapResponse.for_result(
            self.operation, value, signature.return_type, namespace=self.namespace
        ))

    def on_fault(self, error: BaseException) -> None:
        fault = self.handler._fault_for(self.operation, error)
        self._reply(SoapResponse.for_fault(self.operation, fault, namespace=self.namespace))

    def _reply(self, response: SoapResponse) -> None:
        encoded = self.handler._encoded(response, self.request_size)
        if self.deferred is None:
            self.response = encoded
        else:
            self.deferred.complete(*encoded)
