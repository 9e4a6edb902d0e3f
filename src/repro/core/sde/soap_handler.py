"""The SOAP Call Handler (§5.1.3).

"The SOAP Call Handler acts as the communication end point that performs the
SOAP to Java and Java to SOAP translation for remote method invocations."
Here it binds an HTTP endpoint on the server host, parses incoming SOAP
Requests, feeds them through the shared dispatch logic of
:class:`~repro.core.sde.call_handler.CallHandler`, and encodes the outcome as
a SOAP Response (value or fault).  Replies are issued through the transport
layer's generic :class:`~repro.net.transport.Deferred` so a §5.7 stall simply
delays the reply without blocking the simulated server; per-connection FIFO
ordering guarantees stalled replies drain in arrival order.
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
from repro.net.transport import Deferred
from repro.obs import hooks as _obs_hooks
from repro.rmitypes import TypeRegistry
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.faults import SoapFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sde.manager import ManagedServer, SDEManager


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

        namespace = self.server.publisher.namespace
        registry = TypeRegistry(self.dynamic_class.struct_types)
        try:
            soap_request = SoapRequest.from_xml(request.body, registry)
        except SoapError as exc:
            self.note_malformed_request(str(exc))
            fault = SoapFault.malformed_request(str(exc))
            return self._fault_response("", fault, len(request.body))

        deferred: Deferred = Deferred(f"soap reply for {soap_request.operation}")

        def on_result(value: Any, signature: OperationSignature) -> None:
            response = SoapResponse.for_result(
                soap_request.operation, value, signature.return_type, namespace=namespace
            )
            body = response.to_xml()
            deferred.complete(
                HttpResponse.ok_xml(body),
                self._processing_delay(len(request.body), len(body)),
            )

        def on_fault(error: BaseException) -> None:
            fault = self._fault_for(soap_request.operation, error)
            response = SoapResponse.for_fault(soap_request.operation, fault, namespace=namespace)
            body = response.to_xml()
            deferred.complete(
                HttpResponse.ok_xml(body),
                self._processing_delay(len(request.body), len(body)),
            )

        if soap_request.trace_context is not None and _obs_hooks.ACTIVE is not None:
            # Staged for CallHandler.dispatch, which consumes and clears it
            # synchronously before this frame returns.
            _obs_hooks.SERVER_WIRE_CONTEXT = soap_request.trace_context
        self.dispatch(
            soap_request.operation,
            soap_request.arguments,
            DispatchOutcome(on_result=on_result, on_fault=on_fault),
        )
        return deferred

    # -- fault mapping ----------------------------------------------------------------

    def _fault_for(self, operation: str, error: BaseException) -> SoapFault:
        if isinstance(error, ServerNotInitializedError):
            return SoapFault.server_not_initialized()
        if isinstance(error, NonExistentMethodError):
            return SoapFault.non_existent_method(operation, error.interface_version)
        if isinstance(error, MalformedRequestError):
            return SoapFault.malformed_request(str(error))
        return SoapFault.application_fault(error)

    def _fault_response(self, operation: str, fault: SoapFault, request_size: int):
        response = SoapResponse.for_fault(operation, fault)
        body = response.to_xml()
        delay = self._processing_delay(request_size, len(body))
        if delay > 0:
            return HttpResponse.ok_xml(body), delay
        return HttpResponse.ok_xml(body)

    # -- cost accounting ---------------------------------------------------------------

    def _processing_delay(self, request_size: int, response_size: int) -> float:
        cost_model = self.manager.config.cost_model
        if cost_model is None:
            return 0.0
        cost = cost_model.text_processing(request_size)
        cost += cost_model.text_processing(response_size)
        cost += cost_model.dynamic_dispatch_overhead()
        return cost * self.manager.config.speed_factor
