"""Static SOAP server — the "Axis + Tomcat" baseline of Table 1.

A :class:`StaticSoapServer` hosts a fixed service implementation: the WSDL
document is generated once at deployment time, served from
``GET /services/<name>?wsdl``, and SOAP calls are dispatched to statically
bound Python callables.  Clients bind it like an SDE replica: the server
is its own publisher, so a :class:`~repro.cluster.registry.Replica` built
on it hands its WSDL URL to the fleet's SOAP client stack.  There is no live update machinery; changing the
interface requires redeploying the server, exactly like the traditional
development cycle the paper contrasts SDE with (§1, §3).

Server-side CPU cost (XML parsing, dispatch, response generation) is charged
to the virtual clock through a :class:`~repro.net.latency.CostModel`, which is
how the Table 1 experiment reproduces realistic round-trip times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SoapError
from repro.interface import InterfaceDescription, OperationSignature
from repro.net.http import HttpRequest, HttpResponse, HttpServer
from repro.net.latency import CostModel
from repro.net.simnet import Host
from repro.rmitypes import StructType, TypeRegistry
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.faults import SoapFault
from repro.soap.wsdl import generate_wsdl


@dataclass
class SoapServiceDefinition:
    """A statically deployed service: signatures plus their implementations."""

    service_name: str
    namespace: str
    operations: list[tuple[OperationSignature, Callable[..., Any]]] = field(default_factory=list)
    structs: list[StructType] = field(default_factory=list)

    def add_operation(
        self, signature: OperationSignature, implementation: Callable[..., Any]
    ) -> None:
        """Register an operation and its implementation."""
        if any(existing.name == signature.name for existing, _ in self.operations):
            raise SoapError(f"operation {signature.name!r} is already defined")
        self.operations.append((signature, implementation))

    def signatures(self) -> tuple[OperationSignature, ...]:
        """The operation signatures in registration order."""
        return tuple(signature for signature, _ in self.operations)

    def implementation(self, name: str) -> Callable[..., Any] | None:
        """The implementation registered for operation ``name``, if any."""
        for signature, implementation in self.operations:
            if signature.name == name:
                return implementation
        return None

    def signature(self, name: str) -> OperationSignature | None:
        """The signature registered for operation ``name``, if any."""
        for signature, _ in self.operations:
            if signature.name == name:
                return signature
        return None


class StaticSoapServer:
    """A statically deployed SOAP service bound to a simulated host."""

    def __init__(
        self,
        host: Host,
        port: int,
        definition: SoapServiceDefinition,
        cost_model: CostModel | None = None,
        speed_factor: float = 1.0,
    ) -> None:
        self.host = host
        self.port = port
        self.definition = definition
        self.cost_model = cost_model
        self.speed_factor = speed_factor
        self.http_server = HttpServer(host, port, name=f"soap:{definition.service_name}")
        self.calls_served = 0
        self.faults_returned = 0

        self._service_path = f"/services/{definition.service_name}"
        self.description = self._build_description()
        self._registry = TypeRegistry(definition.structs)
        self._wsdl_document = generate_wsdl(self.description)

        self.http_server.add_route(self._service_path, self._handle, methods=("GET", "POST"))

    # -- deployment ---------------------------------------------------------

    def _build_description(self) -> InterfaceDescription:
        return InterfaceDescription(
            service_name=self.definition.service_name,
            namespace=self.definition.namespace,
            endpoint_url=self.endpoint_url,
        ).with_operations(self.definition.signatures(), self.definition.structs)

    @property
    def endpoint_url(self) -> str:
        """The SOAP endpoint URL clients post requests to."""
        return f"http://{self.host.name}:{self.port}{self._service_path}"

    @property
    def document_url(self) -> str:
        """The URL from which the WSDL document is served."""
        return f"{self.endpoint_url}?wsdl"

    @property
    def publisher(self) -> "StaticSoapServer":
        """The server publishes its own (fixed) WSDL document."""
        return self

    def start(self) -> None:
        """Deploy: bind the HTTP server and begin accepting calls."""
        self.http_server.start()

    def stop(self) -> None:
        """Undeploy the service."""
        self.http_server.stop()

    # -- request handling -----------------------------------------------------

    def _handle(self, request: HttpRequest):
        if request.method == "GET":
            return HttpResponse.ok_xml(self._wsdl_document)
        return self._handle_call(request)

    def _handle_call(self, request: HttpRequest):
        try:
            soap_request = SoapRequest.from_xml(request.body, self._registry)
        except SoapError as exc:
            self.faults_returned += 1
            response = SoapResponse.for_fault("", SoapFault.malformed_request(str(exc)))
            return self._reply(request, response)

        signature = self.definition.signature(soap_request.operation)
        implementation = self.definition.implementation(soap_request.operation)
        if signature is None or implementation is None:
            self.faults_returned += 1
            response = SoapResponse.for_fault(
                soap_request.operation,
                SoapFault.non_existent_method(soap_request.operation),
            )
            return self._reply(request, response)

        try:
            result = implementation(*soap_request.arguments)
            response = SoapResponse.for_result(
                soap_request.operation,
                result,
                signature.return_type,
                namespace=self.definition.namespace,
            )
            self.calls_served += 1
        except Exception as exc:  # noqa: BLE001 - wrapped in an application fault
            self.faults_returned += 1
            response = SoapResponse.for_fault(
                soap_request.operation, SoapFault.application_fault(exc)
            )
        return self._reply(request, response)

    def _reply(self, http_request: HttpRequest, soap_response: SoapResponse):
        body = soap_response.to_xml()
        http_response = HttpResponse.ok_xml(body)
        delay = self._processing_delay(len(http_request.body), len(body))
        if delay > 0:
            return http_response, delay
        return http_response

    def _processing_delay(self, request_size: int, response_size: int) -> float:
        if self.cost_model is None:
            return 0.0
        cost = self.cost_model.text_processing(request_size)
        cost += self.cost_model.text_processing(response_size)
        return cost * self.speed_factor

    def __repr__(self) -> str:
        return f"StaticSoapServer({self.definition.service_name!r} at {self.endpoint_url})"
