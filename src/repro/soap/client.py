"""Static SOAP client — the "Axis client" of Figure 1 and Table 1.

The client follows the three-step interaction of Figure 1: it retrieves the
WSDL document over HTTP, compiles it into method stubs, and then issues SOAP
Requests against the endpoint address found in the document.  Client-side CPU
cost (request encoding, response decoding) is charged to the virtual clock —
in the paper's testbed the client is the slower machine (a 1 GHz PowerBook),
which the Table 1 experiment models with a ``speed_factor`` greater than one.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SoapError
from repro.interface import InterfaceDescription
from repro.net.http import HttpClient
from repro.net.latency import CostModel
from repro.net.simnet import Host
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.wsdl import parse_wsdl
from repro.soap.wsdl.compiler import CompiledStub, unwrap_response


class SoapClient:
    """A SOAP client attached to a simulated host."""

    def __init__(
        self,
        host: Host,
        cost_model: CostModel | None = None,
        speed_factor: float = 1.0,
    ) -> None:
        self.host = host
        self.cost_model = cost_model
        self.speed_factor = speed_factor
        self.http_client = HttpClient(host, name="soap-client")
        self.description: InterfaceDescription | None = None
        self.stub: CompiledStub | None = None
        self.calls_made = 0

    # -- WSDL retrieval and stub compilation (Figure 1, step 1) -------------

    def fetch_wsdl(self, wsdl_url: str) -> str:
        """Retrieve the WSDL document text from ``wsdl_url``."""
        response = self.http_client.get(wsdl_url)
        if not response.ok:
            raise SoapError(
                f"could not retrieve WSDL from {wsdl_url}: HTTP {response.status}"
            )
        return response.body

    def connect(self, wsdl_url: str) -> CompiledStub:
        """Fetch + parse the WSDL and compile client stubs for the service."""
        document = self.fetch_wsdl(wsdl_url)
        self.description = parse_wsdl(document)
        if not self.description.endpoint_url:
            raise SoapError("WSDL document does not declare a soap:address location")
        self.stub = CompiledStub(self.description, self._transport)
        return self.stub

    def refresh(self, wsdl_url: str) -> CompiledStub:
        """Re-fetch the WSDL and rebuild the stubs (used after live changes)."""
        return self.connect(wsdl_url)

    # -- invocation (Figure 1, steps 2 and 3) --------------------------------

    def invoke(self, operation: str, *arguments: Any) -> Any:
        """Invoke ``operation`` through the compiled stub."""
        if self.stub is None:
            raise SoapError("client is not connected; call connect(wsdl_url) first")
        return self.stub.invoke(operation, *arguments)

    def call_raw(self, request: SoapRequest) -> SoapResponse:
        """Send a pre-built SOAP Request, bypassing the stub's signature
        checks, and return the raw response (faults included) — the server,
        not the stub, decides whether the operation exists."""
        if self.description is None:
            raise SoapError("client is not connected; call connect(wsdl_url) first")
        return self._transport(request)

    # -- transport ------------------------------------------------------------

    def _transport(self, request: SoapRequest) -> SoapResponse:
        if self.description is None:
            raise SoapError("client is not connected")
        request_xml = request.to_xml()
        self._charge(len(request_xml))
        http_response = self.http_client.post(
            self.description.endpoint_url,
            request_xml,
            headers={
                "Content-Type": "text/xml; charset=utf-8",
                "Soapaction": f"{request.namespace}#{request.operation}",
            },
        )
        if not http_response.ok:
            raise SoapError(
                f"SOAP endpoint returned HTTP {http_response.status}: {http_response.body}"
            )
        self._charge(len(http_response.body))
        self.calls_made += 1
        return SoapResponse.from_xml(
            http_response.body,
            self.description.type_registry(),
        )

    def _charge(self, size_bytes: int) -> None:
        """Advance the virtual clock by the client-side processing cost."""
        if self.cost_model is None:
            return
        cost = self.cost_model.text_processing(size_bytes) * self.speed_factor
        if cost <= 0:
            return
        scheduler = self.host.network.scheduler
        done = []
        scheduler.schedule(cost, lambda: done.append(True), label="soap-client processing")
        scheduler.run_until(lambda: bool(done), description="client processing")

    def __repr__(self) -> str:
        target = self.description.endpoint_url if self.description else "<disconnected>"
        return f"SoapClient(host={self.host.name!r}, target={target})"
