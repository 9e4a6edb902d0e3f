"""Dynamic client bindings: CDE's live view of one remote server.

A binding owns the client's current copy of the published interface
description and a transport to the server endpoint.  Invocations are sent
even when the local view might be stale — that is the nature of live
development — and the client half of the §6 consistency algorithm runs when
the server answers with a "Non existent Method" fault:

1. the client view of the server interface is updated to the currently
   published one (which, thanks to the server half in §5.7, is guaranteed to
   be at least as recent as the interface the server used to process the
   call);
2. the exception is handed to the JPie debugger so the developer sees the
   changed signature, with a ``retry`` callback implementing the "try again"
   feature;
3. the exception is raised to the calling code.

Every stale fault produces a :class:`GuaranteeRecord` capturing the version
the server reported and the version the client observed after refreshing;
the Figure 8 experiment checks ``client_version >= server_version`` over all
interleavings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.corba.dii import create_request
from repro.corba.ior import IOR
from repro.corba.orb import ClientOrb, RemoteObjectReference
from repro.errors import (
    CorbaUserException,
    MiddlewareError,
    NonExistentMethodError,
    RemoteApplicationError,
    ServerNotInitializedError,
    StubError,
)
from repro.corba.idl import parse_idl
from repro.interface import InterfaceDescription, InterfaceDiff
from repro.rmitypes import infer_type
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.faults import SoapFault
from repro.soap.wsdl import parse_wsdl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cde.client_env import ClientDevelopmentEnvironment
    from repro.core.cde.stub_manager import ClientStubManager

TECHNOLOGY_SOAP = "soap"
TECHNOLOGY_CORBA = "corba"


@dataclass(frozen=True)
class GuaranteeRecord:
    """One observation of the §6 recency guarantee."""

    operation: str
    server_version: int
    client_version_after_refresh: int
    interface_diff: InterfaceDiff

    @property
    def satisfied(self) -> bool:
        """True if the client ended up with an interface at least as recent
        as the one the server used to reject the call."""
        return self.client_version_after_refresh >= self.server_version


@dataclass
class BindingStats:
    """Counters kept by a dynamic client binding."""

    invocations: int = 0
    successful_calls: int = 0
    application_faults: int = 0
    stale_faults: int = 0
    not_initialized_faults: int = 0
    refreshes: int = 0
    #: Per-call round-trip times in virtual seconds, in call order.
    rtt_samples: list[float] = field(default_factory=list)

    @property
    def mean_rtt(self) -> float:
        """Mean observed round-trip time (0.0 before the first call)."""
        if not self.rtt_samples:
            return 0.0
        return sum(self.rtt_samples) / len(self.rtt_samples)


class DynamicClientBinding:
    """A live client binding to one SOAP or CORBA server."""

    def __init__(
        self,
        cde: "ClientDevelopmentEnvironment",
        technology: str,
        document_url: str,
        ior_url: str | None = None,
        reactive_updates: bool = True,
    ) -> None:
        if technology not in (TECHNOLOGY_SOAP, TECHNOLOGY_CORBA):
            raise StubError(f"unknown technology {technology!r}")
        if technology == TECHNOLOGY_CORBA and ior_url is None:
            raise StubError("CORBA bindings require an IOR URL")
        self.cde = cde
        self.technology = technology
        self.document_url = document_url
        self.ior_url = ior_url
        #: §6 client-side algorithm: refresh the view and involve the
        #: debugger when a stale fault arrives.  Disabling this gives the
        #: naive client of the Figure 7 baseline.
        self.reactive_updates = reactive_updates
        self.description: InterfaceDescription | None = None
        self.stats = BindingStats()
        self.guarantee_records: list[GuaranteeRecord] = []
        self.stub_manager: "ClientStubManager | None" = None

        self._client_orb: ClientOrb | None = None
        self._remote_object: RemoteObjectReference | None = None
        if technology == TECHNOLOGY_CORBA:
            self._client_orb = ClientOrb(
                cde.host, cost_model=cde.cost_model, speed_factor=cde.speed_factor
            )
        self.refresh()

    # -- the client view of the interface -------------------------------------

    @property
    def interface_version(self) -> int:
        """The publication version of the client's current view."""
        return self.description.version if self.description is not None else -1

    @property
    def service_name(self) -> str:
        """The remote service name."""
        return self.description.service_name if self.description is not None else ""

    def refresh(self) -> InterfaceDiff:
        """Re-fetch the published interface description and update the view.

        Returns the difference between the previous and the new view so
        callers (and the debugger display) can show what changed.
        """
        previous = self.description
        document = self._fetch(self.document_url)
        if self.technology == TECHNOLOGY_SOAP:
            new_description = parse_wsdl(document)
        else:
            new_description = parse_idl(document)
            ior_text = self._fetch(self.ior_url or "")
            self._remote_object = self._client_orb.string_to_object(ior_text)  # type: ignore[union-attr]
        self.description = new_description
        self.stats.refreshes += 1
        if self.stub_manager is not None:
            self.stub_manager.update_from(new_description)
        if previous is None:
            return InterfaceDiff()
        return previous.diff(new_description)

    def _fetch(self, url: str) -> str:
        response = self.cde.http_client.get(url)
        if not response.ok:
            raise StubError(f"could not retrieve {url}: HTTP {response.status}")
        return response.body

    # -- invocation --------------------------------------------------------------

    def invoke(self, operation: str, *arguments: Any) -> Any:
        """Invoke ``operation`` on the remote server.

        The call is attempted even if ``operation`` is not (or no longer)
        part of the client's current view — the server decides.
        """
        self.stats.invocations += 1
        started = self._scheduler.now
        try:
            if self.technology == TECHNOLOGY_SOAP:
                return self._invoke_soap(operation, arguments)
            return self._invoke_corba(operation, arguments)
        finally:
            self.stats.rtt_samples.append(self._scheduler.now - started)

    @property
    def _scheduler(self):
        return self.cde.host.network.scheduler

    # -- SOAP path ------------------------------------------------------------------

    def _invoke_soap(self, operation: str, arguments: tuple[Any, ...]) -> Any:
        assert self.description is not None
        signature = self.description.operation(operation)
        registry = self.description.type_registry()
        if signature is not None and signature.arity == len(arguments):
            request = SoapRequest(
                operation=operation,
                arguments=arguments,
                argument_types=signature.parameter_types(),
                namespace=self.description.namespace,
            )
        else:
            request = SoapRequest.for_call(
                operation, arguments, namespace=self.description.namespace, registry=registry
            )
        response = self._soap_transport(request)
        if response.is_fault:
            self._raise_for_fault(operation, arguments, response.fault)
        self.stats.successful_calls += 1
        return response.return_value

    def _soap_transport(self, request: SoapRequest) -> SoapResponse:
        assert self.description is not None
        request_xml = request.to_xml()
        self.cde.charge_text_cost(len(request_xml))
        http_response = self.cde.http_client.post(
            self.description.endpoint_url,
            request_xml,
            headers={"Content-Type": "text/xml; charset=utf-8"},
        )
        if not http_response.ok:
            raise MiddlewareError(
                f"SOAP endpoint returned HTTP {http_response.status}: {http_response.body}"
            )
        self.cde.charge_text_cost(len(http_response.body))
        return SoapResponse.from_xml(http_response.body, self.description.type_registry())

    def _raise_for_fault(self, operation: str, arguments: tuple[Any, ...], fault: SoapFault) -> None:
        if fault.is_non_existent_method:
            self._handle_stale_fault(operation, arguments, fault.detail)
        if fault.is_server_not_initialized:
            self.stats.not_initialized_faults += 1
            raise ServerNotInitializedError(fault.fault_string)
        self.stats.application_faults += 1
        raise RemoteApplicationError(str(fault))

    # -- CORBA path --------------------------------------------------------------------

    def _invoke_corba(self, operation: str, arguments: tuple[Any, ...]) -> Any:
        if self._remote_object is None:
            raise StubError("CORBA binding has no remote object reference")
        try:
            result = create_request(self._remote_object, operation, *arguments).invoke()
        except CorbaUserException as exc:
            self._raise_for_corba_exception(operation, arguments, exc)
            raise  # unreachable; _raise_for_corba_exception always raises
        self.stats.successful_calls += 1
        return result

    def _raise_for_corba_exception(
        self, operation: str, arguments: tuple[Any, ...], exc: CorbaUserException
    ) -> None:
        from repro.core.sde.corba_handler import (
            EXC_APPLICATION,
            EXC_NON_EXISTENT_METHOD,
            EXC_SERVER_NOT_INITIALIZED,
        )

        if exc.type_name == EXC_NON_EXISTENT_METHOD:
            self._handle_stale_fault(operation, arguments, exc.message)
        if exc.type_name == EXC_SERVER_NOT_INITIALIZED:
            self.stats.not_initialized_faults += 1
            raise ServerNotInitializedError(exc.message)
        if exc.type_name == EXC_APPLICATION:
            self.stats.application_faults += 1
            raise RemoteApplicationError(exc.message)
        self.stats.application_faults += 1
        raise RemoteApplicationError(f"{exc.type_name}: {exc.message}")

    # -- the §6 client-side algorithm -----------------------------------------------------

    def _handle_stale_fault(self, operation: str, arguments: tuple[Any, ...], detail: str) -> None:
        self.stats.stale_faults += 1
        server_version = _parse_published_version(detail)
        if not self.reactive_updates:
            # Naive client (Figure 7 baseline): no automatic view update.
            raise NonExistentMethodError(operation, server_version)
        diff = self.refresh()
        record = GuaranteeRecord(
            operation=operation,
            server_version=server_version,
            client_version_after_refresh=self.interface_version,
            interface_diff=diff,
        )
        self.guarantee_records.append(record)

        error = NonExistentMethodError(operation, server_version)
        self.cde.debugger.report(
            source=f"{self.technology}:{self.service_name}",
            exception=error,
            description=(
                f"call to stale method {operation!r}; interface changes: {diff}"
            ),
            retry=lambda: self.invoke(operation, *arguments),
            context={
                "operation": operation,
                "server_version": server_version,
                "client_version": self.interface_version,
                "diff": str(diff),
            },
        )
        raise error

    def __repr__(self) -> str:
        return (
            f"DynamicClientBinding({self.technology}:{self.service_name}, "
            f"version={self.interface_version})"
        )


def _parse_published_version(detail: str) -> int:
    """Extract the ``publishedVersion=N`` hint carried in stale-call faults."""
    marker = "publishedVersion="
    if marker not in detail:
        return -1
    fragment = detail.split(marker, 1)[1]
    digits = ""
    for character in fragment:
        if character.isdigit():
            digits += character
        else:
            break
    return int(digits) if digits else -1
