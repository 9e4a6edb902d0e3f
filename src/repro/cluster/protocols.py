"""Client-side protocol stacks for the fleet driver.

The server side of a scenario is already technology-independent (the SDE
Manager drives any registered :class:`~repro.core.sde.api.Technology`); this
module makes the *client* side pluggable too.  A :class:`ProtocolClient`
owns one simulated client machine's middleware stack for one protocol and
knows how to

* ``prepare()`` — fetch and parse the published interface documents of
  every replica it may be routed to (blocking, before the measured window);
* ``call(replica, operation, arguments)`` — issue one asynchronous call and
  return the transport :class:`~repro.net.transport.Deferred`;
* ``classify(value, error)`` — map the reply to one of the outcome
  categories ``"success"`` / ``"stale"`` / ``"not_initialized"`` /
  ``"other"``;
* ``result(value)`` / ``fault_text(value, error)`` — the operation's return
  value, or the protocol fault as text.

Each stack owns one :class:`~repro.evolve.graph.ClientBinding`
(``stack.binding``): the description it bound per replica, which
version-aware routing reads and ``prepare_replica``/``rebind_replica``
replace.  The fleet driver drives the stacks asynchronously; the CDE's
:class:`~repro.core.cde.binding.DynamicClientBinding` drives one to
completion per call.

``soap`` and ``corba`` are registered by default; a third technology plugs
in with :func:`register_client_protocol` (or per-scenario via
``Scenario.technology(..., client=...)``), which is how the §5.3
extensibility claim is exercised at the Scenario level.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.sde.corba_handler import EXC_NON_EXISTENT_METHOD, EXC_SERVER_NOT_INITIALIZED
from repro.corba.idl import parse_idl
from repro.corba.orb import ClientOrb, RemoteObjectReference
from repro.errors import ClusterError, CorbaUserException, MiddlewareError
from repro.evolve.graph import ClientBinding
from repro.net.http import HttpClient, HttpResponse
from repro.net.simnet import Address, Host
from repro.net.transport import Deferred
from repro.obs import hooks as _obs_hooks
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.wsdl import parse_wsdl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.registry import Replica

OUTCOME_SUCCESS = "success"
OUTCOME_STALE = "stale"
OUTCOME_NOT_INITIALIZED = "not_initialized"
OUTCOME_OTHER = "other"


class ProtocolClient:
    """Base class: one client machine's stack for one protocol."""

    def __init__(self, host: Host, index: int, replicas: Sequence["Replica"]) -> None:
        self.host = host
        self.index = index
        self.replicas = tuple(replicas)
        self.http = HttpClient(host, name=f"wl-http-{index}")
        #: The descriptions this stack's stubs were built from, per replica,
        #: and the §6 recency watermark.  Stacks without parsed descriptions
        #: bind nothing, which disables the compatibility check.
        self.binding = ClientBinding()

    # -- interface documents -------------------------------------------------

    def fetch(self, url: str) -> str:
        """Blocking HTTP fetch of a published interface document."""
        response = self.http.get(url)
        if not response.ok:
            raise MiddlewareError(f"could not retrieve {url}: HTTP {response.status}")
        return response.body

    def prepare(self) -> None:
        """Fetch and parse every replica's published documents, in order."""
        for replica in self.replicas:
            self.prepare_replica(replica)

    def prepare_replica(self, replica: "Replica") -> None:
        """Fetch and parse one replica's published documents."""
        raise NotImplementedError

    # -- the call path -------------------------------------------------------

    def call(self, replica: "Replica", operation: str, arguments: tuple[Any, ...]) -> Deferred:
        """Issue one asynchronous call against ``replica``."""
        raise NotImplementedError

    def classify(self, value: Any, error: BaseException | None) -> str:
        """Map a resolved reply to an outcome category."""
        raise NotImplementedError

    def result(self, value: Any) -> Any:
        """The operation's return value carried by a successful reply."""
        return value

    def fault_text(self, value: Any, error: BaseException | None) -> str | None:
        """The protocol fault of an unsuccessful reply, as text.

        ``None`` means the call failed below the protocol (``error`` is a
        transport or decoding failure, not a fault the server sent).
        """
        return None if error is not None else str(value)

    # -- interface evolution -------------------------------------------------

    def rebind_replica(self, replica: "Replica") -> Deferred:
        """Asynchronously re-fetch and re-parse one replica's documents.

        Called by the fleet driver after a §5.7 stale fault under
        version-aware routing: the client's stubs are outdated, so it
        rebinds — the simulated analogue of re-running WSDL2Java / the IDL
        compiler — and only then resumes calling.  The base implementation
        resolves immediately (a stack without documents has nothing to
        refresh).
        """
        deferred: Deferred = Deferred(f"rebind {replica.service}#{replica.index}")
        deferred.complete(None)
        return deferred

    def reset_replica(self, replica: "Replica") -> None:
        """Reset the transport connection to ``replica`` (timeout recovery).

        Called by the fleet driver when a per-attempt timeout expires: the
        hung request still owns a FIFO reply expectation on its connection,
        which must be abandoned before a retry so a late reply cannot
        mis-correlate.  The base implementation is a no-op (a third-party
        stack without connection state needs none).
        """


class SoapProtocolClient(ProtocolClient):
    """SOAP-over-HTTP client stack (WSDL description + envelope codec)."""

    def __init__(self, host: Host, index: int, replicas: Sequence["Replica"]) -> None:
        super().__init__(host, index, replicas)
        self._registries: dict[int, Any] = {}

    def _bind(self, replica_index: int, document: str):
        description = parse_wsdl(document)
        self.binding.bind(replica_index, description)
        self._registries[replica_index] = description.type_registry()
        return description

    def prepare_replica(self, replica: "Replica") -> None:
        self._bind(replica.index, self.fetch(replica.publisher.document_url))

    def call(self, replica: "Replica", operation: str, arguments: tuple[Any, ...]) -> Deferred:
        description = self.binding.bound[replica.index]
        registry = self._registries[replica.index]
        request = SoapRequest.for_call(
            operation, arguments, namespace=description.namespace, registry=registry
        )
        context = _obs_hooks.CONTEXT
        if context is not None:
            request.trace_context = context.encode()
        return self.http.request_async(
            "POST",
            description.endpoint_url,
            body=request.to_xml(),
            headers={"Content-Type": "text/xml; charset=utf-8"},
            decode=partial(_soap_response, registry),
        )

    def reset_replica(self, replica: "Replica") -> None:
        description = self.binding.bound.get(replica.index)
        if description is None:
            return
        address, _path = HttpClient.parse_url(description.endpoint_url)
        self.http.channel.reset(address)

    def rebind_replica(self, replica: "Replica") -> Deferred:
        def decode(response: HttpResponse):
            if not response.ok:
                raise MiddlewareError(
                    f"could not re-retrieve WSDL: HTTP {response.status}"
                )
            return self._bind(replica.index, response.body)

        return self.http.request_async("GET", replica.publisher.document_url, decode=decode)

    def classify(self, value: Any, error: BaseException | None) -> str:
        if error is not None:
            return OUTCOME_OTHER
        if not value.is_fault:
            return OUTCOME_SUCCESS
        if value.fault.is_non_existent_method:
            return OUTCOME_STALE
        if value.fault.is_server_not_initialized:
            return OUTCOME_NOT_INITIALIZED
        return OUTCOME_OTHER

    def result(self, value: Any) -> Any:
        return value.return_value

    def fault_text(self, value: Any, error: BaseException | None) -> str | None:
        return None if error is not None else str(value.fault)


class CorbaProtocolClient(ProtocolClient):
    """CORBA/GIOP client stack (IDL description + ORB remote references)."""

    def __init__(self, host: Host, index: int, replicas: Sequence["Replica"]) -> None:
        super().__init__(host, index, replicas)
        self.orb: ClientOrb | None = None
        self._remotes: dict[int, RemoteObjectReference] = {}

    def prepare_replica(self, replica: "Replica") -> None:
        document = self.fetch(replica.publisher.document_url)
        self.binding.bind(replica.index, parse_idl(document))
        if self.orb is None:
            self.orb = ClientOrb(self.host)
        ior_text = self.fetch(replica.publisher.ior_url)  # type: ignore[attr-defined]
        self._remotes[replica.index] = self.orb.string_to_object(ior_text.strip())

    def call(self, replica: "Replica", operation: str, arguments: tuple[Any, ...]) -> Deferred:
        return self._remotes[replica.index].invoke_async(operation, *arguments)

    def reset_replica(self, replica: "Replica") -> None:
        remote = self._remotes.get(replica.index)
        if remote is None or self.orb is None:
            return
        self.orb.channel.reset(Address(remote.ior.host, remote.ior.port))

    def rebind_replica(self, replica: "Replica") -> Deferred:
        # The IOR survives republication (the endpoint keeps its port), so a
        # rebind only refreshes the IDL document and the parsed description.
        def decode(response: HttpResponse):
            if not response.ok:
                raise MiddlewareError(
                    f"could not re-retrieve IDL: HTTP {response.status}"
                )
            description = parse_idl(response.body)
            self.binding.bind(replica.index, description)
            return description

        return self.http.request_async("GET", replica.publisher.document_url, decode=decode)

    def classify(self, value: Any, error: BaseException | None) -> str:
        if error is None:
            return OUTCOME_SUCCESS
        if isinstance(error, CorbaUserException) and error.type_name == EXC_NON_EXISTENT_METHOD:
            return OUTCOME_STALE
        if isinstance(error, CorbaUserException) and error.type_name == EXC_SERVER_NOT_INITIALIZED:
            return OUTCOME_NOT_INITIALIZED
        return OUTCOME_OTHER

    def fault_text(self, value: Any, error: BaseException | None) -> str | None:
        return str(error) if isinstance(error, CorbaUserException) else None


def _soap_response(registry: Any, response: HttpResponse) -> SoapResponse:
    """Decode one SOAP call's HTTP response with the bound types."""
    if not response.ok:
        raise MiddlewareError(f"SOAP endpoint returned HTTP {response.status}")
    return SoapResponse.from_xml(response.body, registry)


#: A protocol-client factory: ``(host, client_index, replicas) -> ProtocolClient``.
ProtocolClientFactory = Callable[[Host, int, Sequence["Replica"]], ProtocolClient]

_CLIENT_PROTOCOLS: dict[str, ProtocolClientFactory] = {
    "soap": SoapProtocolClient,
    "corba": CorbaProtocolClient,
}


def register_client_protocol(
    name: str, factory: ProtocolClientFactory, override: bool = False
) -> None:
    """Register a client-side stack for a (possibly third-party) technology."""
    if name in _CLIENT_PROTOCOLS and not override:
        raise ClusterError(f"client protocol {name!r} is already registered")
    _CLIENT_PROTOCOLS[name] = factory


def client_protocol_factory(name: str) -> ProtocolClientFactory:
    """The registered client-stack factory for ``name``."""
    factory = _CLIENT_PROTOCOLS.get(name)
    if factory is None:
        raise ClusterError(
            f"no client protocol {name!r}; registered: {sorted(_CLIENT_PROTOCOLS)}"
        )
    return factory


def registered_client_protocols() -> tuple[str, ...]:
    """Names of every globally registered client protocol."""
    return tuple(_CLIENT_PROTOCOLS)
