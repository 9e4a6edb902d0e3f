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

A stack built with a ``cost_model`` charges the client machine's own
processing (encoding before the request leaves, decoding after the reply
arrives, times ``speed_factor``) as delays on the call's deferred path —
how Table 1 models the paper's slower client machine.

Each stack owns one :class:`~repro.evolve.graph.ClientBinding`
(``stack.binding``): the description it bound per replica, which
version-aware routing reads and ``prepare_replica``/``rebind_replica``
replace.  The fleet driver drives the stacks asynchronously; the CDE's
:class:`~repro.core.cde.binding.DynamicClientBinding` drives one to
completion per call.

Each stack class names the technology it speaks (``technology``).  The
built-in ``soap`` and ``corba`` stacks are the read-only
:data:`BUILTIN_STACKS`; a third technology brings its stack with its one
registration, ``Scenario.technology(technology, client)``, which is how
the §5.3 extensibility claim is exercised at the Scenario level.  Each
scenario runtime looks its stacks up in one map with :func:`stack_factory`.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.core.sde.corba_handler import EXC_NON_EXISTENT_METHOD, EXC_SERVER_NOT_INITIALIZED
from repro.corba.idl import parse_idl
from repro.corba.orb import ClientOrb, RemoteObjectReference
from repro.errors import ClusterError, CorbaUserException, MiddlewareError
from repro.evolve.graph import ClientBinding
from repro.net.http import HttpClient, HttpResponse, PreparedRequest
from repro.net.latency import CostModel
from repro.net.simnet import Address, Host
from repro.net.transport import Deferred, Later
from repro.obs import hooks as _obs_hooks
from repro.rmitypes import TypeRegistry
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

    #: The technology the stack speaks, as CDE bindings report it; every
    #: stack names its own.
    technology: str

    def __init__(
        self,
        host: Host,
        index: int,
        replicas: Sequence["Replica"],
        cost_model: CostModel | None = None,
        speed_factor: float = 1.0,
    ) -> None:
        self.host = host
        self.index = index
        self.replicas = tuple(replicas)
        #: Client processing cost (``None`` charges nothing); the client
        #: machine is ``speed_factor`` times slower than the model's.
        self.cost_model = cost_model
        self.speed_factor = speed_factor
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
    """SOAP-over-HTTP client stack (WSDL description + envelope codec).

    Binding a replica's WSDL parses its endpoint URL, renders the POST's
    request line and headers and picks the reply decoder once; each call
    then frames its envelope's wire bytes with them.  With a cost model,
    ``text_processing`` of the request's wire bytes delays its send and
    that of the reply body delays the call's resolution.
    """

    technology = "soap"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Per bound replica: the namespace and types its calls are encoded
        #: with, the prepared POST and the reply decoder.
        self._endpoints: dict[
            int, tuple[str, TypeRegistry, PreparedRequest, Callable[[HttpResponse], Any]]
        ] = {}
        self._send = self.http.send_async if self.cost_model is None else self._send_charged

    def _bind(self, replica_index: int, document: str):
        description = parse_wsdl(document)
        self.binding.bind(replica_index, description)
        registry = description.type_registry()
        self._endpoints[replica_index] = (
            description.namespace,
            registry,
            self.http.prepare("POST", description.endpoint_url, _SOAP_HEADERS),
            partial(_soap_response, registry)
            if self.cost_model is None
            else partial(_charged_soap_response, registry, self._text_cost),
        )
        return description

    def _text_cost(self, size: int) -> float:
        """The client's cost of encoding or decoding ``size`` bytes of XML."""
        return self.cost_model.text_processing(size) * self.speed_factor  # type: ignore[union-attr]

    def _send_charged(
        self, post: PreparedRequest, wire: bytes, decode: Callable[[HttpResponse], Later]
    ) -> Deferred:
        return self.http.send_async(post, wire, decode, self._text_cost(len(wire)))

    def prepare_replica(self, replica: "Replica") -> None:
        self._bind(replica.index, self.fetch(replica.publisher.document_url))

    def call(self, replica: "Replica", operation: str, arguments: tuple[Any, ...]) -> Deferred:
        namespace, registry, post, decode = self._endpoints[replica.index]
        request = SoapRequest.for_call(operation, arguments, namespace=namespace, registry=registry)
        context = _obs_hooks.CONTEXT
        if context is not None:
            request.trace_context = context.encode()
        return self._send(post, request.to_wire(), decode)

    def reset_replica(self, replica: "Replica") -> None:
        endpoint = self._endpoints.get(replica.index)
        if endpoint is not None:
            self.http.channel.reset(endpoint[2].destination)

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
    """CORBA/GIOP client stack (IDL description + ORB remote references).

    A cost model goes to the stack's :class:`~repro.corba.orb.ClientOrb`,
    which charges marshalling before a request leaves and unmarshalling
    after its reply arrives.
    """

    technology = "corba"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.orb: ClientOrb | None = None
        self._remotes: dict[int, RemoteObjectReference] = {}

    def prepare_replica(self, replica: "Replica") -> None:
        document = self.fetch(replica.publisher.document_url)
        self.binding.bind(replica.index, parse_idl(document))
        if self.orb is None:
            self.orb = ClientOrb(self.host, self.cost_model, self.speed_factor)
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


#: The headers of every SOAP call's POST besides ``Host``.
_SOAP_HEADERS = {"Content-Type": "text/xml; charset=utf-8"}


def _soap_response(registry: TypeRegistry, response: HttpResponse) -> SoapResponse:
    """Decode one SOAP call's HTTP response with the bound types."""
    if not response.ok:
        raise MiddlewareError(f"SOAP endpoint returned HTTP {response.status}")
    return SoapResponse.from_xml(response.body, registry)


def _charged_soap_response(
    registry: TypeRegistry, cost: Callable[[int], float], response: HttpResponse
) -> Later:
    """:func:`_soap_response`, after the client's cost of decoding the body."""
    return Later(cost(len(response.body)), partial(_soap_response, registry, response))


#: A protocol-client factory: ``(host, client_index, replicas) -> ProtocolClient``
#: (the built-in stacks also take ``cost_model`` and ``speed_factor``).
ProtocolClientFactory = Callable[[Host, int, Sequence["Replica"]], ProtocolClient]

#: The built-in client stacks, by technology name.
BUILTIN_STACKS: Mapping[str, ProtocolClientFactory] = MappingProxyType(
    {stack.technology: stack for stack in (SoapProtocolClient, CorbaProtocolClient)}
)


def stack_factory(
    factories: Mapping[str, ProtocolClientFactory], name: str
) -> ProtocolClientFactory:
    """The client-stack factory for technology ``name`` in ``factories``."""
    factory = factories.get(name)
    if factory is None:
        raise ClusterError(f"no client stack for {name!r}; known: {sorted(factories)}")
    return factory
