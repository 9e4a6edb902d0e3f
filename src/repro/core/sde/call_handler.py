"""Technology-independent RMI call handling (§5.1.3 / §5.2.3 / §5.7).

The SOAP and CORBA call handlers share all of their interesting behaviour:

* before any instance of the gateway subclass exists, every call is answered
  with a "Server not initialized" fault;
* once an instance exists, incoming calls are matched against the *live*
  distributed interface of the dynamic class and invoked on that instance;
* application exceptions are wrapped and returned as faults;
* calls to stale methods (name no longer present, or signature no longer
  matching) trigger the §5.7 protocol: the handler **stalls** the processing
  of incoming messages, asks the SDE Manager to bring the published interface
  up to date, and only then returns the "Non existent Method" fault — always
  (Figure 7's naive publishing is only :mod:`repro.core.protocol.interleaving`).

The technology-specific subclasses translate between the wire format and
:meth:`CallHandler.dispatch`, which reports its outcome through the
:class:`DispatchOutcome` callbacks so replies can be deferred while the
publisher catches up.  Most calls report before ``dispatch`` returns; the
SOAP and CORBA handlers then encode the reply in that same frame and create
a deferred only for a call a §5.7 stall holds back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    MalformedRequestError,
    NonExistentMethodError,
    ServerNotInitializedError,
    SignatureError,
)
from repro.interface import OperationSignature
from repro.jpie.dynamic_class import DynamicClass
from repro.jpie.dynamic_instance import DynamicInstance
from repro.obs import hooks as _obs_hooks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sde.manager import ManagedServer, SDEManager


@dataclass
class CallStats:
    """Counters kept by every call handler."""

    application_faults: int = 0
    not_initialized_faults: int = 0
    non_existent_method_faults: int = 0
    malformed_requests: int = 0
    stalled_calls: int = 0
    queued_while_stalled: int = 0
    #: Deepest the §5.7 stall queue ever got (multi-client scaling metric).
    max_stall_queue_depth: int = 0


class DispatchOutcome:
    """Where one dispatched call reports: a technology handler subclasses
    this with a per-call reply object.

    Exactly one of :meth:`on_result`/:meth:`on_fault` is called, once;
    :meth:`CallHandler.dispatch` sets :attr:`operation`.
    """

    operation = ""

    def on_result(self, value: Any, signature: OperationSignature) -> None:
        raise NotImplementedError

    def on_fault(self, error: BaseException) -> None:
        raise NotImplementedError


class CallHandler:
    """Base class of the SOAP and CORBA call handlers."""

    def __init__(self, manager: "SDEManager", server: "ManagedServer") -> None:
        self.manager = manager
        self.server = server
        self.active_instance: DynamicInstance | None = None
        self.stats = CallStats()
        self._stalled = False
        self._stall_queue: list[Callable[[], None]] = []

    # -- lifecycle (overridden by technology handlers) ----------------------

    @property
    def endpoint_url(self) -> str:
        """The endpoint address advertised in the published interface."""
        raise NotImplementedError

    def start(self) -> None:
        """Bind the communication endpoint."""
        raise NotImplementedError

    def stop(self) -> None:
        """Unbind the communication endpoint."""
        raise NotImplementedError

    # -- activation (§5.1.3, §5.4) ----------------------------------------------

    @property
    def active(self) -> bool:
        """True once an instance of the gateway subclass exists."""
        return self.active_instance is not None

    def activate(self, instance: DynamicInstance) -> None:
        """Attach the (single) live instance calls are invoked upon."""
        self.active_instance = instance

    @property
    def dynamic_class(self) -> DynamicClass:
        """The managed dynamic server class."""
        return self.server.dynamic_class

    # -- the common dispatch logic -------------------------------------------------

    def dispatch(self, operation: str, arguments: tuple[Any, ...], outcome: DispatchOutcome) -> None:
        """Process one incoming call, reporting through ``outcome``.

        While a §5.7 stall is in effect, further calls are queued and
        processed in arrival order once the stall resolves ("stalls the
        processing of incoming messages").
        """
        outcome.operation = operation
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.server_dispatch(self, operation, outcome)
        if self._stalled:
            self.stats.queued_while_stalled += 1
            self._stall_queue.append(lambda: self._process(operation, arguments, outcome))
            self.stats.max_stall_queue_depth = max(
                self.stats.max_stall_queue_depth, len(self._stall_queue)
            )
            return
        self._process(operation, arguments, outcome)

    def _process(self, operation: str, arguments: tuple[Any, ...], outcome: DispatchOutcome) -> None:
        if self.active_instance is None:
            self.stats.not_initialized_faults += 1
            outcome.on_fault(ServerNotInitializedError("Server not initialized"))
            return

        # Only the class's own distributed methods are served, as in
        # :meth:`~repro.jpie.dynamic_class.DynamicClass.distributed_methods`.
        method = self.server.dynamic_class._methods.get(operation)
        if method is None or not method.is_distributed:
            self._handle_stale_call(operation, outcome)
            return

        try:
            result = method.invoke(self.active_instance, *arguments)
        except SignatureError:
            # The arity or the argument types do not fit the method's current
            # signature: from the client's point of view the method it knew
            # about no longer exists.
            self._handle_stale_call(operation, outcome)
            return
        except Exception as exc:  # noqa: BLE001 - becomes an application fault
            self.stats.application_faults += 1
            outcome.on_fault(exc)
            return
        outcome.on_result(result, method.signature())

    @property
    def stall_queue_depth(self) -> int:
        """Calls currently queued behind a §5.7 stall."""
        return len(self._stall_queue)

    @property
    def stalled(self) -> bool:
        """True while a §5.7 stall is in effect."""
        return self._stalled

    # -- §5.7: stale calls -----------------------------------------------------------

    def _handle_stale_call(self, operation: str, outcome: DispatchOutcome) -> None:
        self.stats.stalled_calls += 1
        self._stalled = True

        def after_publication() -> None:
            self.stats.non_existent_method_faults += 1
            version = self.server.publisher.version
            outcome.on_fault(NonExistentMethodError(operation, version))
            self._resume()

        self.manager.ensure_interface_current(self.server, after_publication)

    def _resume(self) -> None:
        self._stalled = False
        queued, self._stall_queue = self._stall_queue, []
        for pending in queued:
            if self._stalled:
                # A queued call hit the stale path again; re-queue the rest.
                self._stall_queue.extend(queued[queued.index(pending) + 1 :])
                break
            pending()

    # -- malformed requests ---------------------------------------------------------------

    def note_malformed_request(self, detail: str) -> MalformedRequestError:
        """Record a malformed incoming request and build the error for it."""
        self.stats.malformed_requests += 1
        return MalformedRequestError(detail)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.dynamic_class.name!r}, "
            f"active={self.active}, stalled={self.stats.stalled_calls})"
        )
