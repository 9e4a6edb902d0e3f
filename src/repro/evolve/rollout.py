"""Rollout strategies: upgrade an N-replica fleet while clients keep calling.

An :class:`InterfaceUpgrade` describes *what* changes (operations added,
removed, or replaced in place); a :class:`RolloutController` decides *when*
each replica takes it:

* **rolling** — replicas upgrade in index-order batches of ``batch_size``;
  after each batch's publication completes the controller drains for
  ``drain`` virtual seconds before starting the next wave;
* **canary** — a fraction of the replicas upgrades first; after
  ``promote_after`` seconds without an abort, the rest follow;
* **abort** — at any point the rollout can be aborted: pending waves are
  cancelled and every already-upgraded replica is rolled back to its
  pre-upgrade interface (the inverse edits are re-applied and republished).

The controller is an ordinary deterministic state machine on the world's
event scheduler, so rollouts compose with everything else a scenario does:
hundreds of clients keep calling mid-wave (the §5.7 stall protocol covers
calls that land while a wave's generation is running), and
:mod:`repro.faults` crashes compose deterministically — a wave replica
whose node is down is *deferred* and the controller polls until the node
restarts, upgrades it, and only then completes (crash mid-rollout →
deterministic resume), unless an abort turns the rollout into a rollback.

Each wave is classified by the diff engine from what the replicas actually
*published* — each replica's published description before and after the
wave is compared with :func:`~repro.evolve.diff.diff_descriptions` (its
published WSDL/IDL document is rendered from that description, for every
technology alike) — and everything is recorded in a :class:`RolloutReport`
that the fleet driver folds into the run's
:class:`~repro.cluster.report.ClusterReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.errors import RolloutError
from repro.interface import InterfaceDescription
from repro.obs import hooks as _obs_hooks
from repro.evolve.diff import (
    CLASS_BREAKING,
    CLASS_COMPATIBLE,
    CLASS_IDENTICAL,
    InterfaceDelta,
    diff_descriptions,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.registry import Replica, ServiceEntry
    from repro.cluster.scenario import OperationSpec, ScenarioRuntime

STRATEGY_ROLLING = "rolling"
STRATEGY_CANARY = "canary"

#: Controller states (the rollout state machine, see ARCHITECTURE.md).
STATE_RUNNING = "running"
STATE_ROLLING_BACK = "rolling-back"
STATE_COMPLETED = "completed"
STATE_ABORTED = "aborted"


@dataclass(frozen=True)
class InterfaceUpgrade:
    """What one upgrade does to a service interface.

    ``add`` lists operations to introduce (an operation spec whose name a
    replica already has *replaces* that operation in place — a signature
    change); ``remove`` lists operation names to retire; ``successors``
    maps a retired operation to the one a rebinding client should call
    instead (how new stubs encode "``echo`` became ``echo_v2``").
    """

    add: tuple["OperationSpec", ...] = ()
    remove: tuple[str, ...] = ()
    successors: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.add and not self.remove:
            raise RolloutError("an InterfaceUpgrade must add or remove operations")


def upgrade(
    add: Iterable["OperationSpec"] = (),
    remove: Iterable[str] = (),
    successors: Mapping[str, str] | None = None,
) -> InterfaceUpgrade:
    """Describe an interface upgrade (`rolling`/`canary` helper)."""
    return InterfaceUpgrade(tuple(add), tuple(remove), dict(successors or {}))


@dataclass
class WaveReport:
    """One upgrade wave: which replicas, when, and what actually changed."""

    index: int
    #: Immutable indexes of the replicas this wave upgraded.
    replicas: tuple[int, ...]
    started_at: float
    #: Virtual time the wave's publications completed (None while in flight).
    published_at: float | None = None
    #: Typed old→new delta per upgraded replica, classified by the diff
    #: engine from the actually-published documents.
    deltas: tuple[InterfaceDelta, ...] = ()

    @property
    def duration(self) -> float | None:
        """Edit-to-published seconds for this wave (None while in flight)."""
        if self.published_at is None:
            return None
        return self.published_at - self.started_at


@dataclass
class RolloutReport:
    """Everything one rollout did and what the fleet observed meanwhile."""

    service: str
    strategy: str
    started_at: float
    finished_at: float | None = None
    aborted: bool = False
    rolled_back: bool = False
    waves: list[WaveReport] = field(default_factory=list)
    #: Replicas found crashed at their wave and upgraded later, on resume.
    deferred_resumes: int = 0
    #: Calls completed against the service while the rollout was active.
    calls_during: int = 0
    #: §5.7 stale faults observed against the service during the rollout.
    stale_faults_during: int = 0
    #: Client rebinds (stub refresh after a stale fault) during the rollout.
    rebinds_during: int = 0

    @property
    def completed(self) -> bool:
        """True once the rollout reached a terminal state inside a run."""
        return self.finished_at is not None

    @property
    def duration(self) -> float | None:
        """First-wave-start to terminal-state seconds (None while active)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def classification(self) -> str:
        """``breaking`` if any wave's published delta was; else compatible."""
        deltas = [delta for wave in self.waves for delta in wave.deltas]
        if any(not delta.compatible for delta in deltas):
            return CLASS_BREAKING
        if any(not delta.empty for delta in deltas):
            return CLASS_COMPATIBLE
        return CLASS_IDENTICAL

    @property
    def stale_fault_rate(self) -> float:
        """Stale faults per completed call inside the rollout window."""
        if self.calls_during == 0:
            return 0.0
        return self.stale_faults_during / self.calls_during


@dataclass(frozen=True)
class _CapturedOperation:
    """A removed operation, captured so an abort can restore it exactly."""

    name: str
    parameters: tuple
    return_type: Any
    body: Any


def check_rollout_arguments(
    change: InterfaceUpgrade, retry_interval: float, batch_size: int = 1
) -> None:
    """Raise :class:`RolloutError` for a change that is not an
    :class:`InterfaceUpgrade`, a batch size below 1 or a retry interval
    that is not positive."""
    if not isinstance(change, InterfaceUpgrade):
        raise RolloutError(f"a rollout's change must be an InterfaceUpgrade, got {change!r}")
    if batch_size < 1:
        raise RolloutError("batch_size must be at least 1")
    if retry_interval <= 0:
        raise RolloutError("retry_interval must be positive")


class RolloutController:
    """Drive one upgrade across a service's replicas, wave by wave."""

    def __init__(
        self,
        runtime: "ScenarioRuntime",
        service: str,
        change: InterfaceUpgrade,
        strategy: str = STRATEGY_ROLLING,
        batch_size: int = 1,
        drain: float = 0.0,
        fraction: float = 0.25,
        promote_after: float = 0.5,
        retry_interval: float = 0.05,
    ) -> None:
        check_rollout_arguments(change, retry_interval, batch_size)
        self.runtime = runtime
        self.scheduler = runtime.world.scheduler
        self.entry: "ServiceEntry" = runtime.registry.lookup(service)
        self.upgrade = change
        self.strategy = strategy
        self.drain = drain
        self.retry_interval = retry_interval
        replicas = list(self.entry.replicas)
        if strategy == STRATEGY_CANARY:
            canary_count = min(len(replicas), max(1, round(fraction * len(replicas))))
            self._queue = [replicas[:canary_count]]
            if replicas[canary_count:]:
                self._queue.append(replicas[canary_count:])
            self.drain = promote_after
        else:
            self._queue = [
                replicas[start : start + batch_size]
                for start in range(0, len(replicas), batch_size)
            ]
        #: Wave replicas found crashed, to be upgraded when they restart.
        self._deferred: list["Replica"] = []
        #: Per-replica inverse-edit log, applied in reverse on rollback.
        self._rollback_log: dict[int, list[tuple[str, Any]]] = {}
        self._abort_requested = False
        #: True while a wave's publication is in flight on the scheduler.
        self._busy = False
        self.state = STATE_RUNNING
        self._epoch = runtime.run_epoch
        self.report = RolloutReport(
            service=self.entry.name,
            strategy=strategy,
            started_at=self.scheduler.now,
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "RolloutController":
        """Arm version-aware routing and begin the first wave."""
        entry = self.entry
        existing = entry.active_rollout
        if existing is not None and existing._stale():
            existing = entry.active_rollout  # the stale controller detached
        if existing is not None:
            raise RolloutError(
                f"service {entry.name!r} already has an active rollout"
            )
        entry.active_rollout = self
        entry.rollout_history.append(self.report)
        entry.version_routing = True
        for old_name, new_name in self.upgrade.successors.items():
            entry.operation_successors[old_name] = new_name
        self._begin_wave()
        return self

    def abort(self) -> None:
        """Stop the rollout; already-upgraded replicas roll back."""
        if self.state != STATE_RUNNING:
            return
        self._abort_requested = True
        if not self._busy:
            self._rollback()

    # -- fleet-driver hooks (rollout-window observability) --------------------

    def note_call(self, outcome: str) -> None:
        """Count one completed call against the service while active."""
        if self._stale() or self.state in (STATE_COMPLETED, STATE_ABORTED):
            return
        self.report.calls_during += 1
        if outcome == "stale":
            self.report.stale_faults_during += 1

    def note_rebind(self) -> None:
        """Count one client rebind while active."""
        if self._stale() or self.state in (STATE_COMPLETED, STATE_ABORTED):
            return
        self.report.rebinds_during += 1

    # -- the wave machine -----------------------------------------------------

    def _stale(self) -> bool:
        """True once a later run() started: this rollout's window is over.

        A stale controller also detaches itself from the entry, so a
        rollout cut off by a run deadline neither keeps mutating its
        (already returned) report through the driver hooks nor blocks a
        later run from starting a fresh rollout on the service.
        """
        if self.runtime.run_epoch == self._epoch:
            return False
        if self.entry.active_rollout is self:
            self.entry.active_rollout = None
        return True

    def _begin_wave(self) -> None:
        if self._stale() or self.state != STATE_RUNNING:
            return
        if self._abort_requested:
            self._rollback()
            return
        targets: list["Replica"] = []
        # Deferred replicas whose node restarted resume ahead of new waves,
        # so a crash never reorders the index-order upgrade sequence for
        # replicas that come back in time.
        still_down: list["Replica"] = []
        for replica in self._deferred:
            if replica.alive:
                targets.append(replica)
                self.report.deferred_resumes += 1
            else:
                still_down.append(replica)
        self._deferred = still_down
        if not targets and self._queue:
            for replica in self._queue.pop(0):
                if replica.alive:
                    targets.append(replica)
                else:
                    self._deferred.append(replica)
        if not targets:
            if self._queue or self._deferred:
                # Everything reachable right now is crashed: poll until a
                # restart makes progress possible (deterministic resume).
                self.scheduler.schedule(self.retry_interval, self._begin_wave)
                return
            self._finish(STATE_COMPLETED)
            return

        wave = WaveReport(
            index=len(self.report.waves),
            replicas=tuple(replica.index for replica in targets),
            started_at=self.scheduler.now,
        )
        self.report.waves.append(wave)
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.instant(
                "rollout.wave",
                service=self.entry.name,
                wave=wave.index,
                replicas=wave.replicas,
            )
        before = {
            replica.index: replica.publisher.published_description
            for replica in targets
        }
        for replica in targets:
            self._apply_upgrade(replica)
        self._busy = True
        # The forced publications above complete after each node's generation
        # cost; this event is scheduled after them at the same instant, so
        # the wave check observes the freshly published documents.
        cost = max(
            replica.node.sde.config.generation_cost for replica in targets
        )
        self.scheduler.schedule(cost, self._wave_published, wave, tuple(targets), before)

    def _wave_published(
        self,
        wave: WaveReport,
        targets: tuple["Replica", ...],
        before: dict[int, InterfaceDescription],
    ) -> None:
        self._busy = False
        if self._stale() or self.state != STATE_RUNNING:
            return
        wave.published_at = self.scheduler.now
        wave.deltas = tuple(
            diff_descriptions(before[replica.index], replica.publisher.published_description)
            for replica in targets
        )
        if self._abort_requested:
            self._rollback()
            return
        if self._queue or self._deferred:
            self.scheduler.schedule(max(self.drain, 0.0), self._begin_wave)
            return
        self._finish(STATE_COMPLETED)

    # -- applying and reverting the upgrade -----------------------------------

    def _apply_upgrade(self, replica: "Replica") -> None:
        dynamic_class = replica.managed.dynamic_class
        log = self._rollback_log.setdefault(replica.index, [])
        for name in self.upgrade.remove:
            if dynamic_class.has_method(name):
                log.append(("removed", self._capture(dynamic_class.method(name))))
                dynamic_class.remove_method(name)
        for spec in self.upgrade.add:
            if dynamic_class.has_method(spec.name):
                # Same name, new signature: an in-place replacement.
                log.append(("removed", self._capture(dynamic_class.method(spec.name))))
                dynamic_class.remove_method(spec.name)
            dynamic_class.add_method(
                spec.name,
                spec.parameter_objects(),
                spec.return_type,
                body=spec.body,
                distributed=True,
            )
            log.append(("added", spec.name))
        replica.node.manager_interface.force_publication(replica.class_name)

    @staticmethod
    def _capture(method: Any) -> _CapturedOperation:
        return _CapturedOperation(
            name=method.name,
            parameters=tuple(method.parameters),
            return_type=method.return_type,
            body=method.body,
        )

    def _rollback(self) -> None:
        self.state = STATE_ROLLING_BACK
        self.report.aborted = True
        touched: list["Replica"] = [
            replica
            for replica in self.entry.replicas
            if self._rollback_log.get(replica.index)
        ]
        for replica in touched:
            dynamic_class = replica.managed.dynamic_class
            for kind, payload in reversed(self._rollback_log[replica.index]):
                if kind == "added":
                    if dynamic_class.has_method(payload):
                        dynamic_class.remove_method(payload)
                else:
                    captured: _CapturedOperation = payload
                    if not dynamic_class.has_method(captured.name):
                        dynamic_class.add_method(
                            captured.name,
                            captured.parameters,
                            captured.return_type,
                            body=captured.body,
                            distributed=True,
                        )
            replica.node.manager_interface.force_publication(replica.class_name)
        # The retired names are live again: stop redirecting to successors
        # this rollout never delivered, and *invert* the mapping so clients
        # that already crossed to the new interface walk back to the old
        # operation on their next rebind instead of being stranded.
        for old_name, new_name in self.upgrade.successors.items():
            if self.entry.operation_successors.get(old_name) == new_name:
                del self.entry.operation_successors[old_name]
            self.entry.operation_successors[new_name] = old_name
        if touched:
            cost = max(
                replica.node.sde.config.generation_cost for replica in touched
            )
            self.scheduler.schedule(cost, self._finish, STATE_ABORTED)
        else:
            self._finish(STATE_ABORTED)

    def _finish(self, state: str) -> None:
        if self._stale() and self.report.finished_at is None:
            # A later run started before this one's terminal event fired;
            # leave the report visibly unfinished for that window.
            return
        self.state = state
        if state == STATE_ABORTED:
            self.report.rolled_back = bool(
                any(self._rollback_log.get(r.index) for r in self.entry.replicas)
            )
        self.report.finished_at = self.scheduler.now
        if self.entry.active_rollout is self:
            self.entry.active_rollout = None
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.instant(
                "rollout.finished", service=self.entry.name, state=state
            )

    def __repr__(self) -> str:
        return (
            f"RolloutController({self.entry.name!r}, {self.strategy}, "
            f"state={self.state}, waves={len(self.report.waves)})"
        )
