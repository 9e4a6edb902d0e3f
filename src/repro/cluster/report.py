"""Unified result objects for cluster scenario runs.

One :class:`ClusterReport` describes everything a scenario run observed,
across every protocol in play:

* call outcomes — one :class:`Outcomes` taxonomy (successes, §5.7 stale
  faults, failed/retried/abandoned calls, §6 recency violations,
  rebinds) shared by each discrete :class:`ClientReport` and each cohort
  flow's :class:`CohortReport`, and summed per population by
  :meth:`ClusterReport.outcomes` (``"discrete"``, ``"modeled"`` or
  ``"all"``);
* per-client RTT sequences and the replica each call was routed to;
* per-service / per-replica server-side accounting
  (:class:`ServiceReport` / :class:`ReplicaReport`) — §5.7 stall-queue
  numbers, transport connection and reply counters, and publication
  metrics (versions published during the run, forced and stale-call
  publications);
* per-server-machine CPU accounting (:class:`NodeReport`) when the node
  runs with a bounded core count.

All counters are *per run*: the fleet driver snapshots the underlying
lifetime statistics before the measured window and reports deltas, so
repeated runs against one world do not bleed into each other.

Cohort flows (``clients(1_000_000, cohort=...)``) record RTTs in a
streaming :class:`~repro.cluster.histogram.LatencyHistogram` plus exact
sum/max instead of per-call floats, so a million modeled clients cost
kilobytes of report, not gigabytes.  Discrete RTT percentiles are exact
(per-sample, linear interpolation, :func:`percentile`): discrete clients
keep one float per call anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Sequence

from repro.cluster.histogram import LatencyHistogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evolve.rollout import RolloutReport

#: The percentile levels every per-service / fleet-wide summary reports.
PERCENTILE_LEVELS = (50.0, 95.0, 99.0)


def percentile(values: Sequence[float], level: float) -> float:
    """The ``level``-th percentile of ``values`` (linear interpolation).

    Deterministic and dependency-free.  An empty sample returns 0.0 —
    matching the mean/max conventions of the report objects — so a
    scenario that completed zero calls (a deadline cut the run before the
    first reply, every call abandoned, ...) reports cleanly instead of
    raising; ``tests/cluster/test_report.py`` pins this down.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (level / 100.0)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def rtt_percentiles(values: Sequence[float]) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` for one RTT sample.

    Like :func:`percentile`, safe on an empty sample (all levels 0.0).
    """
    return {
        f"p{level:g}": percentile(values, level) for level in PERCENTILE_LEVELS
    }


@dataclass(kw_only=True)
class Outcomes:
    """The §5.7/§6 outcome taxonomy of one population's calls.

    Both :class:`ClientReport` (one discrete client, each call counting
    once) and :class:`CohortReport` (a flow, each count a modeled client's
    call) are ``Outcomes``; :meth:`ClusterReport.outcomes` sums them per
    population.  RTTs stay on the reports: exact per-call lists for
    discrete clients, a streaming histogram for flows.
    """

    successes: int = 0
    #: §5.7 stale ("Non existent Method") faults.
    stale_faults: int = 0
    not_initialized_faults: int = 0
    #: Unclassified faults: silent wrong answers / protocol errors.
    other_faults: int = 0
    #: Attempts that failed at the transport level (connection aborted by a
    #: crash, no alive or reachable replica, per-attempt timeout).
    failed_attempts: int = 0
    #: Calls reissued after a failed attempt (failover retries).
    retried_calls: int = 0
    #: Calls given up after the retry budget was exhausted (no RTT recorded).
    abandoned_calls: int = 0
    #: §6 recency violations: replies from a replica whose published
    #: interface version (a simulation probe of server state at reply time,
    #: not a wire field) is *older* than one this client or flow already
    #: observed for the service.  Coordinated publication keeps it at 0
    #: across crashes, restarts and failover, and version-aware routing
    #: does across rollouts; uncoordinated per-replica publication is
    #: flagged (the engineered-violation test in ``tests/faults``).
    recency_violations: int = 0
    #: Stub refreshes after a §5.7 stale fault under version-aware routing
    #: (the client re-fetched a replica's interface document and re-bound —
    #: the observable signature of a breaking upgrade reaching this client).
    rebinds: int = 0

    @property
    def answered(self) -> int:
        """Calls that got an answer: results plus explicit protocol faults."""
        return self.successes + self.stale_faults + self.not_initialized_faults

    @property
    def calls(self) -> int:
        """Calls that ran to completion, right or wrong."""
        return self.answered + self.other_faults

    @property
    def issued(self) -> int:
        """Calls issued: completed plus abandoned."""
        return self.calls + self.abandoned_calls

    @staticmethod
    def total(parts: Sequence["Outcomes"]) -> "Outcomes":
        """Every counter summed over ``parts``."""
        return Outcomes(
            **{name: sum(getattr(part, name) for part in parts) for name in OUTCOME_FIELDS}
        )

    def __add__(self, other: "Outcomes") -> "Outcomes":
        return Outcomes.total((self, other))


#: The counters every :class:`Outcomes` carries, in declaration order.
OUTCOME_FIELDS = tuple(entry.name for entry in fields(Outcomes))


@dataclass
class ClientReport(Outcomes):
    """What one fleet client observed: its outcomes, RTT sequence,
    protocol, target service and per-call replica routing."""

    name: str
    rtts: list[float] = field(default_factory=list)
    protocol: str = ""
    service: str = ""
    #: Replica index (within the service) each call was routed to, in call order.
    replica_sequence: list[int] = field(default_factory=list)

    def fingerprint(self) -> tuple:
        """Hashable snapshot of everything this client observed.

        Per-call RTTs and the routing sequence are included verbatim, so
        two fingerprints compare equal only when the runs were
        byte-identical for this client.
        """
        return (
            self.name,
            self.protocol,
            self.service,
            tuple(self.rtts),
            self.successes,
            self.stale_faults,
            self.not_initialized_faults,
            self.other_faults,
            tuple(self.replica_sequence),
            self.failed_attempts,
            self.retried_calls,
            self.abandoned_calls,
            self.recency_violations,
            self.rebinds,
        )

    @property
    def mean_rtt(self) -> float:
        """Mean round-trip time over this client's calls."""
        return sum(self.rtts) / len(self.rtts) if self.rtts else 0.0

    @property
    def max_rtt(self) -> float:
        """Worst round-trip time this client saw."""
        return max(self.rtts) if self.rtts else 0.0


@dataclass
class CohortReport(Outcomes):
    """Aggregate accounting for one cohort flow (the modeled client mass).

    The :class:`Outcomes` counters are *client-call* counts (a flow call
    models one client's call; flows only ever succeed or fault stale),
    RTTs live in a streaming histogram plus exact sum/max, and routing is
    recorded per replica index.  Everything here is byte-deterministic —
    two runs of the same scenario produce identical :meth:`fingerprint`
    values.
    """

    name: str
    protocol: str
    service: str
    #: Clients modeled analytically by this flow (excludes representatives).
    modeled_clients: int
    #: Calls each modeled client issues over the run.
    calls_per_client: int = 0
    #: Flow ticks executed (arrival batches injected).
    ticks: int = 0
    #: Modeled calls routed per replica index.
    replica_calls: dict[int, int] = field(default_factory=dict)
    #: Streaming RTT accounting for the modeled calls.
    rtt: LatencyHistogram = field(default_factory=LatencyHistogram)
    rtt_sum: float = 0.0
    rtt_max: float = 0.0
    #: Per-call baseline measured by the calibration probe (uncontended
    #: RTT and server CPU cost of one real call through the full stack).
    calibrated_rtt_s: float = 0.0
    calibrated_cpu_cost_s: float = 0.0

    @property
    def mean_rtt(self) -> float:
        """Mean modeled round-trip time."""
        return self.rtt_sum / self.rtt.count if self.rtt.count else 0.0

    def rtt_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 of the modeled calls (histogram resolution)."""
        return self.rtt.percentiles()

    def fingerprint(self) -> tuple:
        """Hashable snapshot of every counter, for determinism asserts."""
        return (
            self.name,
            self.protocol,
            self.service,
            self.modeled_clients,
            self.calls_per_client,
            self.successes,
            self.stale_faults,
            self.failed_attempts,
            self.retried_calls,
            self.abandoned_calls,
            self.recency_violations,
            self.rebinds,
            self.ticks,
            tuple(sorted(self.replica_calls.items())),
            self.rtt.fingerprint(),
            self.rtt_sum,
            self.rtt_max,
        )


@dataclass
class ReplicaReport:
    """Server-side accounting for one replica of a service, for one run."""

    service: str
    index: int
    #: Name of the server host this replica runs on.
    node: str
    #: The managed dynamic-class name backing this replica.
    class_name: str
    #: Calls the routing policy sent to this replica during the run.
    calls_routed: int = 0
    stalled_calls: int = 0
    queued_while_stalled: int = 0
    max_stall_queue_depth: int = 0
    #: Transport connections this run's fleet opened to the replica.
    connections: int = 0
    replies_sent: int = 0
    #: Interface publications that happened during the run (any cause).
    publications: int = 0
    forced_publications: int = 0
    stale_call_publications: int = 0
    #: Published interface version when the run finished.
    interface_version: int = 0
    #: Seconds of the measured window this replica's node was crashed.
    downtime_s: float = 0.0
    #: Completed calls keyed by the interface version this replica was
    #: publishing when each reply was classified — during a rollout the
    #: mixed-version traffic shows up here, per replica.
    calls_by_version: dict[int, int] = field(default_factory=dict)


@dataclass
class ServiceReport:
    """Aggregate server-side view of one service across its replicas."""

    name: str
    technology: str
    policy: str
    replicas: list[ReplicaReport] = field(default_factory=list)

    @property
    def replica_count(self) -> int:
        """Number of replicas serving this service."""
        return len(self.replicas)

    @property
    def calls_routed(self) -> int:
        """Calls routed to this service across all replicas."""
        return sum(replica.calls_routed for replica in self.replicas)

    @property
    def stalled_calls(self) -> int:
        """§5.7 stalled calls across all replicas."""
        return sum(replica.stalled_calls for replica in self.replicas)

    @property
    def queued_while_stalled(self) -> int:
        """Calls that queued behind a stall across all replicas."""
        return sum(replica.queued_while_stalled for replica in self.replicas)

    @property
    def max_stall_queue_depth(self) -> int:
        """Deepest stall queue any replica saw during the run."""
        return max(
            (replica.max_stall_queue_depth for replica in self.replicas), default=0
        )

    @property
    def connections(self) -> int:
        """Transport connections opened to this service during the run."""
        return sum(replica.connections for replica in self.replicas)

    @property
    def replies_sent(self) -> int:
        """Replies this service's endpoints sent during the run."""
        return sum(replica.replies_sent for replica in self.replicas)

    @property
    def publications(self) -> int:
        """Interface publications across all replicas during the run."""
        return sum(replica.publications for replica in self.replicas)

    @property
    def interface_version(self) -> int:
        """Highest published interface version across the replicas."""
        return max((replica.interface_version for replica in self.replicas), default=0)

    @property
    def calls_by_version(self) -> dict[int, int]:
        """Completed calls per published interface version, service-wide."""
        merged: dict[int, int] = {}
        for replica in self.replicas:
            for version, calls in replica.calls_by_version.items():
                merged[version] = merged.get(version, 0) + calls
        return dict(sorted(merged.items()))


@dataclass
class NodeReport:
    """Bounded-CPU accounting for one server machine, for one run."""

    name: str
    #: Configured core count (``None`` = unbounded, the seed model).
    cores: int | None = None
    busy_seconds: float = 0.0
    waited_seconds: float = 0.0
    max_core_wait: float = 0.0
    #: Crash→restart episodes that overlapped the measured window.
    outages: int = 0
    #: Seconds of the measured window this machine was crashed.
    downtime_s: float = 0.0
    #: Restore → first-successful-reply latency of the latest completed
    #: outage (``None`` when the node never recovered inside the window).
    recovery_latency_s: float | None = None


@dataclass
class ClusterReport:
    """Everything one scenario run observed, across services and protocols."""

    started_at: float
    finished_at: float
    clients: list[ClientReport] = field(default_factory=list)
    services: list[ServiceReport] = field(default_factory=list)
    nodes: list[NodeReport] = field(default_factory=list)
    #: Rollouts (:class:`~repro.evolve.rollout.RolloutReport`) that started
    #: inside the measured window, with wave durations, per-window call /
    #: stale-fault / rebind counters and the diff engine's classification.
    rollouts: "list[RolloutReport]" = field(default_factory=list)
    #: Scheduler events dispatched inside the measured window — a fully
    #: deterministic proxy for how much simulated work the run performed.
    events_dispatched: int = 0
    #: One :class:`CohortReport` per cohort flow (empty for discrete-only
    #: scenarios).  The RTT aggregates (``all_rtts``, ``rtt_percentiles``,
    #: ...) cover discrete clients only; ``outcomes(kind)`` names its
    #: population.
    cohorts: list[CohortReport] = field(default_factory=list)
    #: Sampled time-series gauges (:class:`repro.obs.MetricsReport`) when the
    #: run had observability metrics on, else ``None``.  Deliberately *not*
    #: part of :meth:`fingerprint`, so arming observability can never change
    #: a scenario's report fingerprint; the series carry their own
    #: :meth:`~repro.obs.MetricsReport.fingerprint`.
    metrics: "Any | None" = field(default=None, compare=False)
    #: Declarative SLO verdicts (:class:`repro.obs.slo.SLOResult`) when the
    #: run's :class:`~repro.obs.ObsConfig` declared objectives, else empty.
    #: Derived entirely from ``metrics``, so — like it — excluded from
    #: :meth:`fingerprint`.
    slo_results: "list[Any]" = field(default_factory=list, compare=False)

    # -- lookups ------------------------------------------------------------

    def metrics_fingerprint(self) -> "str | None":
        """Digest of the sampled metrics series, or None without metrics.

        ``metrics`` is deliberately outside :meth:`fingerprint`; this is
        the direct handle for asserting the series themselves are
        byte-deterministic run-to-run.
        """
        return self.metrics.fingerprint() if self.metrics is not None else None

    def slo(self, name: str) -> Any:
        """The :class:`~repro.obs.slo.SLOResult` for the named objective."""
        for result in self.slo_results:
            if result.name == name:
                return result
        raise KeyError(f"no SLO {name!r} in this report")

    def service(self, name: str) -> ServiceReport:
        """The report for the named service."""
        for entry in self.services:
            if entry.name == name:
                return entry
        raise KeyError(f"no service {name!r} in this report")

    def rollouts_for(self, service: str) -> "list[RolloutReport]":
        """The window's rollouts that targeted ``service``, in start order."""
        return [rollout for rollout in self.rollouts if rollout.service == service]

    def clients_for(self, service: str) -> list[ClientReport]:
        """The clients that targeted ``service``, in start order."""
        return [client for client in self.clients if client.service == service]

    def rtts_for(self, service: str) -> list[float]:
        """Every RTT observed against ``service``, grouped by client."""
        return [rtt for client in self.clients_for(service) for rtt in client.rtts]

    # -- fleet-wide aggregates ---------------------------------------------

    @property
    def duration(self) -> float:
        """Virtual seconds from first call issued to last reply received."""
        return self.finished_at - self.started_at

    def outcomes(self, kind: str) -> Outcomes:
        """The call outcomes of one population: ``"discrete"`` clients,
        ``"modeled"`` cohort flows, or ``"all"`` of both."""
        populations = {
            "discrete": self.clients,
            "modeled": self.cohorts,
            "all": [*self.clients, *self.cohorts],
        }
        if kind not in populations:
            raise ValueError(f"unknown population {kind!r}; expected one of {list(populations)}")
        return Outcomes.total(populations[kind])

    @property
    def all_rtts(self) -> list[float]:
        """Every observed RTT, grouped by client in start order."""
        return [rtt for client in self.clients for rtt in client.rtts]

    @property
    def mean_rtt(self) -> float:
        """Fleet-wide mean round-trip time."""
        rtts = self.all_rtts
        return sum(rtts) / len(rtts) if rtts else 0.0

    @property
    def max_rtt(self) -> float:
        """Fleet-wide worst round-trip time."""
        rtts = self.all_rtts
        return max(rtts) if rtts else 0.0

    @property
    def rtt_percentiles(self) -> dict[str, float]:
        """Fleet-wide p50/p95/p99 round-trip times (discrete clients, exact)."""
        return rtt_percentiles(self.all_rtts)

    @property
    def throughput(self) -> float:
        """Completed discrete calls per virtual second."""
        calls = self.outcomes("discrete").calls
        return calls / self.duration if self.duration > 0 else 0.0

    # -- names the repo benchmark (benchmarks/e2e/run.py) still reads, each
    # -- with the population it has always read ------------------------------

    @property
    def total_failed_attempts(self) -> int:
        return self.outcomes("all").failed_attempts

    @property
    def total_retried_calls(self) -> int:
        return self.outcomes("all").retried_calls

    @property
    def total_rebinds(self) -> int:
        return self.outcomes("all").rebinds

    @property
    def total_stale_faults(self) -> int:
        return self.outcomes("discrete").stale_faults

    @property
    def total_stale_faults_modeled(self) -> int:
        return self.outcomes("modeled").stale_faults

    @property
    def modeled_rtt_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 over every cohort flow's merged RTT histogram."""
        merged = LatencyHistogram()
        for cohort in self.cohorts:
            merged.merge(cohort.rtt)
        return merged.percentiles()

    # -- cohort aggregates (flow-modeled client mass) ------------------------

    @property
    def modeled_clients(self) -> int:
        """Clients modeled analytically by cohort flows (0 when discrete-only)."""
        return sum(cohort.modeled_clients for cohort in self.cohorts)

    @property
    def simulated_clients(self) -> int:
        """Total clients this run stands for: discrete plus flow-modeled."""
        return len(self.clients) + self.modeled_clients

    def cohort_fingerprint(self) -> tuple:
        """Hashable snapshot of every cohort's counters (determinism asserts)."""
        return tuple(cohort.fingerprint() for cohort in self.cohorts)

    def fingerprint(self) -> tuple:
        """Hashable snapshot of the whole run, for byte-identity asserts.

        Covers the window bounds, every client's per-call RTT and routing
        sequence, every replica's and node's server-side counters, the
        window's rollouts, the event count, and the cohort fingerprints —
        two runs with equal fingerprints performed identical simulated
        work.  Trace replay (:mod:`repro.traffic.trace`) and the scenario
        fuzzer assert equality on exactly this value.
        """
        services = tuple(
            (
                service.name,
                service.technology,
                service.policy,
                tuple(
                    (
                        replica.index,
                        replica.node,
                        replica.class_name,
                        replica.calls_routed,
                        replica.stalled_calls,
                        replica.queued_while_stalled,
                        replica.max_stall_queue_depth,
                        replica.connections,
                        replica.replies_sent,
                        replica.publications,
                        replica.forced_publications,
                        replica.stale_call_publications,
                        replica.interface_version,
                        replica.downtime_s,
                        tuple(sorted(replica.calls_by_version.items())),
                    )
                    for replica in service.replicas
                ),
            )
            for service in self.services
        )
        nodes = tuple(
            (
                node.name,
                node.cores,
                node.busy_seconds,
                node.waited_seconds,
                node.max_core_wait,
                node.outages,
                node.downtime_s,
                node.recovery_latency_s,
            )
            for node in self.nodes
        )
        rollouts = tuple(
            (
                rollout.service,
                rollout.strategy,
                rollout.started_at,
                rollout.finished_at,
                rollout.aborted,
                rollout.rolled_back,
                rollout.deferred_resumes,
                rollout.calls_during,
                rollout.stale_faults_during,
                rollout.rebinds_during,
                tuple(
                    (wave.index, wave.replicas, wave.started_at, wave.published_at)
                    for wave in rollout.waves
                ),
            )
            for rollout in self.rollouts
        )
        return (
            self.started_at,
            self.finished_at,
            tuple(client.fingerprint() for client in self.clients),
            services,
            nodes,
            rollouts,
            self.events_dispatched,
            self.cohort_fingerprint(),
        )

    # -- server-side aggregates across every service ------------------------

    @property
    def stalled_calls(self) -> int:
        """§5.7 stalled calls across every service."""
        return sum(service.stalled_calls for service in self.services)

    @property
    def queued_while_stalled(self) -> int:
        """Calls queued behind a stall across every service."""
        return sum(service.queued_while_stalled for service in self.services)

    @property
    def max_stall_queue_depth(self) -> int:
        """Deepest stall queue any replica of any service saw."""
        return max(
            (service.max_stall_queue_depth for service in self.services), default=0
        )

    @property
    def server_connections(self) -> int:
        """Transport connections this run's fleet opened, fleet-wide."""
        return sum(service.connections for service in self.services)

    @property
    def publications(self) -> int:
        """Interface publications across every service during the run."""
        return sum(service.publications for service in self.services)

    def __repr__(self) -> str:
        return (
            f"ClusterReport(clients={len(self.clients)}, "
            f"services={[s.name for s in self.services]}, "
            f"calls={self.outcomes('discrete').calls}, duration={self.duration:.4f})"
        )
