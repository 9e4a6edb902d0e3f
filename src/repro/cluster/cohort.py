"""Cohort/flow-level client aggregation: the million-client scale model.

The discrete fleet simulates every client's full protocol stack — WSDL/IDL
parsing, per-message transport, retries, §6 recency tracking.  That fidelity
costs hundreds of scheduler events per client, which caps practical fleets
around the paper's 512 clients.  This module lets one :class:`Scenario`
client group carry *a million* clients by splitting it:

* the first ``representatives`` clients stay **discrete** — full stacks,
  real messages, real timeouts — preserving every protocol-level behaviour
  the reproduction measures; and
* the remaining mass becomes a :class:`CohortFlow` — a deterministic
  arrival process that injects the same per-client call schedule as
  aggregate batches through the *same* :class:`~repro.cluster.registry`
  routing policies (round-robin / sticky / least-loaded via
  ``select_many``), the *same* version tiers and §6 freshness rules (one
  flow-level :class:`~repro.evolve.graph.ClientBinding`), and the *same*
  bounded :class:`~repro.sim.servercore.ServerCore` CPU model
  (``charge_batch``), at O(ticks × replicas) events instead of O(calls).

Where the discrete/analytic boundary sits
-----------------------------------------

A flow is calibrated, not synthesised: at prepare time it builds one real
protocol stack on its cohort host, fetches and parses the service's
published documents, and issues one real blocking probe call.  The probe's
measured uncontended RTT becomes the flow's per-call baseline and the
probe's server-CPU delta becomes the per-call processing cost charged for
every modeled call, so the aggregate load and the modeled latencies are
anchored to the same wire-level behaviour the discrete path exhibits.

What flows model analytically (and therefore cheaply): queueing delay via
``charge_batch``'s closed-form even spread, partition awareness via the
network's partition table instead of per-call timeouts (a partitioned flow
skips unreachable replicas exactly where a discrete client would time out
and fail over — minus the wasted timeout events), and §5.7 stale faults at
flow granularity (the first modeled call into an incompatible replica
faults, the flow rebinds its stubs from the replica's current published
description, and the rest of the batch proceeds on the fresh binding).

Determinism
-----------

Everything here is a pure function of the scenario spec and the virtual
clock: arrival offsets are precomputed, ticks fire on the scheduler,
settlement events go through per-server-node
:class:`~repro.sim.scheduler.EventStream` partitions whose merged dispatch
order is provably the single-queue order, and all accounting is integer
counters plus a fixed-bin histogram.  Two runs of the same scenario produce
byte-identical :meth:`CohortReport.fingerprint` values.

§6 recency at flow granularity: the flow keeps a watermark of the highest
interface version it has observed.  A settlement that observes a version
*below* the watermark the flow held when the batch was routed counts as a
recency violation — the flow-level analogue of a discrete client seeing an
older interface than one it already saw.  Version-aware routing keeps the
counter at zero, exactly as on the discrete path.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.cluster.histogram import DEFAULT_BIN_WIDTH, LatencyHistogram
from repro.cluster.report import CohortReport
from repro.errors import ClusterError, NoAliveReplicaError
from repro.evolve.graph import ClientBinding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.driver import FleetDriver
    from repro.cluster.registry import Replica, ServiceEntry, ServiceRegistry
    from repro.cluster.topology import ClusterWorld
    from repro.net.simnet import Host


@dataclass(frozen=True)
class CohortModel:
    """How a client group splits into representatives and modeled mass.

    Parameters
    ----------
    representatives:
        Clients simulated discretely (full protocol stacks); the group's
        first ``representatives`` positions.  The rest become flow mass.
    tick:
        Flow batching quantum in virtual seconds: arrivals due within one
        tick settle together.  Smaller ticks trade events for resolution.
    period:
        Per-client inter-call period.  ``None`` (the default) calibrates it
        as the probe's measured RTT plus the group's think time — the same
        cycle a discrete client of the group would exhibit.
    cpu_cost:
        Server CPU seconds charged per modeled call.  ``None`` calibrates
        it from the probe call's measured ``busy_seconds`` delta.
    max_attempts:
        Routing attempts per modeled call batch before the calls count as
        abandoned (a failed attempt is retried on the next tick, mirroring
        the discrete retry policies' backoff-and-reissue loop).
    bin_width:
        RTT histogram resolution in seconds.
    """

    representatives: int = 32
    tick: float = 0.005
    period: float | None = None
    cpu_cost: float | None = None
    max_attempts: int = 4
    bin_width: float = DEFAULT_BIN_WIDTH

    def __post_init__(self) -> None:
        if self.representatives < 0:
            raise ClusterError(
                f"cohort representatives must be non-negative, got {self.representatives}"
            )
        if self.tick <= 0:
            raise ClusterError(f"cohort tick must be positive, got {self.tick}")
        if self.period is not None and self.period < 0:
            raise ClusterError(f"cohort period must be non-negative, got {self.period}")
        if self.cpu_cost is not None and self.cpu_cost < 0:
            raise ClusterError(
                f"cohort cpu_cost must be non-negative, got {self.cpu_cost}"
            )
        if self.max_attempts < 1:
            raise ClusterError(
                f"cohort max_attempts must be at least 1, got {self.max_attempts}"
            )


class CohortFlow:
    """One client group's modeled mass: an arrival process over the registry.

    Created by the scenario's plan builder — one flow per (group, protocol,
    service) with ``mass = count - representatives`` modeled clients, each
    issuing ``calls`` calls spaced ``period`` apart starting at its own
    arrival offset.
    """

    def __init__(
        self,
        *,
        index: int,
        name: str,
        protocol: str,
        service: str,
        operation: str,
        arguments: tuple[Any, ...],
        calls: int,
        think_time: float,
        offsets: "array[float]",
        model: CohortModel,
        host: "Host",
        world: "ClusterWorld",
        registry: "ServiceRegistry",
    ) -> None:
        self.index = index
        self.name = name
        self.protocol = protocol
        self.service = service
        self.operation = operation
        self.arguments = arguments
        self.calls = calls
        self.think_time = think_time
        #: Sorted per-client arrival offsets (seconds after flow start).
        self.offsets = offsets
        self.model = model
        self.host = host
        self.world = world
        self.registry = registry
        self.mass = len(offsets)
        self.report = CohortReport(
            name=name,
            protocol=protocol,
            service=service,
            modeled_clients=self.mass,
            calls_per_client=calls,
            rtt=LatencyHistogram(model.bin_width),
        )
        self.binding = ClientBinding()
        self.finished = False
        self.driver: "FleetDriver | None" = None
        self.entry: "ServiceEntry | None" = None
        self.stack = None
        #: Per-call-rank pointer into ``offsets``: ``_ptrs[k]`` counts the
        #: modeled clients whose (k+1)-th call has already been injected.
        self._ptrs = [0] * calls
        #: Routed-but-failed batches carried to the next tick: (count, attempt).
        self._carry: list[tuple[int, int]] = []
        #: Settlement events scheduled but not yet dispatched — the flow
        #: only finishes once these drain, so a run never stops between a
        #: final tick and its settlements.
        self._outstanding = 0
        #: §6 watermark — highest interface version observed by any settle.
        self._seen_version = -1
        self._origin = 0.0
        self._period = 0.0
        self._base_rtt = 0.0
        self._cpu_cost = 0.0

    @property
    def backlog(self) -> int:
        """Modeled calls awaiting a retry tick plus settlements in flight.

        The observability sampler's per-flow gauge: it spikes while replicas
        are unreachable (carried batches pile up) and drains to zero as the
        flow completes.
        """
        return sum(count for count, _attempt in self._carry) + self._outstanding

    # -- preparation ---------------------------------------------------------

    def prepare(self, driver: "FleetDriver") -> None:
        """Build the flow's real protocol stack and calibrate the model.

        Runs before the driver snapshots its counters, so the document
        fetches and the probe call — real traffic through the full stack —
        stay outside the measured window, exactly like the discrete
        clients' own ``prepare`` fetches.
        """
        self.driver = driver
        self.entry = self.registry.lookup(self.service)
        factory = driver.protocol_factory(self.protocol)
        # Stack indexes must not collide with discrete clients' replica
        # bookkeeping; flows get a distinct high range.
        self.stack = factory(self.host, 1_000_000 + self.index, self.entry.replicas)
        self.stack.prepare()
        for replica in self.entry.replicas:
            description = self.stack.bound_description(replica.index)
            if description is not None:
                self.binding.bind(replica.index, description)
        self._calibrate()

    def _calibrate(self) -> None:
        """Measure the per-call baseline with one real probe call."""
        model = self.model
        need_probe = model.period is None or model.cpu_cost is None
        base_rtt = 0.0
        probe_cpu = 0.0
        if need_probe and self.mass > 0:
            assert self.entry is not None and self.driver is not None
            replica = self.entry.replicas[0]
            core = replica.node.server_core
            busy_before = core.busy_seconds if core is not None else 0.0
            scheduler = self.driver.scheduler
            probe_started = scheduler.now
            outcome: dict[str, Any] = {}

            def resolved(value: Any, error: BaseException | None, _delay: float = 0.0) -> None:
                outcome["done"] = (value, error)

            self.stack.call(replica, self.operation, self.arguments).subscribe(resolved)
            scheduler.run_until(
                lambda: "done" in outcome,
                description=f"{self.name} calibration probe",
            )
            _value, error = outcome["done"]
            if error is not None:
                raise ClusterError(
                    f"cohort flow {self.name!r} calibration probe failed: {error!r}"
                )
            base_rtt = scheduler.now - probe_started
            if core is not None:
                probe_cpu = core.busy_seconds - busy_before
        if model.period is not None:
            self._period = model.period
            self._base_rtt = base_rtt if need_probe else max(
                model.period - self.think_time, 0.0
            )
        else:
            self._base_rtt = base_rtt
            self._period = base_rtt + self.think_time
        self._cpu_cost = model.cpu_cost if model.cpu_cost is not None else probe_cpu
        self.report.calibrated_rtt_s = self._base_rtt
        self.report.calibrated_cpu_cost_s = self._cpu_cost

    # -- the arrival process -------------------------------------------------

    def start(self) -> None:
        """Begin the flow: anchor the arrival timeline and arm the first tick."""
        assert self.driver is not None
        self._origin = self.driver.scheduler.now
        first = self._next_arrival()
        if first is None:
            self._finish()
            return
        self.driver.scheduler.schedule(
            max(first - self.driver.scheduler.now, 0.0),
            self._tick,
            label=f"{self.name} tick",
        )

    def _next_arrival(self) -> float | None:
        """Absolute time of the earliest not-yet-injected modeled call."""
        earliest: float | None = None
        offsets = self.offsets
        period = self._period
        for rank, pointer in enumerate(self._ptrs):
            if pointer >= self.mass:
                continue
            due = self._origin + offsets[pointer] + rank * period
            if earliest is None or due < earliest:
                earliest = due
        return earliest

    def _tick(self) -> None:
        driver = self.driver
        assert driver is not None
        if driver.closed or self.finished:
            return
        self.report.ticks += 1
        now = driver.scheduler.now
        # §6 snapshot: settlements of THIS tick check recency against the
        # watermark as the batch was routed.  (A running watermark would
        # flag two fresh replicas publishing different versions within one
        # tick as a violation — but distinct modeled clients may
        # legitimately observe distinct fresh versions.)
        watermark = self._seen_version
        carried, self._carry = self._carry, []
        for count, attempt in carried:
            self._route(count, attempt, watermark)
        arrivals = 0
        elapsed = now - self._origin
        offsets = self.offsets
        for rank in range(self.calls):
            pointer = self._ptrs[rank]
            if pointer >= self.mass:
                continue
            advanced = bisect_right(offsets, elapsed - rank * self._period, pointer)
            if advanced > pointer:
                arrivals += advanced - pointer
                self._ptrs[rank] = advanced
        if arrivals:
            self._route(arrivals, 1, watermark)
        upcoming = self._next_arrival()
        if upcoming is None and not self._carry:
            if self._outstanding == 0:
                self._finish()
            # Else the last settlements are still in flight; they call
            # _finish when they drain.  Either way, no more ticks.
            return
        target = now + self.model.tick
        if not self._carry and upcoming is not None and upcoming > target:
            # Nothing to retry and the next arrival is beyond the quantum:
            # skip the idle gap instead of ticking through it.
            target = upcoming
        driver.scheduler.schedule(target - now, self._tick, label=f"{self.name} tick")

    def _route(self, count: int, attempt: int, watermark: int) -> None:
        """Route ``count`` modeled calls through the registry's policies."""
        assert self.driver is not None
        if self.driver.trace is not None:
            self.driver.trace.note_flow(
                time=self.driver.scheduler.now,
                flow=self.name,
                count=count,
                attempt=attempt,
            )
        obs = self.driver.obs
        if obs is not None:
            obs.instant("flow.route", flow=self.name, count=count, attempt=attempt)
        report = self.report
        network = self.world.network
        host_name = self.host.name

        def reachable(replica: "Replica") -> bool:
            return not network.is_partitioned(host_name, replica.node.name)

        try:
            picks = self.registry.select_many(
                self.service, self.name, count, binding=self.binding, reachable=reachable
            )
        except NoAliveReplicaError:
            report.failed_attempts += count
            if attempt < self.model.max_attempts:
                report.retried_calls += count
                self._carry.append((count, attempt + 1))
            else:
                report.abandoned_calls += count
            return
        scheduler = self.driver.scheduler
        self._outstanding += len(picks)
        for replica, share in picks:
            # Settlement rides the target node's event stream: per-node
            # event populations stay contiguous, and the merged dispatch
            # order is provably the single-queue order.
            scheduler.partition(replica.node.name).schedule(
                0.0,
                self._settle,
                replica,
                share,
                watermark,
                label=f"{self.name} settle",
            )

    def _settle(self, replica: "Replica", share: int, watermark: int) -> None:
        """Complete ``share`` modeled calls against ``replica``."""
        driver = self.driver
        assert driver is not None and self.entry is not None
        self._outstanding -= 1
        if driver.closed:
            return
        report = self.report
        version = replica.publisher.version
        if version < watermark:
            report.recency_violations += share
            obs = driver.obs
            if obs is not None:
                obs.note_recency_violation(
                    flow=self.name,
                    service=self.service,
                    replica=replica.index,
                    node=replica.node.name,
                    version=version,
                    watermark=watermark,
                    calls=share,
                )
        if version > self._seen_version:
            self._seen_version = version
        self.binding.observe(version)
        successes = share
        if self.entry.version_routing and not self.binding.compatible_with(replica):
            # §5.7 at flow granularity: the first modeled call faults
            # stale, the flow rebinds its stubs from the replica's current
            # published description, the rest of the batch proceeds.
            report.stale_faults += 1
            report.rebinds += 1
            successes = share - 1
            current = replica.publisher.published_description
            if current is not None:
                self.binding.bind(replica.index, current)
        report.successes += successes
        report.replica_calls[replica.index] = (
            report.replica_calls.get(replica.index, 0) + share
        )
        cost = self._cpu_cost
        core = replica.node.server_core
        wait_sum = 0.0
        max_wait = 0.0
        if core is not None and cost >= 0 and share > 0:
            total_delay, max_delay = core.charge_batch(cost, share)
            wait_sum = total_delay - share * cost
            max_wait = max_delay - cost
        mean_rtt = self._base_rtt + wait_sum / share
        report.rtt.add_many(mean_rtt, share)
        report.rtt_sum += self._base_rtt * share + wait_sum
        worst = self._base_rtt + max_wait
        if worst > report.rtt_max:
            report.rtt_max = worst
        driver._note_version_call(replica, share)
        driver._note_success(replica)
        if (
            self._outstanding == 0
            and not self._carry
            and not self.finished
            and self._next_arrival() is None
        ):
            self._finish()

    def _finish(self) -> None:
        if not self.finished:
            self.finished = True
            assert self.driver is not None
            self.driver._flow_finished(self)

    def __repr__(self) -> str:
        return (
            f"CohortFlow({self.name!r}, service={self.service!r}, "
            f"mass={self.mass}, calls={self.calls})"
        )

