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
  round-robin rotation (in closed form, via ``select_many``), the *same*
  version tiers and §6 freshness rules (one
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
clock: a flow takes its arrival offsets in order from the group's seeded
stream, ticks and settlement events fire on the one scheduler queue in
``(time, insertion order)`` order, and all accounting is integer counters
plus a fixed-bin histogram.  Two runs of the same scenario produce
byte-identical :meth:`CohortReport.fingerprint` values.

A flow holds only the offsets it still needs: each tick it takes the shares
its group's :class:`GroupArrivals` dealt it ahead of the clock, and drops
the prefix that every call rank has passed.  Its buffer therefore spans
about ``calls - 1`` periods of arrivals, not the whole mass.

§6 recency at flow granularity: the flow keeps a watermark of the highest
interface version it has observed.  A settlement that observes a version
*below* the watermark the flow held when the batch was routed counts as a
recency violation — the flow-level analogue of a discrete client seeing an
older interface than one it already saw.  Version-aware routing keeps the
counter at zero, exactly as on the discrete path.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import compress, cycle, islice
from typing import TYPE_CHECKING, Any, Iterator

from repro.cluster.histogram import LatencyHistogram
from repro.cluster.report import CohortReport
from repro.errors import ClusterError, NoAliveReplicaError
from repro.traffic.arrivals import _checked

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.driver import FleetDriver
    from repro.cluster.registry import Replica, ServiceEntry, ServiceRegistry
    from repro.cluster.topology import ClusterWorld
    from repro.evolve.graph import ClientBinding
    from repro.net.simnet import Host


#: Arrival offsets a group's reader deals to each of its flows per read.
READ_CHUNK = 1024


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
    max_attempts:
        Routing attempts per modeled call batch before the calls count as
        abandoned (a failed attempt is retried on the next tick, mirroring
        the discrete retry policies' backoff-and-reissue loop).

    A flow's call period and CPU cost per call are always calibrated by one
    real probe call (:meth:`CohortFlow._calibrate`).
    """

    representatives: int = 32
    tick: float = 0.005
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.representatives < 0:
            raise ClusterError(
                f"cohort representatives must be non-negative, got {self.representatives}"
            )
        if self.tick <= 0:
            raise ClusterError(f"cohort tick must be positive, got {self.tick}")
        if self.max_attempts < 1:
            raise ClusterError(
                f"cohort max_attempts must be at least 1, got {self.max_attempts}"
            )


class GroupArrivals:
    """One cohort group's arrival stream, read once and dealt to its flows.

    Mass position ``j`` speaks ``rotated[j % len(rotated)]``; ``shares``
    queues, per flow protocol (``kinds``, in flow order), the shares dealt
    but not yet taken.  A read checks ``len(kinds) * READ_CHUNK`` offsets
    once.  When every slot of ``rotated`` is a different flow's, flow
    ``k``'s share is the slice ``chunk[k::len(rotated)]``; other mixes
    filter through each flow's persistent ``cycle`` over its mask.  A
    callable's offsets come in position order: one read, shares sorted.
    """

    def __init__(
        self, offsets: Iterator[float], rotated: list[str], kinds: list[str], ordered: bool
    ) -> None:
        self._offsets = offsets
        self._size = len(kinds) * READ_CHUNK if ordered else None
        self._sliced = len(kinds) == len(rotated)
        self._masks = [cycle(map(kind.__eq__, rotated)) for kind in kinds]
        self.shares: dict[str, deque[list[float]]] = {kind: deque() for kind in kinds}

    def read(self, flow: str) -> bool:
        """Deal the next chunk; False once the stream has ended.  A chunk
        that fails :func:`_checked` raises naming ``flow``, which asked."""
        chunk = list(islice(self._offsets, self._size))
        if not chunk:
            return False
        try:
            _checked(chunk)
        except ClusterError as error:
            raise ClusterError(f"cohort flow {flow!r}: {error}") from None
        step = len(self.shares)
        for k, (queue, mask) in enumerate(zip(self.shares.values(), self._masks)):
            share = chunk[k::step] if self._sliced else list(compress(chunk, mask))
            if self._size is None:
                share.sort()
            queue.append(share)
        return True


class CohortFlow:
    """One client group's modeled mass: an arrival process over the registry.

    Created by the scenario's plan builder — one flow per (group, protocol,
    service) with ``mass`` modeled clients, each issuing ``calls`` calls
    spaced ``period`` apart starting at its own arrival offset.  Its group's
    ``arrivals`` reader deals it exactly ``mass`` offsets, sorted.
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
        arrivals: GroupArrivals,
        mass: int,
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
        #: The group's reader, and the shares of arrival offsets (seconds
        #: after flow start, sorted) it has dealt this flow but not yet taken.
        self.arrivals = arrivals
        self._shares = arrivals.shares[protocol]
        self.model = model
        self.host = host
        self.world = world
        self.registry = registry
        self.mass = mass
        self.report = CohortReport(
            name=name,
            protocol=protocol,
            service=service,
            modeled_clients=self.mass,
            calls_per_client=calls,
            rtt=LatencyHistogram(),
        )
        #: The flow's stack's stub-binding state (set by :meth:`prepare`).
        self.binding: "ClientBinding | None" = None
        self.finished = False
        self.driver: "FleetDriver | None" = None
        self.entry: "ServiceEntry | None" = None
        self.stack = None
        #: Per-call-rank arrival position: ``_ptrs[k]`` counts the modeled
        #: clients whose (k+1)-th call has already been injected.
        self._ptrs = [0] * calls
        #: The offsets read but not yet passed by every call rank: arrival
        #: positions ``_base`` up to ``_read``.
        self._buffer: list[float] = []
        self._base = 0
        self._read = 0
        #: Routed-but-failed batches carried to the next tick: (count, attempt).
        self._carry: list[tuple[int, int]] = []
        #: Settlement events scheduled but not yet dispatched — the flow
        #: only finishes once these drain, so a run never stops between a
        #: final tick and its settlements.
        self._outstanding = 0
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
        self.binding = self.stack.binding
        self.stack.prepare()
        self._calibrate()

    def _calibrate(self) -> None:
        """Measure the per-call baseline with one real probe call: the
        period is its RTT plus the think time (a discrete client's cycle),
        the CPU cost per modeled call its ``busy_seconds`` delta."""
        base_rtt = probe_cpu = 0.0
        if self.mass > 0:
            assert self.entry is not None and self.driver is not None
            replica = self.entry.replicas[0]
            core = replica.node.server_core
            busy_before = core.busy_seconds if core is not None else 0.0
            scheduler = self.driver.scheduler
            probe_started = scheduler.now
            probe = self.stack.call(replica, self.operation, self.arguments)
            probe.description = f"{self.name} calibration probe"
            try:
                probe.wait(scheduler)
            except BaseException as error:
                if not probe.completed:
                    raise
                raise ClusterError(
                    f"cohort flow {self.name!r} calibration probe failed: {error!r}"
                ) from None
            base_rtt = scheduler.now - probe_started
            if core is not None:
                probe_cpu = core.busy_seconds - busy_before
        self._base_rtt = base_rtt
        self._period = base_rtt + self.think_time
        self._cpu_cost = probe_cpu

    # -- the arrival process -------------------------------------------------

    def start(self) -> None:
        """Begin the flow: anchor the arrival timeline and arm the first tick."""
        assert self.driver is not None
        self._origin = self.driver.scheduler.now
        self._fill(-1.0)  # offsets are non-negative: just the first chunk
        first = self._next_arrival()
        if first is None:
            self._finish()
            return
        self.driver.scheduler.schedule(max(first - self.driver.scheduler.now, 0.0), self._tick)

    def _fill(self, elapsed: float) -> None:
        """Take shares until an offset lies beyond ``elapsed`` or none remain.

        Every call rank's next arrival is then in the buffer: rank ``k``
        waits for offsets up to ``elapsed - k * period``, and none of them
        has passed the first offset beyond ``elapsed``.
        """
        buffer = self._buffer
        while not buffer or buffer[-1] <= elapsed:
            if not self._shares and not self.arrivals.read(self.name):
                if self._read < self.mass:
                    raise ClusterError(
                        f"cohort flow {self.name!r} read {self._read} arrival "
                        f"offsets for {self.mass} modeled clients"
                    )
                return
            share = self._shares.popleft()
            self._read += len(share)
            if self._read > self.mass:
                raise ClusterError(
                    f"cohort flow {self.name!r} read more than its {self.mass} "
                    "arrival offsets"
                )
            buffer += share

    def _next_arrival(self) -> float | None:
        """Absolute time of the earliest not-yet-injected modeled call."""
        earliest: float | None = None
        buffer = self._buffer
        base = self._base
        period = self._period
        for rank, pointer in enumerate(self._ptrs):
            if pointer >= self.mass:
                continue
            due = self._origin + buffer[pointer - base] + rank * period
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
        watermark = self.binding.seen_version
        carried, self._carry = self._carry, []
        for count, attempt in carried:
            self._route(count, attempt, watermark)
        arrivals = 0
        elapsed = now - self._origin
        self._fill(elapsed)
        buffer = self._buffer
        base = self._base
        ptrs = self._ptrs
        for rank in range(self.calls):
            pointer = ptrs[rank]
            if pointer >= self.mass:
                continue
            advanced = base + bisect_right(
                buffer, elapsed - rank * self._period, pointer - base
            )
            if advanced > pointer:
                arrivals += advanced - pointer
                ptrs[rank] = advanced
        # Drop the prefix every call rank has passed.
        passed = min(ptrs) - base
        if passed:
            del buffer[:passed]
            self._base = base + passed
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
        driver.scheduler.schedule(target - now, self._tick)

    def _route(self, count: int, attempt: int, watermark: int) -> None:
        """Route ``count`` modeled calls through the registry's rotation."""
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
                self.service, count, binding=self.binding, reachable=reachable
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
            scheduler.schedule(0.0, self._settle, replica, share, watermark)

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

