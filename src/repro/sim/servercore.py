"""Bounded server CPU model.

The paper's testbed is one physical server machine (a 3.2 GHz Pentium 4):
when many clients call at once, their XML/CDR processing competes for the
same processor and round-trip times degrade.  The seed reproduction charged
every request's processing delay *in parallel* — unlimited implicit cores —
which kept steady-state RTT unrealistically flat as the fleet grew (the
ROADMAP open item).

:class:`ServerCore` models the machine: a bounded set of cores, each with a
"free again at" virtual time.  Charging a job picks the earliest-free core,
queues the job behind whatever that core is already committed to, and
returns the *total* delay (queueing wait + processing cost) the caller
should schedule.  With one core the server is strictly serial, so N
concurrent requests see RTTs growing roughly linearly in N — the realistic
contention curve the 512-client sweeps measure.

Determinism: ``charge`` is a pure function of the call sequence and the
virtual clock; no wall-clock or randomness is involved, so the workload
determinism contract (same spec → identical per-call RTTs) is preserved.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.scheduler import Scheduler


class ServerCore:
    """A bounded set of CPU cores serialising processing delays.

    Parameters
    ----------
    scheduler:
        The virtual clock the core pool lives on.
    cores:
        Number of cores; processing beyond this concurrency queues.
    """

    __slots__ = (
        "scheduler",
        "cores",
        "_free_at",
        "busy_seconds",
        "waited_seconds",
        "max_queue_delay",
    )

    def __init__(self, scheduler: "Scheduler", cores: int) -> None:
        if cores < 1:
            raise SchedulerError(f"a server needs at least one core, got {cores}")
        self.scheduler = scheduler
        self.cores = cores
        #: Min-heap of per-core "free again at" virtual times.
        self._free_at: list[float] = [0.0] * cores
        #: Total CPU-seconds of processing charged.
        self.busy_seconds = 0.0
        #: Total seconds jobs spent queued waiting for a core.
        self.waited_seconds = 0.0
        #: Longest any single job waited for a core.
        self.max_queue_delay = 0.0

    def charge(self, cost: float) -> float:
        """Reserve ``cost`` CPU-seconds on the earliest-free core.

        Returns the total delay from *now* until the job completes:
        the queueing wait (zero on an idle machine) plus ``cost``.
        """
        if cost < 0:
            raise SchedulerError(f"processing cost must be non-negative, got {cost}")
        now = self.scheduler.now
        free_at = heapq.heappop(self._free_at)
        start = free_at if free_at > now else now
        finish = start + cost
        heapq.heappush(self._free_at, finish)
        self.busy_seconds += cost
        wait = start - now
        if wait > 0:
            self.waited_seconds += wait
            if wait > self.max_queue_delay:
                self.max_queue_delay = wait
        return finish - now

    def charge_batch(self, cost: float, jobs: int) -> tuple[float, float]:
        """Charge ``jobs`` identical ``cost``-second jobs in one aggregate.

        The cohort-flow layer injects the modeled client mass through here:
        instead of one :meth:`charge` call per modeled request, a whole
        tick's worth of arrivals for one replica lands as a single batch.
        The batch spreads evenly across the core pool — earliest-free cores
        take the remainder first, mirroring how per-job greedy assignment
        fills an idle pool — and each core's queue-wait series is summed in
        closed form, so the call is O(cores) regardless of ``jobs``.

        Returns ``(total_delay, max_delay)``: the sum over all jobs of
        (queue wait + cost), and the single worst job's delay.  Gauges
        (``busy_seconds``, ``waited_seconds``, ``max_queue_delay``) advance exactly as if each job were charged
        individually under the even spread.
        """
        if cost < 0:
            raise SchedulerError(f"processing cost must be non-negative, got {cost}")
        if jobs < 0:
            raise SchedulerError(f"job count must be non-negative, got {jobs}")
        if jobs == 0:
            return (0.0, 0.0)
        now = self.scheduler.now
        free_at = self._free_at
        used = min(jobs, self.cores)
        # Pop in ascending free-time order: the earliest-free cores get the
        # remainder jobs, keeping the spread deterministic.
        starts = [heapq.heappop(free_at) for _ in range(used)]
        base, extra = divmod(jobs, used)
        total_delay = 0.0
        max_delay = 0.0
        for rank in range(used):
            share = base + (1 if rank < extra else 0)
            start = starts[rank]
            if start < now:
                start = now
            wait0 = start - now
            # Waits on this core form an arithmetic series:
            # wait0, wait0+cost, ..., wait0+(share-1)*cost.
            wait_sum = share * wait0 + cost * (share * (share - 1) / 2)
            last_wait = wait0 + (share - 1) * cost
            total_delay += wait_sum + share * cost
            core_max = last_wait + cost
            if core_max > max_delay:
                max_delay = core_max
            self.waited_seconds += wait_sum
            if last_wait > self.max_queue_delay:
                self.max_queue_delay = last_wait
            heapq.heappush(free_at, start + share * cost)
        self.busy_seconds += cost * jobs
        return (total_delay, max_delay)

    @property
    def busy_cores(self) -> int:
        """Cores currently committed past the present instant."""
        now = self.scheduler.now
        return sum(1 for free_at in self._free_at if free_at > now)

    def __repr__(self) -> str:
        return (
            f"ServerCore(cores={self.cores}, "
            f"busy={self.busy_seconds:.4f}s, max_wait={self.max_queue_delay:.4f}s)"
        )
