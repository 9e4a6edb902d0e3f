"""Event scheduler driving the whole simulated system.

The scheduler owns virtual time (:attr:`Scheduler.now`, in seconds) and a
priority queue of pending events.  Network message deliveries, publication
timers, simulated processing delays and workload arrivals are all events;
running the scheduler to quiescence therefore executes the distributed system
deterministically in a single OS thread.

Hot-path invariants (the fleet sweeps dispatch millions of events per run):

* heap entries are plain ``(time, sequence, event)`` tuples — comparisons
  stay in C, never in a ``__lt__`` written in Python;
* :attr:`Scheduler.pending_count` is a live counter maintained by
  ``schedule``/``cancel``/dispatch, never a queue scan;
* cancelled events stay in the heap and are purged lazily — when they surface
  at the top, in one O(n) sweep once they outnumber the live entries (checked
  on every cancel *and* on every :attr:`Scheduler.pending_count` read, so an
  idle cancel-heavy heap cannot hold dead entries indefinitely);
* dispatch avoids the ``**kwargs`` unpacking path when a callback was
  scheduled without keyword arguments (the overwhelmingly common case).

Partitioned event streams
-------------------------

:meth:`Scheduler.partition` splits the queue into named
:class:`EventStream` partitions (the cluster layer keeps one per server
node) while preserving the global dispatch contract exactly: every event —
whichever stream it was scheduled on — carries a timestamp and a ticket
from one *global* sequence counter, and dispatch always runs the globally
minimal ``(time, sequence)`` entry next.  Scattering events over streams
therefore never changes the dispatch order relative to the single-heap
scheduler (pinned by the determinism-fingerprint test in
``tests/sim/test_partitioned_scheduler.py``); what it buys is a queue
*shape* that scales with the number of streams, not the number of
producers — per-server flow aggregates stay O(servers) entries deep — and
a seam along which one world can later be sharded across processes.  A
scheduler that never partitions pays nothing: the single-queue dispatch
fast path is only left once the first partition exists.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable

from repro.errors import DeadlockError, SchedulerError

#: Queue size below which the lazy cancel purge is never triggered.
_PURGE_MIN_QUEUE = 64


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Scheduler.schedule` so callers can cancel
    them (the §5.6 publication timer does this when it is *reset*).
    """

    __slots__ = (
        "time",
        "callback",
        "args",
        "kwargs",
        "cancelled",
        "dispatched",
        "label",
        "_scheduler",
    )

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        kwargs: dict | None,
        label: str,
        scheduler: "Scheduler | None" = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.dispatched = False
        self.label = label
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from running when its time arrives.

        Cancelling an event that already ran (or was already cancelled) is a
        no-op, so callers may cancel defensively without corrupting the
        scheduler's pending accounting.
        """
        if self.cancelled or self.dispatched:
            return
        self.cancelled = True
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is neither cancelled nor dispatched."""
        return not self.cancelled and not self.dispatched

    def __repr__(self) -> str:
        # ``dispatched`` wins: an event that ran is "done" even if someone
        # called cancel() on it afterwards.
        state = "done" if self.dispatched else ("cancelled" if self.cancelled else "pending")
        return f"Event({self.label!r} at {self.time:.6f}, {state})"


class Scheduler:
    """Priority-queue based discrete-event scheduler.

    Determinism: events are dispatched in ``(time, insertion order)`` order,
    so two events scheduled for the same instant run in the order they were
    scheduled.

    Virtual time is the plain attribute :attr:`now`, in seconds (the paper
    reports round-trip times in seconds, Table 1).  Only dispatch and the
    ``run_*`` loops move it, and only forward: every event is scheduled at or
    after the current time.
    """

    def __init__(self) -> None:
        #: Current virtual time in seconds.
        self.now = 0.0
        #: True once :meth:`enable_tracing` was called.  Hot paths check it
        #: before building descriptive f-string labels, so untraced runs
        #: skip the string formatting entirely.
        self.tracing = False
        #: Heap of ``(time, sequence, event)`` tuples.
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._dispatched_count = 0
        self._pending = 0
        self._cancelled_in_queue = 0
        #: The most recently scheduled event (used by delivery batching).
        self.last_event: Event | None = None
        #: Dispatch trace: a plain list, or a bounded deque when
        #: ``enable_tracing`` was given a limit.
        self._trace: "list[tuple[float, str]] | deque[tuple[float, str]] | None" = None
        #: Named partitions (see :meth:`partition`).  ``_extra_queues`` holds
        #: their raw heaps; dispatch leaves the single-queue fast path only
        #: while this list is non-empty.
        self._partitions: dict[Any, "EventStream"] = {}
        self._extra_queues: list[list[tuple[float, int, Event]]] = []

    # -- inspection -------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Number of events still waiting to be dispatched (O(1) amortised).

        Reading the counter also gives the lazy cancel purge a chance to run:
        dispatches shrink the heap without touching cancelled entries, so an
        idle cancel-heavy heap could otherwise hold its dead entries until the
        *next* cancel arrives (possibly never).
        """
        if self._cancelled_in_queue:
            self._maybe_purge()
        return self._pending

    @property
    def dispatched_count(self) -> int:
        """Number of events dispatched since the scheduler was created."""
        return self._dispatched_count

    def enable_tracing(self, limit: int | None = None) -> None:
        """Record ``(time, label)`` for every dispatched event.

        Tracing is used by the interleaving experiments (Figures 7 and 8) to
        report the exact order in which publication and RMI events occurred.
        ``limit`` bounds the trace to the most recent entries (a ring
        buffer, the same memory discipline as the observability layer's
        span ring); ``None`` keeps the historical unbounded list.
        """
        self._trace = [] if limit is None else deque(maxlen=limit)
        self.tracing = True

    @property
    def trace(self) -> list[tuple[float, str]]:
        """The recorded dispatch trace (empty unless tracing is enabled)."""
        return list(self._trace or [])

    # -- scheduling -------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "event",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds
        from now and return the corresponding :class:`Event`."""
        if delay < 0:
            raise SchedulerError(f"cannot schedule an event in the past (delay={delay})")
        event = Event(self.now + delay, callback, args, kwargs or None, label, self)
        heapq.heappush(self._queue, (event.time, next(self._sequence), event))
        self._pending += 1
        self.last_event = event
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "event",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` to run at absolute virtual time ``time``."""
        if time < self.now:
            raise SchedulerError(
                f"cannot schedule an event at {time} before current time {self.now}"
            )
        time = float(time)
        event = Event(time, callback, args, kwargs or None, label, self)
        heapq.heappush(self._queue, (time, next(self._sequence), event))
        self._pending += 1
        self.last_event = event
        return event

    def call_soon(
        self, callback: Callable[..., None], *args: Any, label: str = "soon", **kwargs: Any
    ) -> Event:
        """Schedule ``callback`` to run at the current virtual time."""
        return self.schedule(0.0, callback, *args, label=label, **kwargs)

    # -- partitions -------------------------------------------------------

    def partition(self, key: Any) -> "EventStream":
        """Return the :class:`EventStream` partition for ``key``, creating it
        on first use.

        Partitions share this scheduler's time, pending accounting and —
        crucially — its global sequence counter, so events scheduled on any
        mix of streams dispatch in exactly the ``(time, insertion order)``
        order the single shared queue would have produced.  Creating the
        first partition switches dispatch to the merged path; a scheduler
        that never calls this keeps the single-queue fast path.
        """
        stream = self._partitions.get(key)
        if stream is None:
            heap: list[tuple[float, int, Event]] = []
            stream = EventStream(self, key, heap)
            self._partitions[key] = stream
            self._extra_queues.append(heap)
        return stream

    @property
    def partition_count(self) -> int:
        """Number of partitions created via :meth:`partition`."""
        return len(self._partitions)

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Dispatch the next pending event.

        Returns ``True`` if an event was dispatched, ``False`` if the queue
        was empty (cancelled events are discarded silently).
        """
        if self._extra_queues:
            queue = self._min_live_queue()
            if queue is None:
                return False
            _time, _seq, event = heapq.heappop(queue)
            self.now = event.time
            event.dispatched = True
            self._pending -= 1
            self._dispatched_count += 1
            if self._trace is not None:
                self._trace.append((event.time, event.label))
            kwargs = event.kwargs
            if kwargs:
                event.callback(*event.args, **kwargs)
            else:
                event.callback(*event.args)
            return True
        queue = self._queue
        while queue:
            _time, _seq, event = heapq.heappop(queue)
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            self.now = event.time
            event.dispatched = True
            self._pending -= 1
            self._dispatched_count += 1
            if self._trace is not None:
                self._trace.append((event.time, event.label))
            kwargs = event.kwargs
            if kwargs:
                event.callback(*event.args, **kwargs)
            else:
                event.callback(*event.args)
            return True
        return False

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Dispatch events until none remain; return the number dispatched.

        ``max_events`` guards against runaway event loops (a periodic timer
        that never stops, for instance) turning a test into an infinite loop.
        """
        dispatched = 0
        while self.step():
            dispatched += 1
            if dispatched >= max_events:
                raise SchedulerError(
                    f"run_until_idle dispatched {max_events} events without quiescing"
                )
        return dispatched

    def run_for(self, duration: float, max_events: int = 1_000_000) -> int:
        """Run events for ``duration`` seconds of virtual time.

        The clock always ends exactly ``duration`` seconds later, even if the
        queue drains early.
        """
        if duration < 0:
            raise SchedulerError(f"duration must be non-negative, got {duration}")
        deadline = self.now + duration
        dispatched = self.run_until_time(deadline, max_events=max_events)
        if self.now < deadline:
            self.now = float(deadline)
        return dispatched

    def run_until_time(self, deadline: float, max_events: int = 1_000_000) -> int:
        """Dispatch every event whose time is ``<= deadline``."""
        dispatched = 0
        if self._extra_queues:
            while True:
                queue = self._min_live_queue()
                if queue is None or queue[0][0] > deadline:
                    break
                self.step()
                dispatched += 1
                if dispatched >= max_events:
                    raise SchedulerError(
                        f"run_until_time dispatched {max_events} events "
                        "without reaching the deadline"
                    )
            if self.now < deadline:
                self.now = float(deadline)
            return dispatched
        while self._queue:
            entry = self._queue[0]
            if entry[2].cancelled:
                heapq.heappop(self._queue)
                self._cancelled_in_queue -= 1
                continue
            if entry[0] > deadline:
                break
            self.step()
            dispatched += 1
            if dispatched >= max_events:
                raise SchedulerError(
                    f"run_until_time dispatched {max_events} events without reaching the deadline"
                )
        if self.now < deadline and not self._has_pending_before(deadline):
            self.now = float(deadline)
        return dispatched

    def run_until(
        self,
        condition: Callable[[], bool],
        max_events: int = 1_000_000,
        description: str = "condition",
    ) -> int:
        """Dispatch events until ``condition()`` becomes true.

        This is the mechanism behind every *blocking* operation in the
        system: a client issuing a synchronous RMI call posts the request and
        then drives the scheduler until the reply has been delivered.

        Raises
        ------
        DeadlockError
            If the event queue drains while ``condition()`` is still false —
            i.e. nothing in the simulated system can ever satisfy it.
        """
        dispatched = 0
        while not condition():
            if not self.step():
                raise DeadlockError(
                    f"no pending events but {description} is still unsatisfied "
                    f"at t={self.now:.6f}"
                )
            dispatched += 1
            if dispatched >= max_events:
                raise SchedulerError(
                    f"run_until dispatched {max_events} events waiting for {description}"
                )
        return dispatched

    # -- internals --------------------------------------------------------

    def _min_live_queue(self) -> "list[tuple[float, int, Event]] | None":
        """The queue whose live head has the globally minimal ``(time, seq)``.

        Cancelled heads surfacing during the scan are discarded for good.
        Linear in the number of partitions — the cluster layer keeps one per
        server node, so this stays a handful of comparisons per dispatch.
        """
        best_queue = None
        best_time = 0.0
        best_seq = 0
        queue = self._queue
        while queue:
            head = queue[0]
            if head[2].cancelled:
                heapq.heappop(queue)
                self._cancelled_in_queue -= 1
                continue
            best_queue = queue
            best_time = head[0]
            best_seq = head[1]
            break
        for queue in self._extra_queues:
            while queue:
                head = queue[0]
                if head[2].cancelled:
                    heapq.heappop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                if (
                    best_queue is None
                    or head[0] < best_time
                    or (head[0] == best_time and head[1] < best_seq)
                ):
                    best_queue = queue
                    best_time = head[0]
                    best_seq = head[1]
                break
        return best_queue

    def _note_cancelled(self) -> None:
        """Account for an :meth:`Event.cancel`; purge once cancels dominate."""
        self._pending -= 1
        self._cancelled_in_queue += 1
        self._maybe_purge()

    def _maybe_purge(self) -> None:
        """Sweep cancelled heap entries once they outnumber the live ones.

        Called after every cancel and from :attr:`pending_count` reads —
        dispatches shrink the heap too, so the threshold can be crossed
        without any new cancel arriving.
        """
        total = len(self._queue)
        for extra in self._extra_queues:
            total += len(extra)
        if self._cancelled_in_queue > _PURGE_MIN_QUEUE and self._cancelled_in_queue * 2 > total:
            # In-place (slice) assignment: run loops hold references to the
            # queue list across dispatches, and a cancel inside a callback
            # must not strand them on a stale heap.
            queue = self._queue
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            for queue in self._extra_queues:
                queue[:] = [entry for entry in queue if not entry[2].cancelled]
                heapq.heapify(queue)
            self._cancelled_in_queue = 0

    def _has_pending_before(self, deadline: float) -> bool:
        # Cancelled entries at the top were already popped by the callers'
        # loops, so the heap minimum decides in O(1) (amortised: any
        # cancelled entries surfacing here are discarded for good).
        if self._extra_queues:
            queue = self._min_live_queue()
            return queue is not None and queue[0][0] <= deadline
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[2].cancelled:
                heapq.heappop(queue)
                self._cancelled_in_queue -= 1
                continue
            return entry[0] <= deadline
        return False

    def __repr__(self) -> str:
        return (
            f"Scheduler(now={self.now:.6f}, pending={self.pending_count}, "
            f"dispatched={self._dispatched_count})"
        )


class EventStream:
    """One named partition of a :class:`Scheduler`'s event queue.

    Obtained via :meth:`Scheduler.partition`.  A stream is a separate heap
    with the *same* dispatch semantics as the shared queue: timestamps come
    from the scheduler's time and insertion tickets from its global
    sequence counter, so the merged dispatch order is identical to what a
    single queue would produce.  The cluster layer keeps one stream per
    server node and aims cohort-flow settlement events at it, so a
    million-client flow keeps the queue O(servers) deep instead of
    O(in-flight calls), and per-node event populations stay contiguous for
    future multi-process sharding.

    Events scheduled through a stream are ordinary :class:`Event` objects —
    cancellation and tracing behave exactly as for :meth:`Scheduler.schedule`.
    """

    __slots__ = ("scheduler", "key", "_heap")

    def __init__(
        self,
        scheduler: Scheduler,
        key: Any,
        heap: list[tuple[float, int, Event]],
    ) -> None:
        self.scheduler = scheduler
        self.key = key
        self._heap = heap

    def __len__(self) -> int:
        """Entries currently in this stream's heap (may include cancelled)."""
        return len(self._heap)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "event",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` on this stream ``delay`` seconds from now."""
        scheduler = self.scheduler
        if delay < 0:
            raise SchedulerError(f"cannot schedule an event in the past (delay={delay})")
        event = Event(
            scheduler.now + delay, callback, args, kwargs or None, label, scheduler
        )
        heapq.heappush(self._heap, (event.time, next(scheduler._sequence), event))
        scheduler._pending += 1
        scheduler.last_event = event
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "event",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` on this stream at absolute time ``time``."""
        scheduler = self.scheduler
        if time < scheduler.now:
            raise SchedulerError(
                f"cannot schedule an event at {time} before current time {scheduler.now}"
            )
        time = float(time)
        event = Event(time, callback, args, kwargs or None, label, scheduler)
        heapq.heappush(self._heap, (time, next(scheduler._sequence), event))
        scheduler._pending += 1
        scheduler.last_event = event
        return event

    def call_soon(
        self, callback: Callable[..., None], *args: Any, label: str = "soon", **kwargs: Any
    ) -> Event:
        """Schedule ``callback`` on this stream at the current virtual time."""
        return self.schedule(0.0, callback, *args, label=label, **kwargs)

    def __repr__(self) -> str:
        return f"EventStream({self.key!r}, entries={len(self._heap)})"
