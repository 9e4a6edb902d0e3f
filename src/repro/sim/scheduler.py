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
* callbacks take positional arguments only, so dispatch is one plain
  ``callback(*args)`` call with no keyword branch.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.errors import DeadlockError, SchedulerError

#: Queue size below which the lazy cancel purge is never triggered.
_PURGE_MIN_QUEUE = 64


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Scheduler.schedule` so callers can cancel
    them (the §5.6 publication timer does this when it is *reset*).
    """

    __slots__ = ("time", "callback", "args", "cancelled", "dispatched", "_scheduler")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        scheduler: "Scheduler | None" = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.dispatched = False
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
            # The scheduler's cancel accounting, inline: every per-attempt
            # timeout of a fleet call ends here.
            scheduler._pending -= 1
            scheduler._cancelled_in_queue += 1
            if scheduler._cancelled_in_queue > _PURGE_MIN_QUEUE:
                scheduler._maybe_purge()

    @property
    def pending(self) -> bool:
        """True while the event is neither cancelled nor dispatched."""
        return not self.cancelled and not self.dispatched

    def __repr__(self) -> str:
        # ``dispatched`` wins: an event that ran is "done" even if someone
        # called cancel() on it afterwards.
        state = "done" if self.dispatched else ("cancelled" if self.cancelled else "pending")
        name = getattr(self.callback, "__qualname__", type(self.callback).__qualname__)
        return f"Event({name} at {self.time:.6f}, {state})"


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
        #: Heap of ``(time, sequence, event)`` tuples.
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._dispatched_count = 0
        self._pending = 0
        self._cancelled_in_queue = 0
        #: The most recently scheduled event (used by delivery batching).
        self.last_event: Event | None = None

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

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now
        and return the corresponding :class:`Event`."""
        if delay < 0:
            raise SchedulerError(f"cannot schedule an event in the past (delay={delay})")
        event = Event(self.now + delay, callback, args, self)
        heapq.heappush(self._queue, (event.time, next(self._sequence), event))
        self._pending += 1
        self.last_event = event
        return event

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Dispatch the next pending event.

        Returns ``True`` if an event was dispatched, ``False`` if the queue
        was empty (cancelled events are discarded silently).
        """
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
        return self.run_until_time(self.now + duration, max_events=max_events)

    def run_until_time(self, deadline: float, max_events: int = 1_000_000) -> int:
        """Dispatch every event whose time is ``<= deadline``."""
        dispatched = 0
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
        if self.now < deadline:
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
        SchedulerError
            If ``condition()`` is still false after ``max_events`` events
            (it is tested once more after the last of them).
        """
        dispatched = 0
        while not condition():
            if dispatched >= max_events:
                raise SchedulerError(
                    f"run_until dispatched {max_events} events waiting for {description}"
                )
            if not self.step():
                raise DeadlockError(
                    f"no pending events but {description} is still unsatisfied "
                    f"at t={self.now:.6f}"
                )
            dispatched += 1
        return dispatched

    # -- internals --------------------------------------------------------

    def _maybe_purge(self) -> None:
        """Sweep cancelled heap entries once they outnumber the live ones.

        Called after a cancel (once more than ``_PURGE_MIN_QUEUE`` cancelled
        entries wait) and from :attr:`pending_count` reads —
        dispatches shrink the heap too, so the threshold can be crossed
        without any new cancel arriving.
        """
        if (
            self._cancelled_in_queue > _PURGE_MIN_QUEUE
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            # In-place (slice) assignment: run loops hold references to the
            # queue list across dispatches, and a cancel inside a callback
            # must not strand them on a stale heap.
            queue = self._queue
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            self._cancelled_in_queue = 0

    def __repr__(self) -> str:
        return (
            f"Scheduler(now={self.now:.6f}, pending={self.pending_count}, "
            f"dispatched={self._dispatched_count})"
        )

