"""Timers built on the event scheduler.

The centrepiece is :class:`ResettableTimer`, which models the paper's
stable-change detection mechanism (§5.6): every relevant change *resets* the
countdown, and only when the timer is allowed to expire — i.e. the interface
has been stable for the whole timeout — does the publication callback fire.
The SDE Manager Interface's "manually trigger the publication ... by forcing
timer expiration" cancels the timer and generates at once
(:meth:`repro.core.sde.publisher.DLPublisher.force_publish`).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SchedulerError
from repro.sim.scheduler import Event, Scheduler
from repro.util.validation import require_positive


class ResettableTimer:
    """A one-shot countdown timer whose countdown can be restarted.

    The timer is *not* started on construction; callers invoke
    :meth:`start` (or :meth:`reset`, which is equivalent when the timer is
    idle) whenever a triggering change occurs.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        timeout: float,
        callback: Callable[[], None],
    ) -> None:
        require_positive(timeout, "timeout")
        self._scheduler = scheduler
        self._timeout = float(timeout)
        self._callback = callback
        self._event: Event | None = None

    # -- configuration ----------------------------------------------------

    @property
    def timeout(self) -> float:
        """The current countdown length in seconds."""
        return self._timeout

    @timeout.setter
    def timeout(self, value: float) -> None:
        """Change the countdown length.

        A running countdown keeps its original deadline; the new value takes
        effect from the next start/reset.  This matches the paper's user
        control: the developer tunes the publication interval through the SDE
        Manager Interface, affecting subsequent countdowns.
        """
        require_positive(value, "timeout")
        self._timeout = float(value)

    @property
    def running(self) -> bool:
        """True while a countdown is in progress."""
        return self._event is not None and self._event.pending

    @property
    def deadline(self) -> float | None:
        """The virtual time at which the running countdown will expire."""
        if self._event is not None and self._event.pending:
            return self._event.time
        return None

    # -- operations -------------------------------------------------------

    def start(self) -> None:
        """Start (or restart) the countdown from the full timeout."""
        self.reset()

    def reset(self) -> None:
        """Restart the countdown from the full timeout value.

        If the timer is idle this behaves like :meth:`start`; if it is
        running, the pending expiration is cancelled and replaced.
        """
        if self._event is not None and self._event.pending:
            self._event.cancel()
        self._event = self._scheduler.schedule(self._timeout, self._expire)

    def cancel(self) -> None:
        """Stop the countdown without firing the callback."""
        if self._event is not None and self._event.pending:
            self._event.cancel()
        self._event = None

    # -- internals --------------------------------------------------------

    def _expire(self) -> None:
        self._event = None
        self._callback()

    def __repr__(self) -> str:
        state = f"expires at {self.deadline:.6f}" if self.running else "idle"
        return f"ResettableTimer(timeout={self._timeout}, {state})"


class PeriodicTimer:
    """A repeating timer used by the polling-based publication strategy.

    The paper rejects pure polling for interface publication (§5.6); the
    publisher's polling strategy runs on this class, and the E4 ablation
    (:mod:`repro.experiments.publication_strategies`) quantifies why.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        interval: float,
        callback: Callable[[], None],
    ) -> None:
        require_positive(interval, "interval")
        self._scheduler = scheduler
        self._interval = float(interval)
        self._callback = callback
        self._event: Event | None = None
        self._running = False
        self.ticks = 0

    @property
    def interval(self) -> float:
        """Seconds between consecutive ticks."""
        return self._interval

    @property
    def running(self) -> bool:
        """True while the timer is ticking."""
        return self._running

    def start(self) -> None:
        """Begin ticking; the first tick occurs one interval from now."""
        if self._running:
            raise SchedulerError("periodic timer is already running")
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop ticking."""
        self._running = False
        if self._event is not None and self._event.pending:
            self._event.cancel()
        self._event = None

    def _schedule_next(self) -> None:
        self._event = self._scheduler.schedule(self._interval, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        self._callback()
        if self._running:
            self._schedule_next()

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return f"PeriodicTimer(interval={self._interval}, {state})"
