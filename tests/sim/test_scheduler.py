"""Tests for the discrete-event scheduler."""

import pytest

from repro.errors import DeadlockError, SchedulerError
from repro.sim import Scheduler


class TestScheduling:
    def test_events_run_in_time_order(self, scheduler: Scheduler):
        order = []
        scheduler.schedule(2.0, lambda: order.append("late"))
        scheduler.schedule(1.0, lambda: order.append("early"))
        scheduler.run_until_idle()
        assert order == ["early", "late"]

    def test_same_time_runs_in_scheduling_order(self, scheduler: Scheduler):
        order = []
        scheduler.schedule(1.0, lambda: order.append("a"))
        scheduler.schedule(1.0, lambda: order.append("b"))
        scheduler.schedule(1.0, lambda: order.append("c"))
        scheduler.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, scheduler: Scheduler):
        times = []
        scheduler.schedule(1.5, lambda: times.append(scheduler.now))
        scheduler.run_until_idle()
        assert times == [1.5]

    def test_negative_delay_rejected(self, scheduler: Scheduler):
        with pytest.raises(SchedulerError):
            scheduler.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, scheduler: Scheduler):
        scheduler.schedule(1.0, lambda: None)
        scheduler.run_until_idle()
        with pytest.raises(SchedulerError):
            scheduler.schedule_at(0.5, lambda: None)

    def test_arguments_forwarded(self, scheduler: Scheduler):
        received = []
        scheduler.schedule(0.1, lambda a, b=None: received.append((a, b)), 1, b=2)
        scheduler.run_until_idle()
        assert received == [(1, 2)]


class TestCancellation:
    def test_cancelled_event_does_not_run(self, scheduler: Scheduler):
        ran = []
        event = scheduler.schedule(1.0, lambda: ran.append(True))
        event.cancel()
        scheduler.run_until_idle()
        assert ran == []

    def test_pending_flag(self, scheduler: Scheduler):
        event = scheduler.schedule(1.0, lambda: None)
        assert event.pending
        event.cancel()
        assert not event.pending

    def test_dispatched_event_not_pending(self, scheduler: Scheduler):
        event = scheduler.schedule(1.0, lambda: None)
        scheduler.run_until_idle()
        assert event.dispatched and not event.pending


class TestRunModes:
    def test_run_until_idle_returns_dispatch_count(self, scheduler: Scheduler):
        for _ in range(5):
            scheduler.schedule(0.1, lambda: None)
        assert scheduler.run_until_idle() == 5

    def test_run_for_only_runs_due_events(self, scheduler: Scheduler):
        ran = []
        scheduler.schedule(1.0, lambda: ran.append("early"))
        scheduler.schedule(5.0, lambda: ran.append("late"))
        scheduler.run_for(2.0)
        assert ran == ["early"]
        assert scheduler.now == 2.0

    def test_run_for_advances_clock_even_without_events(self, scheduler: Scheduler):
        scheduler.run_for(3.0)
        assert scheduler.now == 3.0

    def test_run_for_negative_rejected(self, scheduler: Scheduler):
        with pytest.raises(SchedulerError):
            scheduler.run_for(-1.0)

    def test_run_until_time_dispatches_up_to_deadline(self, scheduler: Scheduler):
        ran = []
        scheduler.schedule(1.0, lambda: ran.append(1))
        scheduler.schedule(2.0, lambda: ran.append(2))
        scheduler.schedule(3.0, lambda: ran.append(3))
        scheduler.run_until_time(2.0)
        assert ran == [1, 2]

        # A cancelled event before a deadline that falls between two live
        # events: the clock lands exactly on the deadline and the later live
        # event stays pending.
        gapped = Scheduler()
        gapped_ran = []
        gapped.schedule(1.0, lambda: gapped_ran.append(1))
        gapped.schedule(1.5, lambda: gapped_ran.append("cancelled")).cancel()
        later = gapped.schedule(3.0, lambda: gapped_ran.append(3))
        gapped.run_until_time(2.0)
        assert gapped_ran == [1]
        assert gapped.now == 2.0
        assert later.pending
        assert gapped.pending_count == 1

    def test_run_until_condition(self, scheduler: Scheduler):
        state = {"done": False}
        scheduler.schedule(1.0, lambda: state.update(done=True))
        scheduler.schedule(2.0, lambda: None)
        dispatched = scheduler.run_until(lambda: state["done"])
        assert dispatched == 1
        assert scheduler.now == 1.0

    def test_run_until_accepts_a_condition_met_by_the_last_allowed_event(
        self, scheduler: Scheduler
    ):
        box = []
        for value in range(3):
            scheduler.schedule(1.0 + value, box.append, value)
        assert scheduler.run_until(lambda: len(box) == 3, max_events=3) == 3
        assert box == [0, 1, 2]

    def test_run_until_guard_raises_when_the_condition_still_fails(
        self, scheduler: Scheduler
    ):
        box = []
        for value in range(4):
            scheduler.schedule(1.0 + value, box.append, value)
        with pytest.raises(SchedulerError):
            scheduler.run_until(lambda: len(box) == 4, max_events=3)
        assert box == [0, 1, 2]

    def test_run_until_raises_deadlock_when_unsatisfiable(self, scheduler: Scheduler):
        with pytest.raises(DeadlockError):
            scheduler.run_until(lambda: False)

    def test_run_until_idle_guard_against_runaway(self, scheduler: Scheduler):
        def reschedule():
            scheduler.schedule(0.001, reschedule)

        scheduler.schedule(0.001, reschedule)
        with pytest.raises(SchedulerError):
            scheduler.run_until_idle(max_events=100)

    def test_events_scheduled_during_dispatch_run(self, scheduler: Scheduler):
        order = []

        def outer():
            order.append("outer")
            scheduler.schedule(0.5, lambda: order.append("inner"))

        scheduler.schedule(1.0, outer)
        scheduler.run_until_idle()
        assert order == ["outer", "inner"]


class TestEventState:
    def test_repr_reports_done_not_cancelled_after_dispatch(self, scheduler: Scheduler):
        event = scheduler.schedule(1.0, lambda: None, label="job")
        scheduler.run_until_idle()
        event.cancel()  # defensive late cancel: must stay a no-op
        assert "done" in repr(event)
        assert "cancelled" not in repr(event)
        assert not event.cancelled

    def test_repr_states(self, scheduler: Scheduler):
        pending = scheduler.schedule(1.0, lambda: None)
        cancelled = scheduler.schedule(1.0, lambda: None)
        cancelled.cancel()
        assert "pending" in repr(pending)
        assert "cancelled" in repr(cancelled)

    def test_double_cancel_keeps_pending_count_consistent(self, scheduler: Scheduler):
        event = scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert scheduler.pending_count == 1

    def test_pending_count_tracks_cancellation(self, scheduler: Scheduler):
        events = [scheduler.schedule(1.0, lambda: None) for _ in range(10)]
        for event in events[:4]:
            event.cancel()
        assert scheduler.pending_count == 6
        assert scheduler.run_until_idle() == 6
        assert scheduler.pending_count == 0

    def test_lazy_purge_preserves_order_under_mass_cancellation(self, scheduler: Scheduler):
        order = []
        keepers = []
        for index in range(500):
            event = scheduler.schedule(
                (index % 7) * 0.1, lambda i=index: order.append(i)
            )
            if index % 5:
                event.cancel()  # 80% cancelled: triggers the heap purge
            else:
                keepers.append(((index % 7) * 0.1, index))
        assert scheduler.pending_count == len(keepers)
        scheduler.run_until_idle()
        keepers.sort()
        assert order == [index for _time, index in keepers]

    def test_run_for_with_only_cancelled_events_advances_clock(self, scheduler: Scheduler):
        event = scheduler.schedule(1.0, lambda: None)
        event.cancel()
        scheduler.run_for(2.0)
        assert scheduler.now == 2.0

    def test_mass_cancel_inside_callback_does_not_strand_run_loop(
        self, scheduler: Scheduler
    ):
        """A callback that triggers the lazy heap purge (mass cancellation)
        must not leave run_until_time iterating a stale queue: follow-up
        events still dispatch and the clock never runs past them."""
        ran = []
        victims = [scheduler.schedule(2.0, lambda: ran.append("victim")) for _ in range(200)]

        def mass_cancel():
            for event in victims:
                event.cancel()
            scheduler.schedule(0.5, lambda: ran.append("follow-up"))

        scheduler.schedule(1.0, mass_cancel)
        scheduler.run_for(5.0)
        assert ran == ["follow-up"]
        assert scheduler.now == 5.0
        assert scheduler.pending_count == 0
        scheduler.run_until_idle()  # must not raise (clock never overshot)


class TestIntrospection:
    def test_pending_and_dispatched_counts(self, scheduler: Scheduler):
        scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        assert scheduler.pending_count == 2
        scheduler.run_until_idle()
        assert scheduler.pending_count == 0
        assert scheduler.dispatched_count == 2

    def test_trace_records_labels(self, scheduler: Scheduler):
        scheduler.enable_tracing()
        scheduler.schedule(1.0, lambda: None, label="first")
        scheduler.schedule(2.0, lambda: None, label="second")
        scheduler.run_until_idle()
        assert scheduler.trace == [(1.0, "first"), (2.0, "second")]

    def test_trace_empty_without_tracing(self, scheduler: Scheduler):
        scheduler.schedule(1.0, lambda: None)
        scheduler.run_until_idle()
        assert scheduler.trace == []
