"""Tests for the resettable and periodic timers (the §5.6 mechanism)."""

import pytest

from repro.errors import SchedulerError
from repro.sim import PeriodicTimer, ResettableTimer, Scheduler


class TestResettableTimer:
    def test_fires_after_timeout(self, scheduler: Scheduler):
        fired = []
        timer = ResettableTimer(scheduler, 2.0, lambda: fired.append(scheduler.now))
        timer.start()
        scheduler.run_until_idle()
        assert fired == [2.0]

    def test_not_started_until_start_called(self, scheduler: Scheduler):
        fired = []
        ResettableTimer(scheduler, 1.0, lambda: fired.append(True))
        scheduler.run_until_idle()
        assert fired == []

    def test_reset_extends_deadline(self, scheduler: Scheduler):
        """A change before expiry restarts the countdown — the heart of §5.6."""
        fired = []
        timer = ResettableTimer(scheduler, 2.0, lambda: fired.append(scheduler.now))
        timer.start()
        scheduler.run_for(1.5)
        timer.reset()
        scheduler.run_until_idle()
        assert fired == [3.5]

    def test_multiple_resets_only_fire_once(self, scheduler: Scheduler):
        fired = []
        timer = ResettableTimer(scheduler, 1.0, lambda: fired.append(scheduler.now))
        timer.start()
        for _ in range(5):
            scheduler.run_for(0.5)
            timer.reset()
        scheduler.run_until_idle()
        assert len(fired) == 1
        assert fired[0] == pytest.approx(3.5)

    def test_cancel_prevents_firing(self, scheduler: Scheduler):
        fired = []
        timer = ResettableTimer(scheduler, 1.0, lambda: fired.append(True))
        timer.start()
        timer.cancel()
        scheduler.run_until_idle()
        assert fired == []
        assert not timer.running

    def test_running_and_deadline(self, scheduler: Scheduler):
        timer = ResettableTimer(scheduler, 2.0, lambda: None)
        assert not timer.running
        assert timer.deadline is None
        timer.start()
        assert timer.running
        assert timer.deadline == 2.0

    def test_timeout_change_applies_to_next_countdown(self, scheduler: Scheduler):
        fired = []
        timer = ResettableTimer(scheduler, 2.0, lambda: fired.append(scheduler.now))
        timer.start()
        timer.timeout = 5.0
        # current countdown keeps its original deadline
        scheduler.run_until_idle()
        assert fired == [2.0]
        timer.start()
        scheduler.run_until_idle()
        assert fired == [2.0, 7.0]

    def test_invalid_timeout_rejected(self, scheduler: Scheduler):
        with pytest.raises(ValueError):
            ResettableTimer(scheduler, 0.0, lambda: None)
        timer = ResettableTimer(scheduler, 1.0, lambda: None)
        with pytest.raises(ValueError):
            timer.timeout = -1.0

    def test_expiration_counter(self, scheduler: Scheduler):
        fired = []
        timer = ResettableTimer(scheduler, 1.0, lambda: fired.append(scheduler.now))
        timer.start()
        scheduler.run_until_idle()
        timer.start()
        scheduler.run_until_idle()
        assert fired == [1.0, 2.0]


class TestPeriodicTimer:
    def test_ticks_at_each_interval(self, scheduler: Scheduler):
        ticks = []
        timer = PeriodicTimer(scheduler, 1.0, lambda: ticks.append(scheduler.now))
        timer.start()
        scheduler.run_for(3.5)
        timer.stop()
        assert ticks == [1.0, 2.0, 3.0]

    def test_stop_prevents_future_ticks(self, scheduler: Scheduler):
        ticks = []
        timer = PeriodicTimer(scheduler, 1.0, lambda: ticks.append(scheduler.now))
        timer.start()
        scheduler.run_for(1.5)
        timer.stop()
        scheduler.run_for(5.0)
        assert ticks == [1.0]

    def test_double_start_rejected(self, scheduler: Scheduler):
        timer = PeriodicTimer(scheduler, 1.0, lambda: None)
        timer.start()
        with pytest.raises(SchedulerError):
            timer.start()

    def test_tick_counter(self, scheduler: Scheduler):
        timer = PeriodicTimer(scheduler, 0.5, lambda: None)
        timer.start()
        scheduler.run_for(2.1)
        timer.stop()
        assert timer.ticks == 4

    def test_callback_stopping_timer_mid_tick(self, scheduler: Scheduler):
        timer = PeriodicTimer(scheduler, 1.0, lambda: timer.stop())
        timer.start()
        scheduler.run_for(5.0)
        assert timer.ticks == 1
