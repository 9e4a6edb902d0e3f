"""Tests for the virtual clock: the scheduler's ``now`` attribute."""

import pytest

from repro.errors import SchedulerError
from repro.sim import Scheduler


class TestClock:
    def test_starts_at_zero_by_default(self):
        assert Scheduler().now == 0.0

    def test_advance_to(self):
        scheduler = Scheduler()
        scheduler.run_until_time(2.5)
        assert scheduler.now == 2.5

    def test_advance_to_same_time_allowed(self):
        scheduler = Scheduler()
        times = []
        scheduler.schedule(1, lambda: times.append(scheduler.now))
        scheduler.schedule(1.0, lambda: times.append(scheduler.now))
        scheduler.run_until_time(1.0)
        assert times == [1.0, 1.0]
        assert all(type(time) is float for time in times)

    def test_advance_backwards_rejected(self):
        scheduler = Scheduler()
        scheduler.run_until_time(3.0)
        scheduler.run_until_time(2.9)
        assert scheduler.now == 3.0
        with pytest.raises(SchedulerError):
            scheduler.schedule(2.9 - scheduler.now, lambda: None)

    def test_advance_by(self):
        scheduler = Scheduler()
        scheduler.run_until_time(1.0)
        scheduler.run_for(0.5)
        assert scheduler.now == 1.5

    def test_advance_by_negative_rejected(self):
        with pytest.raises(SchedulerError):
            Scheduler().run_for(-0.1)
