"""Tests for the bounded server CPU model."""

import pytest

from repro.errors import SchedulerError
from repro.sim import Scheduler, ServerCore


class TestServerCore:
    def test_idle_machine_charges_only_the_cost(self, scheduler: Scheduler):
        core = ServerCore(scheduler, cores=1)
        assert core.charge(0.5) == 0.5

    def test_single_core_serialises_concurrent_jobs(self, scheduler: Scheduler):
        core = ServerCore(scheduler, cores=1)
        assert core.charge(1.0) == 1.0
        assert core.charge(1.0) == 2.0
        assert core.charge(0.5) == 2.5

    def test_two_cores_run_two_jobs_in_parallel(self, scheduler: Scheduler):
        core = ServerCore(scheduler, cores=2)
        assert core.charge(1.0) == 1.0
        assert core.charge(1.0) == 1.0
        # The third job queues behind the earliest-free core.
        assert core.charge(1.0) == 2.0

    def test_cores_free_up_as_virtual_time_passes(self, scheduler: Scheduler):
        core = ServerCore(scheduler, cores=1)
        core.charge(1.0)
        scheduler.schedule(2.0, lambda: None)
        scheduler.run_until_idle()
        # At t=2.0 the core has been idle for a second.
        assert core.charge(0.25) == 0.25

    def test_contention_statistics(self, scheduler: Scheduler):
        core = ServerCore(scheduler, cores=1)
        # The first job runs at once; the other two queue behind it.
        assert [core.charge(1.0) for _ in range(3)] == [1.0, 2.0, 3.0]
        assert core.busy_seconds == pytest.approx(3.0)
        assert core.waited_seconds == pytest.approx(1.0 + 2.0)
        assert core.max_queue_delay == pytest.approx(2.0)

    def test_busy_cores_gauge(self, scheduler: Scheduler):
        core = ServerCore(scheduler, cores=4)
        assert core.busy_cores == 0
        core.charge(1.0)
        core.charge(1.0)
        assert core.busy_cores == 2

    def test_zero_cost_job_is_free_on_an_idle_machine(self, scheduler: Scheduler):
        core = ServerCore(scheduler, cores=1)
        assert core.charge(0.0) == 0.0

    def test_invalid_configuration_rejected(self, scheduler: Scheduler):
        with pytest.raises(SchedulerError):
            ServerCore(scheduler, cores=0)
        core = ServerCore(scheduler, cores=1)
        with pytest.raises(SchedulerError):
            core.charge(-0.1)

    def test_charging_is_deterministic(self, scheduler: Scheduler):
        def run() -> list[float]:
            local = Scheduler()
            core = ServerCore(local, cores=3)
            delays = []
            for index in range(20):
                delays.append(core.charge(0.1 * (index % 4)))
            return delays

        assert run() == run()
