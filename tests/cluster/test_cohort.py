"""Cohort/flow-level client aggregation: equivalence, determinism, faults.

The load-bearing property is **cohort-vs-discrete equivalence**: a client
group modeled entirely as a :class:`CohortFlow` (``representatives=0``)
must route exactly the same number of calls to exactly the same replicas
as the same group simulated discretely — the round-robin ``select_many``
is cursor-equivalent to repeated ``select`` — and must charge the server
cores approximately the same CPU (approximate only because the modeled
cost is calibrated from one probe call whose message sizes embed a
different host name).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import CohortModel, Scenario, op
from repro.cluster.cohort import READ_CHUNK, CohortFlow
from repro.cluster.presets import (
    cohort_scale_cost_model,
    fault_drill_scenario,
    million_client_scenario,
)
from repro.core.sde import SDEConfig
from repro.errors import ClusterError, DeadlockError
from repro.faults import crash
from repro.net.transport import Deferred
from repro.rmitypes import STRING
from repro.traffic import ArrivalProcess, Poisson


def _echo_scenario(clients, *, calls, replicas, arrival, cohort=None):
    """One round-robin echo service over 2 bounded-core servers."""
    echo = op("echo", (("message", STRING),), STRING, body=lambda _self, m: m)
    return (
        Scenario(
            name="cohort-equivalence",
            sde_config=SDEConfig(
                generation_cost=0.0,
                cost_model=cohort_scale_cost_model(),
                server_cores=2,
            ),
        )
        .servers(2)
        .service("Echo", [echo], technology="soap", replicas=replicas)
        .clients(
            clients,
            service="Echo",
            calls=calls,
            operation="echo",
            arguments=("hi",),
            think_time=0.001,
            arrival=arrival,
            cohort=cohort,
        )
    )


class TestCohortDiscreteEquivalence:
    @given(
        clients=st.integers(min_value=2, max_value=24),
        calls=st.integers(min_value=1, max_value=3),
        replicas=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_flow_routes_exactly_like_the_discrete_fleet(
        self, clients, calls, replicas
    ):
        """representatives=0 flow vs all-discrete: identical per-replica
        routing, full conservation, §6 recency intact."""
        arrival = 0.0002
        discrete = _echo_scenario(
            clients, calls=calls, replicas=replicas, arrival=arrival
        ).run()
        modeled = _echo_scenario(
            clients,
            calls=calls,
            replicas=replicas,
            arrival=arrival,
            cohort=CohortModel(representatives=0, tick=0.002),
        ).run()

        # Same calls to the same replicas — round-robin select_many is
        # cursor-equivalent to repeated select.
        assert [r.calls_routed for r in modeled.service("Echo").replicas] == [
            r.calls_routed for r in discrete.service("Echo").replicas
        ]
        # Conservation: every modeled call completed, none abandoned.
        flows = modeled.outcomes("modeled")
        assert flows.calls == clients * calls
        assert flows.abandoned_calls == 0
        assert modeled.outcomes("all").recency_violations == 0
        assert modeled.simulated_clients == discrete.simulated_clients == clients
        # The calibrated CPU model charges what the discrete stack charged,
        # up to message-size differences from the probe host's name.
        discrete_busy = sum(node.busy_seconds for node in discrete.nodes)
        modeled_busy = sum(node.busy_seconds for node in modeled.nodes)
        assert modeled_busy == pytest.approx(discrete_busy, rel=0.02)

    def test_representatives_split_keeps_totals(self):
        """A mixed group (discrete reps + flow mass) carries every client."""
        report = _echo_scenario(
            20,
            calls=2,
            replicas=2,
            arrival=0.0002,
            cohort=CohortModel(representatives=4),
        ).run()
        assert len(report.clients) == 4
        assert report.modeled_clients == 16
        assert report.simulated_clients == 20
        assert report.outcomes("discrete").calls == 4 * 2  # discrete calls stay discrete
        assert report.outcomes("modeled").calls == 16 * 2
        assert report.service("Echo").calls_routed == 20 * 2


class TestCohortDeterminism:
    def test_fingerprint_stable_across_reruns(self):
        """Two fresh runs of the cohort drill are byte-identical."""
        first = million_client_scenario(2000).run()
        second = million_client_scenario(2000).run()
        assert first.cohort_fingerprint() == second.cohort_fingerprint()
        assert first.all_rtts == second.all_rtts
        assert first.events_dispatched == second.events_dispatched


class TestCohortFaults:
    def test_total_outage_abandons_after_retry_budget(self):
        """Both replicas crashed: flows retry per tick, then abandon."""
        scenario = _echo_scenario(
            12,
            calls=2,
            replicas=2,
            arrival=lambda position: 0.005 + position * 0.0001,
            cohort=CohortModel(representatives=0, tick=0.002, max_attempts=3),
        )
        scenario.at(0.001, crash("server-1")).at(0.001, crash("server-2"))
        report = scenario.run()
        cohort = report.cohorts[0]
        assert cohort.successes == 0
        assert cohort.abandoned_calls == 12 * 2
        assert cohort.retried_calls == 12 * 2 * 2  # two retries per call
        assert cohort.failed_attempts == 12 * 2 * 3  # every attempt failed
        assert report.outcomes("all").recency_violations == 0

    def test_drill_with_cohort_keeps_recency_and_conserves_calls(self):
        """Crash + partition + heal + restart at cohort scale: §6 holds."""
        report = fault_drill_scenario(
            800, cohort=CohortModel(representatives=8), calls=2, arrival=0.2 / 800
        ).run()
        assert report.modeled_clients == 800 - 8
        assert report.outcomes("all").recency_violations == 0
        assert report.outcomes("modeled").issued == report.modeled_clients * 2

    def test_drill_outcomes_sum_both_populations_and_conserve_calls(self):
        """Crash + partition with a cohort: the fleet-wide tally is the
        discrete one plus the modeled one, and each population issued
        exactly the calls it planned."""
        report = fault_drill_scenario(512, cohort=CohortModel(representatives=32)).run()
        discrete = report.outcomes("discrete")
        modeled = report.outcomes("modeled")
        assert report.outcomes("all") == discrete + modeled
        assert discrete.issued == len(report.clients) * 4
        assert modeled.issued == sum(
            cohort.modeled_clients * cohort.calls_per_client for cohort in report.cohorts
        )

    def test_rolling_breaking_upgrade_rebinds_flows(self):
        """The million-client drill's breaking upgrade reaches the flows."""
        report = million_client_scenario(1500).run()
        assert report.outcomes("all").rebinds > 0
        assert report.outcomes("modeled").stale_faults > 0
        assert report.outcomes("all").recency_violations == 0
        assert any(record.service == "EchoSoap" for record in report.rollouts)
        # Every client is carried: 32 representatives, the rest modeled,
        # and every modeled call completed or was abandoned.
        assert report.simulated_clients == 1500
        assert len(report.clients) == 32
        assert report.modeled_clients == 1500 - 32
        assert report.outcomes("modeled").issued == report.modeled_clients * 2
        # The bounded server cores contended: modeled latency spread out.
        percentiles = report.modeled_rtt_percentiles
        assert percentiles["p99"] > percentiles["p50"]


class TestPresetParameterization:
    def test_drill_defaults_keep_historical_shape(self):
        scenario = fault_drill_scenario()
        assert scenario._server_count == 4
        assert [group.count for group in scenario._client_groups] == [256]
        assert scenario._client_groups[0].calls == 4
        assert [time for time, _action in scenario._timeline] == [
            0.020,
            0.030,
            0.040,
            0.050,
            0.110,
            0.150,
        ]

    def test_drill_rejects_single_server(self):
        with pytest.raises(ValueError):
            fault_drill_scenario(servers=1)

    def test_two_server_drill_separates_fault_targets(self):
        """servers=2 crashes server-1 and partitions server-2 — the two
        fault classes never collapse onto one machine."""
        report = fault_drill_scenario(
            clients=16, servers=2, calls=2, arrival=0.001
        ).run()
        downtimes = {node.name: node.downtime_s for node in report.nodes}
        assert downtimes["server-1"] > 0  # crash + restart window
        assert downtimes["server-2"] == 0  # partitioned, never crashed
        assert report.outcomes("discrete").calls > 0

    def test_clients_rejects_non_cohort_model(self):
        with pytest.raises(ClusterError):
            Scenario().clients(10, cohort=42)


class TestCohortModelValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"representatives": -1},
            {"tick": 0.0},
            {"tick": -0.005},
            {"max_attempts": -1},
            {"max_attempts": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ClusterError):
            CohortModel(**kwargs)


def _dealt(flow):
    """Every offset the flow's group reader deals it, read as a flow reads."""
    flow._fill(float("inf"))
    return list(array("d", flow._buffer))


@dataclass(frozen=True)
class _MiscountedArrivals(ArrivalProcess):
    """Arrivals whose stream yields ``extra`` offsets more than its count."""

    extra: int = 0

    def stream(self, count):
        return repeat(0.0, count + self.extra)


class TestFlowOffsets:
    """The flow mass's offsets as the plan builder hands them to the flow."""

    @staticmethod
    def _plans(clients, arrival, representatives=0):
        return _echo_scenario(
            clients,
            calls=1,
            replicas=1,
            arrival=arrival,
            cohort=CohortModel(representatives=representatives),
        ).build()._build_plans()

    def test_callable_offsets_are_sorted(self):
        _plans, (flow,) = self._plans(4, lambda i: (3 - i) * 0.5)
        assert _dealt(flow) == [0.0, 0.5, 1.0, 1.5]

    def test_float_step_scales_positions(self):
        plans, (flow,) = self._plans(7, 0.25, representatives=4)
        assert [plan.start_offset for plan in plans] == [0.0, 0.25, 0.5, 0.75]
        assert _dealt(flow) == [1.0, 1.25, 1.5]

    def test_negative_step_rejected(self):
        with pytest.raises(ClusterError):
            self._plans(2, -0.1)

    def test_negative_offset_rejected(self):
        with pytest.raises(ClusterError):
            self._plans(2, lambda i: i - 1.0)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["shorter", "longer"])
    def test_stream_length_must_match_the_mass(self, extra):
        _plans, (flow,) = self._plans(3000, _MiscountedArrivals(extra=extra))
        assert flow.mass == 3000
        with pytest.raises(ClusterError, match="cohort flow 'cohort-1'"):
            flow._fill(float("inf"))

    def test_overflowing_poisson_offsets_fail_the_run(self):
        # Gaps near 1e306 seconds: the cumulative offsets pass the largest
        # float within a few hundred clients and become inf.
        arrival = Poisson(rate=1e-306)
        with pytest.raises(ClusterError, match="cohort flow 'cohort-1'.*finite"):
            _echo_scenario(
                1000,
                calls=1,
                replicas=1,
                arrival=arrival,
                cohort=CohortModel(representatives=0),
            ).run()
        # Without a flow the representatives' offsets are checked up front.
        with pytest.raises(ClusterError, match="must be finite"):
            _echo_scenario(1000, calls=1, replicas=1, arrival=arrival).run()


class _ProbeStack:
    """A flow stack whose calibration probe is one scripted deferred."""

    def __init__(self, probe: Deferred) -> None:
        self.probe = probe

    def call(self, replica, operation, arguments):
        return self.probe


class TestCalibrationProbe:
    """``_calibrate`` blocks on one probe call through the flow's stack."""

    @staticmethod
    def _flow(probe: Deferred) -> tuple[CohortFlow, Any]:
        runtime = _echo_scenario(
            10, calls=1, replicas=1, arrival=0.001, cohort=CohortModel(representatives=0)
        ).build()
        _plans, (flow,) = runtime._build_plans()
        flow.entry = runtime.registry.lookup("Echo")
        flow.driver = SimpleNamespace(scheduler=runtime.world.scheduler)
        flow.stack = _ProbeStack(probe)
        return flow, runtime.world.scheduler

    def test_probe_rtt_calibrates_the_flow(self):
        probe = Deferred("probe")
        flow, scheduler = self._flow(probe)
        scheduler.schedule(0.004, probe.complete, "reply")
        flow._calibrate()
        assert flow._base_rtt == pytest.approx(0.004)
        assert flow._period == pytest.approx(0.004 + flow.think_time)

    def test_failed_probe_names_the_flow(self):
        probe = Deferred("probe")
        flow, scheduler = self._flow(probe)
        scheduler.schedule(0.004, probe.fail, RuntimeError("no route"))
        with pytest.raises(
            ClusterError, match="cohort flow 'cohort-1' calibration probe failed: .*no route"
        ):
            flow._calibrate()

    def test_unanswered_probe_deadlocks_naming_the_flow(self):
        flow, _scheduler = self._flow(Deferred("probe"))
        with pytest.raises(DeadlockError, match="cohort-1 calibration probe"):
            flow._calibrate()


class TestFlowBuffer:
    """A flow holds about ``calls - 1`` periods of arrivals, not its mass."""

    def test_peak_buffer_does_not_grow_with_the_mass(self, monkeypatch):
        peaks = {}
        fill = CohortFlow._fill

        def recording_fill(flow, elapsed):
            fill(flow, elapsed)
            # The shares its group has dealt the flow but it has not taken
            # yet count too: a lagging flow holds them.
            held = len(flow._buffer) + sum(map(len, flow._shares))
            peaks[flow.name] = max(peaks.get(flow.name, 0), held)

        monkeypatch.setattr(CohortFlow, "_fill", recording_fill)

        def peak_buffers(clients):
            peaks.clear()
            report = fault_drill_scenario(
                clients,
                cores=2,
                cohort=CohortModel(representatives=32),
                calls=3,
                arrival=Poisson(rate=50_000.0, seed=1),
                cost_model=cohort_scale_cost_model(),
            ).run()
            assert report.modeled_clients == clients - 32
            return dict(peaks)

        small, large = peak_buffers(10_000), peak_buffers(40_000)
        assert sorted(small) == sorted(large) == ["cohort-1", "cohort-2"]
        for name, peak in small.items():
            # Each flow's mass is about 5,000 and 20,000 clients.
            assert peak < 5_000
            assert abs(large[name] - peak) <= READ_CHUNK
