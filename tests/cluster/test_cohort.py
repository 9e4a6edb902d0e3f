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

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import CohortModel, Scenario, op
from repro.cluster.presets import (
    cohort_scale_cost_model,
    fault_drill_scenario,
    million_client_scenario,
)
from repro.core.sde import SDEConfig
from repro.errors import ClusterError
from repro.faults import crash
from repro.rmitypes import STRING


def _echo_scenario(clients, *, calls, replicas, arrival, cohort=None):
    """One round-robin echo service over 2 bounded-core servers."""
    echo = op("echo", (("message", STRING),), STRING, body=lambda _self, m: m)
    return (
        Scenario(
            name="cohort-equivalence",
            sde_config=SDEConfig(
                generation_cost=0.0, cost_model=cohort_scale_cost_model()
            ),
        )
        .servers(2, cores=2)
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
        assert modeled.total_modeled_calls == clients * calls
        assert modeled.total_abandoned_calls == 0
        assert modeled.total_recency_violations == 0
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
        assert report.total_calls == 4 * 2  # discrete calls stay discrete
        assert report.total_modeled_calls == 16 * 2
        assert report.service("Echo").calls_routed == 20 * 2


class TestCohortDeterminism:
    def test_fingerprint_stable_across_reruns(self):
        """Two fresh runs of the cohort drill are byte-identical."""
        first = million_client_scenario(2000).run()
        second = million_client_scenario(2000).run()
        assert first.cohort_fingerprint() == second.cohort_fingerprint()
        assert first.all_rtts == second.all_rtts
        assert first.events_dispatched == second.events_dispatched

    def test_partitioned_streams_only_appear_with_flows(self):
        """Discrete-only scenarios keep the scheduler's single-queue path."""
        runtime = _echo_scenario(4, calls=1, replicas=2, arrival=0.0).build()
        runtime.run()
        assert runtime.world.scheduler.partition_count == 0
        cohort_runtime = _echo_scenario(
            8,
            calls=1,
            replicas=2,
            arrival=0.0,
            cohort=CohortModel(representatives=0),
        ).build()
        cohort_runtime.run()
        assert cohort_runtime.world.scheduler.partition_count > 0


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
        assert report.total_recency_violations == 0

    def test_drill_with_cohort_keeps_recency_and_conserves_calls(self):
        """Crash + partition + heal + restart at cohort scale: §6 holds."""
        report = fault_drill_scenario(
            800, cohort=CohortModel(representatives=8), calls=2, arrival=0.2 / 800
        ).run()
        assert report.modeled_clients == 800 - 8
        assert report.total_recency_violations == 0
        modeled_issued = report.modeled_clients * 2
        assert (
            report.total_modeled_calls + report.total_abandoned_calls
            == modeled_issued
        )

    def test_rolling_breaking_upgrade_rebinds_flows(self):
        """The million-client drill's breaking upgrade reaches the flows."""
        report = million_client_scenario(1500).run()
        assert report.total_rebinds > 0
        assert report.total_stale_faults_modeled > 0
        assert report.total_recency_violations == 0
        assert any(record.service == "EchoSoap" for record in report.rollouts)


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
        assert report.total_calls > 0

    def test_clients_rejects_non_cohort_model(self):
        with pytest.raises(ClusterError):
            Scenario().clients(10, cohort=42)


class TestCohortModelValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"representatives": -1},
            {"tick": 0.0},
            {"period": -0.1},
            {"cpu_cost": -1e-9},
            {"max_attempts": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ClusterError):
            CohortModel(**kwargs)


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
        assert list(flow.offsets) == [0.0, 0.5, 1.0, 1.5]

    def test_float_step_scales_positions(self):
        plans, (flow,) = self._plans(7, 0.25, representatives=4)
        assert [plan.start_offset for plan in plans] == [0.0, 0.25, 0.5, 0.75]
        assert list(flow.offsets) == [1.0, 1.25, 1.5]

    def test_negative_step_rejected(self):
        with pytest.raises(ClusterError):
            self._plans(2, -0.1)

    def test_negative_offset_rejected(self):
        with pytest.raises(ClusterError):
            self._plans(2, lambda i: i - 1.0)
