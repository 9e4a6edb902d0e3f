"""Tests for multi-client fleets against one SDE server, and the scale-out
experiment.

Each fleet is a one-server :class:`~repro.cluster.Scenario` with an echo
service.  Reruns of one :class:`~repro.cluster.ScenarioRuntime`, and
:class:`~repro.cluster.FleetDriver` runs over its registry, check that the
report's server-side counters are per run, not lifetime.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClientPlan, FleetDriver, Scenario, edit, op
from repro.core.sde import SDEConfig
from repro.errors import TechnologyError
from repro.experiments.multi_client import (
    SCENARIO_STALE_STORM,
    run_multi_client,
)
from repro.net.latency import era_2004_cost_model
from repro.rmitypes import STRING

ECHO = op("echo", (("m", STRING),), STRING, body=lambda _self, m: m)


def _echo_fleet(technology: str, clients: int, calls: int, **options) -> Scenario:
    """``clients`` clients making ``calls`` echo calls each."""
    return (
        Scenario()
        .service("EchoService", [ECHO], technology=technology)
        .clients(clients, service="EchoService", calls=calls, arguments=("ping",), **options)
    )


def _stale_storm(technology: str, clients: int, calls: int, stale_every: int) -> Scenario:
    """A fleet whose every ``stale_every``-th call hits a missing method while
    an edit at time 0 leaves the published interface behind (§5.7 stalls)."""
    return _echo_fleet(
        technology, clients, calls, stale_every=stale_every, think_time=0.05
    ).at(0.0, edit("EchoService", op("added_later")))


class TestClientFleet:
    def test_create_client_fleet_names_and_count(self):
        world = Scenario().build().world
        fleet = world.client_fleet(3)
        assert [host.name for host in fleet] == [
            "fleet-client-1",
            "fleet-client-2",
            "fleet-client-3",
        ]
        assert all(host.network is world.network for host in fleet)
        # A second fleet on the same world reuses the machines.
        assert world.client_fleet(2) == fleet[:2]

    def test_add_client_reuses_a_named_host(self):
        world = Scenario().build().world
        host = world.add_client("laptop")
        assert world.add_client("laptop") is host
        assert world.client_hosts.count(host) == 1


class TestWorkloadSteadyState:
    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_all_calls_succeed(self, technology):
        report = _echo_fleet(technology, clients=6, calls=4).run()
        outcomes = report.outcomes("all")
        assert outcomes.calls == 24
        assert outcomes.successes == 24
        assert outcomes.stale_faults == 0
        assert report.duration > 0
        assert report.mean_rtt > 0
        assert report.throughput > 0

    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_one_keepalive_connection_per_client(self, technology):
        report = _echo_fleet(technology, clients=5, calls=3).run()
        assert report.server_connections == 5
        assert sum(service.replies_sent for service in report.services) == 15

    def test_per_client_results_recorded(self):
        report = _echo_fleet("soap", clients=3, calls=2).run()
        assert len(report.clients) == 3
        for client in report.clients:
            assert client.calls == 2
            assert client.successes == 2
            assert client.mean_rtt > 0
            assert client.max_rtt >= client.mean_rtt

    def test_think_time_stretches_duration(self):
        fast = _echo_fleet("soap", clients=2, calls=3).run()
        slow = _echo_fleet("soap", clients=2, calls=3, think_time=1.0).run()
        assert slow.duration > fast.duration + 1.5


class TestWorkloadDeterminism:
    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_identical_runs_produce_identical_rtts(self, technology):
        def run_once():
            return _stale_storm(technology, clients=8, calls=4, stale_every=4).run()

        first, second = run_once(), run_once()
        assert first.all_rtts == second.all_rtts
        assert first.duration == second.duration
        assert first.max_stall_queue_depth == second.max_stall_queue_depth
        assert first.fingerprint() == second.fingerprint()


class TestWorkloadStaleStorm:
    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_stall_queue_forms_and_drains(self, technology):
        report = _stale_storm(technology, clients=8, calls=6, stale_every=3).run()
        # Every third of six calls per client is stale.
        outcomes = report.outcomes("all")
        assert outcomes.stale_faults == 8 * 2
        assert report.stalled_calls > 0
        assert report.max_stall_queue_depth > 0
        # Everything drained: every call got an answer.
        assert outcomes.calls == 8 * 6
        assert outcomes.successes == 8 * 4


class TestWorkloadReruns:
    def test_max_stall_queue_depth_is_per_run(self):
        """A later run on the same world must not inherit an earlier run's
        stall-queue high-water mark or endpoint counters."""
        runtime = _stale_storm("soap", clients=6, calls=6, stale_every=3).build()
        storm = runtime.run()
        assert storm.max_stall_queue_depth > 0
        runtime.settle()

        # The timeline fires only in the first run, so the rerun's stale
        # calls meet a current published interface and never stall.
        rerun = runtime.run()
        assert rerun.outcomes("discrete").stale_faults == 6 * 2
        assert rerun.max_stall_queue_depth == 0
        # The lifetime maximum on the handler stats survives for observers.
        handler = runtime.replicas("EchoService")[0].call_handler
        assert handler.stats.max_stall_queue_depth == storm.max_stall_queue_depth
        # Endpoint accounting is per run too, not lifetime.
        assert sum(service.replies_sent for service in rerun.services) == 6 * 6
        assert rerun.server_connections == 6


class TestScalingExperiment:
    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_steady_scenario_summary(self, technology):
        result = run_multi_client(technology, clients=4, calls_per_client=3)
        assert result.report.outcomes("discrete").calls == 12
        assert result.server_connections == 4
        assert result.stalled_calls == 0

    def test_stale_storm_scenario_stalls(self):
        result = run_multi_client(
            "soap", clients=6, calls_per_client=6, scenario=SCENARIO_STALE_STORM
        )
        assert result.stalled_calls > 0
        assert result.max_stall_queue_depth > 0

    @pytest.mark.parametrize("technology", ["soap", "corba"])
    @pytest.mark.parametrize("clients", [8, 32])
    def test_stale_storm_queue_grows_with_the_fleet(self, technology, clients):
        result = run_multi_client(
            technology, clients, calls_per_client=6, scenario=SCENARIO_STALE_STORM
        )
        # Every third of six calls per client is stale.
        assert result.report.outcomes("discrete").stale_faults == clients * 2
        assert result.stalled_calls > 0
        assert result.max_stall_queue_depth >= clients // 4

    def test_corba_stays_cheaper_than_soap_as_the_fleet_grows(self):
        # Table 1's shape must survive scale-out.
        for clients in (1, 8, 32):
            corba = run_multi_client("corba", clients, calls_per_client=3)
            soap = run_multi_client("soap", clients, calls_per_client=3)
            assert corba.mean_rtt < soap.mean_rtt, clients

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_multi_client("soap", clients=1, scenario="nope")


class TestWorkloadValidation:
    def test_unknown_technology_rejected(self):
        with pytest.raises(TechnologyError):
            Scenario().service("EchoService", [ECHO], technology="grpc").build()


class TestCoreWaitAccounting:
    def test_server_max_core_wait_is_per_run(self):
        """The longest single core wait is a per-run figure (as documented):
        a light run after a heavy one must not inherit its high water,
        while the core keeps the lifetime maximum for observers."""
        runtime = (
            Scenario(
                sde_config=SDEConfig(cost_model=era_2004_cost_model(), server_cores=1)
            )
            .servers(1)
            .service("EchoService", [ECHO])
            .clients(16, service="EchoService", calls=3, arguments=("ping",))
            .build()
        )
        heavy = runtime.run()
        light_client = ClientPlan(
            index=0,
            host=runtime.world.add_client("light-client"),
            protocol="soap",
            service="EchoService",
            calls=1,
            operation="echo",
            arguments=("ping",),
        )
        light = FleetDriver(runtime.world.scheduler, runtime.registry, [light_client]).run()
        heavy_wait = heavy.nodes[0].max_core_wait
        assert heavy_wait > 0
        assert light.nodes[0].max_core_wait < heavy_wait
        # The core itself keeps the lifetime high-water mark.
        assert runtime.nodes[0].server_core.max_queue_delay == heavy_wait
