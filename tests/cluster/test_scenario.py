"""Tests for the declarative Scenario API: routing, determinism, timelines."""

from __future__ import annotations

import pytest

from repro.cluster import Scenario, churn, edit, op, publish
from repro.core.sde import SDEConfig
from repro.errors import ClusterError, HostNotFoundError, ServiceNotFoundError
from repro.evolve import abort_rollout
from repro.faults import crash, heal, partition
from repro.rmitypes import STRING
from repro.traffic.trace import _event_to_json


def _echo_op():
    return op("echo", (("message", STRING),), STRING, body=lambda _self, m: m)


def _mixed_scenario(clients: int, servers: int = 4, **client_kwargs) -> Scenario:
    return (
        Scenario(name="mixed")
        .servers(servers)
        .service("EchoSoap", [_echo_op()], technology="soap", replicas=2)
        .service("EchoCorba", [_echo_op()], technology="corba", replicas=2)
        .clients(
            clients,
            protocol_mix={"soap": 0.5, "corba": 0.5},
            calls=3,
            operation="echo",
            arguments=("hi",),
            **client_kwargs,
        )
    )


class TestScenarioBasics:
    def test_single_service_world_runs_all_calls(self):
        report = (
            Scenario()
            .servers(2)
            .service("Echo", [_echo_op()], replicas=2)
            .clients(8, service="Echo", calls=5, arguments=("ping",))
            .run()
        )
        outcomes = report.outcomes("all")
        assert outcomes.calls == 40
        assert outcomes.successes == 40
        assert report.service("Echo").calls_routed == 40
        assert report.service("Echo").replica_count == 2
        # One keep-alive connection per client, split over the replicas.
        assert report.service("Echo").connections == 8

    def test_operation_defaults_to_first_declared(self):
        report = (
            Scenario()
            .service("Echo", [_echo_op()])
            .clients(2, service="Echo", calls=2, arguments=("x",))
            .run()
        )
        assert report.outcomes("discrete").successes == 4

    def test_protocol_mix_interleaves_deterministically(self):
        report = _mixed_scenario(8).run()
        protocols = [client.protocol for client in report.clients]
        assert protocols == ["soap", "corba"] * 4
        assert {client.service for client in report.clients} == {"EchoSoap", "EchoCorba"}

    @pytest.mark.parametrize("config", [SDEConfig(server_cores=2), SDEConfig(), None])
    def test_server_cores_from_either_place_or_both_equal(self, config):
        # The scenario's SDEConfig is now the one place server_cores is set.
        runtime = Scenario(sde_config=config).servers(2).build()
        expected = config.server_cores if config is not None else None
        assert [node.sde.config.server_cores for node in runtime.nodes] == [expected, expected]
        if expected is not None:
            assert [node.server_core.cores for node in runtime.nodes] == [expected, expected]

    def test_mix_and_service_are_mutually_exclusive(self):
        with pytest.raises(ClusterError):
            Scenario().clients(2, service="Echo", protocol_mix={"soap": 1.0})

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_mix_weight_rejected(self, weight):
        # An infinite weight made every share NaN (all slots to the first
        # protocol); NaN and negative weights were dropped without a word.
        with pytest.raises(ClusterError, match="must be finite and non-negative"):
            Scenario().clients(4, protocol_mix={"soap": 1.0, "corba": weight})

    def test_zero_mix_weight_omits_the_protocol(self):
        # No corba service is declared: a 0 weight must not even resolve it.
        report = (
            Scenario()
            .service("EchoSoap", [_echo_op()], technology="soap")
            .clients(3, protocol_mix={"soap": 1.0, "corba": 0.0}, calls=1,
                     arguments=("x",))
            .run()
        )
        assert [c.protocol for c in report.clients] == ["soap"] * 3

    def test_unknown_technology_fails_fast(self):
        scenario = (
            Scenario()
            .service("Echo", [_echo_op()])
            .clients(2, protocol_mix={"corba": 1.0}, calls=1, arguments=("x",))
        )
        with pytest.raises(ClusterError):
            scenario.run()  # no corba service declared

    def test_replicas_spread_over_nodes(self):
        runtime = (
            Scenario().servers(3).service("Echo", [_echo_op()], replicas=3).build()
        )
        assert [r.node.name for r in runtime.replicas("Echo")] == [
            "server-1",
            "server-2",
            "server-3",
        ]

    def test_multi_service_placement_fills_every_server(self):
        """A later service fills the machines an earlier one left idle."""
        runtime = (
            Scenario()
            .servers(4)
            .service("A", [_echo_op()], replicas=2)
            .service("B", [_echo_op()], technology="corba", replicas=2)
            .build()
        )
        assert [r.node.name for r in runtime.replicas("A")] == ["server-1", "server-2"]
        assert [r.node.name for r in runtime.replicas("B")] == ["server-3", "server-4"]

    def test_rerun_with_until_measures_a_fresh_relative_window(self):
        """``until`` is run-relative: a second run on the same runtime
        drives a full window again instead of no-opping against the
        world's already-advanced clock."""
        runtime = (
            Scenario()
            .service("Echo", [_echo_op()])
            .clients(2, service="Echo", calls=2, arguments=("x",))
            .build()
        )
        first = runtime.run(until=1.0)
        second = runtime.run(until=1.0)
        assert first.outcomes("discrete").calls == 4
        assert second.outcomes("discrete").calls == 4
        assert second.started_at > first.started_at
        assert second.duration == pytest.approx(1.0)

    def test_deadline_cut_run_does_not_contaminate_the_next(self):
        """Clients cut short by a deadline must go quiet: their leftover
        events cannot issue calls into (or mutate reports across) a later
        run on the same world."""
        runtime = (
            Scenario()
            .service("Echo", [_echo_op()])
            .clients(2, service="Echo", calls=50, arguments=("x",), think_time=0.5)
            .build()
        )
        first = runtime.run(until=3.0)
        first_outcomes = first.outcomes("all")
        frozen_calls = first_outcomes.calls
        assert 0 < frozen_calls < 100  # genuinely cut short
        assert first.duration == pytest.approx(3.0)  # the horizon is exact
        second = runtime.run(until=3.0)
        # The first report stayed frozen after its run returned.
        assert first_outcomes.calls == frozen_calls
        # The second window's routing reflects only its own fleet (at most
        # one in-flight call per client may be unrecorded at the deadline).
        routed = second.service("Echo").calls_routed
        second_outcomes = second.outcomes("all")
        assert second_outcomes.calls <= routed <= second_outcomes.calls + 2

    def test_until_bounds_a_sparse_event_queue_exactly(self):
        """A think timer far beyond the horizon must not be dispatched just
        to notice the deadline passed — the window ends exactly at
        ``until`` and no extra call is issued inside it."""
        report = (
            Scenario()
            .service("Echo", [_echo_op()])
            .clients(1, service="Echo", calls=10, arguments=("x",), think_time=5.0)
            .run(until=2.0)
        )
        assert report.duration == pytest.approx(2.0)
        assert report.outcomes("discrete").calls == 1
        assert report.service("Echo").calls_routed == 1

    def test_timeline_is_armed_once_and_cut_actions_never_fire(self):
        """The timeline is world history: armed by the first run, never
        replayed.  An action beyond the first run's deadline is dropped —
        it cannot fire into (or crash) a later run on the same world."""
        runtime = (
            Scenario()
            .service("Echo", [_echo_op()])
            .clients(1, service="Echo", calls=1, arguments=("x",))
            .at(10.0, edit("Echo", op("late_op")))
            .build()
        )
        runtime.run(until=5.0)
        report = runtime.run(until=15.0)
        assert report.outcomes("discrete").successes == 1
        assert not runtime.dynamic_class("Echo").has_method("late_op")

    def test_fired_timeline_actions_are_not_replayed_by_later_runs(self):
        runtime = (
            Scenario()
            .service("Echo", [_echo_op()])
            .clients(1, service="Echo", calls=2, arguments=("x",), think_time=0.3)
            .at(0.05, churn("Echo", rounds=10, period=2.0))
            .build()
        )
        runtime.run(until=1.0)  # round 0 fires inside this window
        # Re-running must not replay churn round 0 ("already has a method")
        # and the epoch guard stops the pending self-scheduled rounds.
        report = runtime.run(until=30.0)
        assert report.outcomes("discrete").successes == 2
        assert runtime.dynamic_class("Echo").has_method("churned_op_0")
        assert not runtime.dynamic_class("Echo").has_method("churned_op_1")

    def test_exception_during_run_restores_gauges_and_quiets_fleet(self):
        """A raising timeline action must not permanently zero the lifetime
        stall-queue gauge, and the cut fleet's leftover events go quiet."""

        def boom(runtime):
            raise RuntimeError("timeline action failed")

        runtime = (
            Scenario()
            .service("Echo", [_echo_op()])
            .clients(2, service="Echo", calls=10, arguments=("x",), think_time=0.05)
            .at(0.02, boom)
            .build()
        )
        replica = runtime.replicas("Echo")[0]
        replica.call_handler.stats.max_stall_queue_depth = 7  # lifetime high water
        with pytest.raises(RuntimeError):
            runtime.run()
        assert replica.call_handler.stats.max_stall_queue_depth == 7
        # Leftover fleet events are inert: draining the world routes nothing.
        routed_before = replica.calls_routed
        runtime.world.run_until_idle()
        assert replica.calls_routed == routed_before

    def test_manual_publish_is_not_repeated_by_run(self):
        runtime = (
            Scenario()
            .service("Echo", [_echo_op()])
            .clients(1, service="Echo", calls=1, arguments=("x",))
            .build()
        )
        runtime.publish("Echo")
        publisher = runtime.replicas("Echo")[0].publisher
        forced_before = publisher.stats.forced_publications
        report = runtime.run()
        assert report.outcomes("discrete").successes == 1
        assert publisher.stats.forced_publications == forced_before


class TestRoundRobinRouting:
    def test_deterministic_round_robin_assignment(self):
        """Consecutive calls rotate through the replicas in a fixed order,
        and the full routing trace is identical across two fresh runs."""
        first = _mixed_scenario(8).run()
        second = _mixed_scenario(8).run()
        trace_one = [client.replica_sequence for client in first.clients]
        trace_two = [client.replica_sequence for client in second.clients]
        assert trace_one == trace_two
        for service in ("EchoSoap", "EchoCorba"):
            routed = [r.calls_routed for r in first.service(service).replicas]
            assert sum(routed) == 4 * 3
            # Round-robin keeps the replicas balanced.
            assert max(routed) - min(routed) <= 1


class TestSweepReproducibility:
    def test_4_server_64_client_sweep_rtt_sequences_reproducible(self):
        """The satellite acceptance: a 4-server × 64-client mixed sweep
        produces identical per-call RTT sequences across two fresh runs."""
        first = _mixed_scenario(64, think_time=0.01).run()
        second = _mixed_scenario(64, think_time=0.01).run()
        first_outcomes = first.outcomes("all")
        assert first_outcomes.calls == 64 * 3
        assert first_outcomes.successes == first_outcomes.calls
        assert first.all_rtts == second.all_rtts
        assert first.duration == second.duration
        assert first.events_dispatched == second.events_dispatched
        # Per-client sequences too, not just the flattened list.
        assert [c.rtts for c in first.clients] == [c.rtts for c in second.clients]


class TestTimeline:
    def test_mid_run_edit_lands_on_every_replica(self):
        report = (
            Scenario(sde_config=SDEConfig(generation_cost=0.02))
            .servers(2)
            .service("Echo", [_echo_op()], replicas=2)
            .clients(4, service="Echo", calls=8, arguments=("hi",), think_time=0.02)
            .at(0.02, edit("Echo", op("added_later")))
            .at(0.04, publish("Echo"))
            .run()
        )
        assert report.service("Echo").publications >= 2
        assert report.service("Echo").interface_version >= 3

    def test_churn_runs_repeated_edit_publish_rounds(self):
        report = (
            Scenario()
            .service("Echo", [_echo_op()])
            .clients(2, service="Echo", calls=20, arguments=("hi",), think_time=0.05)
            .at(0.05, churn("Echo", rounds=3, period=0.2))
            .run()
        )
        assert report.service("Echo").publications >= 3
        assert report.outcomes("discrete").calls == 40

    def test_a_second_churn_numbers_its_methods_on(self):
        """A later churn of the same service adds methods after the first
        churn's instead of aborting the run on a name already taken."""
        first = churn("Echo", rounds=2, period=0.004)
        runtime = (
            Scenario(sde_config=SDEConfig(generation_cost=0.02))
            .service("Echo", [_echo_op()])
            .at(0.01, first)
            .at(0.05, churn("Echo", rounds=2, period=0.004))
            .build()
        )
        report = runtime.run(until=0.2)
        names = [method.name for method in runtime.dynamic_class("Echo").methods]
        assert [name for name in names if name.startswith("churned_op_")] == [
            "churned_op_0", "churned_op_1", "churned_op_2", "churned_op_3"
        ]
        assert report.service("Echo").interface_version == 5
        assert _event_to_json(first) == {
            "kind": "churn", "service": "Echo", "rounds": 2, "period": 0.004,
            "prefix": "churned_op_",
        }

    @pytest.mark.parametrize(
        "action, error",
        [
            (edit("Nope", op("later")), ServiceNotFoundError),
            (publish("Nope"), ServiceNotFoundError),
            (abort_rollout("Nope"), ServiceNotFoundError),
            (crash("server-9"), HostNotFoundError),
            (partition("nowhere"), HostNotFoundError),
            # A fleet client host is a valid reference; the second is not.
            (heal("fleet-client-1", "nowhere"), HostNotFoundError),
        ],
        ids=["edit-service", "publish-service", "abort-service", "server", "a", "b"],
    )
    def test_a_bad_reference_fails_before_the_window_opens(self, action, error):
        runtime = (
            Scenario()
            .service("Echo", [_echo_op()])
            .clients(2, service="Echo", calls=5, arguments=("x",), think_time=0.01)
            .at(0.02, action)
            .build()
        )
        with pytest.raises(error):
            runtime.run()
        # Raised before the fleet started: not one call was routed.
        assert runtime.replicas("Echo")[0].calls_routed == 0

    @pytest.mark.parametrize("index", [7, -1])
    def test_a_server_index_outside_the_world_is_a_bad_reference(self, index):
        runtime = (
            Scenario()
            .servers(2)
            .service("Echo", [_echo_op()], replicas=2)
            .clients(2, service="Echo", calls=5, arguments=("x",), think_time=0.01)
            .at(0.02, crash(index))
            .build()
        )
        message = rf"^no server {index}: the world has 2 servers$"
        with pytest.raises(HostNotFoundError, match=message):
            runtime.run()
        assert [replica.calls_routed for replica in runtime.replicas("Echo")] == [0, 0]

    def test_timeline_without_clients_needs_until(self):
        scenario = (
            Scenario()
            .service("Echo", [_echo_op()])
            .at(0.5, edit("Echo", op("later")))
        )
        with pytest.raises(ClusterError):
            scenario.run()
        report = scenario.run(until=10.0)
        assert report.outcomes("discrete").calls == 0
        # The edit settled into a publication before the horizon.
        assert report.service("Echo").publications >= 1


class TestInteractiveRuntime:
    def test_build_connect_and_live_edit(self):
        runtime = (
            Scenario()
            .service("Calculator", [op("double", (("x", STRING),), STRING,
                                       body=lambda _self, x: x + x)])
            .build()
        )
        runtime.publish()
        client = runtime.connect("Calculator")
        assert client.invoke("double", "ab") == "abab"
        # Live behaviour edit through the runtime's dynamic class handle.
        runtime.dynamic_class("Calculator").method("double").set_body(
            lambda _self, x: x.upper()
        )
        assert client.invoke("double", "ab") == "AB"

    @pytest.mark.parametrize("index", [-1, 2])
    def test_replica_index_out_of_range_names_the_service(self, index):
        runtime = Scenario().servers(2).service("E", [_echo_op()], replicas=2).build()
        runtime.publish()
        accessors = (runtime.connect, runtime.dynamic_class, runtime.node_of)
        for accessor in accessors:
            with pytest.raises(ClusterError, match=r"'E' has 2 replica\(s\)"):
                accessor("E", index)
        assert runtime.node_of("E", 1) is runtime.nodes[1]
