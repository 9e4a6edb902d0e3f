"""Tests for the declarative Scenario API: routing, determinism, timelines."""

from __future__ import annotations

import pytest

from repro.cluster import (
    POLICY_LEAST_LOADED,
    POLICY_STICKY,
    Scenario,
    churn,
    edit,
    op,
    publish,
)
from repro.core.sde import SDEConfig
from repro.errors import ClusterError
from repro.rmitypes import STRING


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

    def test_unknown_policy_and_unknown_technology_fail_fast(self):
        with pytest.raises(ClusterError):
            Scenario().service("Echo", [_echo_op()], policy="random").build()
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

        def boom():
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


class TestStickyRouting:
    def test_sticky_sessions_survive_a_mid_run_publication(self):
        def build():
            # A small generation cost so the mid-run publication completes
            # while the fleet is still calling.
            return (
                Scenario(name="sticky", sde_config=SDEConfig(generation_cost=0.02))
                .servers(2)
                .service("Echo", [_echo_op()], replicas=2, policy=POLICY_STICKY)
                .clients(
                    6, service="Echo", calls=6, arguments=("hi",), think_time=0.02
                )
                .at(0.03, edit("Echo", op("added_later")))
                .at(0.05, publish("Echo"))
            )

        report = build().run()
        assert report.outcomes("discrete").successes == 36
        # The mid-run publication actually happened...
        assert report.service("Echo").publications >= 2
        # ...and every client stayed pinned to its replica throughout.
        pins = []
        for client in report.clients:
            assert len(set(client.replica_sequence)) == 1
            pins.append(client.replica_sequence[0])
        # First contacts spread the pins over both replicas.
        assert set(pins) == {0, 1}
        # Determinism holds for the sticky policy too.
        assert build().run().all_rtts == report.all_rtts


class TestLeastLoadedRouting:
    def test_least_loaded_balances_and_stays_deterministic(self):
        def build():
            return (
                Scenario(name="least-loaded")
                .servers(2)
                .service("Echo", [_echo_op()], replicas=2, policy=POLICY_LEAST_LOADED)
                .clients(8, service="Echo", calls=4, arguments=("hi",))
            )

        first = build().run()
        second = build().run()
        assert first.all_rtts == second.all_rtts
        routed = [r.calls_routed for r in first.service("Echo").replicas]
        assert sum(routed) == 32
        assert max(routed) - min(routed) <= 2


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

    def test_zero_arg_actions_are_accepted(self):
        fired = []
        report = (
            Scenario()
            .service("Echo", [_echo_op()])
            .clients(1, service="Echo", calls=2, arguments=("hi",), think_time=0.05)
            .at(0.01, lambda: fired.append(True))
            .run()
        )
        assert fired == [True]
        assert report.outcomes("discrete").calls == 2


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
