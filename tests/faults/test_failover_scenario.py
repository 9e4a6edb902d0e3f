"""Resilience scenarios: crash/restart/partition timelines, §6 recency.

These are the cluster-level tests of :mod:`repro.faults`: a fleet keeps
calling a replicated service while the timeline crashes nodes, partitions
links and restarts machines — and the report must show clean failover
(retries, zero or accounted abandonments), availability bookkeeping
(downtime, recovery latency) and, centrally, **zero §6 recency
violations**: no client ever observes a published interface older than one
it already observed, even when its calls fail over between replicas
mid-publication.
"""

from __future__ import annotations

import pytest

from repro.cluster import Scenario, edit, op, publish
from repro.cluster.presets import fault_drill_scenario
from repro.core.sde import SDEConfig
from repro.errors import NoAliveReplicaError
from repro.faults import RetryPolicy, crash, drop_link, heal, partition, restart
from repro.rmitypes import STRING
from repro.traffic import FlashCrowd, Poisson


def _echo():
    return op("echo", (("message", STRING),), STRING, body=lambda _self, m: m)


def _drill(clients=8, **fleet_kwargs) -> Scenario:
    """2 servers × 2 replicas with a mid-run crash and a later restart."""
    fleet = dict(
        calls=8,
        arguments=("hi",),
        think_time=0.01,
        retry=RetryPolicy(max_attempts=4, timeout=0.5, backoff=0.005),
    )
    fleet.update(fleet_kwargs)
    return (
        Scenario(name="fault-drill", sde_config=SDEConfig(generation_cost=0.02))
        .servers(2)
        .service("Echo", [_echo()], replicas=2)
        .clients(clients, service="Echo", **fleet)
        .at(0.012, crash("server-1"))
        .at(0.150, restart("server-1"))
    )


class TestCrashFailover:
    def test_all_calls_complete_with_zero_recency_violations(self):
        report = _drill().run()
        outcomes = report.outcomes("all")
        assert outcomes.calls == 8 * 8
        assert outcomes.successes == outcomes.calls
        assert outcomes.abandoned_calls == 0
        # In-flight calls at crash time failed fast and were retried.
        assert outcomes.failed_attempts > 0
        assert outcomes.retried_calls == outcomes.failed_attempts
        assert outcomes.recency_violations == 0

    def test_availability_bookkeeping(self):
        report = _drill().run()
        crashed = next(node for node in report.nodes if node.name == "server-1")
        healthy = next(node for node in report.nodes if node.name == "server-2")
        assert crashed.outages == 1
        assert crashed.downtime_s == pytest.approx(0.150 - 0.012)
        assert crashed.recovery_latency_s is not None
        assert crashed.recovery_latency_s > 0.0
        assert healthy.outages == 0
        assert healthy.downtime_s == 0.0
        # Per-replica downtime mirrors the hosting node.
        for service in report.services:
            for replica in service.replicas:
                expected = crashed.downtime_s if replica.node == "server-1" else 0.0
                assert replica.downtime_s == pytest.approx(expected)

    def test_round_robin_routes_around_the_dead_replica(self):
        report = _drill().run()
        dead_replica_calls_during_outage = 0
        for client in report.clients:
            # After the crash every routed call must target an alive replica;
            # replica 0 (server-1) reappears only after the restart.
            sequence = client.replica_sequence
            assert set(sequence) <= {0, 1}
        # The healthy replica carried the bulk of the traffic.
        echo = report.service("Echo")
        by_node = {replica.node: replica.calls_routed for replica in echo.replicas}
        assert by_node["server-2"] > by_node["server-1"]

    def test_two_runs_are_byte_identical(self):
        first = _drill().run()
        second = _drill().run()
        assert first.all_rtts == second.all_rtts
        assert first.events_dispatched == second.events_dispatched
        assert first.duration == second.duration
        assert [c.replica_sequence for c in first.clients] == [
            c.replica_sequence for c in second.clients
        ]

    def test_recovery_latency_does_not_leak_into_a_later_run(self):
        """A fault-free second run on the same world reports no recovery."""
        scenario = _drill()
        runtime = scenario.build()
        first = runtime.run()
        crashed = next(node for node in first.nodes if node.name == "server-1")
        assert crashed.recovery_latency_s is not None
        second = runtime.run(until=0.5)
        for node in second.nodes:
            assert node.outages == 0
            assert node.downtime_s == 0.0
            assert node.recovery_latency_s is None

    def test_application_level_faults_are_never_retried(self):
        """Deterministic protocol faults must not burn the retry budget."""
        scenario = (
            Scenario(name="stale", sde_config=SDEConfig(generation_cost=0.02))
            .servers(1)
            .service("Echo", [_echo()])
            .clients(
                2,
                service="Echo",
                calls=4,
                arguments=("hi",),
                think_time=0.01,
                stale_every=2,  # every 2nd call hits a non-existent operation
                retry=RetryPolicy(max_attempts=4, timeout=0.5, backoff=0.005),
            )
        )
        report = scenario.run()
        outcomes = report.outcomes("all")
        assert outcomes.stale_faults == 4
        assert outcomes.retried_calls == 0
        assert outcomes.abandoned_calls == 0

    def test_without_retry_policy_failures_surface_as_faults(self):
        report = _drill(retry=None).run()
        outcomes = report.outcomes("all")
        assert outcomes.calls == outcomes.successes + outcomes.other_faults
        assert outcomes.other_faults > 0
        assert outcomes.retried_calls == 0


class TestCrashDuringPublish:
    """The acceptance scenario: a replica crashes mid-publication and no
    client ever observes an interface older than one it already saw."""

    def _scenario(self) -> Scenario:
        return (
            Scenario(name="crash-during-publish", sde_config=SDEConfig(generation_cost=0.05))
            .servers(2)
            .service("Echo", [_echo()], replicas=2)
            .clients(
                8,
                service="Echo",
                calls=10,
                arguments=("hi",),
                think_time=0.0,   # continuous calling: always in flight at crash time
                arrival=0.002,    # staggered starts desynchronise the fleet
                retry=RetryPolicy(max_attempts=4, timeout=0.5, backoff=0.005),
            )
            .at(0.050, edit("Echo", op("added_mid_run")))
            .at(0.060, publish("Echo"))       # generation completes ~0.11
            .at(0.080, crash("server-1"))     # ... crash lands mid-generation
            .at(0.300, restart("server-1"))
        )

    def test_zero_recency_violations_across_failover(self):
        report = self._scenario().run()
        outcomes = report.outcomes("all")
        assert outcomes.successes == outcomes.calls
        assert outcomes.retried_calls > 0
        assert outcomes.recency_violations == 0
        # The publication round landed on both replicas despite the crash.
        echo = report.service("Echo")
        assert all(replica.interface_version >= 3 for replica in echo.replicas)

    def test_deterministic(self):
        first = self._scenario().run()
        second = self._scenario().run()
        assert first.all_rtts == second.all_rtts
        assert first.events_dispatched == second.events_dispatched

    def test_recency_counter_detects_an_engineered_violation(self):
        """Negative control: break the guarantee on purpose, see it counted.

        One replica is force-published ahead of the other, the first client
        (routed there round-robin) observes the newer interface, then that
        replica crashes: the failover target still publishes the older
        version, which must be counted.
        """

        def publish_only_first_replica(runtime):
            replica = runtime.replicas("Echo")[0]
            replica.node.manager_interface.force_publication(replica.class_name)

        scenario = (
            Scenario(name="violation", sde_config=SDEConfig(generation_cost=0.01))
            .servers(2)
            .service("Echo", [_echo()], replicas=2)
            .clients(
                2,
                service="Echo",
                calls=8,
                arguments=("hi",),
                think_time=0.02,
                retry=RetryPolicy(max_attempts=4, timeout=0.5, backoff=0.005),
            )
            .at(0.030, edit("Echo", op("only_on_replica_0")))
            .at(0.040, publish_only_first_replica)
            .at(0.090, crash("server-1"))
        )
        report = scenario.run()
        first_client = report.clients[0]
        assert first_client.replica_sequence[0] == 0
        assert report.outcomes("all").recency_violations > 0


class TestPartitionsAndLossyLinks:
    def test_partition_heals_and_calls_recover(self):
        scenario = (
            Scenario(name="partition", sde_config=SDEConfig(generation_cost=0.02))
            .servers(2)
            .service("Echo", [_echo()], replicas=2)
            .clients(
                6,
                service="Echo",
                calls=6,
                arguments=("hi",),
                think_time=0.01,
                retry=RetryPolicy(max_attempts=6, timeout=0.04, backoff=0.005),
            )
            .at(0.012, partition("server-1"))
            .at(0.120, heal("server-1"))
        )
        report = scenario.run()
        outcomes = report.outcomes("all")
        assert outcomes.successes == outcomes.calls
        # Requests into the partition timed out and were retried.
        assert outcomes.failed_attempts > 0
        assert outcomes.recency_violations == 0

    def test_lossy_link_is_retried_and_deterministic(self):
        def build():
            return (
                Scenario(name="lossy", sde_config=SDEConfig(generation_cost=0.02))
                .servers(1)
                .service("Echo", [_echo()])
                .clients(
                    4,
                    service="Echo",
                    calls=6,
                    arguments=("hi",),
                    think_time=0.01,
                    retry=RetryPolicy(max_attempts=8, timeout=0.04, backoff=0.002),
                )
                .at(0.010, drop_link("server", "fleet-client-1", loss=0.5, seed=11))
            )

        first = build().run()
        second = build().run()
        first_outcomes = first.outcomes("all")
        assert first_outcomes.successes == first_outcomes.calls
        assert first_outcomes.failed_attempts > 0
        assert first.all_rtts == second.all_rtts
        assert first.events_dispatched == second.events_dispatched

    def test_whole_service_down_abandons_after_budget(self):
        scenario = (
            Scenario(name="blackout", sde_config=SDEConfig(generation_cost=0.02))
            .servers(1)
            .service("Echo", [_echo()])
            .clients(
                3,
                service="Echo",
                calls=4,
                arguments=("hi",),
                think_time=0.01,
                retry=RetryPolicy(max_attempts=2, timeout=0.03, backoff=0.005),
            )
            .at(0.012, crash("server"))
        )
        report = scenario.run()
        outcomes = report.outcomes("all")
        assert outcomes.abandoned_calls > 0
        assert outcomes.calls + outcomes.abandoned_calls == 3 * 4
        assert outcomes.recency_violations == 0

    def test_selection_raises_when_every_replica_is_down(self):
        runtime = (
            Scenario(name="dead", sde_config=SDEConfig(generation_cost=0.02))
            .servers(1)
            .service("Echo", [_echo()])
            .build()
        )
        runtime.fault_injector.crash("server")
        with pytest.raises(NoAliveReplicaError):
            runtime.registry.select("Echo")


class TestMixedFaultDrill:
    """The preset 4-server mixed SOAP/CORBA drill at 64 clients: crash,
    partition, heal, restart and a mid-run publish, under the historical
    stagger and two seeded open-loop arrival shapes."""

    @pytest.mark.parametrize(
        "arrival",
        [
            0.0005,
            Poisson(rate=500.0, seed=42),
            FlashCrowd(at=0.05, magnitude=3.0, decay=0.01, rate=500.0, seed=42),
        ],
        ids=["stagger", "poisson", "flash-crowd"],
    )
    def test_every_call_completes_and_reruns_are_identical(self, arrival):
        first = fault_drill_scenario(64, arrival=arrival).run()
        second = fault_drill_scenario(64, arrival=arrival).run()
        assert first.fingerprint() == second.fingerprint()
        first_outcomes = first.outcomes("all")
        assert first_outcomes.calls + first_outcomes.abandoned_calls == 64 * 4
        assert first_outcomes.successes == first_outcomes.calls
        assert first_outcomes.failed_attempts > 0
        assert first_outcomes.retried_calls > 0
        assert first_outcomes.recency_violations == 0
        crashed = [node for node in first.nodes if node.downtime_s > 0]
        assert [(node.name, node.outages) for node in crashed] == [("server-1", 1)]
