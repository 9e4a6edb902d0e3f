"""End-to-end rollout drills: rolling / canary / abort / crash-mid-rollout.

These are the acceptance tests of the interface-evolution subsystem: an
N-replica service upgrades wave-by-wave while a fleet keeps calling, and
the report proves the §6 recency guarantee, the stale-fault + rebind
contract for breaking upgrades ("never a silently wrong answer"), and the
byte-determinism of the whole drill.
"""

from __future__ import annotations

import pytest

from repro import (
    RetryPolicy,
    STRING,
    Scenario,
    abort_rollout,
    canary,
    crash,
    op,
    restart,
    rolling,
    upgrade,
)
from repro.core.sde import SDEConfig
from repro.errors import RolloutError
from repro.evolve import CLASS_BREAKING, CLASS_COMPATIBLE, InterfaceUpgrade, diff_descriptions

ECHO = op("echo", (("m", STRING),), STRING, body=lambda _self, m: m)
ECHO_V2 = op("echo_v2", (("m", STRING),), STRING, body=lambda _self, m: m + "!")
ECHO_LOUD = op("echo_loud", (("m", STRING),), STRING, body=lambda _self, m: m.upper())

BREAKING = upgrade(add=[ECHO_V2], remove=["echo"], successors={"echo": "echo_v2"})
COMPATIBLE = upgrade(add=[ECHO_LOUD])


def _scenario(name: str, replicas: int = 2, clients: int = 8, calls: int = 8, **client_kwargs):
    return (
        Scenario(name=name, sde_config=SDEConfig(generation_cost=0.02))
        .servers(2)
        .service("Echo", [ECHO], replicas=replicas)
        .clients(
            clients,
            service="Echo",
            calls=calls,
            arguments=("hi",),
            think_time=0.02,
            arrival=0.001,
            **client_kwargs,
        )
    )


class TestUpgradeSpec:
    def test_empty_upgrade_rejected(self):
        with pytest.raises(RolloutError):
            InterfaceUpgrade()

    def test_helper_normalises_inputs(self):
        change = upgrade(add=[ECHO_V2], remove=["echo"], successors={"echo": "echo_v2"})
        assert change.add == (ECHO_V2,)
        assert change.remove == ("echo",)
        assert change.successors == {"echo": "echo_v2"}

    @pytest.mark.parametrize(
        "arguments, message",
        [
            ((rolling, {"batch_size": 0}), "batch_size must be at least 1"),
            ((rolling, {"retry_interval": 0.0}), "retry_interval must be positive"),
            ((canary, {"retry_interval": -1.0}), "retry_interval must be positive"),
        ],
        ids=["rolling-batch", "rolling-retry", "canary-retry"],
    )
    def test_bad_arguments_fail_when_the_action_is_made(self, arguments, message):
        action, keywords = arguments
        with pytest.raises(RolloutError, match=message):
            action("Echo", BREAKING, **keywords)

    @pytest.mark.parametrize("action", [rolling, canary])
    def test_a_change_that_is_no_upgrade_fails_when_the_action_is_made(self, action):
        with pytest.raises(RolloutError, match="must be an InterfaceUpgrade, got None"):
            action("Echo", None)


class TestCompatibleRolling:
    def test_zero_faults_zero_recency_violations(self):
        report = (
            _scenario("compat-roll")
            .at(0.03, rolling("Echo", COMPATIBLE, batch_size=1, drain=0.03))
            .run()
        )
        # A compatible upgrade is invisible to bound stubs: no stale faults,
        # no rebinds, every call succeeds, and — although the two replicas
        # deliberately publish divergent versions mid-rollout — the
        # version-aware routing keeps every client's observed version
        # monotone (the §6 guarantee for compatible upgrades).
        outcomes = report.outcomes("all")
        assert outcomes.successes == outcomes.calls == 64
        assert outcomes.stale_faults == 0
        assert outcomes.rebinds == 0
        assert outcomes.recency_violations == 0
        (rollout,) = report.rollouts
        assert rollout.completed
        assert rollout.classification == CLASS_COMPATIBLE
        assert len(rollout.waves) == 2
        assert rollout.stale_fault_rate == 0.0
        # Mixed-version traffic is visible per replica during the window.
        assert set(report.service("Echo").calls_by_version) == {2, 3}

    def test_rolling_is_byte_deterministic(self):
        def build():
            return (
                _scenario("compat-roll-det")
                .at(0.03, rolling("Echo", COMPATIBLE, batch_size=1, drain=0.03))
            )

        first, second = build().run(), build().run()
        assert first.all_rtts == second.all_rtts
        assert first.events_dispatched == second.events_dispatched
        assert [c.replica_sequence for c in first.clients] == [
            c.replica_sequence for c in second.clients
        ]


class TestBreakingRolling:
    def test_stale_fault_plus_rebind_never_a_wrong_answer(self):
        report = (
            _scenario("break-roll")
            .at(0.03, rolling("Echo", BREAKING, batch_size=1, drain=0.03))
            .run()
        )
        # Every affected client observes the break as an explicit §5.7
        # stale fault followed by a rebind; nothing is silently wrong.
        outcomes = report.outcomes("all")
        assert outcomes.stale_faults > 0
        assert outcomes.rebinds == outcomes.stale_faults
        assert outcomes.other_faults == 0
        assert outcomes.successes + outcomes.stale_faults == outcomes.calls
        assert outcomes.recency_violations == 0
        (rollout,) = report.rollouts
        assert rollout.completed and not rollout.aborted
        assert rollout.classification == CLASS_BREAKING
        # The window counters cover the rollout only; clients that cross
        # after the last wave published rebind outside it.
        assert 0 < rollout.rebinds_during <= outcomes.rebinds
        assert rollout.stale_faults_during == rollout.rebinds_during
        assert rollout.stale_fault_rate > 0.0
        # The waves' published-document deltas carry the typed changes.
        deltas = [delta for wave in rollout.waves for delta in wave.deltas]
        assert all(delta.removed == ("echo",) for delta in deltas)
        assert all(delta.added == ("echo_v2",) for delta in deltas)
        # Clients crossed to the successor operation and kept succeeding:
        # the final call of every client is a success.
        for client in report.clients:
            assert client.successes > 0

    def test_version_routing_shields_clients_until_the_last_wave(self):
        # With a long drain, calls keep landing while replicas diverge;
        # stale faults only appear once no compatible replica remains, so
        # each client faults at most once (its crossing).
        report = (
            _scenario("break-shield", replicas=2, clients=8, calls=10)
            .at(0.03, rolling("Echo", BREAKING, batch_size=1, drain=0.05))
            .run()
        )
        for client in report.clients:
            assert client.stale_faults <= 1
            assert client.rebinds == client.stale_faults

    def test_corba_path_identical_contract(self):
        report = (
            Scenario(name="break-corba", sde_config=SDEConfig(generation_cost=0.02))
            .servers(2)
            .service("Echo", [ECHO], technology="corba", replicas=2)
            .clients(
                8, service="Echo", calls=8, arguments=("hi",),
                think_time=0.02, arrival=0.001,
            )
            .at(0.03, rolling("Echo", BREAKING, batch_size=1, drain=0.03))
            .run()
        )
        outcomes = report.outcomes("all")
        assert outcomes.stale_faults > 0
        assert outcomes.rebinds == outcomes.stale_faults
        assert outcomes.other_faults == 0
        assert outcomes.recency_violations == 0
        assert report.rollouts[0].classification == CLASS_BREAKING

    def test_deliberate_stale_probes_do_not_rebind(self):
        # stale_every probes call a never-existing operation; they must not
        # be mistaken for a breaking upgrade and trigger rebinds.
        report = (
            _scenario("probe-no-rebind", calls=6, stale_every=3)
            .at(0.03, rolling("Echo", COMPATIBLE, batch_size=1, drain=0.03))
            .run()
        )
        outcomes = report.outcomes("all")
        assert outcomes.stale_faults > 0  # the probes
        assert outcomes.rebinds == 0


class TestCanaryAndAbort:
    def test_canary_abort_rolls_back_and_clients_recover(self):
        def build():
            return (
                _scenario("canary-abort", replicas=4, clients=8, calls=12)
                .at(0.03, canary("Echo", BREAKING, fraction=0.25, promote_after=0.4))
                .at(0.10, abort_rollout("Echo"))
            )

        runtime = build().build()
        report = runtime.run()
        (rollout,) = report.rollouts
        assert rollout.aborted and rollout.rolled_back and rollout.completed
        assert len(rollout.waves) == 1  # the canary wave; promotion never ran
        assert rollout.waves[0].replicas == (0,)
        # Rollback restored the original interface on the canary replica
        # (one more publication: versions keep growing, never rewind).
        for replica in runtime.replicas("Echo"):
            description = replica.publisher.published_description
            assert description.operation_names() == ("echo",)
        assert runtime.replicas("Echo")[0].publisher.version > 3
        # Nothing was ever silently wrong, the §6 guarantee held, and every
        # client that crossed to the canary walked back after the rollback.
        outcomes = report.outcomes("all")
        assert outcomes.other_faults == 0
        assert outcomes.recency_violations == 0
        assert outcomes.rebinds == outcomes.stale_faults
        for client in report.clients:
            assert client.successes > 0

    def test_canary_without_abort_promotes(self):
        report = (
            _scenario("canary-promote", replicas=4, clients=8, calls=12)
            .at(0.03, canary("Echo", BREAKING, fraction=0.25, promote_after=0.1))
            .run()
        )
        (rollout,) = report.rollouts
        assert rollout.completed and not rollout.aborted
        assert len(rollout.waves) == 2
        assert rollout.waves[0].replicas == (0,)
        assert rollout.waves[1].replicas == (1, 2, 3)
        service = report.service("Echo")
        assert all(
            replica.interface_version >= 3 for replica in service.replicas
        )

    def test_abort_without_active_rollout_is_a_noop(self):
        report = _scenario("abort-noop").at(0.03, abort_rollout("Echo")).run()
        outcomes = report.outcomes("all")
        assert outcomes.successes == outcomes.calls
        assert report.rollouts == []

    def test_overlapping_rollouts_rejected(self):
        scenario = (
            _scenario("overlap")
            .at(0.03, rolling("Echo", BREAKING, drain=5.0))
            .at(0.04, rolling("Echo", COMPATIBLE))
        )
        with pytest.raises(RolloutError):
            scenario.run()


class TestCrashMidRollout:
    def _build(self):
        return (
            _scenario(
                "crash-roll",
                calls=10,
                retry=RetryPolicy(max_attempts=4, timeout=0.08, backoff=0.005),
            )
            .at(0.020, crash("server-1"))
            .at(0.030, rolling("Echo", BREAKING, batch_size=1, drain=0.03))
            .at(0.150, restart("server-1"))
        )

    def test_deterministic_resume_after_restart(self):
        runtime = self._build().build()
        report = runtime.run()
        (rollout,) = report.rollouts
        # The crashed replica's wave was deferred and resumed post-restart;
        # the rollout still completed and every replica ended upgraded.
        assert rollout.completed
        assert rollout.deferred_resumes == 1
        for replica in runtime.replicas("Echo"):
            assert replica.publisher.published_description.operation_names() == (
                "echo_v2",
            )
        # The full contract held across crash + rollout + failover.
        outcomes = report.outcomes("all")
        assert outcomes.other_faults == 0
        assert outcomes.recency_violations == 0
        assert outcomes.abandoned_calls == 0
        assert outcomes.rebinds > 0

    def test_mixed_fleet_fails_over_while_both_services_roll(self):
        # Four servers, SOAP and CORBA: the crash lands before the SOAP
        # rollout's first wave, so only that rollout defers a wave.
        report = (
            Scenario(name="crash-roll-mixed", sde_config=SDEConfig(generation_cost=0.02))
            .servers(4)
            .service("EchoSoap", [ECHO], technology="soap", replicas=2)
            .service("EchoCorba", [ECHO], technology="corba", replicas=2)
            .clients(
                16, protocol_mix={"soap": 0.5, "corba": 0.5}, calls=8,
                arguments=("hi",), think_time=0.02, arrival=0.0005,
                retry=RetryPolicy(max_attempts=4, timeout=0.08, backoff=0.005),
            )
            .at(0.015, crash("server-1"))  # hosts EchoSoap replica 0
            .at(0.020, rolling("EchoSoap", BREAKING, batch_size=1, drain=0.03))
            .at(0.025, rolling("EchoCorba", BREAKING, batch_size=1, drain=0.03))
            .at(0.150, restart("server-1"))
            .run()
        )
        soap, corba = report.rollouts
        assert (soap.service, corba.service) == ("EchoSoap", "EchoCorba")
        assert (soap.deferred_resumes, corba.deferred_resumes) == (1, 0)
        for rollout in (soap, corba):
            assert rollout.completed and not rollout.aborted
            assert rollout.classification == CLASS_BREAKING
            assert len(rollout.waves) == 2
        for name in ("EchoSoap", "EchoCorba"):
            assert all(replica.interface_version >= 3 for replica in report.service(name).replicas)
            assert len(report.service(name).calls_by_version) >= 2
        outcomes = report.outcomes("all")
        assert outcomes.calls == 16 * 8
        assert outcomes.successes + outcomes.stale_faults == outcomes.calls
        assert outcomes.other_faults == 0
        assert outcomes.recency_violations == 0
        assert outcomes.failed_attempts > 0
        assert outcomes.rebinds == outcomes.stale_faults > 0
        assert [node.name for node in report.nodes if node.downtime_s > 0] == ["server-1"]

    def test_crash_mid_rollout_is_byte_deterministic(self):
        first = self._build().run()
        second = self._build().run()
        assert first.all_rtts == second.all_rtts
        assert first.duration == second.duration
        assert first.events_dispatched == second.events_dispatched
        assert [c.replica_sequence for c in first.clients] == [
            c.replica_sequence for c in second.clients
        ]


class TestDeadlineCutRollout:
    def test_stale_controller_detaches_and_frees_the_service(self):
        # A deadline cuts the run before the rollout's first wave publishes:
        # the controller must not keep counting into the finished window's
        # report, and a later rollout on the service must be startable.
        runtime = (
            _scenario("deadline-cut", calls=20)
            .at(0.03, rolling("Echo", BREAKING, batch_size=1, drain=5.0))
            .build()
        )
        first = runtime.run(until=0.06)  # wave 0 in flight, wave 1 far away
        (cut,) = first.rollouts
        assert not cut.completed
        frozen = (cut.calls_during, cut.stale_faults_during, cut.rebinds_during)
        second = runtime.run(until=0.3)
        # The finished window's report was not mutated by the second run...
        assert (
            cut.calls_during,
            cut.stale_faults_during,
            cut.rebinds_during,
        ) == frozen
        # ...and the service is free again: a fresh rollout starts and runs.
        entry = runtime.registry.lookup("Echo")
        assert entry.active_rollout is None
        from repro.evolve import RolloutController

        controller = RolloutController(runtime, "Echo", COMPATIBLE).start()
        assert entry.active_rollout is controller


class TestPublicationHistory:
    def test_each_replica_history_ends_breaking(self):
        runtime = (
            _scenario("graph-wire")
            .at(0.03, rolling("Echo", BREAKING, batch_size=1, drain=0.03))
            .build()
        )
        runtime.run()
        replicas = runtime.replicas("Echo")
        assert [replica.index for replica in replicas] == [0, 1]
        for replica in replicas:
            history = replica.publisher.publication_history
            # minimal (v1) -> operations (v2) -> breaking upgrade (v3).
            assert tuple(record.version for record in history) == (1, 2, 3)
            last = diff_descriptions(history[-2].description, history[-1].description)
            assert last.classification == CLASS_BREAKING
            assert last.removed == ("echo",)
