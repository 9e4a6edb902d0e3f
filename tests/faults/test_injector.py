"""Unit tests for the fault-injection subsystem: links, crashes, aborts."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cluster.scenario import Scenario
from repro.errors import ConnectionAbortedError
from repro.faults import FaultInjector, LinkFaultProfile, RetryPolicy
from repro.net.simnet import Address, Network
from repro.net.transport import ClientChannel, Endpoint
from repro.sim import Scheduler


class TestLinkFaultProfile:
    def test_same_seed_same_fate_sequence(self):
        a = LinkFaultProfile(loss=0.3, jitter=0.01, rng=random.Random(7))
        b = LinkFaultProfile(loss=0.3, jitter=0.01, rng=random.Random(7))
        fates_a = [a.sample(100) for _ in range(50)]
        fates_b = [b.sample(100) for _ in range(50)]
        assert fates_a == fates_b
        assert a.dropped == b.dropped > 0

    def test_same_string_seed_same_fate_sequence(self):
        a = LinkFaultProfile(loss=0.3, jitter=0.01, rng=random.Random("7:a->b"))
        b = LinkFaultProfile(loss=0.3, jitter=0.01, rng=random.Random("7:a->b"))
        assert _fates(a) == _fates(b)
        assert a.dropped == b.dropped > 0
        assert a.delayed == b.delayed > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFaultProfile(loss=1.5)
        with pytest.raises(ValueError):
            LinkFaultProfile(jitter=-0.1)

    def test_loss_zero_never_drops_and_jitter_zero_never_delays(self):
        profile = LinkFaultProfile(loss=0.0, jitter=0.0)
        assert [profile.sample(10) for _ in range(20)] == [(False, 0.0)] * 20

    def test_jitter_stays_within_its_bound(self):
        profile = LinkFaultProfile(jitter=0.25, rng=random.Random(0))
        delays = [profile.sample(10)[1] for _ in range(200)]
        assert all(0.0 <= delay <= 0.25 for delay in delays)
        assert profile.delayed == 200


def _fates(profile: LinkFaultProfile, count: int = 50) -> list[tuple[bool, float]]:
    return [profile.sample(100) for _ in range(count)]


class TestDropLinkSeeding:
    def _drop(self, seed: int) -> tuple[LinkFaultProfile, LinkFaultProfile]:
        runtime = Scenario().servers(2).build()
        return runtime.fault_injector.drop_link(0, 1, loss=0.3, jitter=0.002, seed=seed)

    def test_each_direction_draws_from_its_own_string_seed(self):
        forward, backward = self._drop(7)
        expected_forward = LinkFaultProfile(0.3, 0.002, random.Random("7:server-1->server-2"))
        expected_backward = LinkFaultProfile(0.3, 0.002, random.Random("7:server-2->server-1"))
        assert _fates(forward) == _fates(expected_forward)
        assert _fates(backward) == _fates(expected_backward)

    def test_directions_are_deterministic_and_independent(self):
        forward, backward = self._drop(7)
        again_forward, again_backward = self._drop(7)
        assert _fates(forward) == _fates(again_forward)
        assert _fates(backward) == _fates(again_backward)
        assert _fates(forward) != _fates(backward)

    def test_different_seeds_differ(self):
        assert _fates(self._drop(1)[0]) != _fates(self._drop(2)[0])

    def test_lossy_link_digest_is_the_same_in_every_interpreter(self):
        """A seeded lossy, jittery link gives one report digest whatever
        ``PYTHONHASHSEED`` is, so a recorded trace replays in any process."""
        program = textwrap.dedent(
            """
            from repro.cluster.scenario import Scenario, op
            from repro.faults import RetryPolicy, drop_link
            from repro.rmitypes import STRING
            from repro.traffic.trace import echo_body, fingerprint_digest

            echo = op("echo", (("message", STRING),), STRING, body=echo_body)
            report = (
                Scenario(name="lossy")
                .servers(1)
                .service("Echo", [echo])
                .clients(4, service="Echo", calls=6, arguments=("hi",), think_time=0.01,
                         retry=RetryPolicy(max_attempts=8, timeout=0.04, backoff=0.002))
                .at(0.010, drop_link("server", "fleet-client-1", loss=0.3,
                                     jitter=0.002, seed=7))
                .run()
            )
            assert report.outcomes("all").failed_attempts > 0
            print(fingerprint_digest(report))
            """
        )
        source = Path(__file__).resolve().parents[2] / "src"
        digests = set()
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": str(source), "PYTHONHASHSEED": hash_seed}
            result = subprocess.run(
                [sys.executable, "-c", program],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1


class TestNetworkLinkFaults:
    def _world(self):
        scheduler = Scheduler()
        network = Network(scheduler)
        source = network.add_host("src")
        sink = network.add_host("dst")
        received = []
        sink.bind(9, lambda message, _host: received.append(message.payload))
        return scheduler, network, source, received

    def test_blackhole_profile_drops_everything(self):
        scheduler, network, source, received = self._world()
        network.set_link_fault("src", "dst", LinkFaultProfile(loss=1.0))
        for index in range(5):
            source.send(Address("dst", 9), b"m%d" % index)
        scheduler.run_until_idle()
        assert received == []
        assert network.messages_dropped == 5

    def test_fault_applies_to_one_direction_only(self):
        scheduler, network, source, received = self._world()
        network.set_link_fault("dst", "src", LinkFaultProfile(loss=1.0))
        source.send(Address("dst", 9), b"fine")
        scheduler.run_until_idle()
        assert received == [b"fine"]

    def test_jitter_never_reorders_a_link_direction(self):
        scheduler, network, source, received = self._world()
        profile = LinkFaultProfile(jitter=0.5, rng=random.Random(3))
        network.set_link_fault("src", "dst", profile)
        for index in range(30):
            source.send(Address("dst", 9), b"%03d" % index)
        scheduler.run_until_idle()
        assert received == sorted(received)
        assert len(received) == 30
        assert profile.delayed > 0

    def test_clear_link_fault_restores_the_link(self):
        scheduler, network, source, received = self._world()
        network.set_link_fault("src", "dst", LinkFaultProfile(loss=1.0))
        source.send(Address("dst", 9), b"lost")
        network.clear_link_fault("src", "dst")
        source.send(Address("dst", 9), b"kept")
        scheduler.run_until_idle()
        assert received == [b"kept"]


class TestDownHosts:
    def test_down_host_drops_in_flight_messages_at_delivery(self):
        scheduler = Scheduler()
        network = Network(scheduler)
        source = network.add_host("src")
        sink = network.add_host("dst")
        received = []
        sink.bind(9, lambda message, _host: received.append(message.payload))
        source.send(Address("dst", 9), b"in-flight")
        # The message is queued for delivery; the host crashes before it lands.
        sink.down = True
        scheduler.run_until_idle()
        assert received == []
        assert network.messages_dropped == 1
        # Traffic sent while down is discarded at transmit time too.
        source.send(Address("dst", 9), b"doomed")
        scheduler.run_until_idle()
        assert received == []
        # Back up: delivery resumes.
        sink.down = False
        source.send(Address("dst", 9), b"alive")
        scheduler.run_until_idle()
        assert received == [b"alive"]


class TestConnectionAbort:
    def _request_world(self):
        scheduler = Scheduler()
        network = Network(scheduler)
        server_host = network.add_host("server")
        client_host = network.add_host("client")
        endpoint = Endpoint(server_host, 80, lambda message, connection: None)
        endpoint.start()
        channel = ClientChannel(client_host, name="test-channel")
        return scheduler, network, endpoint, channel

    def test_abort_pending_fails_deferreds_fast(self):
        scheduler, network, endpoint, channel = self._request_world()
        outcomes = []
        deferred = channel.request_async(
            Address("server", 80), b"request", lambda message: message.payload
        )
        deferred.subscribe(lambda value, error, _delay: outcomes.append(error))
        # The server "crashes" before any reply: fail the in-flight request now.
        aborted = channel.abort_pending("server")
        assert aborted == 1
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], ConnectionAbortedError)
        assert channel.requests_aborted == 1

    def test_abort_pending_targets_only_the_named_host(self):
        scheduler, network, endpoint, channel = self._request_world()
        other_host = network.add_host("other")
        other = Endpoint(other_host, 80, lambda message, connection: None)
        other.start()
        channel.request_async(Address("server", 80), b"a", lambda m: m.payload)
        channel.request_async(Address("other", 80), b"b", lambda m: m.payload)
        assert channel.abort_pending("server") == 1
        connection = channel.connection_for(Address("other", 80))
        assert connection.pending == 1

    def test_channel_registers_with_its_network(self):
        scheduler, network, endpoint, channel = self._request_world()
        assert channel in network.client_channels

    def test_channel_registry_is_weak_and_compacts(self):
        import gc

        scheduler, network, endpoint, channel = self._request_world()
        extra = ClientChannel(network.host("client"), base_port=60000, name="short-lived")
        assert extra in network.client_channels
        del extra
        gc.collect()
        live = network.client_channels
        assert channel in live
        assert all(ch.name != "short-lived" for ch in live)


class TestRetryPolicyValidation:
    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
