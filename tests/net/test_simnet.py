"""Tests for the simulated network."""

import pytest

from repro.errors import (
    HostNotFoundError,
    NetworkError,
    PortInUseError,
    TransportError,
)
from repro.errors import ConnectionRefusedError as SimConnectionRefusedError
from repro.net import Network, loopback_profile, t1_lan_profile
from repro.net.latency import LatencyModel
from repro.net.simnet import Address
from repro.sim import Scheduler


def _collector():
    received = []

    def listener(message, host):
        received.append(message)

    return received, listener


class TestTopology:
    def test_add_and_lookup_host(self, scheduler):
        network = Network(scheduler)
        host = network.add_host("alpha")
        assert network.host("alpha") is host
        assert host in network.hosts

    def test_duplicate_host_rejected(self, scheduler):
        network = Network(scheduler)
        network.add_host("alpha")
        with pytest.raises(NetworkError):
            network.add_host("alpha")

    def test_unknown_host_lookup(self, scheduler):
        network = Network(scheduler)
        with pytest.raises(HostNotFoundError):
            network.host("ghost")


class TestPorts:
    def test_bind_and_unbind(self, network):
        server = network.host("server")
        server.bind(80, lambda message, host: None)
        assert server.is_bound(80)
        server.unbind(80)
        assert not server.is_bound(80)

    def test_double_bind_rejected(self, network):
        server = network.host("server")
        server.bind(80, lambda message, host: None)
        with pytest.raises(PortInUseError):
            server.bind(80, lambda message, host: None)

    def test_bound_ports_sorted(self, network):
        server = network.host("server")
        server.bind(9000, lambda m, h: None)
        server.bind(80, lambda m, h: None)
        assert server.bound_ports == (80, 9000)


class TestDelivery:
    def test_message_delivered_to_listener(self, network, scheduler):
        received, listener = _collector()
        network.host("server").bind(80, listener)
        network.host("client").send(Address("server", 80), b"hello")
        scheduler.run_until_idle()
        assert [m.payload for m in received] == [b"hello"]

    def test_port_listener_object_receives_through_on_message(self, network, scheduler):
        received, listener = _collector()

        class Listener:
            on_message = staticmethod(listener)

        network.host("server").bind(80, Listener())
        network.host("client").send(Address("server", 80), b"hello")
        scheduler.run_until_idle()
        assert [m.payload for m in received] == [b"hello"]

    def test_delivery_delayed_by_latency(self, scheduler):
        network = Network(scheduler, LatencyModel(propagation=0.5, bandwidth_bytes_per_second=0, per_message_overhead=0))
        server = network.add_host("server")
        client = network.add_host("client")
        received, listener = _collector()
        server.bind(80, listener)
        client.send(Address("server", 80), b"x")
        scheduler.run_until_idle()
        assert received[0].delivered_at == pytest.approx(0.5)

    def test_larger_messages_take_longer(self, scheduler):
        network = Network(scheduler, t1_lan_profile())
        server = network.add_host("server")
        client = network.add_host("client")
        received, listener = _collector()
        server.bind(80, listener)
        client.send(Address("server", 80), b"a")
        client.send(Address("server", 80), b"b" * 100_000)
        scheduler.run_until_idle()
        small, large = received
        assert (large.delivered_at - large.sent_at) > (small.delivered_at - small.sent_at)

    def test_send_to_unbound_port_raises_on_delivery(self, network, scheduler):
        network.host("client").send(Address("server", 81), b"x")
        with pytest.raises(SimConnectionRefusedError):
            scheduler.run_until_idle()

    def test_delivery_log_is_opt_in(self, scheduler):
        recording = Network(scheduler, loopback_profile(), record_deliveries=True)
        server = recording.add_host("server")
        client = recording.add_host("client")
        server.bind(80, lambda m, h: None)
        client.send(Address("server", 80), b"one")
        client.send(Address("server", 80), b"two")
        scheduler.run_until_idle()
        assert [m.payload for m in recording.delivered_messages] == [b"one", b"two"]

        silent = Network(scheduler, loopback_profile())
        server2 = silent.add_host("server")
        client2 = silent.add_host("client")
        server2.bind(80, lambda m, h: None)
        client2.send(Address("server", 80), b"three")
        scheduler.run_until_idle()
        assert silent.delivered_messages == []
        assert silent.stats.messages_received == 1

    def test_same_instant_sends_deliver_in_send_order(self, scheduler):
        """Equal-size messages sent back-to-back coalesce into one delivery
        batch without perturbing (time, insertion) order."""
        network = Network(scheduler, loopback_profile())
        server = network.add_host("server")
        client = network.add_host("client")
        received, listener = _collector()
        server.bind(80, listener)
        for index in range(5):
            client.send(Address("server", 80), b"%d" % index)
        dispatched = scheduler.run_until_idle()
        assert [m.payload for m in received] == [b"0", b"1", b"2", b"3", b"4"]
        # One batched delivery event, not five.
        assert dispatched == 1

    def test_send_to_unknown_host_rejected_immediately(self, network):
        with pytest.raises(HostNotFoundError):
            network.host("client").send(Address("ghost", 80), b"x")

    def test_non_bytes_payload_rejected(self, network):
        with pytest.raises(TransportError):
            network.host("client").send(Address("server", 80), "not bytes")

    def test_messages_to_same_destination_preserve_order(self, network, scheduler):
        received, listener = _collector()
        network.host("server").bind(80, listener)
        client = network.host("client")
        for index in range(5):
            client.send(Address("server", 80), f"msg-{index}".encode())
        scheduler.run_until_idle()
        assert [m.payload for m in received] == [f"msg-{i}".encode() for i in range(5)]


class TestLinksAndPartitions:
    def test_per_link_latency_override(self, scheduler):
        network = Network(scheduler, LatencyModel(propagation=0.001, bandwidth_bytes_per_second=0, per_message_overhead=0))
        a = network.add_host("a")
        b = network.add_host("b")
        network.add_host("c")
        network.set_link_latency("a", "b", LatencyModel(propagation=1.0, bandwidth_bytes_per_second=0, per_message_overhead=0))
        received, listener = _collector()
        b.bind(1, listener)
        network.host("c").bind(1, lambda m, h: None)
        a.send(Address("b", 1), b"x")
        scheduler.run_until_idle()
        assert received[0].delivered_at == pytest.approx(1.0)

    def test_partition_drops_messages(self, network, scheduler):
        received, listener = _collector()
        network.host("server").bind(80, listener)
        network.partition("client", "server")
        network.host("client").send(Address("server", 80), b"lost")
        scheduler.run_until_idle()
        assert received == []
        assert network.stats.messages_dropped == 1

    def test_heal_restores_traffic(self, network, scheduler):
        received, listener = _collector()
        network.host("server").bind(80, listener)
        network.partition("client", "server")
        network.heal("client", "server")
        network.host("client").send(Address("server", 80), b"back")
        scheduler.run_until_idle()
        assert len(received) == 1

    def test_heal_all(self, network):
        network.partition("client", "server")
        network.heal_all()
        assert not network.is_partitioned("client", "server")


class TestStats:
    def test_counters_updated(self, network, scheduler):
        received, listener = _collector()
        network.host("server").bind(80, listener)
        network.host("client").send(Address("server", 80), b"12345")
        scheduler.run_until_idle()
        assert network.stats.messages_sent == 1
        assert network.stats.bytes_sent == 5
        assert network.host("client").stats.messages_sent == 1
        assert network.host("server").stats.messages_received == 1
        assert network.host("server").stats.bytes_received == 5
