"""Tests for the shared transport layer (Deferred, Connection, Endpoint, channels)."""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError, TransportError
from repro.net.simnet import Address
from repro.net.transport import ClientChannel, Deferred, Endpoint, Later
from repro.obs import hooks
from repro.obs.api import Observability
from repro.obs.spans import KIND_ATTEMPT


class TestDeferred:
    def test_complete_then_subscribe(self):
        deferred = Deferred("d")
        deferred.complete("value", delay=1.5)
        seen = []
        deferred.subscribe(lambda value, error, delay: seen.append((value, error, delay)))
        assert seen == [("value", None, 1.5)]

    def test_subscribe_then_complete(self):
        deferred = Deferred("d")
        seen = []
        deferred.subscribe(lambda value, error, delay: seen.append((value, error, delay)))
        assert seen == []
        deferred.complete(7)
        assert seen == [(7, None, 0.0)]

    def test_fail_delivers_error(self):
        deferred = Deferred("d")
        boom = RuntimeError("boom")
        deferred.fail(boom)
        seen = []
        deferred.subscribe(lambda value, error, delay: seen.append(error))
        assert seen == [boom]

    def test_double_completion_rejected(self):
        deferred = Deferred("d")
        deferred.complete(1)
        with pytest.raises(TransportError):
            deferred.complete(2)
        with pytest.raises(TransportError):
            deferred.fail(RuntimeError("late"))

    def test_failed_deferred_rejects_later_resolution(self):
        deferred = Deferred("d")
        deferred.fail(RuntimeError("first"))
        with pytest.raises(TransportError, match="completed twice"):
            deferred.complete(1)
        with pytest.raises(TransportError, match="completed twice"):
            deferred.fail(RuntimeError("second"))

    def test_transform_encodes_value_and_error(self):
        source = Deferred("s")
        encoded = source.transform(
            lambda value, error: b"err" if error is not None else str(value).encode()
        )
        source.complete(42, delay=0.25)
        seen = []
        encoded.subscribe(lambda value, error, delay: seen.append((value, delay)))
        assert seen == [(b"42", 0.25)]

    def test_transform_encode_failure_fails_transformed_deferred(self):
        source = Deferred("s")
        encoded = source.transform(lambda value, error: 1 / 0)
        seen = []
        encoded.subscribe(lambda value, error, delay: seen.append(error))
        source.complete("fine")
        assert source.completed  # the source resolution is not corrupted
        assert len(seen) == 1
        assert isinstance(seen[0], ZeroDivisionError)

    def test_wait_drives_scheduler(self, scheduler):
        deferred = Deferred("d")
        scheduler.schedule(3.0, lambda: deferred.complete("late"))
        assert deferred.wait(scheduler) == "late"
        assert scheduler.now >= 3.0

    def test_wait_raises_failure(self, scheduler):
        deferred = Deferred("d")
        scheduler.schedule(1.0, lambda: deferred.fail(ValueError("nope")))
        with pytest.raises(ValueError):
            deferred.wait(scheduler)

    def test_wait_returns_value_at_its_completion_time(self, scheduler):
        deferred = Deferred("d")
        scheduler.schedule(1.0, lambda: deferred.complete(42))
        assert deferred.wait(scheduler) == 42
        assert scheduler.now == 1.0

    def test_wait_reraises_the_failure_it_was_given(self, scheduler):
        deferred = Deferred("d")
        broken = RuntimeError("broken")
        scheduler.schedule(1.0, lambda: deferred.fail(broken))
        with pytest.raises(RuntimeError, match="broken") as raised:
            deferred.wait(scheduler)
        assert raised.value is broken
        assert scheduler.now == 1.0

    def test_wait_deadlocks_when_nothing_resolves_it(self, scheduler):
        with pytest.raises(DeadlockError, match="orphan"):
            Deferred("orphan").wait(scheduler)

    def test_wait_on_a_resolved_deferred_dispatches_nothing(self, scheduler):
        deferred = Deferred("d")
        deferred.complete("ready")
        scheduler.schedule(1.0, lambda: None)
        assert deferred.wait(scheduler) == "ready"
        assert scheduler.now == 0.0

    def test_completed_flag(self):
        deferred = Deferred("d")
        assert not deferred.completed
        deferred.complete(None)
        assert deferred.completed

    def test_nested_waits(self, scheduler):
        """A blocking operation may itself perform a blocking operation."""
        outer = Deferred("outer")
        inner = Deferred("inner")

        def start_inner():
            scheduler.schedule(1.0, lambda: inner.complete("inner-done"))
            outer.complete(f"outer saw {inner.wait(scheduler)}")

        scheduler.schedule(1.0, start_inner)
        assert outer.wait(scheduler) == "outer saw inner-done"
        assert scheduler.now == 2.0


def _collecting_client(network, host_name="client", port=40000):
    """Bind a raw port on ``host_name`` collecting delivered payloads."""
    received = []
    host = network.host(host_name)
    host.bind(port, lambda message, _host: received.append(message.payload))
    return host, Address(host_name, port), received


class TestEndpointDispatch:
    def test_immediate_payload_reply(self, network, scheduler):
        server = network.host("server")
        endpoint = Endpoint(server, 9100, lambda message, conn: b"pong:" + message.payload)
        endpoint.start()
        client, source, received = _collecting_client(network)
        client.send(Address("server", 9100), b"ping", source_port=source.port)
        scheduler.run_until_idle()
        assert received == [b"pong:ping"]
        assert endpoint.stats.requests_received == 1
        assert endpoint.stats.replies_sent == 1

    def test_oneway_none_outcome_sends_nothing(self, network, scheduler):
        server = network.host("server")
        endpoint = Endpoint(server, 9100, lambda message, conn: None)
        endpoint.start()
        client, source, received = _collecting_client(network)
        client.send(Address("server", 9100), b"fire-and-forget", source_port=source.port)
        scheduler.run_until_idle()
        assert received == []
        assert endpoint.stats.requests_received == 1
        assert endpoint.stats.replies_sent == 0

    def test_delayed_reply_charges_clock(self, network, scheduler):
        server = network.host("server")
        endpoint = Endpoint(server, 9100, lambda message, conn: (b"slow", 2.0))
        endpoint.start()
        client, source, received = _collecting_client(network)
        client.send(Address("server", 9100), b"x", source_port=source.port)
        scheduler.run_until_idle()
        assert received == [b"slow"]
        assert scheduler.now >= 2.0

    def test_fifo_ordering_across_out_of_order_completions(self, network, scheduler):
        """Replies leave in request-arrival order even when later requests
        complete first."""
        server = network.host("server")
        deferreds: list[Deferred] = []

        def handler(message, conn):
            deferred: Deferred = Deferred(f"reply to {message.payload!r}")
            deferreds.append(deferred)
            return deferred

        endpoint = Endpoint(server, 9100, handler, name="fifo")
        endpoint.start()
        client, source, received = _collecting_client(network)
        for index in range(3):
            client.send(Address("server", 9100), b"req%d" % index, source_port=source.port)
        scheduler.run_until(lambda: len(deferreds) == 3, description="requests arrive")
        # Resolve in reverse order; transmission must still be 0, 1, 2.
        deferreds[2].complete(b"reply2")
        deferreds[1].complete(b"reply1")
        deferreds[0].complete(b"reply0")
        scheduler.run_until_idle()
        assert received == [b"reply0", b"reply1", b"reply2"]

    def test_replies_after_stop_dropped_and_counted(self, network, scheduler):
        server = network.host("server")
        held: list[Deferred] = []

        def handler(message, conn):
            deferred: Deferred = Deferred("held")
            held.append(deferred)
            return deferred

        endpoint = Endpoint(server, 9100, handler)
        endpoint.start()
        client, source, received = _collecting_client(network)
        client.send(Address("server", 9100), b"x", source_port=source.port)
        scheduler.run_until(lambda: held, description="request arrives")
        endpoint.stop()
        held[0].complete(b"too late")
        scheduler.run_until_idle()
        assert received == []
        assert endpoint.stats.replies_dropped == 1
        assert endpoint.connections[0].replies_dropped == 1

    def test_handler_crash_releases_fifo_slot(self, network, scheduler):
        """A handler exception must not wedge the connection: later requests
        on the same connection still get their replies."""
        server = network.host("server")

        def handler(message, conn):
            if message.payload == b"boom":
                raise RuntimeError("handler crashed")
            return b"ok:" + message.payload

        endpoint = Endpoint(server, 9100, handler)
        endpoint.start()
        client, source, received = _collecting_client(network)
        client.send(Address("server", 9100), b"boom", source_port=source.port)
        with pytest.raises(RuntimeError):
            scheduler.run_until_idle()
        client.send(Address("server", 9100), b"next", source_port=source.port)
        scheduler.run_until_idle()
        assert received == [b"ok:next"]
        assert endpoint.stats.handler_errors == 1

    def test_connection_reuse_accounting(self, network, scheduler):
        server = network.host("server")
        endpoint = Endpoint(server, 9100, lambda message, conn: b"ok")
        endpoint.start()
        client, source, received = _collecting_client(network)
        for _ in range(3):
            client.send(Address("server", 9100), b"x", source_port=source.port)
            scheduler.run_until_idle()
        assert endpoint.stats.connections_opened == 1
        assert endpoint.stats.connections_reused == 2
        assert len(endpoint.connections) == 1


class TestClientChannel:
    def _echo_endpoint(self, network, port=9200):
        endpoint = Endpoint(
            network.host("server"), port, lambda message, conn: b"echo:" + message.payload
        )
        endpoint.start()
        return endpoint

    def test_blocking_request(self, network, scheduler):
        self._echo_endpoint(network)
        channel = ClientChannel(network.host("client"))
        reply = channel.request(
            Address("server", 9200), b"hi", lambda message: message.payload
        )
        assert reply == b"echo:hi"
        assert channel.requests_sent == 1
        assert channel.replies_received == 1

    def test_connection_reused_across_requests(self, network, scheduler):
        endpoint = self._echo_endpoint(network)
        channel = ClientChannel(network.host("client"))
        for _ in range(4):
            channel.request(Address("server", 9200), b"x", lambda m: m.payload)
        assert len(channel.connections) == 1
        assert endpoint.stats.connections_opened == 1
        assert endpoint.stats.connections_reused == 3

    def test_async_requests_pipeline_in_order(self, network, scheduler):
        self._echo_endpoint(network)
        channel = ClientChannel(network.host("client"))
        replies = []
        for index in range(3):
            deferred = channel.request_async(
                Address("server", 9200), b"%d" % index, lambda m: m.payload
            )
            deferred.subscribe(lambda value, error, delay: replies.append(value))
        scheduler.run_until_idle()
        assert replies == [b"echo:0", b"echo:1", b"echo:2"]

    def test_client_processing_delays_stay_on_the_one_request(self, network, scheduler):
        """A send delay holds the request; a parse returning ``Later``
        resolves the request's own deferred that much after the reply."""
        self._echo_endpoint(network)
        channel = ClientChannel(network.host("client"))
        plain = channel.request(Address("server", 9200), b"x", lambda m: m.payload)
        round_trip = scheduler.now
        started = scheduler.now
        deferred = channel.request_async(
            Address("server", 9200),
            b"x",
            lambda m: Later(0.25, lambda: m.payload.upper()),
            delay=0.5,
        )
        assert deferred.wait(scheduler) == plain.upper()
        assert scheduler.now - started == pytest.approx(0.5 + round_trip + 0.25)

        def refused():
            raise ValueError("decoding failed")

        started = scheduler.now
        failing = channel.request_async(
            Address("server", 9200), b"x", lambda m: Later(0.25, refused)
        )
        with pytest.raises(ValueError):
            failing.wait(scheduler)
        assert scheduler.now - started == pytest.approx(round_trip + 0.25)

    def test_delayed_request_is_traced_and_counted_when_it_leaves(self, network, scheduler):
        """The ``transport.send`` event of a request with a send delay lands
        on the issuing attempt's span at the time the bytes leave."""
        self._echo_endpoint(network)
        channel = ClientChannel(network.host("client"))
        obs = Observability().install(scheduler)
        try:
            span = obs.tracer.begin("attempt", KIND_ATTEMPT)
            hooks.CONTEXT = span.context
            issued = scheduler.now
            deferred = channel.request_async(
                Address("server", 9200), b"x", lambda m: m.payload, delay=0.5
            )
            hooks.CONTEXT = None
            assert channel.requests_sent == 0
            deferred.wait(scheduler)
        finally:
            obs.uninstall()
        assert channel.requests_sent == 1
        assert [(time, name) for time, name, _attrs in span.events] == [
            (pytest.approx(issued + 0.5), "transport.send")
        ]

    def test_parse_error_fails_request(self, network, scheduler):
        self._echo_endpoint(network)
        channel = ClientChannel(network.host("client"))

        def bad_parse(message):
            raise ValueError("unparsable")

        connection = channel.connection_for(Address("server", 9200))
        port_before = connection.port
        with pytest.raises(ValueError):
            channel.request(Address("server", 9200), b"x", bad_parse)
        # The connection was reset with a fresh source port, so a late reply
        # to the aborted request cannot be mis-correlated; the next request
        # still works.
        assert connection.port != port_before
        assert channel.request(Address("server", 9200), b"y", lambda m: m.payload) == b"echo:y"

    def test_close_releases_ports(self, network, scheduler):
        self._echo_endpoint(network)
        client_host = network.host("client")
        channel = ClientChannel(client_host)
        channel.request(Address("server", 9200), b"x", lambda m: m.payload)
        bound_before = len(client_host.bound_ports)
        channel.close()
        assert len(client_host.bound_ports) == bound_before - 1

    def test_late_reply_after_reset_is_dropped_not_crashed(self, network, scheduler):
        """A reply resolving after the requester abandoned the call lands on
        the old port's tombstone instead of crashing delivery."""
        server = network.host("server")
        held: list[Deferred] = []

        def handler(message, conn):
            deferred: Deferred = Deferred("held")
            held.append(deferred)
            return deferred

        endpoint = Endpoint(server, 9300, handler)
        endpoint.start()
        channel = ClientChannel(network.host("client"))
        from repro.errors import DeadlockError

        # The blocking request drains the queue while the reply is held,
        # fails with DeadlockError, and resets the connection.
        with pytest.raises(DeadlockError):
            channel.request(Address("server", 9300), b"x", lambda m: m.payload)
        # The server completes the abandoned reply afterwards.
        held[0].complete(b"too late")
        scheduler.run_until_idle()
        assert channel.late_replies_dropped == 1

    def test_close_with_pending_reply_tombstones_port(self, network, scheduler):
        server = network.host("server")
        held: list[Deferred] = []

        def handler(message, conn):
            deferred: Deferred = Deferred("held")
            held.append(deferred)
            return deferred

        endpoint = Endpoint(server, 9300, handler)
        endpoint.start()
        channel = ClientChannel(network.host("client"))
        deferred = channel.request_async(Address("server", 9300), b"x", lambda m: m.payload)
        scheduler.run_until(lambda: held, description="request arrives")
        channel.close()
        held[0].complete(b"late")
        scheduler.run_until_idle()
        assert channel.late_replies_dropped == 1
        assert not deferred.completed

    def test_reopened_connection_uses_fresh_port(self, network, scheduler):
        self._echo_endpoint(network)
        channel = ClientChannel(network.host("client"))
        channel.request(Address("server", 9200), b"x", lambda m: m.payload)
        old_port = channel.connections[0].port
        channel.close()
        channel.request(Address("server", 9200), b"y", lambda m: m.payload)
        assert channel.connections[0].port != old_port
