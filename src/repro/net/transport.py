"""Protocol-agnostic request/reply transport layer.

Both middleware stacks of the reproduction — SOAP-over-HTTP and CORBA/GIOP —
carry ordered request/reply traffic between clients and the SDE.  Before this
module existed each stack wired itself directly onto :meth:`Host.bind` /
:meth:`Host.send` with its own deferred-reply mechanism; this module factors
the shared machinery out:

* :class:`Deferred` — the single reply-future used by every protocol.  A
  handler that cannot answer immediately returns a ``Deferred`` and resolves
  it later with :meth:`~Deferred.complete` or :meth:`~Deferred.fail`; SDE's
  §5.7 stall-until-published behaviour is expressed entirely through it.
* :class:`Connection` — per-peer connection state on a server endpoint.
  Replies on one connection are delivered in request-arrival order (FIFO,
  the ordering HTTP/1.1 keep-alive and GIOP both guarantee); a peer keeps
  one connection across its requests, so ``len(endpoint.connections)`` is
  the number of connections ever opened (keep-alive accounting).
* :class:`Endpoint` — the server-side dispatch loop.  It owns the port
  binding, the connection table and the reply path; replies completed after
  :meth:`Endpoint.stop` are dropped (and counted) instead of being sent
  through an unbound port.
* :class:`ClientChannel` — the client side: one persistent source port per
  destination (a client connection), asynchronous requests and FIFO reply
  correlation.  A caller whose :meth:`Deferred.wait` unwinds before the
  deferred completed resets the connection; nothing else does.

A request has one future: the channel's deferred, resolved by a ``parse``
that decodes the whole reply.  Client processing time is a scheduled delay
on that path: ``request_async(delay=...)`` and a parse returning :class:`Later`.

The HTTP server/client and the server/client ORBs are thin protocol codecs
over these four classes; the SDE call handlers and CDE bindings sit one layer
above and never touch raw ports.

Both connection kinds behave as byte streams: a message sent right after a
larger one must not overtake it, although the simulated network delays each
message independently by size.  A send whose arrival would not come strictly
after the previous one on its connection is held back (one scheduler event)
until it would.  The one-way delay computed for that check travels with the
send into :meth:`Host.send`, so each message's delay is computed once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Generic, NamedTuple, TypeVar, Union

from repro.errors import ConnectionAbortedError, TransportError
from repro.net.simnet import Address, Host, Message
from repro.obs import hooks as _obs_hooks
from repro.sim.servercore import ServerCore

T = TypeVar("T")

#: Tie-break added when a send must be held back so it cannot arrive at the
#: exact instant of (and race with) the message in front of it.
_STREAM_ORDER_EPSILON = 1e-9

#: Callback signature for :meth:`Deferred.subscribe`:
#: ``callback(value, error, delay)`` with exactly one of value/error set.
ResolveCallback = Callable[[Any, Union[BaseException, None], float], None]


class Deferred(Generic[T]):
    """A reply that will be provided later.

    The one reply-future shared by every protocol stack.  Handlers resolve it
    with :meth:`complete` (a value, optionally charged a processing ``delay``)
    or :meth:`fail` (an error the protocol layer encodes as a fault reply).
    """

    __slots__ = ("_done", "_value", "_error", "_delay", "_callbacks", "description")

    def __init__(self, description: str = "deferred reply") -> None:
        self.description = description
        self._done = False
        self._value: T | None = None
        self._error: BaseException | None = None
        self._delay = 0.0
        self._callbacks: list[ResolveCallback] = []

    @property
    def completed(self) -> bool:
        """True once :meth:`complete` or :meth:`fail` has been called."""
        return self._done

    def complete(self, value: T, delay: float = 0.0) -> None:
        """Resolve with ``value``, to be delivered after ``delay`` seconds."""
        self._resolve(value, None, delay)

    def fail(self, error: BaseException, delay: float = 0.0) -> None:
        """Resolve with an error to be propagated to the requester."""
        self._resolve(None, error, delay)

    def subscribe(self, callback: ResolveCallback) -> None:
        """Invoke ``callback(value, error, delay)`` on (or after) resolution."""
        if self._done:
            callback(self._value, self._error, self._delay)
        else:
            self._callbacks.append(callback)

    def transform(self, encode: Callable[[Any, Union[BaseException, None]], Any]) -> "Deferred":
        """Return a new deferred resolving with ``encode(value, error)``.

        Protocol servers use this to turn a handler-level deferred (an
        HttpResponse, a servant return value) into a wire-level deferred of
        payload bytes without the endpoint knowing either type.  An encoder
        that raises fails the transformed deferred.
        """
        out: Deferred = Deferred(self.description)

        def resolved(value: Any, error: BaseException | None, delay: float) -> None:
            try:
                encoded = encode(value, error)
            except Exception as exc:  # noqa: BLE001 - encode failure fails out
                out.fail(exc, delay)
                return
            out.complete(encoded, delay)

        self.subscribe(resolved)
        return out

    def wait(self, scheduler, max_events: int = 1_000_000) -> T:
        """Drive ``scheduler`` until resolved; return the value or raise.

        This is the blocking half of every synchronous call: the caller
        dispatches simulated events until the reply has been delivered.
        A :class:`~repro.errors.DeadlockError` naming :attr:`description`
        means the queue drained first — nothing can ever resolve it.
        """
        # ``getattr`` bound by ``partial`` reads the flag without a Python
        # frame per dispatched event.
        scheduler.run_until(
            partial(getattr, self, "_done"), max_events=max_events, description=self.description
        )
        if self._error is not None:
            raise self._error
        return self._value  # type: ignore[return-value]

    def _resolve(self, value: Any, error: BaseException | None, delay: float) -> None:
        if self._done:
            raise TransportError(f"{self.description} completed twice")
        self._done = True
        self._value = value
        self._error = error
        self._delay = delay
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value, error, delay)

    def __repr__(self) -> str:
        state = "resolved" if self._done else "pending"
        return f"Deferred({self.description!r}, {state})"


class Later(NamedTuple):
    """What a reply ``parse`` returns to resolve its request ``delay`` seconds
    later with ``finish()`` (or the error it raises): client processing
    time, such as decoding cost, charged after the reply arrived."""

    delay: float
    finish: Callable[[], Any]


#: What an endpoint handler may return for one request: an immediate payload,
#: a ``(payload, processing_delay)`` pair, a :class:`Deferred` resolving to a
#: payload, or ``None`` for one-way traffic that produces no reply.
ReplyOutcome = Union[bytes, tuple[bytes, float], Deferred, None]


@dataclass
class TransportStats:
    """Counters kept per endpoint."""

    replies_sent: int = 0
    replies_dropped: int = 0
    handler_errors: int = 0


class Connection:
    """Server-side state for one remote peer of an :class:`Endpoint`.

    Incoming requests are numbered in arrival order; their replies are
    released strictly in that order, whatever order the handlers resolve in.
    """

    def __init__(self, endpoint: "Endpoint", peer: Address) -> None:
        self.endpoint = endpoint
        self.peer = peer
        self._next_seq = 0
        self._next_to_send = 0
        #: seq -> payload bytes (or None for "no reply"), resolved but unsent.
        self._resolved: dict[int, bytes | None] = {}
        #: Latest scheduled arrival time of anything sent on this connection.
        self._last_arrival = 0.0

    @property
    def in_flight(self) -> int:
        """Requests whose replies have not been sent (or skipped) yet."""
        return self._next_seq - self._next_to_send

    # -- reply path ---------------------------------------------------------

    def resolve(self, seq: int, payload: bytes | None) -> None:
        """Provide the reply payload for slot ``seq`` (``None`` = no reply).

        The payload is transmitted once every earlier slot has been resolved;
        a slot resolved ahead of its turn waits in ``_resolved`` and leaves
        right behind the slot in front of it.
        """
        resolved = self._resolved
        if seq != self._next_to_send or seq >= self._next_seq:
            if seq in resolved or not self._next_to_send < seq < self._next_seq:
                raise TransportError(
                    f"connection {self.peer} slot {seq} resolved twice or out of range"
                )
            resolved[seq] = payload
            return
        endpoint = self.endpoint
        while True:
            seq += 1
            self._next_to_send = seq
            if payload is not None:
                host = endpoint.host
                scheduler = endpoint.scheduler
                delay = host.network.latency.one_way_delay(len(payload))
                arrival = scheduler.now + delay
                if arrival <= self._last_arrival:
                    arrival = self._last_arrival + _STREAM_ORDER_EPSILON
                    scheduler.schedule(
                        arrival - delay - scheduler.now,
                        self._send_now,
                        payload,
                        delay,
                    )
                else:
                    self._send_now(payload, delay)
                self._last_arrival = arrival
            if seq not in resolved:
                return
            payload = resolved.pop(seq)

    def _send_now(self, payload: bytes, delay: float) -> None:
        endpoint = self.endpoint
        if not endpoint._running:
            # The endpoint was stopped while this reply was pending: sending
            # through an unbound port would be a protocol violation, so the
            # reply is dropped and accounted for instead.
            endpoint.stats.replies_dropped += 1
            return
        endpoint.host.send(self.peer, payload, endpoint.port, delay, endpoint.address)
        endpoint.stats.replies_sent += 1

    def __repr__(self) -> str:
        return f"Connection({self.peer}, in_flight={self.in_flight})"


class Endpoint:
    """A server-side request/reply endpoint on the simulated network.

    The endpoint owns the port binding and the dispatch loop: every incoming
    message is assigned to its peer's :class:`Connection`, handed to the
    protocol ``handler`` and answered through the connection's ordered reply
    path.  The handler receives ``(message, connection)`` and returns a
    :data:`ReplyOutcome`; protocol-level parsing, routing and encoding stay in
    the protocol servers (HTTP, GIOP) built on top.
    """

    def __init__(
        self,
        host: Host,
        port: int,
        handler: Callable[[Message, Connection], ReplyOutcome],
        name: str = "endpoint",
        cores: "ServerCore | None" = None,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name
        self.handler = handler
        #: The event scheduler driving this endpoint's network.
        self.scheduler = host.network.scheduler
        #: The network address this endpoint listens on.
        self.address = Address(host.name, port)
        #: Optional bounded-CPU model: when set, per-request processing
        #: delays are serialised through its cores instead of running in
        #: parallel, so replies queue under load (server contention).
        self.cores = cores
        self.stats = TransportStats()
        self._connections: dict[Address, Connection] = {}
        self._running = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Bind the port and begin dispatching."""
        if self._running:
            return
        self.host.bind(self.port, self._on_message)
        self._running = True

    def stop(self) -> None:
        """Unbind the port; late replies are dropped and counted.

        A dropped reply leaves the requester's keep-alive connection owing
        one response, exactly like a dead HTTP/1.1 server socket: a caller
        waiting on that request raises :class:`~repro.errors.DeadlockError`
        once the queue drains, and resets the connection
        (:meth:`ClientChannel.reset`).
        """
        if not self._running:
            return
        self.host.unbind(self.port)
        self._running = False

    @property
    def running(self) -> bool:
        """True while the endpoint is bound to its port."""
        return self._running

    # -- connections --------------------------------------------------------

    @property
    def connections(self) -> tuple[Connection, ...]:
        """All connections ever opened, in open order."""
        return tuple(self._connections.values())

    def connection_for(self, peer: Address) -> Connection:
        """Return (opening if necessary) the connection for ``peer``."""
        connection = self._connections.get(peer)
        if connection is None:
            connection = Connection(self, peer)
            self._connections[peer] = connection
        return connection

    # -- dispatch loop ------------------------------------------------------

    def _on_message(self, message: Message, host: Host) -> None:
        connection = self.connection_for(message.source)
        # Allocate the request's FIFO slot.
        seq = connection._next_seq
        connection._next_seq = seq + 1
        try:
            outcome = self.handler(message, connection)
        except BaseException:
            # The protocol handler crashed without producing a reply.  Its
            # FIFO slot must still be released — a permanently unresolved
            # slot would withhold every later reply on this connection.
            self.stats.handler_errors += 1
            connection.resolve(seq, None)
            raise
        if isinstance(outcome, tuple):
            self._settle_resolved(connection, seq, outcome[0], None, outcome[1])
        elif isinstance(outcome, Deferred):
            outcome.subscribe(partial(self._settle_resolved, connection, seq))
        else:
            connection.resolve(seq, outcome)

    def _settle_resolved(
        self,
        connection: Connection,
        seq: int,
        payload: bytes | None,
        error: BaseException | None,
        delay: float,
    ) -> None:
        if error is not None:
            # A wire-level deferred must encode faults into payloads before
            # resolution; an unencoded error means the protocol layer chose
            # to drop the reply.
            connection.resolve(seq, None)
            return
        if delay > 0:
            cost = delay
            if self.cores is not None:
                delay = self.cores.charge(cost)
            active = _obs_hooks.ACTIVE
            if active is not None:
                # Tell the tracer how the processing delay splits into CPU
                # service vs bounded-core queue wait, so the analyzer can
                # attribute it; same synchronous frame as the dispatch that
                # just closed its server span.
                active.note_server_charge(cost, delay - cost)
        if delay > 0:
            self.scheduler.schedule(delay, connection.resolve, seq, payload)
            return
        connection.resolve(seq, payload)

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return (
            f"Endpoint({self.host.name}:{self.port}, {state}, "
            f"connections={len(self._connections)})"
        )


class _ClientConnection:
    """One client-side connection: a persistent source port to one peer."""

    def __init__(self, channel: "ClientChannel", destination: Address, port: int) -> None:
        self.channel = channel
        self.destination = destination
        self.port = port
        #: This connection's own (source) address: ``(channel host, port)``.
        self.address = Address(channel.host.name, port)
        self.unsolicited_replies = 0
        #: FIFO queue of pending ``(parse, deferred)`` expectations.
        self._expectations: deque[tuple[Callable[[Message], Any], Deferred]] = deque()
        #: Latest scheduled arrival time of anything sent on this connection.
        self._last_arrival = 0.0
        channel.host.bind(port, self._on_message)

    def send(
        self,
        payload: bytes,
        parse: Callable[[Message], Any],
        deferred: Deferred,
        context: Any,
    ) -> None:
        """Transmit ``payload`` and expect (in FIFO order) one reply for it.

        ``context`` is the trace context of the attempt that issued the
        request (``hooks.CONTEXT`` at issue time).  Like the server side, the
        connection behaves as a byte stream: a pipelined request is held
        back just long enough that it cannot overtake the previous one in
        flight.
        """
        channel = self.channel
        active = _obs_hooks.ACTIVE
        if active is not None:
            active.note_client_send(self.destination, len(payload), context)
        self._expectations.append((parse, deferred))
        host = channel.host
        scheduler = channel.scheduler
        destination = self.destination
        delay = host.network.latency.one_way_delay(len(payload))
        arrival = scheduler.now + delay
        if arrival <= self._last_arrival:
            arrival = self._last_arrival + _STREAM_ORDER_EPSILON
            scheduler.schedule(arrival - delay - scheduler.now, self._send_now, payload, delay)
        else:
            host.send(destination, payload, self.port, delay, self.address)
        self._last_arrival = arrival
        channel.requests_sent += 1

    def _send_now(self, payload: bytes, delay: float) -> None:
        self.channel.host.send(self.destination, payload, self.port, delay, self.address)

    def close(self) -> None:
        """Release the source port; pending expectations are abandoned.

        A port still owed replies is tombstoned rather than freed, so a
        late reply is dropped and counted instead of crashing delivery.
        """
        if self._expectations:
            self._expectations.clear()
            self.channel._tombstone_port(self.port)
        else:
            self.channel.host.unbind(self.port)

    @property
    def pending(self) -> int:
        """Requests sent on this connection that are still owed a reply."""
        return len(self._expectations)

    def abort(self, error: BaseException) -> int:
        """Fail every pending expectation with ``error`` and reset the port.

        The connection-abort path of the fault layer: when the peer crashes,
        in-flight deferreds fail *now* (so callers can fail over) instead of
        hanging on replies that will never come.  Like :meth:`reset`, the
        source port is rotated so a reply that is somehow still in flight
        lands on a tombstone instead of mis-correlating.
        """
        aborted, self._expectations = list(self._expectations), deque()
        self._rotate_port()
        self.channel.requests_aborted += len(aborted)
        for _parse, deferred in aborted:
            deferred.fail(error)
        return len(aborted)

    def reset(self) -> int:
        """Abandon every pending expectation, returning how many there were.

        A keep-alive client that sees a request error cannot trust FIFO
        correlation for the replies it is still owed, so it resets the
        connection — the simulated analogue of closing and reopening the
        socket.  The source port is rotated too: a reply to an abandoned
        request that is still in flight lands on the old port's tombstone
        (counted, dropped — a closed socket answering with RST) instead of
        being mis-correlated with the connection's next request.
        """
        abandoned = len(self._expectations)
        self._expectations.clear()
        self._rotate_port()
        return abandoned

    def _rotate_port(self) -> None:
        """Tombstone the current source port and bind a fresh one."""
        channel = self.channel
        channel._tombstone_port(self.port)
        self.port = channel._allocate_port()
        self.address = Address(channel.host.name, self.port)
        channel.host.bind(self.port, self._on_message)

    def _on_message(self, message: Message, _host: Host) -> None:
        if not self._expectations:
            self.unsolicited_replies += 1
            return
        parse, deferred = self._expectations.popleft()
        try:
            value = parse(message)
        except Exception as exc:  # noqa: BLE001 - parse errors fail the call
            deferred._resolve(None, exc, 0.0)
            return
        if type(value) is Later:
            self.channel.scheduler.schedule(value.delay, _finish, deferred, value.finish)
            return
        deferred._resolve(value, None, 0.0)

    def __repr__(self) -> str:
        return (
            f"_ClientConnection(:{self.port} -> {self.destination}, "
            f"in_flight={len(self._expectations)})"
        )


class ClientChannel:
    """Client-side request issuing with persistent per-destination connections.

    Replaces the per-request ephemeral-port pattern: the first request to a
    destination opens a connection (binds one source port); subsequent
    requests reuse it, which is what lets server endpoints account for
    keep-alive.  Replies are correlated FIFO per connection — exactly the
    guarantee the server-side :class:`Connection` provides.
    """

    def __init__(self, host: Host, base_port: int = 49152, name: str = "channel") -> None:
        self.host = host
        self.name = name
        #: The event scheduler driving this channel's network.
        self.scheduler = host.network.scheduler
        self.requests_sent = 0
        #: Replies that arrived for an abandoned (reset/closed) request.
        self.late_replies_dropped = 0
        #: In-flight requests failed fast by :meth:`abort_pending`.
        self.requests_aborted = 0
        self._next_port = base_port
        self._connections: dict[Address, _ClientConnection] = {}
        # Registered (weakly) so the fault layer can find every channel with
        # in-flight expectations to a crashed host (connection-abort
        # semantics).
        host.network.register_client_channel(self)

    @property
    def connections(self) -> tuple[_ClientConnection, ...]:
        """All open connections, in open order."""
        return tuple(self._connections.values())

    def connection_for(self, destination: Address) -> _ClientConnection:
        """Return (opening if necessary) the connection to ``destination``."""
        connection = self._connections.get(destination)
        if connection is None:
            connection = _ClientConnection(self, destination, self._allocate_port())
            self._connections[destination] = connection
        return connection

    def request_async(
        self,
        destination: Address,
        payload: bytes,
        parse: Callable[[Message], T],
        description: str = "request",
        delay: float = 0.0,
    ) -> Deferred[T]:
        """Send ``payload`` and return a deferred for ``parse(reply)`` (an
        error it raises fails the deferred).  A positive ``delay`` is client
        processing time: the request leaves that many seconds from now."""
        deferred: Deferred[T] = Deferred(description)
        if delay > 0:
            self.scheduler.schedule(
                delay,
                self._send_later,
                destination,
                payload,
                parse,
                deferred,
                _obs_hooks.CONTEXT,
            )
        else:
            self.connection_for(destination).send(payload, parse, deferred, _obs_hooks.CONTEXT)
        return deferred

    def _send_later(
        self,
        destination: Address,
        payload: bytes,
        parse: Callable[[Message], Any],
        deferred: Deferred,
        context: Any,
    ) -> None:
        # The connection is looked up when the request leaves, so a reset
        # during the processing delay sends it on a fresh connection.
        self.connection_for(destination).send(payload, parse, deferred, context)

    def abort_pending(self, destination_host: str, error: BaseException | None = None) -> int:
        """Fail fast every in-flight expectation aimed at ``destination_host``.

        Called by the fault layer when a server host crashes: each pending
        deferred on every connection to that host fails with ``error``
        (default: a :class:`ConnectionAbortedError` naming the host), so
        callers can retry against another replica immediately instead of
        hanging on a reply the dead server will never send.
        Returns how many in-flight requests were aborted.
        """
        if error is None:
            error = ConnectionAbortedError(
                f"connection to {destination_host!r} aborted: server crashed"
            )
        aborted = 0
        for destination, connection in list(self._connections.items()):
            if destination.host == destination_host and connection.pending:
                aborted += connection.abort(error)
        return aborted

    def reset(self, destination: Address) -> int:
        """Abandon the connection's pending expectations after a failure.

        Returns how many expectations were dropped (0 when no connection to
        ``destination`` exists).  A caller whose wait unwinds before its
        deferred completed must call this so a stale FIFO expectation cannot
        mis-correlate the connection's next reply.
        """
        connection = self._connections.get(destination)
        return connection.reset() if connection is not None else 0

    def close(self) -> None:
        """Close every connection and release (or tombstone) their ports.

        Port numbers keep advancing monotonically across close/reopen so a
        reply still in flight to an old connection can never reach a new
        connection that happens to reuse its number.
        """
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()

    def _tombstone_port(self, port: int) -> None:
        """Rebind ``port`` to a sink that counts and drops late replies."""
        self.host.unbind(port)

        def drop(message: Message, _host: Host) -> None:
            self.late_replies_dropped += 1

        self.host.bind(port, drop)

    def _allocate_port(self) -> int:
        while self.host.is_bound(self._next_port):
            self._next_port += 1
        port = self._next_port
        self._next_port += 1
        return port

    def __repr__(self) -> str:
        return (
            f"ClientChannel(host={self.host.name!r}, "
            f"connections={len(self._connections)}, sent={self.requests_sent})"
        )


def _finish(deferred: Deferred, finish: Callable[[], Any]) -> None:
    """Resolve ``deferred`` with the value of a :class:`Later` reply."""
    try:
        value = finish()
    except Exception as exc:  # noqa: BLE001 - e.g. a CORBA exception reply
        deferred.fail(exc)
        return
    deferred.complete(value)
