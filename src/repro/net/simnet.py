"""Deterministic in-process network simulator.

Hosts attach to a :class:`Network`; binding a :class:`PortListener` to a port
makes the host reachable; :meth:`Host.send` delivers a :class:`Message` to the
destination after the delay computed by the network's latency model.  The
simulator supports per-link latency overrides, partitions, per-link fault
profiles (seeded probabilistic loss and jitter — see :mod:`repro.faults`),
crashed-host semantics and per-host/network traffic statistics.

Fault-model invariants (see ARCHITECTURE.md "Fault model"):

* a *partition* or a *link fault* is evaluated when a message's delivery is
  scheduled, i.e. at send time — messages already in flight when a partition
  lands still arrive (like packets already on the wire);
* a *down host* (``Host.down``, set by :meth:`repro.faults.FaultInjector.crash`)
  drops traffic in both places: new sends to it are discarded at transmit
  time and messages already in flight are discarded at delivery time, so a
  crash takes effect instantly and deterministically;
* link-fault jitter is clamped per link direction so delayed messages can
  never overtake earlier ones — per-connection FIFO correlation in the
  transport layer survives any fault profile.

All payloads are byte strings: every protocol in the reproduction (HTTP, SOAP
XML, GIOP) serialises to bytes before transmission, exactly as on a real wire.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Protocol

from repro.errors import (
    HostNotFoundError,
    NetworkError,
    PortInUseError,
    TransportError,
)
from repro.errors import ConnectionRefusedError as SimConnectionRefusedError
from repro.net.latency import LatencyModel, loopback_profile
from repro.obs import hooks as _obs_hooks
from repro.sim.scheduler import Event, Scheduler


class Address(NamedTuple):
    """A ``(host, port)`` pair identifying a network endpoint.

    A named tuple, so the hashing and equality behind every connection-table
    lookup run in C.
    """

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(slots=True)
class Message:
    """A message in flight on the simulated network.

    ``message_id`` is a per-network sequence number (an ``int``, not a
    formatted string — half a million of these are created per fleet sweep).
    """

    message_id: int
    source: Address
    destination: Address
    payload: bytes
    sent_at: float
    delivered_at: float | None = None


class PortListener(Protocol):
    """Anything able to receive messages bound to a host port."""

    def on_message(self, message: Message, host: "Host") -> None:
        """Handle a delivered message."""


class LinkFault(Protocol):
    """Anything able to decide one message's fate on a faulty link.

    Implemented by :class:`repro.faults.LinkFaultProfile`; the simnet only
    knows the protocol, keeping the fault subsystem a strictly higher layer.
    A profile governs exactly one link direction: ``jitter`` announces the
    maximum extra delay it may add and ``last_arrival`` is the network's
    per-direction ordering clamp (jittered messages never overtake).
    """

    jitter: float
    last_arrival: float

    def sample(self, size_bytes: int) -> tuple[bool, float]:
        """Return ``(drop, extra_delay)`` for one message of the given size."""


@dataclass
class TrafficStats:
    """Counters kept per host and per network."""

    messages_sent: int = 0
    messages_received: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class Host:
    """A named machine attached to a :class:`Network`."""

    def __init__(self, name: str, network: "Network") -> None:
        self.name = name
        self.network = network
        #: Port -> the callable that receives ``(message, host)``.
        self._listeners: dict[int, Callable[[Message, "Host"], None]] = {}
        self.stats = TrafficStats()
        #: True while the machine is crashed: traffic to it is dropped at
        #: transmit *and* delivery time (see the fault-model invariants in
        #: the module docstring).  Toggled by :mod:`repro.faults`.
        self.down = False

    # -- ports ------------------------------------------------------------

    def bind(self, port: int, listener: PortListener | Callable[[Message, "Host"], None]) -> None:
        """Attach ``listener`` to ``port`` so incoming messages are delivered
        to it.  Raises :class:`PortInUseError` if the port is already bound.

        A :class:`PortListener` is stored as its bound ``on_message``, so
        every delivery is one direct call.
        """
        if port in self._listeners:
            raise PortInUseError(f"port {port} on host {self.name!r} is already bound")
        self._listeners[port] = listener if callable(listener) else listener.on_message

    def unbind(self, port: int) -> None:
        """Detach the listener from ``port``; unknown ports are ignored."""
        self._listeners.pop(port, None)

    def is_bound(self, port: int) -> bool:
        """True if a listener is currently attached to ``port``."""
        return port in self._listeners

    @property
    def bound_ports(self) -> tuple[int, ...]:
        """The ports that currently have listeners, in ascending order."""
        return tuple(sorted(self._listeners))

    # -- traffic ----------------------------------------------------------

    def send(
        self,
        destination: Address,
        payload: bytes,
        source_port: int = 0,
        delay: float | None = None,
        source: Address | None = None,
    ) -> Message:
        """Send ``payload`` to ``destination`` and return the in-flight message.

        ``delay`` is the link's one-way delay for this payload, when the
        caller already computed it (the transport does, to keep its
        connections ordered); ``source`` is this host's
        ``Address(name, source_port)``, when the caller already holds it.
        """
        if type(payload) is not bytes:
            if not isinstance(payload, (bytes, bytearray)):
                raise TransportError(
                    f"payload must be bytes, got {type(payload).__name__}; "
                    "serialise protocol messages before sending"
                )
            payload = bytes(payload)
        if source is None:
            source = Address(self.name, source_port)
        # Transmission, inline (one frame per message): delivery is
        # scheduled after the one-way delay given by the governing latency
        # model (``delay``, when the sender already computed it).  Traffic
        # into a partition is counted as dropped and silently discarded,
        # mirroring packet loss.
        #
        # Same-instant coalescing: when this send arrives at the exact
        # virtual time of the previous one *and* nothing else was scheduled
        # in between, the message joins the previous delivery's batch
        # instead of costing its own heap entry.  Because the batch event
        # was the most recently scheduled event, delivering the newcomer
        # immediately after its batch siblings is exactly the ``(time,
        # insertion order)`` the scheduler would have produced anyway —
        # determinism is unchanged.
        network = self.network
        destination_host = network._hosts.get(destination.host)
        if destination_host is None:
            raise HostNotFoundError(f"unknown host {destination.host!r}")
        scheduler = network.scheduler
        now = scheduler.now

        size = len(payload)
        network._next_message_id += 1
        message = Message(network._next_message_id, source, destination, payload, now)
        source_stats = self.stats
        source_stats.messages_sent += 1
        source_stats.bytes_sent += size
        stats = network.stats
        stats.messages_sent += 1
        stats.bytes_sent += size

        if network._partitions and network.is_partitioned(source.host, destination.host):
            stats.messages_dropped += 1
            source_stats.messages_dropped += 1
            if _obs_hooks.ACTIVE is not None:
                _obs_hooks.ACTIVE.instant(
                    "net.drop", reason="partition", source=source.host, to=destination.host
                )
            return message
        if self.down or destination_host.down:
            # A crashed machine neither sends nor receives; dropping at
            # transmit time keeps the event queue free of doomed deliveries.
            stats.messages_dropped += 1
            source_stats.messages_dropped += 1
            if _obs_hooks.ACTIVE is not None:
                _obs_hooks.ACTIVE.instant(
                    "net.drop", reason="host-down", source=source.host, to=destination.host
                )
            return message

        if delay is None:
            delay = network.link_latency(source.host, destination.host).one_way_delay(size)
        if network._link_faults:
            fault = network._link_faults.get((source.host, destination.host))
            if fault is not None:
                drop, extra = fault.sample(size)
                if drop:
                    stats.messages_dropped += 1
                    source_stats.messages_dropped += 1
                    if _obs_hooks.ACTIVE is not None:
                        _obs_hooks.ACTIVE.instant(
                            "net.drop",
                            reason="link-fault",
                            source=source.host,
                            to=destination.host,
                        )
                    return message
                if fault.jitter > 0.0:
                    # Jitter must not let a later message overtake an earlier
                    # one on the same link direction: clamp the arrival to be
                    # strictly after the latest one already scheduled, so the
                    # transport layer's per-connection FIFO correlation holds.
                    arrival = now + delay + extra
                    if arrival <= fault.last_arrival:
                        arrival = fault.last_arrival + 1e-9
                    fault.last_arrival = arrival
                    delay = arrival - now
        arrival = now + delay
        batch = network._batch
        if (
            batch is not None
            and batch[0] == arrival
            and batch[1] is scheduler.last_event
            and batch[1].pending
        ):
            batch[2].append(message)
            return message
        pending = [message]
        label = f"deliver {source} -> {destination}" if scheduler.tracing else "deliver"
        event = scheduler.schedule(delay, network._deliver_batch, pending, label=label)
        network._batch = (arrival, event, pending)
        return message

    def deliver(self, message: Message) -> None:
        """Called by the network when a message arrives at this host."""
        if self.down:
            # The machine crashed while this message was in flight: a dead
            # NIC receives nothing, so the message is silently discarded
            # (and counted) instead of reaching a stale listener.
            self.stats.messages_dropped += 1
            self.network.stats.messages_dropped += 1
            return
        listener = self._listeners.get(message.destination.port)
        if listener is None:
            self.stats.messages_dropped += 1
            raise SimConnectionRefusedError(
                f"no listener bound to {message.destination} "
                f"(message from {message.source})"
            )
        stats = self.stats
        stats.messages_received += 1
        stats.bytes_received += len(message.payload)
        listener(message, self)

    def __repr__(self) -> str:
        return f"Host({self.name!r}, ports={list(self.bound_ports)})"


class Network:
    """The simulated network connecting all hosts.

    Parameters
    ----------
    scheduler:
        The event scheduler driving message delivery.
    latency:
        Default latency model applied to every link; individual links can be
        overridden with :meth:`set_link_latency`.
    record_deliveries:
        Keep every delivered :class:`Message` in :attr:`delivered_messages`.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        latency: LatencyModel | None = None,
        record_deliveries: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.default_latency = latency if latency is not None else loopback_profile()
        self._hosts: dict[str, Host] = {}
        self._link_latency: dict[tuple[str, str], LatencyModel] = {}
        self._partitions: set[frozenset[str]] = set()
        #: Per-direction link fault profiles (``(source, destination)`` →
        #: an object with ``sample(size_bytes) -> (drop, extra_delay)``,
        #: e.g. :class:`repro.faults.LinkFaultProfile`).
        self._link_faults: dict[tuple[str, str], "LinkFault"] = {}
        #: Weak refs to client channels attached to this network's hosts,
        #: registered by the transport layer so the fault layer can abort
        #: their in-flight expectations when a server crashes (fail fast,
        #: not hang).  Weak so worlds reused across many runs do not
        #: accumulate dead channels; insertion order is preserved (a
        #: WeakSet would make crash-abort iteration nondeterministic).
        self._client_channels: list[weakref.ref] = []
        self._next_message_id = 0
        self.stats = TrafficStats()
        #: Full delivery log, populated only when ``record_deliveries`` is
        #: set (it grows without bound, so large sweeps leave it off).
        self.record_deliveries = record_deliveries
        self.delivered_messages: list[Message] = []
        #: Most recent delivery batch: ``(arrival_time, event, messages)``.
        self._batch: tuple[float, Event, list[Message]] | None = None

    # -- topology ---------------------------------------------------------

    def add_host(self, name: str) -> Host:
        """Create and register a host named ``name``."""
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(name, self)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """Return the host named ``name``."""
        try:
            return self._hosts[name]
        except KeyError:
            raise HostNotFoundError(f"unknown host {name!r}") from None

    @property
    def hosts(self) -> tuple[Host, ...]:
        """All registered hosts in registration order."""
        return tuple(self._hosts.values())

    def set_link_latency(self, host_a: str, host_b: str, latency: LatencyModel) -> None:
        """Override the latency model for traffic between two hosts
        (both directions)."""
        self._link_latency[(host_a, host_b)] = latency
        self._link_latency[(host_b, host_a)] = latency

    def link_latency(self, source: str, destination: str) -> LatencyModel:
        """Return the latency model governing ``source`` → ``destination``."""
        return self._link_latency.get((source, destination), self.default_latency)

    # -- failure injection --------------------------------------------------

    def partition(self, host_a: str, host_b: str) -> None:
        """Drop all traffic between the two hosts until :meth:`heal` is called."""
        self._partitions.add(frozenset((host_a, host_b)))

    def heal(self, host_a: str, host_b: str) -> None:
        """Remove a previously installed partition."""
        self._partitions.discard(frozenset((host_a, host_b)))

    def heal_all(self) -> None:
        """Remove every partition."""
        self._partitions.clear()

    def is_partitioned(self, host_a: str, host_b: str) -> bool:
        """True if traffic between the two hosts is currently dropped."""
        return frozenset((host_a, host_b)) in self._partitions

    @property
    def partitions(self) -> tuple[frozenset[str], ...]:
        """Every installed partition pair (iteration-safe snapshot)."""
        return tuple(self._partitions)

    # -- client-channel registry (transport layer) ---------------------------

    def register_client_channel(self, channel) -> None:
        """Register a transport client channel for crash-abort delivery."""
        self._client_channels.append(weakref.ref(channel))

    @property
    def client_channels(self) -> tuple:
        """The live registered client channels, in registration order.

        Dead references are compacted away as a side effect, so a world
        reused for many runs never scans more than its live channels.
        """
        live = []
        live_refs = []
        for ref in self._client_channels:
            channel = ref()
            if channel is not None:
                live.append(channel)
                live_refs.append(ref)
        self._client_channels = live_refs
        return tuple(live)

    def set_link_fault(self, source: str, destination: str, fault: "LinkFault") -> None:
        """Install a fault profile on the ``source`` → ``destination`` link.

        One direction only — install a second profile for the reverse
        direction (each direction keeps its own RNG stream and arrival
        clamp, see :meth:`repro.faults.FaultInjector.drop_link`).
        """
        self._link_faults[(source, destination)] = fault

    def clear_link_fault(self, source: str, destination: str) -> None:
        """Remove the fault profile from one link direction (no-op if none)."""
        self._link_faults.pop((source, destination), None)

    # -- transmission -------------------------------------------------------

    def _deliver_batch(self, messages: list[Message]) -> None:
        now = self.scheduler.now
        stats = self.stats
        record = self.record_deliveries
        hosts = self._hosts
        for index, message in enumerate(messages):
            target = hosts[message.destination.host]
            if target.down:
                # The destination crashed while this message was in flight:
                # drop at delivery time (see the fault-model invariants).
                stats.messages_dropped += 1
                target.stats.messages_dropped += 1
                if _obs_hooks.ACTIVE is not None:
                    _obs_hooks.ACTIVE.instant(
                        "net.drop",
                        reason="delivery-host-down",
                        source=message.source.host,
                        to=message.destination.host,
                    )
                continue
            message.delivered_at = now
            stats.messages_received += 1
            stats.bytes_received += len(message.payload)
            if record:
                self.delivered_messages.append(message)
            try:
                target.deliver(message)
            except BaseException:
                # A failed delivery (unbound port) aborts the run loop just
                # as it did when every message was its own event; the rest
                # of the batch must survive as pending deliveries.
                rest = messages[index + 1 :]
                if rest:
                    self.scheduler.schedule(0.0, self._deliver_batch, rest, label="deliver")
                raise

    def __repr__(self) -> str:
        return f"Network(hosts={list(self._hosts)}, sent={self.stats.messages_sent})"
