"""The fault injector: crashes, restarts, partitions and lossy links.

:class:`FaultInjector` is the imperative heart of :mod:`repro.faults`.  It
operates on a :class:`~repro.cluster.topology.ClusterWorld` and threads the
fault through every layer that must observe it:

* **simnet** — the crashed machine's :class:`~repro.net.simnet.Host` is
  marked down (traffic to it drops at transmit *and* delivery time), link
  profiles install seeded loss/jitter, partitions reuse the network's
  native partition table;
* **transport** — every registered client channel with in-flight
  expectations to the crashed host is aborted, so pending
  :class:`~repro.net.transport.Deferred`\\ s fail fast with
  :class:`~repro.errors.ConnectionAbortedError` instead of hanging;
* **topology / SDE** — the node's call-handler endpoints and interface
  server are stopped (ports unbound) and its publishers' timers cancelled;
  ``restart`` re-binds all of them and marks the node alive again, which
  re-registers its endpoints with the routing layer (the
  :class:`~repro.cluster.registry.ServiceRegistry` policies consult
  ``node.is_alive`` on every selection).

Everything is deterministic: a crash is an ordinary scheduled action, the
only randomness lives in the seeded link profiles, and all bookkeeping
(:class:`Outage` records, downtime, recovery latency) is derived from
virtual time.

Determinism invariant: an already-running interface generation on a crashed
node still completes (its event is in flight on the shared scheduler) and
its publication lands in the interface server's in-memory store — the
restart therefore exposes an interface *at least as recent* as the one live
when the crash hit, which is exactly the §5.7/§6 recency guarantee the
resilience scenarios assert on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConnectionAbortedError, HostNotFoundError
from repro.faults.profile import LinkFaultProfile
from repro.obs import hooks as _obs_hooks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import ClusterWorld, ServerNode

#: Node reference accepted by the injector: a node, its name, or its index.
NodeRef = "ServerNode | str | int"


@dataclass
class Outage:
    """One crash→restart→recovery episode of a server node."""

    node: str
    crashed_at: float
    restored_at: float | None = None
    #: Virtual time of the first successful reply served after the restore
    #: (recorded by the fleet driver); ``None`` until one lands.
    recovered_at: float | None = None

    @property
    def recovery_latency(self) -> float | None:
        """Seconds from restore to the first successful reply, if both known."""
        if self.restored_at is None or self.recovered_at is None:
            return None
        return self.recovered_at - self.restored_at

    def downtime_within(self, start: float, end: float) -> float:
        """Seconds of this outage overlapping the ``[start, end]`` window."""
        until = self.restored_at if self.restored_at is not None else end
        return max(0.0, min(until, end) - max(self.crashed_at, start))


class FaultInjector:
    """Deterministic fault injection for one cluster world."""

    def __init__(self, world: "ClusterWorld") -> None:
        self.world = world
        self.network = world.network
        self.scheduler = world.scheduler
        self._outages: dict[str, list[Outage]] = {}
        #: ``(a, b)`` host-name pairs with an installed link profile.
        self._faulted_links: set[tuple[str, str]] = set()

    # -- crashes ------------------------------------------------------------

    def crash(self, node: NodeRef) -> "ServerNode":
        """Crash a server node: tear down its endpoints, fail in-flight calls.

        Idempotent on an already-crashed node.  The node's host drops all
        traffic from this instant on; its call-handler endpoints, interface
        server and publisher timers are stopped; and every client channel's
        pending expectation to it is failed fast with
        :class:`ConnectionAbortedError` so callers can fail over now.
        """
        node = self.resolve(node)
        if not node.is_alive:
            return node
        node.is_alive = False
        node.host.down = True
        for managed in node.sde.managed_servers:
            managed.publisher.stop()
            managed.call_handler.stop()
        node.sde.interface_server.stop()
        self._outages.setdefault(node.name, []).append(
            Outage(node.name, crashed_at=self.scheduler.now)
        )
        error = ConnectionAbortedError(f"server {node.name!r} crashed")
        for channel in self.network.client_channels:
            channel.abort_pending(node.name, error)
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.instant("fault.crash", node=node.name)
        return node

    def restart(self, node: NodeRef) -> "ServerNode":
        """Restart a crashed node: re-register its endpoints, mark it alive.

        Idempotent on an alive node.  All call-handler endpoints and the
        interface server re-bind their original ports, publishers resume
        monitoring, and replica selection immediately sees the node as a
        failover target again.  In-memory state (dynamic classes, published
        interface documents) survives, modelling a process restart that
        re-deploys from the SDE's durable publication store.
        """
        node = self.resolve(node)
        if node.is_alive:
            return node
        node.host.down = False
        node.sde.interface_server.start()
        for managed in node.sde.managed_servers:
            managed.call_handler.start()
            managed.publisher.start()
        node.is_alive = True
        outages = self._outages.get(node.name)
        if outages and outages[-1].restored_at is None:
            outages[-1].restored_at = self.scheduler.now
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.instant("fault.restart", node=node.name)
        return node

    # -- partitions ---------------------------------------------------------

    def partition(self, a: NodeRef, b: NodeRef | None = None) -> None:
        """Partition two hosts — or isolate ``a`` from every current host.

        With ``b`` given, traffic between the two named hosts drops (both
        directions) until healed; without it, ``a`` is cut off from every
        other host currently attached to the network.
        """
        name_a = self.host_name(a)
        if b is not None:
            self.network.partition(name_a, self.host_name(b))
            if _obs_hooks.ACTIVE is not None:
                _obs_hooks.ACTIVE.instant(
                    "fault.partition", a=name_a, b=self.host_name(b)
                )
            return
        for host in self.network.hosts:
            if host.name != name_a:
                self.network.partition(name_a, host.name)
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.instant("fault.partition", a=name_a, b="*")

    def heal(self, a: NodeRef | None = None, b: NodeRef | None = None) -> None:
        """Heal a partition pair, every partition of ``a``, or all of them."""
        if a is None:
            self.network.heal_all()
            if _obs_hooks.ACTIVE is not None:
                _obs_hooks.ACTIVE.instant("fault.heal", a="*", b="*")
            return
        name_a = self.host_name(a)
        if b is not None:
            self.network.heal(name_a, self.host_name(b))
            if _obs_hooks.ACTIVE is not None:
                _obs_hooks.ACTIVE.instant("fault.heal", a=name_a, b=self.host_name(b))
            return
        for pair in self.network.partitions:
            if name_a in pair:
                self.network.heal(*pair)
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.instant("fault.heal", a=name_a, b="*")

    # -- lossy links ----------------------------------------------------------

    def drop_link(
        self,
        a: NodeRef,
        b: NodeRef,
        loss: float = 1.0,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> tuple[LinkFaultProfile, LinkFaultProfile]:
        """Degrade the ``a`` ↔ ``b`` link: seeded loss and/or jitter.

        Each direction gets its own :class:`LinkFaultProfile` with an
        independent RNG stream seeded by the string ``"{seed}:{a}->{b}"``,
        so the two directions never perturb each other's draws.  String
        seeds are hashed with SHA-512, not with the per-process salted
        ``hash``, so a run's losses and delays are the same in every
        interpreter.  The default ``loss=1.0`` is a
        hard blackhole — `drop_link` with no keywords behaves like a
        partition that is evaluated per message and shows up in the drop
        statistics.  Returns the ``(a→b, b→a)`` profiles.
        """
        name_a, name_b = self.host_name(a), self.host_name(b)
        forward = LinkFaultProfile(
            loss, jitter, random.Random(f"{seed}:{name_a}->{name_b}")
        )
        backward = LinkFaultProfile(
            loss, jitter, random.Random(f"{seed}:{name_b}->{name_a}")
        )
        self.network.set_link_fault(name_a, name_b, forward)
        self.network.set_link_fault(name_b, name_a, backward)
        self._faulted_links.add((name_a, name_b))
        return forward, backward

    def restore_link(self, a: NodeRef, b: NodeRef) -> None:
        """Remove the fault profiles from both directions of a link."""
        name_a, name_b = self.host_name(a), self.host_name(b)
        self.network.clear_link_fault(name_a, name_b)
        self.network.clear_link_fault(name_b, name_a)
        self._faulted_links.discard((name_a, name_b))
        self._faulted_links.discard((name_b, name_a))

    # -- availability bookkeeping -------------------------------------------

    @property
    def has_outages(self) -> bool:
        """True once any node has ever been crashed."""
        return bool(self._outages)

    def outages_for(self, node_name: str) -> tuple[Outage, ...]:
        """Every outage episode of ``node_name``, in crash order."""
        return tuple(self._outages.get(node_name, ()))

    def downtime(self, node_name: str, start: float, end: float) -> float:
        """Seconds ``node_name`` was down within the ``[start, end]`` window."""
        return sum(
            outage.downtime_within(start, end)
            for outage in self._outages.get(node_name, ())
        )

    def note_recovery(self, node_name: str, at: float) -> None:
        """Record a successful reply from ``node_name`` (fleet driver hook).

        The first success after an outage's restore stamps its
        ``recovered_at``, from which recovery latency is derived.
        """
        outages = self._outages.get(node_name)
        if not outages:
            return
        last = outages[-1]
        if (
            last.restored_at is not None
            and last.recovered_at is None
            and at >= last.restored_at
        ):
            last.recovered_at = at

    def recovery_latency(
        self,
        node_name: str,
        start: float = float("-inf"),
        end: float = float("inf"),
    ) -> float | None:
        """Latest completed restore→first-success latency for the node.

        Only outages whose restore landed inside the ``[start, end]``
        window count, so repeated runs against one world report their own
        recoveries and not an earlier window's.
        """
        for outage in reversed(self._outages.get(node_name, ())):
            if outage.restored_at is None or not start <= outage.restored_at <= end:
                continue
            latency = outage.recovery_latency
            if latency is not None:
                return latency
        return None

    # -- resolution ---------------------------------------------------------

    def resolve(self, node: NodeRef) -> "ServerNode":
        if isinstance(node, int):
            servers = self.world.server_nodes
            if not 0 <= node < len(servers):
                raise HostNotFoundError(
                    f"no server {node}: the world has {len(servers)} servers"
                )
            return servers[node]
        if isinstance(node, str):
            return self.world.node(node)
        return node

    def host_name(self, ref: NodeRef) -> str:
        """A host name from a node ref — or any plain host name (clients)."""
        if isinstance(ref, int):
            return self.resolve(ref).name
        if isinstance(ref, str):
            self.network.host(ref)  # raises HostNotFoundError for typos
            return ref
        return ref.name

    def __repr__(self) -> str:
        crashed = [
            name
            for name, outages in self._outages.items()
            if outages and outages[-1].restored_at is None
        ]
        return f"FaultInjector(crashed={crashed}, faulted_links={sorted(self._faulted_links)})"
