"""Service registry and round-robin replica selection.

A scenario's services are N-replica entities: one logical name backed by
managed server classes spread across the world's server nodes.  The
registry resolves a service name to a :class:`ServiceEntry` with one dict
lookup, and each entry picks a replica per call **round-robin**: a cyclic
counter, so consecutive calls (in deterministic event order) rotate
through the replicas.

Selection is **failover-aware**: a replica whose server node is crashed
(``node.is_alive`` false, see :mod:`repro.faults`) is rotated past, and the
cursor still advances over it, so a restarted replica resumes its original
slot in the cycle.  When every replica of a service is dead, selection
raises :class:`NoAliveReplicaError`, which clients with a retry policy
treat as retryable.  Selection depends only on the (deterministic) order
in which calls are issued and the (deterministic) fault timeline.

Since the interface-evolution subsystem (:mod:`repro.evolve`) every entry
can route **version-aware** (each replica's history is its publisher's
``publication_history``): once a rollout arms
``version_routing`` and the caller supplies its
:class:`~repro.evolve.graph.ClientBinding`, selection rotates over a
narrowed candidate list in two tiers —

1. replicas that are alive, *fresh* (publish at least the client's §6
   recency watermark) and *compatible* with the stubs the client bound;
2. replicas that are alive and fresh (the client will observe an explicit
   §5.7 stale fault there and rebind — never a silently wrong answer);

and when not even a fresh replica is alive, raises
:class:`NoAliveReplicaError` (retryable, exactly like the all-dead case):
serving from an alive-but-older replica would silently violate §6.

Freshness is what preserves the §6 recency guarantee *across* a rollout's
deliberately-divergent replica versions: once a client has observed v+1 it
is never routed back to a replica still publishing v.

Bulk selection for cohort flows
-------------------------------

The cohort-flow layer (:mod:`repro.cluster.cohort`) routes a whole tick's
worth of modeled calls at once.  :meth:`ServiceEntry.select_many` shares
:meth:`ServiceEntry.select`'s tier decision (``_candidates``: version tiers
and the §6 refusal) and its failover skipping, but returns
``[(replica, call_count), ...]`` computed in closed form, so a million
modeled calls cost O(replicas), not O(calls).  Over a fixed candidate
list its result equals what ``count`` repeated single selections would
have produced (exact cursor arithmetic), which is what the
cohort-vs-discrete Hypothesis property pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NoReturn

from repro.errors import ClusterError, NoAliveReplicaError, ServiceNotFoundError
from repro.obs import hooks as _obs_hooks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sde.manager import ManagedServer
    from repro.cluster.topology import ServerNode
    from repro.corba.server import StaticCorbaServer
    from repro.soap.server import StaticSoapServer
    from repro.evolve.graph import ClientBinding
    from repro.evolve.rollout import RolloutController, RolloutReport


@dataclass
class Replica:
    """One deployed copy of a service: a managed server on some node.

    A client stack reads only its ``service``, ``index`` and ``publisher``
    (the URLs of the published documents), so a static server, which
    publishes its own, can be the ``managed`` server of an off-registry
    replica that a CDE binds.
    """

    service: str
    index: int
    node: "ServerNode | None"
    managed: "ManagedServer | StaticSoapServer | StaticCorbaServer"
    #: Calls currently awaiting a reply from this replica.
    in_flight: int = 0
    #: Calls ever routed to this replica.
    calls_routed: int = 0

    @property
    def alive(self) -> bool:
        """True while the hosting node is up (always true off-cluster)."""
        node = self.node
        return node is None or getattr(node, "is_alive", True)

    @property
    def class_name(self) -> str:
        """The dynamic-class name backing this replica."""
        return self.managed.name

    @property
    def publisher(self):
        """The replica's interface publisher."""
        return self.managed.publisher

    @property
    def call_handler(self):
        """The replica's RMI call handler."""
        return self.managed.call_handler

    def __repr__(self) -> str:
        where = "off-cluster" if self.node is None else f"on {self.node.name}"
        return f"Replica({self.service}#{self.index} {where}, in_flight={self.in_flight})"


@dataclass
class ServiceEntry:
    """One logical service: a name, a technology, its replicas."""

    name: str
    technology: str
    replicas: list[Replica] = field(default_factory=list)
    #: When True, :meth:`select` honours the caller's ClientBinding (armed
    #: by a rollout when it starts).
    version_routing: bool = field(default=False, compare=False)
    #: Retired operation -> replacement, for clients rebinding across a
    #: breaking upgrade (installed by the upgrade's ``successors``).
    operation_successors: dict[str, str] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The rollout currently driving this service's replicas, if any.
    active_rollout: "RolloutController | None" = field(
        default=None, repr=False, compare=False
    )
    #: Every rollout ever run against this service, in start order.
    rollout_history: "list[RolloutReport]" = field(
        default_factory=list, repr=False, compare=False
    )
    #: The round-robin cursor: the next candidate position to try.
    _next: int = field(default=0, init=False, repr=False, compare=False)

    def add_replica(self, node: "ServerNode", managed: "ManagedServer") -> Replica:
        """Attach one more deployed copy of this service, next in index order."""
        replica = Replica(
            service=self.name, index=len(self.replicas), node=node, managed=managed
        )
        self.replicas.append(replica)
        return replica

    def select(self, binding: "ClientBinding | None" = None) -> Replica:
        """Pick the replica for the next call: the next alive candidate.

        With version routing armed and a ``binding`` supplied, the rotation
        runs over the compatible-and-fresh replicas first, then the merely
        fresh ones (stale-fault + rebind territory) — see the module
        docstring for the invariants each tier preserves.  When *no* alive
        replica is fresh, serving the call at all would hand the client an
        interface older than one it already observed, so selection raises
        :class:`NoAliveReplicaError` (retryable, like the all-dead case)
        rather than silently violating §6.
        """
        candidates, tier = self._candidates(binding)
        count = len(candidates)
        for _ in range(count):
            replica = candidates[self._next % count]
            self._next += 1
            if replica.alive:
                break
        else:
            self._refuse("is down")
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.note_select(tier)
        return replica

    def select_many(
        self,
        count: int,
        binding: "ClientBinding | None" = None,
        reachable: "Callable[[Replica], bool] | None" = None,
    ) -> list[tuple[Replica, int]]:
        """Bulk variant of :meth:`select` for cohort flows.

        Distributes ``count`` calls in one decision and returns
        ``[(replica, calls), ...]``.  ``reachable`` lets the caller exclude
        replicas it cannot currently reach (a partitioned cohort host skips
        them exactly as a discrete client's timeout-and-retry would settle
        on reachable ones, minus the wasted attempts).  Version tiers,
        freshness and the §6 refusal behave exactly as in :meth:`select`.

        The usable candidates, taken cyclically from the cursor, each
        receive ``count // usable`` calls plus one extra for the first
        ``count % usable`` of them; the cursor ends just past the last
        position selected, modulo the candidate count (:meth:`select` keeps
        the raw counter; the two agree modulo the length of a fixed list).
        """
        if count <= 0:
            return []
        candidates, tier = self._candidates(binding, reachable)
        positions = [
            position
            for position, replica in enumerate(candidates)
            if replica.alive and (reachable is None or reachable(replica))
        ]
        if not positions:
            self._refuse("is down")
        total = len(candidates)
        start = self._next % total
        ordered = [p for p in positions if p >= start] + [p for p in positions if p < start]
        base, extra = divmod(count, len(ordered))
        picks = []
        for rank, position in enumerate(ordered):
            share = base + (1 if rank < extra else 0)
            if share:
                picks.append((candidates[position], share))
        last = ordered[extra - 1] if extra else ordered[-1]
        self._next = (last + 1) % total
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.note_select(tier)
        return picks

    def _candidates(
        self,
        binding: "ClientBinding | None",
        reachable: "Callable[[Replica], bool] | None" = None,
    ) -> tuple[list[Replica], "str | None"]:
        """The replicas selection rotates over, and their version tier.

        Without version routing (or a binding) that is every replica and no
        tier.  Otherwise it is the alive (and ``reachable``) replicas that
        are fresh for ``binding`` — narrowed to the compatible ones when
        any are — or :class:`NoAliveReplicaError` when none is fresh.
        """
        if not self.replicas:
            raise ClusterError(f"service {self.name!r} has no replicas")
        if not self.version_routing or binding is None:
            return self.replicas, None
        fresh = [
            replica
            for replica in self.replicas
            if replica.alive
            and (reachable is None or reachable(replica))
            and binding.fresh(replica)
        ]
        compatible = [replica for replica in fresh if binding.compatible_with(replica)]
        if compatible:
            return compatible, "compatible"
        if fresh:
            return fresh, "fresh"
        self._refuse(
            f"is down or publishes an interface older than the client "
            f"already observed (watermark v{binding.seen_version})"
        )

    def _refuse(self, reason: str) -> NoReturn:
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.note_no_alive(self.name)
        raise NoAliveReplicaError(f"every replica of {self.name!r} {reason}")

    def __repr__(self) -> str:
        return (
            f"ServiceEntry({self.name!r}, {self.technology}, "
            f"replicas={len(self.replicas)})"
        )


class ServiceRegistry:
    """Name → service resolution: one dict, in registration order."""

    def __init__(self) -> None:
        self._services: dict[str, ServiceEntry] = {}

    def register(self, entry: ServiceEntry) -> ServiceEntry:
        """Register a service under its exact name."""
        if entry.name in self._services:
            raise ClusterError(f"service {entry.name!r} is already registered")
        self._services[entry.name] = entry
        return entry

    def lookup(self, name: str) -> ServiceEntry:
        """Resolve a service name by exact match."""
        entry = self._services.get(name)
        if entry is None:
            raise ServiceNotFoundError(
                f"no service {name!r}; registered: {list(self._services)}"
            )
        return entry

    def select(self, name: str, binding: "ClientBinding | None" = None) -> Replica:
        """Pick (and account) the replica for the named service's next call."""
        replica = self.lookup(name).select(binding)
        replica.calls_routed += 1
        return replica

    def select_many(
        self,
        name: str,
        count: int,
        binding: "ClientBinding | None" = None,
        reachable: "Callable[[Replica], bool] | None" = None,
    ) -> list[tuple[Replica, int]]:
        """Bulk-pick (and account) replicas for ``count`` calls of one flow."""
        picks = self.lookup(name).select_many(count, binding, reachable)
        for replica, share in picks:
            replica.calls_routed += share
        return picks

    @staticmethod
    def begin_call(replica: Replica) -> None:
        """Note a call in flight to ``replica`` (the obs sampler's gauge)."""
        replica.in_flight += 1

    @staticmethod
    def end_call(replica: Replica) -> None:
        """Note a call to ``replica`` completed."""
        replica.in_flight -= 1

    @property
    def services(self) -> tuple[ServiceEntry, ...]:
        """Every registered service, in registration order."""
        return tuple(self._services.values())

    def __repr__(self) -> str:
        return f"ServiceRegistry({list(self._services)})"
