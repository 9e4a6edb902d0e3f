"""Service registry and replica-selection policies.

A scenario's services are N-replica entities: one logical name backed by
managed server classes spread across the world's server nodes.  The
registry resolves a service name to a :class:`ServiceEntry` with one dict
lookup, and each entry picks a replica per call through a pluggable
policy:

* **round-robin** — a global cyclic counter, so consecutive calls (in
  deterministic event order) rotate through the replicas;
* **sticky** — the first call of each client pins it to a replica
  (spread round-robin); every later call of that client lands on the same
  replica, surviving mid-run publications and edits;
* **least-loaded** — the replica with the fewest in-flight calls at
  selection time, ties broken by replica index.

All three policies are **failover-aware**: a replica whose server node is
crashed (``node.is_alive`` false, see :mod:`repro.faults`) is skipped —
round-robin rotates past it, least-loaded excludes it, and a sticky session
pinned to it deterministically re-pins to the next alive replica in cyclic
index order (and stays there).  Replicas can also be removed outright
(:meth:`ServiceEntry.remove_replica`, e.g. replica churn); sticky pins
reference replicas by their immutable index, so removal re-pins exactly
like a crash instead of silently shifting every pin.  When every replica of
a service is dead, selection raises :class:`NoAliveReplicaError`, which
clients with a retry policy treat as retryable.

All three are deterministic: selection depends only on the (deterministic)
order in which calls are issued and the (deterministic) fault timeline.

Since the interface-evolution subsystem (:mod:`repro.evolve`) every entry
also carries a per-service **version graph** (each replica's publication
history) and can route **version-aware**: when ``version_routing`` is armed
(a rollout does this automatically) and the caller supplies its
:class:`~repro.evolve.graph.ClientBinding`, selection narrows the policy's
candidate list in two tiers —

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
and the §6 refusal) and its policy's failover skipping, but returns
``[(replica, call_count), ...]`` computed in closed form, so a million
modeled calls cost O(replicas), not O(calls).  Each built-in
policy's bulk result equals what ``count`` repeated single selections
would have produced (round-robin: exact cursor arithmetic; sticky:
aggregate mass pinning; least-loaded: deterministic water-fill), which is
what the cohort-vs-discrete Hypothesis property pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable

from repro.errors import ClusterError, NoAliveReplicaError, ServiceNotFoundError
from repro.evolve.graph import VersionGraph
from repro.obs import hooks as _obs_hooks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sde.manager import ManagedServer
    from repro.cluster.topology import ServerNode
    from repro.corba.server import StaticCorbaServer
    from repro.soap.server import StaticSoapServer
    from repro.evolve.graph import ClientBinding
    from repro.evolve.rollout import RolloutController, RolloutReport

POLICY_ROUND_ROBIN = "round-robin"
POLICY_STICKY = "sticky"
POLICY_LEAST_LOADED = "least-loaded"


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
    node: "ServerNode"
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
        return (
            f"Replica({self.service}#{self.index} on {self.node.name}, "
            f"in_flight={self.in_flight})"
        )


class ReplicaPolicy:
    """Base class for replica-selection policies.

    Policies receive the full replica list (dead ones included) and must
    skip replicas whose node is down, raising :class:`NoAliveReplicaError`
    when none survive — :func:`_require_alive` implements the common case.
    """

    name = "abstract"

    def select(self, replicas: list[Replica], client_key: Hashable) -> Replica:
        """Pick the replica that should serve ``client_key``'s next call."""
        raise NotImplementedError

    def select_many(
        self,
        replicas: list[Replica],
        client_key: Hashable,
        count: int,
        usable: "Callable[[Replica], bool] | None" = None,
    ) -> list[tuple[Replica, int]]:
        """Distribute ``count`` calls from one flow; ``[(replica, n), ...]``.

        Built-in policies override this with closed-form O(replicas)
        implementations equivalent to ``count`` repeated :meth:`select`
        calls.  This default keeps third-party policies working by looping
        ``select`` over the usable subset — O(count), correct but slow for
        large flows (positional policies that override :meth:`select` only
        see the filtered list here, matching the tiered-candidate narrowing
        :class:`ServiceEntry` already performs).
        """
        if count <= 0:
            return []
        pool = replicas if usable is None else [r for r in replicas if usable(r)]
        if not pool:
            service = replicas[0].service if replicas else "?"
            raise NoAliveReplicaError(f"every replica of {service!r} is down")
        shares: dict[int, int] = {}
        order: list[Replica] = []
        for _ in range(count):
            replica = self.select(pool, client_key)
            key = id(replica)
            if key in shares:
                shares[key] += 1
            else:
                shares[key] = 1
                order.append(replica)
        return [(replica, shares[id(replica)]) for replica in order]


def _usable_positions(
    replicas: list[Replica], usable: "Callable[[Replica], bool] | None"
) -> list[int]:
    """Positions of the selectable replicas (alive, or the caller's test)."""
    if usable is None:
        return [i for i, replica in enumerate(replicas) if replica.alive]
    return [i for i, replica in enumerate(replicas) if usable(replica)]


def _raise_none_usable(replicas: list[Replica]) -> None:
    service = replicas[0].service if replicas else "?"
    raise NoAliveReplicaError(f"every replica of {service!r} is down")


def _require_alive(replicas: list[Replica]) -> list[Replica]:
    """The alive subset of ``replicas``; raises when it is empty."""
    alive = [replica for replica in replicas if replica.alive]
    if not alive:
        service = replicas[0].service if replicas else "?"
        raise NoAliveReplicaError(f"every replica of {service!r} is down")
    return alive


class RoundRobinPolicy(ReplicaPolicy):
    """Cycle through the replicas in index order, one call at a time.

    Dead replicas are rotated past (the cursor still advances over them, so
    a restarted replica resumes its original slot in the cycle).
    """

    name = POLICY_ROUND_ROBIN

    def __init__(self) -> None:
        self._next = 0

    def select(self, replicas: list[Replica], client_key: Hashable) -> Replica:
        count = len(replicas)
        for _ in range(count):
            replica = replicas[self._next % count]
            self._next += 1
            if replica.alive:
                return replica
        service = replicas[0].service if replicas else "?"
        raise NoAliveReplicaError(f"every replica of {service!r} is down")

    def select_many(
        self,
        replicas: list[Replica],
        client_key: Hashable,
        count: int,
        usable: "Callable[[Replica], bool] | None" = None,
    ) -> list[tuple[Replica, int]]:
        """Closed-form rotation: exactly ``count`` repeated :meth:`select`\\ s.

        The usable positions, taken cyclically from the cursor, each receive
        ``count // usable`` calls plus one extra for the first
        ``count % usable`` of them; the cursor ends just past the last
        position selected (mod the replica count — the observable part of
        the raw counter).
        """
        if count <= 0:
            return []
        total = len(replicas)
        positions = _usable_positions(replicas, usable)
        if not positions:
            _raise_none_usable(replicas)
        start = self._next % total
        ordered = [p for p in positions if p >= start] + [p for p in positions if p < start]
        base, extra = divmod(count, len(ordered))
        picks = []
        for rank, position in enumerate(ordered):
            share = base + (1 if rank < extra else 0)
            if share:
                picks.append((replicas[position], share))
        last = ordered[extra - 1] if extra else ordered[-1]
        self._next = (last + 1) % total
        return picks


class StickyPolicy(ReplicaPolicy):
    """Pin each client to one replica; first contact assigns round-robin.

    Pins reference a replica's immutable ``index``, not its list position,
    so removing a replica never silently shifts another client's pin.  When
    the pinned replica is dead or removed, the session deterministically
    re-pins to the next alive replica in cyclic index order — and stays
    there (no flap-back when the old replica restarts).
    """

    name = POLICY_STICKY

    def __init__(self) -> None:
        self._pins: dict[Hashable, int] = {}
        self._next = 0
        #: Aggregate pins for cohort flows: flow key -> {replica index: the
        #: share of the flow's modeled clients pinned there}.
        self._mass: dict[Hashable, dict[int, int]] = {}

    def select(self, replicas: list[Replica], client_key: Hashable) -> Replica:
        pin = self._pins.get(client_key)
        if pin is not None:
            for replica in replicas:
                if replica.index == pin:
                    if replica.alive:
                        return replica
                    break
            replica = self._repin(replicas, pin)
            self._pins[client_key] = replica.index
            return replica
        # First contact: spread pins round-robin over the *positions*,
        # skipping dead replicas the same way round-robin routing does.
        count = len(replicas)
        if count == 0:
            raise ClusterError("cannot pin a session: service has no replicas")
        for _ in range(count):
            replica = replicas[self._next % count]
            self._next += 1
            if replica.alive:
                self._pins[client_key] = replica.index
                return replica
        raise NoAliveReplicaError(f"every replica of {replicas[0].service!r} is down")

    @staticmethod
    def _repin(replicas: list[Replica], pin: int) -> Replica:
        """The next alive replica in cyclic index order after ``pin``."""
        alive = _require_alive(replicas)
        return min(alive, key=lambda r: (0 if r.index > pin else 1, r.index))

    def select_many(
        self,
        replicas: list[Replica],
        client_key: Hashable,
        count: int,
        usable: "Callable[[Replica], bool] | None" = None,
    ) -> list[tuple[Replica, int]]:
        """Aggregate sticky: pin the flow's *mass*, not individual clients.

        First contact spreads the flow's modeled clients round-robin across
        the usable replicas (exactly how ``count`` individual first contacts
        would pin) and remembers the split by immutable replica index.
        Later calls distribute proportionally to the remembered split —
        largest-remainder rounding, ties to the lowest index — and the share
        pinned to a replica that is now dead, removed or unreachable re-pins
        to the next usable replica in cyclic index order, persistently, just
        like an individual sticky session.
        """
        if count <= 0:
            return []
        positions = _usable_positions(replicas, usable)
        if not positions:
            _raise_none_usable(replicas)
        by_index = {replicas[p].index: replicas[p] for p in positions}
        weights = self._mass.get(client_key)
        if weights is None:
            # First contact: round-robin spread over usable positions from
            # the shared first-contact cursor.
            total = len(replicas)
            start = self._next % total
            ordered = [p for p in positions if p >= start] + [
                p for p in positions if p < start
            ]
            base, extra = divmod(count, len(ordered))
            weights = {}
            for rank, position in enumerate(ordered):
                share = base + (1 if rank < extra else 0)
                if share:
                    weights[replicas[position].index] = share
            last = ordered[extra - 1] if extra else ordered[-1]
            self._next = (last + 1) % total
            self._mass[client_key] = weights
            return [(by_index[index], share) for index, share in weights.items()]
        # Re-pin the share of departed/unreachable replicas, persistently.
        usable_indexes = sorted(by_index)
        repinned: dict[int, int] = {}
        for index in sorted(weights):
            weight = weights[index]
            if index in by_index:
                target = index
            else:
                target = min(
                    usable_indexes, key=lambda i: (0 if i > index else 1, i)
                )
            repinned[target] = repinned.get(target, 0) + weight
        self._mass[client_key] = repinned
        # Distribute ``count`` proportionally (largest remainder, ties to
        # the lowest replica index).
        total_weight = sum(repinned.values())
        shares: dict[int, int] = {}
        remainders: list[tuple[float, int]] = []
        assigned = 0
        for index in sorted(repinned):
            exact = count * repinned[index] / total_weight
            share = int(count * repinned[index] // total_weight)
            shares[index] = share
            assigned += share
            remainders.append((exact - share, -index))
        remainders.sort(reverse=True)
        for _, neg_index in remainders[: count - assigned]:
            shares[-neg_index] += 1
        return [
            (by_index[index], shares[index])
            for index in sorted(shares)
            if shares[index]
        ]


class LeastLoadedPolicy(ReplicaPolicy):
    """Pick the replica with the fewest in-flight calls (ties: lowest index).

    Crashed replicas are excluded outright — their in-flight counter may be
    frozen at zero, which must not make a dead node look attractive.
    """

    name = POLICY_LEAST_LOADED

    def select(self, replicas: list[Replica], client_key: Hashable) -> Replica:
        alive = _require_alive(replicas)
        return min(alive, key=lambda replica: (replica.in_flight, replica.index))

    def select_many(
        self,
        replicas: list[Replica],
        client_key: Hashable,
        count: int,
        usable: "Callable[[Replica], bool] | None" = None,
    ) -> list[tuple[Replica, int]]:
        """Deterministic water-fill over the in-flight gauges.

        Equivalent to assigning each of the ``count`` calls greedily to the
        currently least-loaded usable replica (ties to the lowest index) if
        each assignment bumped that replica's notional load by one — the
        classic water-fill, computed in closed form.  The real ``in_flight``
        gauges are *not* mutated: flow calls settle within their tick, so
        the modeled load does not linger into the next selection.
        """
        if count <= 0:
            return []
        positions = _usable_positions(replicas, usable)
        if not positions:
            _raise_none_usable(replicas)
        order = sorted(
            (replicas[p] for p in positions),
            key=lambda replica: (replica.in_flight, replica.index),
        )
        loads = [replica.in_flight for replica in order]
        # Smallest pool of lowest-loaded replicas whose common water line
        # stays at or below the next replica's load.
        prefix = 0
        used = len(order)
        for m in range(1, len(order)):
            prefix += loads[m - 1]
            if count + prefix <= m * loads[m]:
                used = m
                break
        level, spill = divmod(count + sum(loads[:used]), used)
        # Pool minimality guarantees every pooled load sits at or below the
        # line, so shares are non-negative and the ``spill`` replicas ending
        # one above it are simply the lowest indexes (the greedy tie-break).
        shares = {
            replica.index: level - loads[rank]
            for rank, replica in enumerate(order[:used])
        }
        for index in sorted(shares)[:spill]:
            shares[index] += 1
        by_index = {replica.index: replica for replica in order[:used]}
        return [
            (by_index[index], shares[index])
            for index in sorted(shares)
            if shares[index]
        ]


_POLICY_FACTORIES = {
    POLICY_ROUND_ROBIN: RoundRobinPolicy,
    POLICY_STICKY: StickyPolicy,
    POLICY_LEAST_LOADED: LeastLoadedPolicy,
}


def make_policy(policy: "str | ReplicaPolicy") -> ReplicaPolicy:
    """Resolve a policy name (or pass through a policy instance)."""
    if isinstance(policy, ReplicaPolicy):
        return policy
    factory = _POLICY_FACTORIES.get(policy)
    if factory is None:
        raise ClusterError(
            f"unknown replica policy {policy!r}; known: {sorted(_POLICY_FACTORIES)}"
        )
    return factory()


@dataclass
class ServiceEntry:
    """One logical service: a name, a technology, a policy, its replicas."""

    name: str
    technology: str
    policy: ReplicaPolicy = field(default_factory=RoundRobinPolicy)
    replicas: list[Replica] = field(default_factory=list)
    #: High-water mark of indexes ever assigned (survives removals).
    next_replica_index: int = field(default=0, repr=False, compare=False)
    #: Per-replica publication history (fed by the publishers' hooks when
    #: the service is deployed through a Scenario).
    version_graph: VersionGraph = field(
        default_factory=VersionGraph, repr=False, compare=False
    )
    #: When True, :meth:`select` honours the caller's ClientBinding (armed
    #: automatically by a rollout, or per-service in the Scenario API).
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

    def add_replica(self, node: "ServerNode", managed: "ManagedServer") -> Replica:
        """Attach one more deployed copy of this service.

        Indexes grow monotonically (never below the high-water mark), so a
        replica added after a removal can never reuse a departed replica's
        index and inherit its sticky pins.
        """
        index = max(
            self.next_replica_index,
            1 + max((replica.index for replica in self.replicas), default=-1),
        )
        self.next_replica_index = index + 1
        replica = Replica(service=self.name, index=index, node=node, managed=managed)
        self.replicas.append(replica)
        return replica

    def remove_replica(self, replica: "Replica | int") -> Replica:
        """Detach one deployed copy (by object or immutable index).

        Sticky sessions pinned to the removed replica are *not* touched
        here: the pin re-resolves on the session's next call and re-pins
        deterministically to the next alive replica in cyclic index order
        (see :class:`StickyPolicy`).
        """
        if isinstance(replica, int):
            matches = [r for r in self.replicas if r.index == replica]
            if not matches:
                raise ClusterError(
                    f"service {self.name!r} has no replica with index {replica}"
                )
            replica = matches[0]
        try:
            self.replicas.remove(replica)
        except ValueError:
            raise ClusterError(
                f"replica {replica!r} is not deployed for service {self.name!r}"
            ) from None
        # The departed index is burnt whatever way the replica list was
        # built, so a later add_replica can never resurrect it.
        self.next_replica_index = max(self.next_replica_index, replica.index + 1)
        return replica

    def select(self, client_key: Hashable, binding: "ClientBinding | None" = None) -> Replica:
        """Pick the replica for ``client_key``'s next call.

        With version routing armed and a ``binding`` supplied, the policy
        chooses among the compatible-and-fresh replicas first, then the
        merely fresh ones (stale-fault + rebind territory) — see the module
        docstring for the invariants each tier preserves.  When *no* alive
        replica is fresh, serving the call at all would hand the client an
        interface older than one it already observed, so selection raises
        :class:`NoAliveReplicaError` (retryable, like the all-dead case)
        rather than silently violating §6.

        Narrowing interacts with sticky sessions deliberately: a pinned
        replica excluded by a wave's incompatibility re-pins exactly like a
        dead one — deterministically, with no flap-back — so a session that
        crosses replicas during an upgrade stays migrated.
        """
        candidates, tier = self._candidates(binding)
        try:
            replica = self.policy.select(candidates, client_key)
        except NoAliveReplicaError:
            self._note_no_alive()
            raise
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.note_select(self.name, tier, self.policy.name)
        return replica

    def select_many(
        self,
        client_key: Hashable,
        count: int,
        binding: "ClientBinding | None" = None,
        reachable: "Callable[[Replica], bool] | None" = None,
    ) -> list[tuple[Replica, int]]:
        """Bulk variant of :meth:`select` for cohort flows.

        Distributes ``count`` calls in one policy decision and returns
        ``[(replica, calls), ...]``.  ``reachable`` lets the caller exclude
        replicas it cannot currently reach (a partitioned cohort host skips
        them exactly as a discrete client's timeout-and-retry would settle
        on reachable ones, minus the wasted attempts).  Version tiers,
        freshness and the §6 refusal behave exactly as in :meth:`select`.
        """
        if count <= 0:
            return []
        candidates, tier = self._candidates(binding, reachable)
        usable = None
        if tier is None and reachable is not None:
            # A tier list is pre-filtered, so the policy's default
            # alive-check suffices there; the full list needs both tests.
            usable = lambda replica: replica.alive and reachable(replica)  # noqa: E731
        try:
            picks = self.policy.select_many(candidates, client_key, count, usable)
        except NoAliveReplicaError:
            self._note_no_alive()
            raise
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.note_select(self.name, tier, self.policy.name)
        return picks

    def _candidates(
        self,
        binding: "ClientBinding | None",
        reachable: "Callable[[Replica], bool] | None" = None,
    ) -> tuple[list[Replica], "str | None"]:
        """The replicas a policy may choose from, and their version tier.

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
        self._note_no_alive()
        raise NoAliveReplicaError(
            f"every replica of {self.name!r} is down or publishes an "
            f"interface older than the client already observed "
            f"(watermark v{binding.seen_version})"
        )

    def _note_no_alive(self) -> None:
        if _obs_hooks.ACTIVE is not None:
            _obs_hooks.ACTIVE.note_no_alive(self.name)

    def __repr__(self) -> str:
        return (
            f"ServiceEntry({self.name!r}, {self.technology}, "
            f"policy={self.policy.name}, replicas={len(self.replicas)})"
        )


class ServiceRegistry:
    """Name → service resolution: one dict, in registration order."""

    def __init__(self) -> None:
        self._services: dict[str, ServiceEntry] = {}

    def register(self, entry: ServiceEntry) -> ServiceEntry:
        """Register a service under its exact name."""
        if entry.name in self._services:
            raise ClusterError(f"service {entry.name!r} is already registered")
        if not entry.version_graph.service:
            entry.version_graph.service = entry.name
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

    def select(
        self,
        name: str,
        client_key: Hashable,
        binding: "ClientBinding | None" = None,
    ) -> Replica:
        """Pick (and account) the replica for ``client_key``'s next call."""
        replica = self.lookup(name).select(client_key, binding)
        replica.calls_routed += 1
        return replica

    def select_many(
        self,
        name: str,
        client_key: Hashable,
        count: int,
        binding: "ClientBinding | None" = None,
        reachable: "Callable[[Replica], bool] | None" = None,
    ) -> list[tuple[Replica, int]]:
        """Bulk-pick (and account) replicas for ``count`` calls of one flow."""
        picks = self.lookup(name).select_many(client_key, count, binding, reachable)
        for replica, share in picks:
            replica.calls_routed += share
        return picks

    def remove_replica(self, name: str, replica: "Replica | int") -> Replica:
        """Detach one replica of the named service (replica churn)."""
        return self.lookup(name).remove_replica(replica)

    @staticmethod
    def begin_call(replica: Replica) -> None:
        """Note a call in flight to ``replica`` (least-loaded accounting)."""
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
