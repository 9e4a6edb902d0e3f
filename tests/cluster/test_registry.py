"""Unit tests for the service registry and round-robin replica selection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.registry import Replica, ServiceEntry, ServiceRegistry
from repro.errors import ClusterError, NoAliveReplicaError, ServiceNotFoundError
from repro.evolve import ClientBinding
from repro.interface import InterfaceDescription, OperationSignature


class _FakeNode:
    """A stand-in server node with just the liveness flag selection reads."""

    def __init__(self, name: str = "node", alive: bool = True) -> None:
        self.name = name
        self.is_alive = alive


def _replicas(count: int) -> list[Replica]:
    return [
        Replica(service="svc", index=index, node=None, managed=None)
        for index in range(count)
    ]


def _node_replicas(count: int) -> list[Replica]:
    return [
        Replica(service="svc", index=index, node=_FakeNode(f"node-{index}"), managed=None)
        for index in range(count)
    ]


def _entry(replicas: list[Replica]) -> ServiceEntry:
    entry = ServiceEntry("svc", "soap")
    entry.replicas = replicas
    return entry


class TestPolicies:
    """The one selection rule: round-robin over the replicas."""

    def test_round_robin_cycles_deterministically(self):
        entry = _entry(_replicas(3))
        picks = [entry.select().index for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_round_robin_skips_dead_replicas_and_resumes_on_restart(self):
        replicas = _node_replicas(3)
        entry = _entry(replicas)
        replicas[1].node.is_alive = False
        picks = [entry.select().index for _ in range(4)]
        assert picks == [0, 2, 0, 2]
        replicas[1].node.is_alive = True
        # The cursor kept advancing over the dead replica, so the revived
        # replica resumes its original slot in the rotation.
        assert [entry.select().index for _ in range(3)] == [0, 1, 2]

    def test_all_dead_raises_no_alive_replica(self):
        replicas = _node_replicas(2)
        for replica in replicas:
            replica.node.is_alive = False
        with pytest.raises(NoAliveReplicaError):
            _entry(replicas).select()


class TestServiceRegistry:
    def _registry(self) -> tuple[ServiceRegistry, ServiceEntry]:
        registry = ServiceRegistry()
        entry = ServiceEntry("mail", "soap")
        entry.replicas.extend(_replicas(2))
        registry.register(entry)
        return registry, entry

    def test_exact_lookup_and_unknown_service(self):
        registry, entry = self._registry()
        assert registry.lookup("mail") is entry
        with pytest.raises(ServiceNotFoundError):
            registry.lookup("calendar")

    def test_duplicate_registration_rejected(self):
        registry, _ = self._registry()
        with pytest.raises(ClusterError):
            registry.register(ServiceEntry("mail", "corba"))

    def test_select_accounts_routed_calls_and_in_flight(self):
        registry, entry = self._registry()
        replica = registry.select("mail")
        assert replica.calls_routed == 1
        registry.begin_call(replica)
        assert replica.in_flight == 1
        registry.end_call(replica)
        assert replica.in_flight == 0

    def test_services_keep_registration_order(self):
        registry, entry = self._registry()
        other = registry.register(ServiceEntry("calendar", "corba"))
        assert registry.services == (entry, other)
        with pytest.raises(ServiceNotFoundError, match=r"\['mail', 'calendar'\]"):
            registry.lookup("chat")

    def test_empty_service_rejected_on_select(self):
        registry = ServiceRegistry()
        registry.register(ServiceEntry("empty", "soap"))
        with pytest.raises(ClusterError):
            registry.select("empty", "client-1")

    def test_replica_repr_names_its_node_or_none(self):
        on_node = Replica("svc", 0, _FakeNode("node-0"), None)
        assert repr(on_node) == "Replica(svc#0 on node-0, in_flight=0)"
        assert repr(Replica("svc", 1, None, None)) == "Replica(svc#1 off-cluster, in_flight=0)"


class _FakePublisher:
    """A stand-in publisher carrying just what version routing reads."""

    def __init__(self, version: int, description: InterfaceDescription | None) -> None:
        self.version = version
        self.published_description = description


class _FakeManaged:
    def __init__(self, publisher: _FakePublisher) -> None:
        self.publisher = publisher


def _described(version: int, *names: str) -> InterfaceDescription:
    return InterfaceDescription(
        service_name="svc",
        namespace="urn:test",
        operations=tuple(OperationSignature(name) for name in sorted(names)),
        version=version,
    )


def _versioned_replicas(specs) -> list[Replica]:
    """Replicas from ``(version, operation names)`` pairs, all alive."""
    return [
        Replica(
            service="svc",
            index=index,
            node=_FakeNode(f"node-{index}"),
            managed=_FakeManaged(_FakePublisher(version, _described(version, *names))),
        )
        for index, (version, names) in enumerate(specs)
    ]


class TestVersionAwareSelection:
    """The ServiceEntry selection cascade: compatible+fresh > fresh > all."""

    def _entry(self, replicas: list[Replica]) -> ServiceEntry:
        entry = _entry(replicas)
        entry.version_routing = True
        return entry

    def _binding(self, replicas: list[Replica]) -> ClientBinding:
        binding = ClientBinding()
        for replica in replicas:
            binding.bind(replica.index, replica.publisher.published_description)
        return binding

    def test_without_binding_or_routing_flag_behaviour_is_unchanged(self):
        replicas = _versioned_replicas([(2, ("echo",)), (2, ("echo",))])
        entry = self._entry(replicas)
        assert [entry.select().index for _ in range(4)] == [0, 1, 0, 1]
        entry.version_routing = False
        binding = self._binding(replicas)
        assert [entry.select(binding).index for _ in range(4)] == [0, 1, 0, 1]

    def test_breaking_replica_avoided_while_a_compatible_one_remains(self):
        # Replica 0 moved to v3 and renamed the operation (breaking for a
        # client bound at v2); replica 1 still publishes v2.
        replicas = _versioned_replicas([(2, ("echo",)), (2, ("echo",))])
        binding = self._binding(replicas)
        replicas[0].managed.publisher = _FakePublisher(3, _described(3, "echo_v2"))
        entry = self._entry(replicas)
        picks = [entry.select(binding).index for _ in range(4)]
        assert picks == [1, 1, 1, 1]

    def test_compatible_upgrade_does_not_restrict_routing(self):
        replicas = _versioned_replicas([(2, ("echo",)), (2, ("echo",))])
        binding = self._binding(replicas)
        replicas[0].managed.publisher = _FakePublisher(3, _described(3, "echo", "ping"))
        entry = self._entry(replicas)
        assert sorted({entry.select(binding).index for _ in range(4)}) == [0, 1]

    def test_freshness_enforces_the_client_recency_watermark(self):
        replicas = _versioned_replicas([(3, ("echo",)), (2, ("echo",))])
        binding = self._binding(replicas)
        binding.observe(3)  # the client already saw v3 somewhere
        entry = self._entry(replicas)
        # Replica 1 (still at v2) would violate §6 for this client: excluded.
        assert [entry.select(binding).index for _ in range(3)] == [0, 0, 0]

    def test_all_incompatible_falls_back_to_fresh_stale_fault_territory(self):
        replicas = _versioned_replicas([(3, ("echo_v2",)), (3, ("echo_v2",))])
        binding = ClientBinding()
        for replica in replicas:
            binding.bind(replica.index, _described(2, "echo"))  # stale stubs
        entry = self._entry(replicas)
        # No compatible replica remains: selection falls back to the fresh
        # tier (the client will observe a stale fault there and rebind).
        assert {entry.select(binding).index for _ in range(2)} == {0, 1}

    def test_no_fresh_alive_replica_raises_instead_of_violating_recency(self):
        # Replica 0 carries the only v3; it crashes while replica 1 still
        # publishes v2.  A client that already observed v3 must not be
        # served v2 — selection raises (retryable) instead.
        replicas = _versioned_replicas([(3, ("echo",)), (2, ("echo",))])
        binding = self._binding(replicas)
        binding.observe(3)
        replicas[0].node.is_alive = False
        entry = self._entry(replicas)
        with pytest.raises(NoAliveReplicaError):
            entry.select(binding)
        # The moment the fresh replica restarts, selection resumes there.
        replicas[0].node.is_alive = True
        assert entry.select(binding).index == 0

    def test_dead_replicas_still_raise_when_nothing_is_alive(self):
        replicas = _versioned_replicas([(2, ("echo",)), (2, ("echo",))])
        for replica in replicas:
            replica.node.is_alive = False
        entry = self._entry(replicas)
        with pytest.raises(NoAliveReplicaError):
            entry.select(self._binding(replicas))


class TestBulkSelectionTiers:
    """``select_many`` narrows by the same version tiers as ``select``."""

    _entry = TestVersionAwareSelection._entry
    _binding = TestVersionAwareSelection._binding

    def test_breaking_replica_avoided_in_bulk(self):
        replicas = _versioned_replicas([(2, ("echo",)), (2, ("echo",))])
        binding = self._binding(replicas)
        replicas[0].managed.publisher = _FakePublisher(3, _described(3, "echo_v2"))
        entry = self._entry(replicas)
        assert entry.select_many(4, binding) == [(replicas[1], 4)]

    def test_bulk_falls_back_to_the_fresh_tier(self):
        replicas = _versioned_replicas([(3, ("echo_v2",)), (3, ("echo_v2",))])
        binding = ClientBinding()
        for replica in replicas:
            binding.bind(replica.index, _described(2, "echo"))
        entry = self._entry(replicas)
        assert entry.select_many(4, binding) == [(replicas[0], 2), (replicas[1], 2)]

    def test_bulk_refuses_exactly_like_a_single_selection(self):
        replicas = _versioned_replicas([(3, ("echo",)), (2, ("echo",))])
        binding = self._binding(replicas)
        binding.observe(3)
        replicas[0].node.is_alive = False
        entry = self._entry(replicas)
        with pytest.raises(NoAliveReplicaError) as single:
            entry.select(binding)
        with pytest.raises(NoAliveReplicaError) as bulk:
            entry.select_many(4, binding)
        assert str(bulk.value) == str(single.value)

    def test_unreachable_replicas_leave_the_fresh_tier(self):
        replicas = _versioned_replicas([(2, ("echo",)), (2, ("echo",))])
        entry = self._entry(replicas)
        picks = entry.select_many(
            4, self._binding(replicas), reachable=lambda replica: replica.index == 1
        )
        assert picks == [(replicas[1], 4)]

    def test_reachable_filters_without_version_routing(self):
        replicas = _node_replicas(3)
        entry = _entry(replicas)
        picks = entry.select_many(4, reachable=lambda replica: replica.index != 1)
        assert picks == [(replicas[0], 2), (replicas[2], 2)]

    def test_no_calls_need_no_replicas(self):
        assert ServiceEntry("empty", "soap").select_many(0) == []
        with pytest.raises(ClusterError):
            ServiceEntry("empty", "soap").select_many(1)


@st.composite
def _fixed_lists(draw):
    """A fixed candidate list with some dead replicas (at least one alive),
    a prior raw cursor and a call count."""
    alive = draw(st.lists(st.booleans(), min_size=1, max_size=6).filter(any))
    replicas = [
        Replica(
            service="svc",
            index=index,
            node=_FakeNode(f"node-{index}", alive=up),
            managed=None,
        )
        for index, up in enumerate(alive)
    ]
    return replicas, draw(st.integers(0, 50)), draw(st.integers(1, 40))


def _tally(picks) -> dict[int, int]:
    counts: dict[int, int] = {}
    for replica in picks:
        counts[replica.index] = counts.get(replica.index, 0) + 1
    return counts


class TestBulkMatchesRepeatedSelect:
    """Over a fixed candidate list, ``select_many(..., count)`` is ``count``
    repeated ``select`` calls: same calls per replica, same cursor modulo
    the list length."""

    @settings(max_examples=300, deadline=None)
    @given(case=_fixed_lists())
    def test_round_robin(self, case):
        replicas, cursor, count = case
        bulk, single = _entry(replicas), _entry(replicas)
        bulk._next = single._next = cursor
        picks = bulk.select_many(count)
        expected = _tally(single.select() for _ in range(count))
        assert {replica.index: n for replica, n in picks} == expected
        assert bulk._next == single._next % len(replicas)
