"""Plan building: the fast builder against the original one, kept as the spec.

``ScenarioRuntime._build_plans`` turns every client group into discrete
:class:`ClientPlan` s and cohort-flow offset arrays.  It makes no Python-level
call per client and builds the protocol interleave once per period
(ARCHITECTURE.md "Plan building"); the original per-client construction lives
on here as the reference, and every float and assignment must match it bit
for bit.
"""

from __future__ import annotations

import gc
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import CohortModel, Scenario, op
from repro.cluster.registry import POLICY_ROUND_ROBIN, ServiceEntry, make_policy
from repro.cluster.scenario import _weighted_interleave
from repro.rmitypes import STRING
from repro.traffic import Poisson, resolve_offsets


def _reference_interleave(mix, count):
    """The original greedy: ``max`` over names with a per-slot key lambda."""
    names = [name for name, weight in mix if weight > 0]
    weights = dict(mix)
    total = sum(weights[name] for name in names)
    assigned = {name: 0 for name in names}
    sequence = []
    for slot in range(1, count + 1):
        name = max(names, key=lambda n: (weights[n] / total) * slot - assigned[n])
        assigned[name] += 1
        sequence.append(name)
    return sequence


def _expand(unit, count):
    """The per-position sequence a repeating interleave unit stands for."""
    return [unit[position % len(unit)] for position in range(count)]


def _reference_build(runtime):
    """The original plan builder: a target tuple per client and a
    per-position member list per flow, as comparable rows."""
    plans, flows = [], []
    index = 0
    for group in runtime.scenario._client_groups:
        discrete = (
            group.count
            if group.cohort is None
            else min(group.count, group.cohort.representatives)
        )
        offsets = resolve_offsets(group.arrival, group.count)
        protocols = _reference_interleave(group.protocol_mix, group.count)
        targets = [
            (protocol, runtime._service_for_protocol(protocol).name)
            for protocol in protocols
        ]
        for position in range(discrete):
            plans.append((index, *targets[position], offsets[position].hex()))
            index += 1
        members = {}
        for position in range(discrete, group.count):
            members.setdefault(targets[position], []).append(position)
        for (protocol, service), positions in members.items():
            mass = array("d", sorted(offsets[p] for p in positions))
            flows.append((protocol, service, mass.tobytes()))
    return plans, flows


def _rows(plans, flows):
    assert [flow.index for flow in flows] == list(range(1, len(flows) + 1))
    return (
        [(p.index, p.protocol, p.service, p.start_offset.hex()) for p in plans],
        [(f.protocol, f.service, f.offsets.tobytes()) for f in flows],
    )


def _runtime(count, mix, arrival, representatives=32):
    echo = op("echo", (("message", STRING),), STRING, body=lambda _self, m: m)
    runtime = (
        Scenario(name="plan-building")
        .servers(2)
        .service("EchoSoap", [echo], technology="soap")
        .service("EchoCorba", [echo], technology="corba")
        .clients(
            count,
            protocol_mix=mix,
            calls=2,
            operation="echo",
            arguments=("hi",),
            arrival=arrival,
            cohort=CohortModel(representatives=representatives),
        )
        .build()
    )
    if "toy" in mix:
        # Plan building reads only the registry's (technology, name) pairs,
        # so a replica-less entry stands in for a third technology's service.
        runtime.registry.register(
            ServiceEntry("EchoToy", "toy", make_policy(POLICY_ROUND_ROBIN))
        )
    return runtime


class TestInterleaveEquivalence:
    @given(
        weights=st.lists(
            st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=4
        ),
        count=st.integers(min_value=0, max_value=3000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_max_key_greedy(self, weights, count):
        mix = [(f"p{i}", weight) for i, weight in enumerate(weights)]
        unit = _weighted_interleave(mix, count)
        assert _expand(unit, count) == _reference_interleave(mix, count)

    def test_ties_keep_declaration_order(self):
        mix = [("b", 1.0), ("a", 1.0), ("c", 1.0)]
        assert _expand(_weighted_interleave(mix, 6), 6) == ["b", "a", "c"] * 2


# Dyadic mixes and their period D: the largest denominator 2**k over the
# shares ``weight / total``.
DYADIC_MIXES = [
    ((("soap", 0.5), ("corba", 0.5)), 2),
    ((("a", 0.25), ("b", 0.75)), 4),
    ((("a", 3.0), ("b", 5.0)), 8),
    ((("a", 0.5), ("b", 0.25), ("c", 0.25)), 4),
    ((("a", 0.125), ("b", 0.375), ("c", 0.25), ("d", 0.25)), 8),
]


class TestInterleavePeriod:
    @pytest.mark.parametrize("mix, period", DYADIC_MIXES)
    def test_expanded_unit_matches_the_spec(self, mix, period):
        for count in (period - 1, period, period + 1, 7 * period + 3, 100_000):
            unit = _weighted_interleave(mix, count)
            # Fewer than D + 1 slots run to ``count``; more repeat D slots.
            assert len(unit) == (period if period < count else count)
            assert _expand(unit, count) == _reference_interleave(mix, count)

    def test_lags_not_back_to_zero_take_the_full_loop(self):
        # The total overflows to inf, so both shares are 0.0 (D == 1) and sum
        # to 0, not 1: after slot D the first protocol is 1 ahead of its
        # share, the check fails and the greedy runs every slot.
        mix = (("a", 1e308), ("b", 1e308))
        unit = _weighted_interleave(mix, 101)
        assert len(unit) == 101
        assert unit == _reference_interleave(mix, 101)

    def test_million_client_half_mix_is_two_slots(self):
        assert len(_weighted_interleave((("soap", 0.5), ("corba", 0.5)), 10**6)) == 2


class TestBuilderEquivalence:
    def test_20k_three_protocol_cohort_group(self):
        mix = {"soap": 0.5, "corba": 0.3, "toy": 0.2}
        runtime = _runtime(20_000, mix, Poisson(rate=1e5, seed=7))
        plans, flows = runtime._build_plans()
        assert sorted(flow.protocol for flow in flows) == ["corba", "soap", "toy"]
        assert sum(flow.mass for flow in flows) + len(plans) == 20_000
        assert _rows(plans, flows) == _reference_build(runtime)

    def test_20k_dyadic_group_with_odd_representatives(self):
        # D == 4 and 33 representatives: the flow mass starts one slot into
        # the period, so the flows' masks are the rotated unit.
        mix = {"soap": 0.5, "corba": 0.25, "toy": 0.25}
        runtime = _runtime(20_000, mix, Poisson(rate=1e5, seed=3), representatives=33)
        assert len(_weighted_interleave(tuple(mix.items()), 20_000)) == 4
        plans, flows = runtime._build_plans()
        assert [flow.protocol for flow in flows] == ["corba", "toy", "soap"]
        assert _rows(plans, flows) == _reference_build(runtime)

    @given(
        count=st.integers(min_value=1, max_value=300),
        representatives=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=5),
        shuffled=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_flow_mass_partitions_group_offsets(
        self, count, representatives, seed, shuffled
    ):
        # The representatives' start offsets plus each flow's offsets are
        # exactly the full group's offsets, split by the positions the
        # interleave gives each protocol: cohort aggregation never shifts
        # anyone's arrival.  ``shuffled`` uses a non-monotone callable so
        # the flows' sorting matters.
        arrival = (
            (lambda i: ((i * 7919) % count) * 0.001)
            if shuffled
            else Poisson(rate=100.0, seed=seed)
        )
        mix = {"soap": 0.7, "corba": 0.3}
        runtime = _runtime(count, mix, arrival, representatives)
        plans, flows = runtime._build_plans()
        full = resolve_offsets(arrival, count)
        protocols = _reference_interleave(tuple(mix.items()), count)
        discrete = min(count, representatives)
        assert [plan.start_offset for plan in plans] == full[:discrete]
        assert [plan.protocol for plan in plans] == protocols[:discrete]
        by_protocol = {flow.protocol: list(flow.offsets) for flow in flows}
        for protocol in mix:
            expected = sorted(
                full[p] for p in range(discrete, count) if protocols[p] == protocol
            )
            assert by_protocol.get(protocol, []) == expected


def _python_calls(function):
    """Python-frame ``call`` events (generator resumes included, C calls not)
    while ``function`` runs.

    The collector is drained and paused first: a collection mid-run would
    finalize earlier tests' garbage (closing a generator is a ``call``).
    """
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


class TestNoPerClientCalls:
    def test_python_call_count_does_not_grow_with_the_group(self):
        # A deterministic guard, not a timing: growing the cohort group
        # tenfold must not add a single Python-level call to plan building.
        mix = {"soap": 0.5, "corba": 0.5}
        runtimes = {
            count: _runtime(count, mix, Poisson(rate=count / 0.2, seed=0))
            for count in (1_000, 10_000, 100_000)
        }
        _python_calls(runtimes.pop(1_000)._build_plans)  # first-use warm-up
        counts = {
            count: _python_calls(runtime._build_plans)
            for count, runtime in runtimes.items()
        }
        assert counts[10_000] == counts[100_000]
