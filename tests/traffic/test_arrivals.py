"""The seeded arrival processes and the shared offset resolver."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ClusterError
from repro.traffic import (
    ArrivalProcess,
    ClientChurn,
    Diurnal,
    FlashCrowd,
    ParetoHeavyTail,
    Poisson,
    resolve_offsets,
)

ALL_PROCESSES = [
    Poisson(rate=200.0, seed=3),
    ParetoHeavyTail(alpha=1.8, scale=0.002, seed=3),
    Diurnal(curve=(1.0, 3.0, 1.0), period=0.5, seed=3),
    FlashCrowd(at=0.05, magnitude=3.0, decay=0.01, rate=150.0, seed=3),
    ClientChurn(join_rate=300.0, leave_rate=100.0, seed=3),
]


class TestDeterminism:
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_same_seed_same_offsets(self, process):
        # One seeded stream per process: offsets() is a pure function, so
        # consecutive calls (record, replay, rerun) never drift.
        assert process.offsets(64) == process.offsets(64)

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_different_seed_different_offsets(self, process):
        from dataclasses import replace

        assert process.offsets(64) != replace(process, seed=99).offsets(64)

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_offsets_sorted_non_negative_exact_count(self, process):
        offsets = process.offsets(128)
        assert len(offsets) == 128
        assert offsets == sorted(offsets)
        assert all(offset >= 0.0 for offset in offsets)

    def test_zero_count(self):
        assert Poisson(rate=10.0).offsets(0) == []
        assert list(resolve_offsets(Poisson(rate=10.0), 0)) == []


class TestShapes:
    def test_poisson_mean_spacing(self):
        offsets = Poisson(rate=100.0, seed=1).offsets(2000)
        # Mean inter-arrival ~ 1/rate; generous tolerance, fixed seed.
        assert offsets[-1] / 2000 == pytest.approx(0.01, rel=0.2)

    def test_flash_crowd_clusters_at_the_spike(self):
        process = FlashCrowd(at=0.5, magnitude=4.0, decay=0.01, rate=10.0, seed=2)
        offsets = process.offsets(1000)
        crowd = [o for o in offsets if 0.5 <= o <= 0.5 + 0.1]
        # magnitude=4 puts ~80% of the mass in the crowd.
        assert len(crowd) > 600

    def test_diurnal_mass_follows_the_curve(self):
        process = Diurnal(curve=(1.0, 9.0), period=1.0, seed=4)
        offsets = process.offsets(2000)
        assert all(0.0 <= o < 1.0 for o in offsets)
        peak = sum(1 for o in offsets if o >= 0.5)
        assert peak > 1500  # 90% of intensity lives in the second half

    def test_client_churn_gates_joins_on_departures(self):
        process = ClientChurn(join_rate=1000.0, leave_rate=10.0, population=5, seed=5)
        offsets = process.offsets(50)
        # With a pool of 5 and slow departures, later joiners wait for a
        # slot: the 6th arrival is dominated by a session expiry, not by
        # the (fast) join stream.
        assert offsets[5] > offsets[4]
        assert offsets[-1] > offsets[4] * 2


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Poisson(rate=0.0),
            lambda: ParetoHeavyTail(alpha=0.0),
            lambda: ParetoHeavyTail(scale=0.0),
            lambda: Diurnal(curve=()),
            lambda: Diurnal(curve=(1.0, -1.0)),
            lambda: Diurnal(curve=(0.0, 0.0)),
            lambda: Diurnal(period=0.0),
            lambda: FlashCrowd(at=-1.0),
            lambda: FlashCrowd(decay=0.0),
            lambda: ClientChurn(join_rate=0.0),
            lambda: ClientChurn(leave_rate=0.0),
            lambda: ClientChurn(population=0),
        ],
    )
    def test_bad_parameters_rejected(self, build):
        with pytest.raises(ClusterError):
            build()

    def test_negative_count_rejected(self):
        with pytest.raises(ClusterError, match="count must be non-negative"):
            Poisson(rate=1.0).offsets(-1)
        with pytest.raises(ClusterError, match="count must be non-negative"):
            resolve_offsets(0.1, -1)

    def test_sample_count_mismatch_rejected(self):
        class Short(ArrivalProcess):
            def sample(self, rng, count):
                return [0.0] * (count - 1)

        with pytest.raises(ClusterError, match="produced 3 offsets for 4"):
            Short().offsets(4)


class TestResolveOffsets:
    def test_scalar_spacing(self):
        assert list(resolve_offsets(0.5, 4)) == [0.0, 0.5, 1.0, 1.5]

    def test_callable(self):
        assert list(resolve_offsets(lambda i: i * i * 0.1, 4)) == pytest.approx(
            [0.0, 0.1, 0.4, 0.9]
        )

    def test_process_delegates_to_offsets(self):
        process = Poisson(rate=50.0, seed=9)
        assert list(resolve_offsets(process, 16)) == process.offsets(16)

    def test_negative_spacing_rejected(self):
        with pytest.raises(ClusterError, match="spacing must be non-negative"):
            list(resolve_offsets(-0.1, 4))

    def test_negative_callable_offset_rejected(self):
        with pytest.raises(ClusterError, match="offsets must be non-negative"):
            list(resolve_offsets(lambda i: -1.0, 2))

    @pytest.mark.parametrize(
        "arrival, count",
        [
            (lambda i: float("nan"), 3),
            (lambda i: float("inf") if i == 1 else 0.0, 3),
            (float("inf"), 2),
            (float("nan"), 2),
            (1e308, 3),  # finite spacing whose positions overflow to inf
        ],
        ids=["callable-nan", "callable-inf", "spacing-inf", "spacing-nan", "overflow"],
    )
    def test_non_finite_offsets_rejected(self, arrival, count):
        with pytest.raises(ClusterError, match="must be finite"):
            list(resolve_offsets(arrival, count))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_process_offsets_rejected(self, bad):
        class Broken(ArrivalProcess):
            def sample(self, rng, count):
                return [0.0] * (count - 1) + [bad]

        with pytest.raises(ClusterError, match="must be finite"):
            Broken().offsets(4)
        with pytest.raises(ClusterError, match="must be finite"):
            list(resolve_offsets(Broken(), 4))

    def test_finite_offsets_whose_sum_overflows_pass(self):
        # sum() overflowing is not a bad offset: only a located one raises.
        assert list(resolve_offsets(lambda i: 1e308, 3)) == [1e308] * 3


def _reference_poisson(rate: float, seed: int, count: int) -> list[float]:
    """The original ``Poisson.sample``: cumulative ``rng.expovariate`` gaps."""
    rng = random.Random(seed)
    now = 0.0
    offsets = []
    for _ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
    return sorted(offsets)


class TestPoissonFormula:
    @given(
        rate=st.floats(min_value=1e-3, max_value=1e7, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**32),
        count=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_expovariate(self, rate, seed, count):
        # Poisson.sample inlines CPython's expovariate formula; a change to
        # that formula in a new interpreter shows up here, bit for bit.
        offsets = Poisson(rate=rate, seed=seed).offsets(count)
        expected = _reference_poisson(rate, seed, count)
        assert [x.hex() for x in offsets] == [x.hex() for x in expected]
