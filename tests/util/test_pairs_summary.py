"""The paired-timing summary of ``benchmarks/pairs.py`` on synthetic runs.

``summarise`` turns alternating base/change runs of the repo benchmark
into medians, quartiles, win counts and a verdict per workload and metric;
these tests feed it made-up runs whose verdict is known.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

BOUNDS = {"host_us_per_call": 0.2}


def _runs(values: list[float]) -> list[dict]:
    return [
        {"correct": True, "metrics": {"live-edit": {"host_us_per_call": {"value": value}}}}
        for value in values
    ]


def _row(base: list[float], change: list[float], bounds=BOUNDS) -> dict:
    return pairs.summarise(_runs(base), _runs(change), bounds)["live-edit"]["host_us_per_call"]


BASE = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


class TestSummarise:
    def test_medians_quartiles_and_counts(self):
        change = [value * 0.8 for value in BASE]
        row = _row(BASE, change)
        assert row["base_median"] == 100.0
        assert row["change_median"] == pytest.approx(80.0)
        assert (row["base_q1"], row["base_q3"]) == (98.875, 101.125)
        assert row["ratio_median"] == pytest.approx(0.8)
        assert (row["better"], row["worse"], row["pairs"]) == (10, 0, 10)

    def test_a_clear_win_is_a_gain(self):
        assert _row(BASE, [value - 5.0 for value in BASE])["verdict"] == "gain"

    def test_winning_nine_of_ten_is_enough_but_eight_is_not(self):
        nine = [value - 5.0 for value in BASE[:9]] + [BASE[9] + 1.0]
        assert _row(BASE, nine)["verdict"] == "gain"
        eight = [value - 5.0 for value in BASE[:8]] + [value + 1.0 for value in BASE[8:]]
        assert _row(BASE, eight)["verdict"] == "no change"

    def test_ties_count_for_neither_side(self):
        tied = [value - 5.0 for value in BASE[:9]] + [BASE[9]]
        row = _row(BASE, tied)
        assert (row["better"], row["worse"]) == (9, 0)
        assert row["verdict"] == "gain"

    def test_a_shift_inside_the_base_spread_is_no_gain(self):
        # Better in every pair, but by less than the base runs' IQR (2.25).
        row = _row(BASE, [value - 1.0 for value in BASE])
        assert row["better"] == 10
        assert row["verdict"] == "no change"

    def test_a_clear_loss_is_worse(self):
        # 25% slower in every pair: past the 20% bound.
        assert _row(BASE, [value + 25.0 for value in BASE])["verdict"] == "worse"

    def test_a_clear_loss_inside_the_bound_is_within_bound(self):
        # 5% slower in every pair, beyond the base IQR but inside the 20% bound.
        assert _row(BASE, [value + 5.0 for value in BASE])["verdict"] == "within bound"
        # Exactly at the bound still counts as inside it.
        assert _row(BASE, [value + 20.0 for value in BASE])["verdict"] == "within bound"
        # A metric without a declared bound has nothing to stay inside.
        assert _row(BASE, [value + 5.0 for value in BASE], {})["verdict"] == "worse"

    def test_a_base_spread_wider_than_the_bound_is_unresolved(self):
        wide = [60.0, 140.0, 70.0, 130.0, 100.0, 65.0, 135.0, 100.0, 75.0, 125.0]
        assert _row(wide, [value * 1.01 for value in wide])["verdict"] == "unresolved"
        # A metric without a declared bound is never unresolved.
        assert _row(wide, [value * 1.01 for value in wide], {})["verdict"] == "no change"

    def test_a_gain_wins_over_a_wide_spread(self):
        wide = [60.0, 140.0, 70.0, 130.0, 100.0, 65.0, 135.0, 100.0, 75.0, 125.0]
        assert _row(wide, [value * 0.3 for value in wide])["verdict"] == "gain"

    def test_one_pair(self):
        row = _row([100.0], [90.0])
        assert (row["base_q1"], row["base_q3"], row["ratio_q1"]) == (100.0, 100.0, 0.9)
        assert row["verdict"] == "gain"


def test_bounds_come_from_the_benchmark_declaration():
    assert pairs.benchmark_bounds() == {
        "host_us_per_call": 0.2, "setup_s": 0.25, "peak_rss_mb": 0.05,
    }
