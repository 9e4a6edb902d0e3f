"""The streaming fixed-bin latency histogram behind cohort RTT accounting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.histogram import DEFAULT_BIN_WIDTH, LatencyHistogram
from repro.cluster.report import ClientReport, ClusterReport, rtt_percentiles
from repro.errors import ClusterError


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert len(histogram) == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(50) == 0.0
        assert histogram.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_add_and_mean(self):
        histogram = LatencyHistogram()
        histogram.add(0.010)
        histogram.add_many(0.020, 3)
        assert len(histogram) == 4
        assert histogram.mean == pytest.approx((0.010 + 3 * 0.020) / 4)
        assert histogram.min_value == 0.010
        assert histogram.max_value == 0.020

    def test_add_many_zero_count_is_noop(self):
        histogram = LatencyHistogram()
        histogram.add_many(0.5, 0)
        histogram.add_many(0.5, -3)
        assert len(histogram) == 0

    def test_negative_sample_rejected(self):
        with pytest.raises(ClusterError):
            LatencyHistogram().add(-0.001)

    def test_bad_bin_width_rejected(self):
        with pytest.raises(ClusterError):
            LatencyHistogram(bin_width=0.0)

    def test_percentile_level_validated(self):
        with pytest.raises(ClusterError):
            LatencyHistogram().percentile(101)

    def test_percentile_clamped_to_observed_range(self):
        """Bin midpoints can lie outside the observed values; answers can't."""
        histogram = LatencyHistogram(bin_width=1.0)
        histogram.add(0.1)  # bin 0, midpoint 0.5 > max observed 0.1
        assert histogram.percentile(50) == 0.1
        histogram.add(0.9)  # same bin; p0 must not dip below min
        assert histogram.percentile(0) == pytest.approx(0.5)

    def test_merge(self):
        left = LatencyHistogram()
        right = LatencyHistogram()
        left.add_many(0.010, 5)
        right.add_many(0.030, 5)
        left.merge(right)
        assert len(left) == 10
        assert left.max_value == 0.030
        assert left.mean == pytest.approx(0.020)

    def test_merge_rejects_mismatched_bins(self):
        with pytest.raises(ClusterError):
            LatencyHistogram(1e-4).merge(LatencyHistogram(1e-3))

    def test_fingerprint_tracks_state(self):
        one, two = LatencyHistogram(), LatencyHistogram()
        for histogram in (one, two):
            histogram.add_many(0.010, 4)
            histogram.add(0.025)
        assert one.fingerprint() == two.fingerprint()
        two.add(0.030)
        assert one.fingerprint() != two.fingerprint()

    def test_merge_with_empty_is_identity_both_ways(self):
        """Merging an empty histogram in (or into one) changes nothing."""
        populated = LatencyHistogram()
        populated.add_many(0.010, 4)
        populated.add(0.025)
        before = populated.fingerprint()
        populated.merge(LatencyHistogram())
        assert populated.fingerprint() == before
        assert populated.min_value == 0.010 and populated.max_value == 0.025
        empty = LatencyHistogram()
        empty.merge(populated)
        assert empty.fingerprint() == before
        both = LatencyHistogram()
        both.merge(LatencyHistogram())
        assert len(both) == 0
        assert both.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_single_bin_quantiles_stay_inside_observed_range(self):
        """With every sample in one bin, all quantile levels collapse to the
        clamped observed range — never a bare bin midpoint."""
        histogram = LatencyHistogram()
        histogram.add_many(0.0123, 1000)
        for level in (0, 1, 50, 95, 99, 100):
            assert histogram.percentile(level) == pytest.approx(0.0123)
        assert histogram.mean == pytest.approx(0.0123)
        spread = LatencyHistogram(bin_width=1.0)  # one wide bin, two values
        spread.add(0.2)
        spread.add(0.3)
        for level in (0, 50, 100):
            assert 0.2 <= spread.percentile(level) <= 0.3

    @given(
        parts=st.lists(
            st.lists(
                st.tuples(
                    # Dyadic rationals: float addition over them is exact, so
                    # the associativity claim can be byte-exact on ``total``.
                    st.integers(min_value=0, max_value=256).map(lambda n: n / 1024.0),
                    st.integers(min_value=1, max_value=5),
                ),
                max_size=20,
            ),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative_and_order_insensitive(self, parts):
        """(a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) land on identical state — the
        property cohort aggregation relies on when it folds per-flow
        histograms in partition order."""

        def histogram(samples):
            built = LatencyHistogram()
            for value, count in samples:
                built.add_many(value, count)
            return built

        left = histogram(parts[0])
        left.merge(histogram(parts[1]))
        left.merge(histogram(parts[2]))
        inner = histogram(parts[1])
        inner.merge(histogram(parts[2]))
        right = histogram(parts[0])
        right.merge(inner)
        assert left.fingerprint() == right.fingerprint()
        reversed_order = histogram(parts[2])
        reversed_order.merge(histogram(parts[1]))
        reversed_order.merge(histogram(parts[0]))
        assert left.fingerprint() == reversed_order.fingerprint()

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=0.25, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_percentiles_within_one_bin_of_nearest_rank(self, samples):
        """Histogram percentiles land within one bin width of the owning
        nearest-rank sample (the exact path additionally interpolates
        between ranks, so it is not the reference here)."""
        histogram = LatencyHistogram()
        for sample in samples:
            histogram.add(sample)
        ordered = sorted(samples)
        approximate = histogram.percentiles()
        for level, key in ((50, "p50"), (95, "p95"), (99, "p99")):
            rank = (len(ordered) - 1) * level / 100.0
            owner = ordered[int(rank)]
            assert abs(approximate[key] - owner) <= DEFAULT_BIN_WIDTH


class TestReportPercentilePaths:
    def test_exact_path_below_threshold(self):
        """Small discrete fleets keep the exact per-sample percentiles."""
        report = ClusterReport(started_at=0.0, finished_at=1.0)
        assert report.rtt_percentiles == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        report.clients.append(ClientReport("c", rtts=[0.3, 0.1, 0.2]))
        assert report.rtt_percentiles == rtt_percentiles([0.1, 0.2, 0.3])

    def test_discrete_percentiles_are_exact_at_any_size(self):
        """Above the 65,536 samples where a histogram once took over,
        discrete fleets still report exact per-sample percentiles; only
        cohort flows use the histogram."""
        report = ClusterReport(started_at=0.0, finished_at=1.0)
        rtts = [(index * 7919 % 70_001) * 1e-6 for index in range(70_001)]
        report.clients.append(ClientReport("c", rtts=rtts))
        assert report.rtt_percentiles == rtt_percentiles(rtts)
        assert report.rtt_percentiles["p50"] == sorted(rtts)[35_000]
