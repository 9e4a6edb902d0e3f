"""Fixed-bin deterministic latency histogram.

Million-client cohort runs cannot retain one float per modeled call the way
the discrete report path does — a 1M-client scenario would hold millions of
RTT samples just to answer three percentile questions.
:class:`LatencyHistogram` keeps sparse fixed-width bins instead: adding a
sample is one dict bump, ``add_many`` folds a whole flow batch in at once,
and percentiles walk the sorted bins — exact to within half a bin width,
byte-deterministic (no sampling, no randomness), and mergeable across
cohorts.

Only cohort flows use it: the discrete report path keeps exact per-sample
percentiles (:func:`repro.cluster.report.percentile`).
"""

from __future__ import annotations

from repro.errors import ClusterError

#: Default bin width in seconds (0.1 ms): RTTs in these worlds sit in the
#: 1–100 ms range, so percentile error is bounded well under 5%.
DEFAULT_BIN_WIDTH = 1e-4


class LatencyHistogram:
    """Sparse fixed-bin histogram over non-negative latency samples."""

    __slots__ = ("bin_width", "count", "total", "min_value", "max_value", "_bins")

    def __init__(self, bin_width: float = DEFAULT_BIN_WIDTH) -> None:
        if bin_width <= 0:
            raise ClusterError(f"bin width must be positive, got {bin_width}")
        self.bin_width = bin_width
        self.count = 0
        self.total = 0.0
        self.min_value = 0.0
        self.max_value = 0.0
        self._bins: dict[int, int] = {}

    def add(self, value: float) -> None:
        """Record one sample."""
        self.add_many(value, 1)

    def add_many(self, value: float, count: int) -> None:
        """Record ``count`` samples of the same ``value`` in O(1).

        Cohort flows settle a whole tick's calls at one modeled RTT; folding
        them in as a batch keeps accounting O(ticks), not O(calls).
        """
        if count <= 0:
            return
        if value < 0:
            raise ClusterError(f"latency samples must be non-negative, got {value}")
        if self.count == 0 or value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        self.count += count
        self.total += value * count
        bin_index = int(value / self.bin_width)
        bins = self._bins
        bins[bin_index] = bins.get(bin_index, 0) + count

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram (same bin width)."""
        if other.bin_width != self.bin_width:
            raise ClusterError(
                f"cannot merge histograms with bin widths "
                f"{self.bin_width} and {other.bin_width}"
            )
        if other.count == 0:
            return
        if self.count == 0 or other.min_value < self.min_value:
            self.min_value = other.min_value
        if other.max_value > self.max_value:
            self.max_value = other.max_value
        self.count += other.count
        self.total += other.total
        bins = self._bins
        for bin_index, count in other._bins.items():
            bins[bin_index] = bins.get(bin_index, 0) + count

    @property
    def mean(self) -> float:
        """Arithmetic mean of the recorded samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, level: float) -> float:
        """The ``level``-th percentile, exact to within half a bin width.

        Uses the same nearest-rank convention as the exact path's
        ``rank = (count - 1) * level / 100`` and answers with the owning
        bin's midpoint, clamped to the observed ``[min, max]`` range so the
        tails never report a value outside what was actually seen.
        """
        if not 0 <= level <= 100:
            raise ClusterError(f"percentile level must be in [0, 100], got {level}")
        if self.count == 0:
            return 0.0
        rank = (self.count - 1) * level / 100.0
        cumulative = 0
        midpoint = self.max_value
        for bin_index in sorted(self._bins):
            cumulative += self._bins[bin_index]
            if cumulative > rank:
                midpoint = (bin_index + 0.5) * self.bin_width
                break
        return min(max(midpoint, self.min_value), self.max_value)

    def percentiles(self) -> dict[str, float]:
        """The standard p50/p95/p99 triple."""
        return {
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }

    def fingerprint(self) -> tuple:
        """A hashable snapshot of the full state, for determinism asserts."""
        return (
            self.bin_width,
            self.count,
            self.total,
            self.min_value,
            self.max_value,
            tuple(sorted(self._bins.items())),
        )

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.count}, bins={len(self._bins)}, "
            f"mean={self.mean:.6f}s)"
        )
