"""Fixed-interval time-series metrics over simulated time.

A :class:`MetricsSampler` is an ordinary deterministic state machine on
the existing :class:`~repro.sim.scheduler.Scheduler`: every ``interval``
simulated seconds it reads each registered gauge callable and appends the
value to that gauge's series.  Because sampling rides the same event queue
as everything else, the series are byte-deterministic — two identical runs
sample the same gauges at the same instants and read the same values.

Series are bounded (``max_samples``) with the same ring discipline as the
span ring and the flight recorder, so a long run keeps the most recent
window rather than growing without bound.  The finished product is a
:class:`MetricsReport` attached to ``ClusterReport.metrics`` — carrying
its own fingerprint, and deliberately *excluded* from
``ClusterReport.fingerprint()`` so enabling observability never changes a
scenario's primary determinism signature.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError


@dataclass
class MetricsReport:
    """The sampled series of one run: gauge name → tuple of samples."""

    interval: float
    #: Sample timestamps in simulated seconds (shared by every series).
    times: tuple[float, ...] = ()
    #: Gauge name → one value per timestamp.
    series: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """SHA-256 over the full series state, for determinism asserts."""
        digest = hashlib.sha256()
        digest.update(repr((self.interval, self.times)).encode())
        for name in sorted(self.series):
            digest.update(repr((name, self.series[name])).encode())
        return digest.hexdigest()

    def to_dict(self) -> dict:
        """A JSON-able rendering for exporters and CI artifacts."""
        return {
            "interval": self.interval,
            "times": list(self.times),
            "series": {name: list(values) for name, values in self.series.items()},
            "fingerprint": self.fingerprint(),
        }

    def __repr__(self) -> str:
        return (
            f"MetricsReport(interval={self.interval}, gauges={len(self.series)}, "
            f"samples={len(self.times)})"
        )


class MetricsSampler:
    """Samples registered gauges at a fixed simulated-time interval."""

    def __init__(self, scheduler, interval: float = 0.005, max_samples: int = 4096) -> None:
        if interval <= 0:
            raise ReproError(f"metrics interval must be positive, got {interval}")
        self.scheduler = scheduler
        self.interval = interval
        self.max_samples = max_samples
        self._gauges: dict[str, Callable[[], float]] = {}
        self._times: deque[float] = deque(maxlen=max_samples)
        self._series: dict[str, deque[float]] = {}
        self._event = None
        self._running = False

    def register(self, name: str, gauge: Callable[[], float]) -> None:
        """Register (or replace) a gauge sampled on every tick."""
        self._gauges[name] = gauge
        self._series[name] = deque(maxlen=self.max_samples)

    def start(self) -> None:
        """Begin sampling ``interval`` seconds from now."""
        if self._running:
            return
        self._running = True
        self._event = self.scheduler.schedule(self.interval, self._tick)

    def close(self) -> None:
        """Take a closing sample (unless one exists at this instant), then stop."""
        if self._running and (not self._times or self._times[-1] != self.scheduler.now):
            self._sample()
        self.stop()

    def stop(self) -> None:
        """Stop sampling and cancel the pending tick."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._sample()
        self._event = self.scheduler.schedule(self.interval, self._tick)

    def _sample(self) -> None:
        self._times.append(self.scheduler.now)
        for name, gauge in self._gauges.items():
            self._series[name].append(float(gauge()))

    def report(self) -> MetricsReport:
        """Freeze the sampled series into a :class:`MetricsReport`."""
        return MetricsReport(
            interval=self.interval,
            times=tuple(self._times),
            series={name: tuple(values) for name, values in self._series.items()},
        )
