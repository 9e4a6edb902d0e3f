"""Declarative service-level objectives with multi-window burn-rate alerts.

An :class:`SLO` names an objective over one run's behaviour — "99% of
calls complete under 40ms" (:func:`latency_slo`), "99.9% of calls get an
answer" (:func:`availability_slo`), "no call ever observes a §6 recency
violation" (:func:`recency_slo`).  Declared objectives ride the existing
metrics pipeline: each one registers a cumulative good/total gauge pair
(``slo.<name>.good`` / ``slo.<name>.total``) on the
:class:`~repro.obs.metrics.MetricsSampler`, so the raw counts land in
``report.metrics`` like any other series — byte-deterministic, exportable,
replayable offline.

Evaluation (:func:`evaluate_slos`) is pure post-processing over those
series.  Besides end-of-run compliance it computes **multi-window
burn-rate alerts** in the SRE-workbook style: the *burn rate* over a
window is the fraction of the error budget (``1 - objective``) consumed
per unit of budget, ``bad_fraction / budget``; an alert fires at the
samples where *both* a long window and a short window burn faster than the
window's ``factor`` — the long window proves the breach is sustained, the
short window proves it is still happening.  Window lengths default to
deterministic fractions of the sampled span (25%/5% at 4×, 50%/10% at 2×)
so the same drill always evaluates the same windows; pass explicit
:class:`BurnWindow` tuples to pin real-time-style windows.

Division-by-zero discipline: a perfection objective (``objective == 1.0``)
has zero budget, so any bad event is an infinite burn; to keep results
JSON-clean the budget is floored at ``1e-9`` (one bad call then shows up
as a burn rate around ``1e9``, unmistakably alerting, never ``inf``).

Results surface as :class:`SLOResult` rows on ``ClusterReport.slo_results``
when the run's :class:`~repro.obs.api.ObsConfig` declared objectives, and
are re-derivable offline via ``python -m repro.obs.analyze slo`` from an
exported metrics JSON (the declarations are embedded alongside the
series).  Everything is deterministic: same run, same series, same alerts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.cluster.report import Outcomes
from repro.errors import ReproError
from repro.util.records import RecordCodec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsReport, MetricsSampler

#: The floor applied to ``1 - objective`` so perfection objectives produce
#: huge finite burn rates instead of JSON-hostile infinities.
MIN_ERROR_BUDGET = 1e-9

KIND_LATENCY = "latency"
KIND_AVAILABILITY = "availability"
KIND_RECENCY = "recency"
_KINDS = (KIND_LATENCY, KIND_AVAILABILITY, KIND_RECENCY)


@dataclass(frozen=True)
class BurnWindow:
    """One long/short window pair and the burn factor that trips it."""

    #: Long-window length in simulated seconds (sustained-breach proof).
    long_s: float
    #: Short-window length in simulated seconds (still-happening proof).
    short_s: float
    #: Alert when both windows burn budget at >= this multiple of steady use.
    factor: float


@dataclass(frozen=True)
class SLO:
    """One declarative objective, evaluated over ``report.metrics``."""

    #: Unique name; the gauge pair is ``slo.<name>.good`` / ``.total``.
    name: str
    #: ``latency`` / ``availability`` / ``recency``.
    kind: str
    #: Target good/total fraction, e.g. ``0.999``.
    objective: float
    #: Latency threshold in simulated seconds (latency SLOs only).
    threshold_s: "float | None" = None
    #: Restrict to one service's calls (None = the whole fleet).
    service: "str | None" = None
    #: Burn-rate window pairs; empty = deterministic span-fraction defaults.
    windows: tuple[BurnWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ReproError(f"unknown SLO kind {self.kind!r} (expected {_KINDS})")
        if not 0.0 < self.objective <= 1.0:
            raise ReproError(
                f"SLO objective must be in (0, 1], got {self.objective!r}"
            )
        if self.kind == KIND_LATENCY and self.threshold_s is None:
            raise ReproError(f"latency SLO {self.name!r} needs threshold_s")

    @property
    def good_series(self) -> str:
        return f"slo.{self.name}.good"

    @property
    def total_series(self) -> str:
        return f"slo.{self.name}.total"


#: Writes and reads SLO declarations as records (the metrics JSON's and a
#: trace spec's ``slos``): ``SLO_RECORDS.read([SLO], items, "slo")``.
SLO_RECORDS = RecordCodec(from_json={"windows": [BurnWindow]})


def latency_slo(
    name: str,
    threshold_s: float,
    objective: float = 0.99,
    service: "str | None" = None,
    windows: Iterable[BurnWindow] = (),
) -> SLO:
    """``objective`` of completed calls finish within ``threshold_s``."""
    return SLO(
        name=name,
        kind=KIND_LATENCY,
        objective=objective,
        threshold_s=threshold_s,
        service=service,
        windows=tuple(windows),
    )


def availability_slo(
    name: str,
    objective: float = 0.999,
    service: "str | None" = None,
    windows: Iterable[BurnWindow] = (),
) -> SLO:
    """``objective`` of calls get an answer (explicit §5.7 faults count as
    answers — the paper's point is that stale faults are *protocol*, not
    failure; only silent wrong answers and abandoned calls burn budget)."""
    return SLO(
        name=name,
        kind=KIND_AVAILABILITY,
        objective=objective,
        service=service,
        windows=tuple(windows),
    )


def recency_slo(
    name: str,
    objective: float = 1.0,
    service: "str | None" = None,
    windows: Iterable[BurnWindow] = (),
) -> SLO:
    """``objective`` of completed calls observe no §6 recency violation
    (the default demands perfection — the guarantee the repo asserts)."""
    return SLO(
        name=name,
        kind=KIND_RECENCY,
        objective=objective,
        service=service,
        windows=tuple(windows),
    )


# -- gauge registration (run-time side) ----------------------------------------


def register_slo_gauges(sampler: "MetricsSampler", driver: Any, slos: Sequence[SLO]) -> None:
    """Register each SLO's cumulative good/total gauge pair on ``sampler``.

    The gauges are pure functions of the fleet's client-report state at the
    sampling instant (cumulative counters, never reset), so the series
    inherit the sampler's byte-determinism for free.  Recency SLOs count
    the matching cohort flows' modeled calls and violations alongside the
    discrete clients'; latency and availability ones count discrete
    clients only — flow latency lives in streaming histograms, not
    per-call lists.
    """
    for slo in slos:
        clients = [
            client
            for client in driver.clients
            if slo.service is None or client.plan.service == slo.service
        ]
        flows = [
            flow
            for flow in driver.flows
            if slo.service is None or getattr(flow, "service", None) == slo.service
        ]
        if slo.kind == KIND_LATENCY:
            threshold = slo.threshold_s

            def good(clients=clients, threshold=threshold) -> int:
                return sum(
                    1
                    for client in clients
                    for rtt in client.report.rtts
                    if rtt <= threshold
                )

            def total(clients=clients) -> int:
                return sum(len(client.report.rtts) for client in clients)

        elif slo.kind == KIND_AVAILABILITY:

            def good(clients=clients) -> int:
                return _outcomes(clients).answered

            def total(clients=clients) -> int:
                return _outcomes(clients).issued

        else:  # KIND_RECENCY

            def good(members=clients + flows) -> int:
                outcomes = _outcomes(members)
                return max(outcomes.calls - outcomes.recency_violations, 0)

            def total(members=clients + flows) -> int:
                return _outcomes(members).calls

        sampler.register(slo.good_series, good)
        sampler.register(slo.total_series, total)


def _outcomes(members: Sequence[Any]) -> Outcomes:
    """The summed live outcomes of fleet clients and/or cohort flows."""
    return Outcomes.total([member.report for member in members])


# -- evaluation (post-run / offline side) --------------------------------------


@dataclass(frozen=True)
class SLOAlert:
    """One window pair's burn-rate alert over a run."""

    long_s: float
    short_s: float
    factor: float
    #: Simulated time of the first sample where both windows burned hot.
    first_at: float
    #: How many samples alerted.
    samples: int
    #: Peak long-window burn rate observed while alerting.
    peak_burn: float

    def to_dict(self) -> dict[str, float]:
        return {
            "long_s": self.long_s,
            "short_s": self.short_s,
            "factor": self.factor,
            "first_at": self.first_at,
            "samples": self.samples,
            "peak_burn": self.peak_burn,
        }


@dataclass
class SLOResult:
    """One SLO's end-of-run verdict plus its burn-rate alerts."""

    slo: SLO
    good: float = 0.0
    total: float = 0.0
    compliance: float = 1.0
    breached: bool = False
    #: True when the run's metrics carried no series for this SLO (metrics
    #: disabled, or the SLO was declared after the run).
    missing: bool = False
    alerts: tuple[SLOAlert, ...] = field(default_factory=tuple)

    @property
    def name(self) -> str:
        return self.slo.name

    @property
    def ok(self) -> bool:
        return not self.breached

    def to_dict(self) -> dict[str, Any]:
        return {
            "slo": SLO_RECORDS.write(self.slo),
            "good": self.good,
            "total": self.total,
            "compliance": self.compliance,
            "breached": self.breached,
            "missing": self.missing,
            "alerts": [alert.to_dict() for alert in self.alerts],
        }

    def __repr__(self) -> str:
        state = "missing" if self.missing else ("BREACHED" if self.breached else "ok")
        return (
            f"SLOResult({self.slo.name!r} {state}: "
            f"{self.compliance:.6f} vs {self.slo.objective})"
        )


def default_windows(span_s: float) -> tuple[BurnWindow, ...]:
    """Deterministic window pairs derived from the sampled span length."""
    if span_s <= 0:
        return ()
    return (
        BurnWindow(long_s=span_s * 0.25, short_s=span_s * 0.05, factor=4.0),
        BurnWindow(long_s=span_s * 0.50, short_s=span_s * 0.10, factor=2.0),
    )


def _window_bad_fraction(
    times: Sequence[float],
    good: Sequence[float],
    total: Sequence[float],
    index: int,
    window_s: float,
) -> float:
    """Bad fraction of the events that completed in ``(t - window, t]``.

    The series are cumulative counters, so the window's event counts are
    differences against the last sample at or before the window start.
    """
    start = times[index] - window_s
    j = bisect_left(times, start)
    good_base = good[j - 1] if j > 0 else 0.0
    total_base = total[j - 1] if j > 0 else 0.0
    delta_total = total[index] - total_base
    if delta_total <= 0:
        return 0.0
    delta_good = good[index] - good_base
    return (delta_total - delta_good) / delta_total


def evaluate_slo(metrics: "MetricsReport", slo: SLO) -> SLOResult:
    """Evaluate one SLO over a run's sampled series."""
    good_series = metrics.series.get(slo.good_series)
    total_series = metrics.series.get(slo.total_series)
    times = metrics.times
    if good_series is None or total_series is None or not times:
        return SLOResult(slo=slo, missing=True)
    good, total = good_series[-1], total_series[-1]
    compliance = (good / total) if total > 0 else 1.0
    breached = total > 0 and compliance < slo.objective
    budget = max(1.0 - slo.objective, MIN_ERROR_BUDGET)
    span = (times[-1] - times[0]) + metrics.interval
    windows = slo.windows or default_windows(span)
    alerts = []
    for window in windows:
        first_at = None
        alerting = 0
        peak = 0.0
        for index in range(len(times)):
            burn_long = (
                _window_bad_fraction(times, good_series, total_series, index, window.long_s)
                / budget
            )
            if burn_long < window.factor:
                continue
            burn_short = (
                _window_bad_fraction(times, good_series, total_series, index, window.short_s)
                / budget
            )
            if burn_short < window.factor:
                continue
            if first_at is None:
                first_at = times[index]
            alerting += 1
            peak = max(peak, burn_long)
        if first_at is not None:
            alerts.append(
                SLOAlert(
                    long_s=window.long_s,
                    short_s=window.short_s,
                    factor=window.factor,
                    first_at=first_at,
                    samples=alerting,
                    peak_burn=peak,
                )
            )
    return SLOResult(
        slo=slo,
        good=good,
        total=total,
        compliance=compliance,
        breached=breached,
        alerts=tuple(alerts),
    )


def evaluate_slos(
    metrics: "MetricsReport | None", slos: Sequence[SLO]
) -> list[SLOResult]:
    """Evaluate every declared SLO; tolerant of missing metrics/series."""
    if metrics is None:
        return [SLOResult(slo=slo, missing=True) for slo in slos]
    return [evaluate_slo(metrics, slo) for slo in slos]


def format_results(results: Sequence[SLOResult]) -> str:
    """Human-readable SLO verdicts (the CLI's default output)."""
    if not results:
        return "no SLOs declared"
    lines = []
    for result in results:
        if result.missing:
            lines.append(f"{result.name}: no data (metrics missing this SLO's series)")
            continue
        verdict = "BREACHED" if result.breached else "ok"
        lines.append(
            f"{result.name}: {verdict} — compliance {result.compliance:.6f} "
            f"(objective {result.slo.objective}, good {result.good:.0f} / "
            f"total {result.total:.0f})"
        )
        for alert in result.alerts:
            lines.append(
                f"  burn alert: {alert.factor}x over "
                f"{alert.long_s * 1e3:.1f}ms/{alert.short_s * 1e3:.1f}ms windows "
                f"from t={alert.first_at:.3f}s "
                f"({alert.samples} samples, peak {alert.peak_burn:.1f}x)"
            )
    return "\n".join(lines)


__all__ = [
    "SLO",
    "BurnWindow",
    "SLO_RECORDS",
    "SLOAlert",
    "SLOResult",
    "latency_slo",
    "availability_slo",
    "recency_slo",
    "register_slo_gauges",
    "evaluate_slo",
    "evaluate_slos",
    "default_windows",
    "format_results",
]
