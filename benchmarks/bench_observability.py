"""Observability overhead: the fault drill with and without ``obs``.

Two costs matter for :mod:`repro.obs`:

* **disabled** — every hook site must reduce to one module-attribute load
  plus an ``is not None`` test, so an unobserved drill runs at the same
  events-per-second ``bench_simcore.py`` tracks;
* **enabled** — full span collection, in-band context propagation on both
  wire formats and the metrics sampler should tax the drill by a bounded,
  tracked percentage, not a multiple.

The benchmark times the obs-off drill (the comparable, gated number) and
hand-times the identical drill with observability on, recording
``events_per_second_obs_off`` / ``events_per_second_obs_on`` and the
wall-clock ``obs_overhead_pct`` that ``run_all.py`` prints as the
observability-overhead column.  Span and sample counts are attached as
``deterministic_*`` metrics, so a hook-site change that silently doubles
span volume corroborates a wall-clock regression.

``REPRO_BENCH_QUICK=1`` (set by ``run_all.py --quick``) shrinks the fleet.

Run with:  pytest benchmarks/bench_observability.py --benchmark-only -s
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cluster.presets import (
    FAULT_DRILL_CLIENTS,
    FAULT_DRILL_CLIENTS_QUICK,
    fault_drill_scenario,
)
from repro.obs import Observability

_QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

CLIENTS = FAULT_DRILL_CLIENTS_QUICK if _QUICK else FAULT_DRILL_CLIENTS
_ROUNDS = 1 if _QUICK else 3


@pytest.mark.benchmark(group="observability")
def test_fault_drill_observability_overhead(benchmark):
    """Fault drill obs-off (benchmarked) vs obs-on (hand-timed) overhead."""

    def run_plain():
        return fault_drill_scenario(CLIENTS).run()

    plain = benchmark.pedantic(run_plain, rounds=_ROUNDS, iterations=1)
    assert plain.total_recency_violations == 0
    assert plain.metrics is None

    # Hand-time the observed runs: pytest-benchmark owns one callable per
    # test, and the overhead ratio needs both sides from the same process.
    observed_seconds = []
    observed_reports = []
    observabilities = []
    for _ in range(_ROUNDS):
        obs = Observability()
        scenario = fault_drill_scenario(CLIENTS)
        started = time.perf_counter()
        observed_reports.append(scenario.run(obs=obs))
        observed_seconds.append(time.perf_counter() - started)
        observabilities.append(obs)
    observed = observed_reports[0]
    obs = observabilities[0]

    # The observed drill really collected everything, deterministically.
    assert obs.tracer.finished_count > 0
    assert observed.metrics is not None and len(observed.metrics.times) > 0
    assert {o.tracer.finished_count for o in observabilities} == {
        obs.tracer.finished_count
    }
    assert {o.span_fingerprint() for o in observabilities} == {obs.span_fingerprint()}

    plain_mean = benchmark.stats.stats.mean
    observed_mean = sum(observed_seconds) / len(observed_seconds)
    overhead_pct = (observed_mean / plain_mean - 1.0) * 100 if plain_mean > 0 else 0.0

    benchmark.extra_info["clients"] = CLIENTS
    benchmark.extra_info["events_per_second_obs_off"] = (
        round(plain.events_dispatched / plain_mean) if plain_mean > 0 else 0
    )
    benchmark.extra_info["events_per_second_obs_on"] = (
        round(observed.events_dispatched / observed_mean) if observed_mean > 0 else 0
    )
    benchmark.extra_info["obs_overhead_pct"] = round(overhead_pct, 1)
    benchmark.extra_info["simulated_duration_s"] = round(plain.duration, 5)
    benchmark.extra_info["events_dispatched"] = plain.events_dispatched
    benchmark.extra_info["deterministic_spans_finished"] = obs.tracer.finished_count
    benchmark.extra_info["deterministic_metrics_samples"] = len(
        observed.metrics.times
    )
    benchmark.extra_info["deterministic_observed_events"] = observed.events_dispatched

    # Per-component mean simulated latency (the run-diff attribution blob):
    # run_all.py and `analyze diff --bench` use it to name the dominant
    # regressed component when this benchmark's wall clock is flagged.
    profile = obs.profile()
    benchmark.extra_info["obs_profile"] = profile.component_means()
    benchmark.extra_info["deterministic_attributed_calls"] = profile.call_count
