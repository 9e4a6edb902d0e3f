"""SLO engine tests: declarations, burn-rate math, scenario wiring, export.

The burn-rate arithmetic is pinned against hand-built cumulative series
(the gauges are cumulative good/total counters, so window fractions are
differences against the sample at the window start), and the scenario
integration proves the declarative path: ``Scenario.slo(...)`` →
sampler gauges → ``ClusterReport.slo_results`` → offline re-evaluation
from the exported metrics JSON, byte-identical at every step.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cluster import CohortModel
from repro.cluster.presets import fault_drill_scenario
from repro.errors import ReproError
from repro.obs import ObsConfig, Observability
from repro.obs.metrics import MetricsReport
from repro.obs.slo import (
    SLO,
    BurnWindow,
    availability_slo,
    default_windows,
    evaluate_slo,
    evaluate_slos,
    format_results,
    latency_slo,
    recency_slo,
)


def _report(times, good, total, name="x", interval=0.01) -> MetricsReport:
    return MetricsReport(
        interval=interval,
        times=tuple(times),
        series={
            f"slo.{name}.good": tuple(good),
            f"slo.{name}.total": tuple(total),
        },
    )


class TestDeclarations:
    def test_builders_set_kind_and_series_names(self):
        slo = latency_slo("p99", threshold_s=0.04)
        assert slo.kind == "latency" and slo.objective == 0.99
        assert slo.good_series == "slo.p99.good"
        assert slo.total_series == "slo.p99.total"
        assert availability_slo("avail").kind == "availability"
        recency = recency_slo("fresh")
        assert recency.kind == "recency" and recency.objective == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            SLO(name="bad", kind="throughput", objective=0.99)

    def test_objective_must_be_a_fraction(self):
        for objective in (0.0, -0.1, 1.5):
            with pytest.raises(ReproError):
                availability_slo("bad", objective=objective)

    def test_latency_needs_a_threshold(self):
        with pytest.raises(ReproError):
            SLO(name="bad", kind="latency", objective=0.99)

    def test_dict_round_trip_preserves_windows(self):
        slo = latency_slo(
            "p95",
            threshold_s=0.02,
            objective=0.95,
            service="Echo",
            windows=[BurnWindow(long_s=0.1, short_s=0.01, factor=4.0)],
        )
        assert SLO.from_dict(slo.to_dict()) == slo


class TestDefaultWindows:
    def test_deterministic_span_fractions(self):
        assert default_windows(1.0) == (
            BurnWindow(long_s=0.25, short_s=0.05, factor=4.0),
            BurnWindow(long_s=0.50, short_s=0.10, factor=2.0),
        )

    def test_empty_span_has_no_windows(self):
        assert default_windows(0.0) == ()
        assert default_windows(-1.0) == ()


class TestEvaluation:
    def test_end_of_run_compliance_and_breach(self):
        slo = availability_slo("x", objective=0.95)
        metrics = _report([0.0, 0.01], good=[50, 90], total=[50, 100])
        result = evaluate_slo(metrics, slo)
        assert result.good == 90 and result.total == 100
        assert result.compliance == pytest.approx(0.9)
        assert result.breached and not result.ok

    def test_zero_traffic_is_compliant(self):
        slo = availability_slo("x", objective=0.999)
        result = evaluate_slo(_report([0.0, 0.01], [0, 0], [0, 0]), slo)
        assert result.compliance == 1.0
        assert not result.breached and not result.alerts

    def test_missing_series_flagged_not_crashed(self):
        slo = availability_slo("elsewhere")
        result = evaluate_slo(_report([0.0], [1], [1], name="x"), slo)
        assert result.missing and not result.breached
        assert "no data" in format_results([result])

    def test_no_metrics_at_all(self):
        slos = [availability_slo("a"), recency_slo("b")]
        results = evaluate_slos(None, slos)
        assert [r.missing for r in results] == [True, True]

    def test_burn_alert_fires_on_a_sustained_bad_burst(self):
        # 10 events per sample; everything good until t=0.05, then every
        # event bad: the bad fraction saturates both windows.
        times = [round(i * 0.01, 2) for i in range(10)]
        total = [10 * (i + 1) for i in range(10)]
        good = [min(t, 50) for t in total]
        slo = availability_slo(
            "x",
            objective=0.9,
            windows=[BurnWindow(long_s=0.05, short_s=0.01, factor=2.0)],
        )
        result = evaluate_slo(_report(times, good, total), slo)
        assert result.breached
        (alert,) = result.alerts
        assert alert.factor == 2.0
        # t=0.05 is the first bad sample but the long window's burn is
        # still diluted by the good prefix; one sample later both windows
        # burn past the factor.
        assert alert.first_at == pytest.approx(0.06)
        assert alert.samples > 0
        assert alert.peak_burn >= 2.0
        assert math.isfinite(alert.peak_burn)

    def test_no_alert_when_the_budget_is_unburned(self):
        times = [round(i * 0.01, 2) for i in range(10)]
        total = [10 * (i + 1) for i in range(10)]
        slo = availability_slo(
            "x",
            objective=0.9,
            windows=[BurnWindow(long_s=0.05, short_s=0.01, factor=1.0)],
        )
        result = evaluate_slo(_report(times, total, total), slo)
        assert not result.breached and not result.alerts

    def test_perfection_objective_burns_huge_but_finite(self):
        # objective == 1.0 has zero budget: the floor keeps the burn rate
        # enormous yet finite, so the result stays JSON-serialisable.
        slo = recency_slo(
            "x", windows=[BurnWindow(long_s=0.02, short_s=0.01, factor=2.0)]
        )
        metrics = _report([0.0, 0.01], good=[10, 19], total=[10, 20])
        result = evaluate_slo(metrics, slo)
        assert result.breached
        (alert,) = result.alerts
        assert alert.peak_burn > 1e6
        assert math.isfinite(alert.peak_burn)
        json.dumps(result.to_dict())


class TestScenarioIntegration:
    def _scenario(self):
        return fault_drill_scenario(clients=8, servers=2).slo(
            latency_slo("fleet-latency", threshold_s=0.08, objective=0.5),
            availability_slo("fleet-availability", objective=0.999),
            recency_slo("fleet-recency"),
            availability_slo("soap-availability", service="EchoSoap"),
        )

    def test_declared_slos_land_on_the_report(self):
        report = self._scenario().run(obs=True)
        assert {r.name for r in report.slo_results} == {
            "fleet-availability",
            "fleet-latency",
            "fleet-recency",
            "soap-availability",
        }
        availability = report.slo("fleet-availability")
        assert not availability.missing
        assert availability.total == report.outcomes("discrete").calls
        assert report.slo("fleet-recency").ok
        with pytest.raises(KeyError):
            report.slo("undeclared")

    def test_recency_counts_cohort_flows_with_the_clients(self):
        """A recency SLO's good and total read one population: every
        matching discrete and modeled call.  The horizon runs past the last
        reply, so the final sample has seen every call."""
        report = (
            fault_drill_scenario(512, cohort=CohortModel(representatives=32))
            .slo(recency_slo("fleet-recency"))
            .run(until=1.0, obs=True)
        )
        outcomes = report.outcomes("all")
        assert report.outcomes("modeled").calls > 0
        recency = report.slo("fleet-recency")
        assert recency.total == outcomes.calls
        assert recency.good == outcomes.calls - outcomes.recency_violations

    def test_service_filter_counts_one_service_only(self):
        report = self._scenario().run(obs=True)
        scoped = report.slo("soap-availability")
        fleet = report.slo("fleet-availability")
        # Half the mixed fleet speaks SOAP: the scoped gauge saw only them.
        assert 0 < scoped.total < fleet.total
        assert scoped.total == sum(
            c.calls for c in report.clients if c.name.startswith("soap")
        ) or scoped.total == fleet.total / 2

    def test_results_are_deterministic_run_to_run(self):
        first = self._scenario().run(obs=True)
        second = self._scenario().run(obs=True)
        assert [r.to_dict() for r in first.slo_results] == [
            r.to_dict() for r in second.slo_results
        ]

    def test_explicit_obs_config_slos_win_over_the_scenario(self):
        obs = Observability(ObsConfig(slos=(availability_slo("explicit"),)))
        report = self._scenario().run(obs=obs)
        assert [r.name for r in report.slo_results] == ["explicit"]

    def test_plain_observability_inherits_scenario_slos(self):
        obs = Observability()
        report = self._scenario().run(obs=obs)
        assert "fleet-recency" in {r.name for r in report.slo_results}

    def test_metrics_disabled_yields_missing_results(self):
        obs = Observability(ObsConfig(metrics=False, slos=(recency_slo("r"),)))
        report = fault_drill_scenario(clients=8, servers=2).run(obs=obs)
        assert report.metrics is None
        (result,) = report.slo_results
        assert result.missing

    def test_no_slos_means_no_results(self):
        report = fault_drill_scenario(clients=8, servers=2).run(obs=True)
        assert report.slo_results == []

    def test_export_embeds_declarations_for_offline_replay(self, tmp_path):
        obs = Observability()
        report = self._scenario().run(obs=obs)
        path = obs.export_metrics(tmp_path / "metrics.json")
        payload = json.loads(path.read_text())
        slos = [SLO.from_dict(spec) for spec in payload["slos"]]
        assert {slo.name for slo in slos} == {r.name for r in report.slo_results}
        rebuilt = MetricsReport(
            interval=payload["interval"],
            times=tuple(payload["times"]),
            series={k: tuple(v) for k, v in payload["series"].items()},
        )
        offline = evaluate_slos(rebuilt, slos)
        assert [r.to_dict() for r in offline] == [
            r.to_dict() for r in report.slo_results
        ]
