"""Regression tests for the report helpers on empty / degenerate samples.

A scenario can legitimately complete zero calls — a deadline cuts the run
before the first reply lands, or every call is abandoned mid-fault-drill.
Every RTT helper must report cleanly (zeros) instead of raising.
"""

from __future__ import annotations

import pytest

from repro import STRING, Scenario, op
from repro.cluster.report import (
    OUTCOME_FIELDS,
    ClientReport,
    ClusterReport,
    CohortReport,
    Outcomes,
    percentile,
    rtt_percentiles,
)
from repro.core.sde import SDEConfig


class TestPercentileHelpers:
    def test_percentile_of_empty_sample_is_zero(self):
        for level in (50.0, 95.0, 99.0):
            assert percentile([], level) == 0.0

    def test_percentile_of_singleton_and_interpolation(self):
        assert percentile([4.2], 99.0) == 4.2
        assert percentile([1.0, 2.0], 50.0) == pytest.approx(1.5)

    def test_percentile_accepts_any_sequence(self):
        assert percentile((3.0, 1.0, 2.0), 50.0) == 2.0

    def test_rtt_percentiles_of_empty_sample(self):
        assert rtt_percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestEmptyReports:
    def test_empty_cluster_report_aggregates_cleanly(self):
        report = ClusterReport(started_at=0.0, finished_at=0.0)
        assert report.mean_rtt == 0.0
        assert report.max_rtt == 0.0
        assert report.throughput == 0.0
        assert report.rtt_percentiles == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert report.outcomes("discrete").calls == 0

    def test_client_report_without_calls(self):
        client = ClientReport(name="idle")
        assert client.calls == 0
        assert client.mean_rtt == 0.0
        assert client.max_rtt == 0.0

    def test_scenario_with_zero_completed_calls_reports_cleanly(self):
        """The regression scenario: a deadline cuts the run before any reply."""
        echo = op("echo", (("m", STRING),), STRING, body=lambda _self, m: m)
        report = (
            Scenario(name="zero-calls", sde_config=SDEConfig(generation_cost=0.02))
            .servers(1)
            .service("Echo", [echo])
            .clients(2, service="Echo", calls=3, arguments=("hi",), arrival=1.0)
            .run(until=0.0001)
        )
        assert report.outcomes("discrete").calls == 0
        assert report.all_rtts == []
        # Every aggregate and percentile helper stays well-defined.
        assert report.mean_rtt == 0.0
        assert report.max_rtt == 0.0
        assert report.rtt_percentiles == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert report.service("Echo").calls_by_version == {}
        assert report.throughput == 0.0


class TestOutcomes:
    def test_reports_take_every_counter_from_outcomes(self):
        for report_class in (ClientReport, CohortReport):
            assert issubclass(report_class, Outcomes)
            assert not set(report_class.__annotations__) & set(OUTCOME_FIELDS)

    def test_derived_counts(self):
        outcomes = Outcomes(
            successes=5, stale_faults=2, not_initialized_faults=1, other_faults=3,
            abandoned_calls=4,
        )
        assert outcomes.answered == 8
        assert outcomes.calls == 11
        assert outcomes.issued == 15

    def test_sums_fieldwise(self):
        first = Outcomes(**{name: index + 1 for index, name in enumerate(OUTCOME_FIELDS)})
        second = Outcomes(**{name: 10 for name in OUTCOME_FIELDS})
        assert first + second == Outcomes(
            **{name: index + 11 for index, name in enumerate(OUTCOME_FIELDS)}
        )
        assert Outcomes.total([first, second, first]) == first + second + first
        assert Outcomes.total([]) == Outcomes()

    def test_populations(self):
        client = ClientReport("c", successes=3, stale_faults=1, rebinds=1)
        cohort = CohortReport(
            name="f", protocol="soap", service="S", modeled_clients=8, successes=16,
            abandoned_calls=2,
        )
        report = ClusterReport(0.0, 1.0, clients=[client], cohorts=[cohort])
        assert report.outcomes("discrete") == Outcomes(successes=3, stale_faults=1, rebinds=1)
        assert report.outcomes("modeled") == Outcomes(successes=16, abandoned_calls=2)
        assert report.outcomes("all") == report.outcomes("discrete") + report.outcomes("modeled")
        assert report.outcomes("all").issued == 22
        with pytest.raises(ValueError, match="unknown population"):
            report.outcomes("cohorts")
