"""Integration tests for the Figure 7/8 analyses and the experiment drivers."""

import pytest

from repro.core.protocol import (
    ActivePublishingExperiment,
    ReactivePublishingExperiment,
    run_figure7_matrix,
    run_figure8_matrix,
)
from repro.experiments import (
    PAPER_TABLE1_RTT,
    run_encoding_comparison,
    run_interface_generation_sweep,
    run_publication_strategy_comparison,
    run_stale_flood,
)
from repro.experiments.table1 import run_sde_soap, run_static_soap, run_table1


class TestFigure7:
    def test_only_three_combinations_consistent(self):
        results = run_figure7_matrix()
        assert len(results) == 9
        consistent = {result.label for result in results if result.consistent}
        assert consistent == {"(1, i)", "(1, ii)", "(2, ii)"}

    def test_every_result_has_explanation(self):
        assert all(result.detail for result in run_figure7_matrix())

    def test_unknown_combination_rejected(self):
        with pytest.raises(ValueError):
            ActivePublishingExperiment().run_single("4", "i")


class TestFigure8:
    def test_all_soap_interleavings_satisfy_guarantee(self):
        results = run_figure8_matrix("soap")
        assert len(results) == 16
        assert all(result.consistent for result in results)

    def test_all_corba_interleavings_satisfy_guarantee(self):
        results = run_figure8_matrix("corba")
        assert len(results) == 16
        assert all(result.consistent for result in results)

    def test_single_run_exposes_versions(self):
        record = ReactivePublishingExperiment().run_single("2", "ii")
        assert record.guarantee_satisfied
        assert record.client_version_after_call >= record.server_version_in_fault
        assert record.change_visible_to_developer


class TestTable1Experiment:
    def test_shape_matches_paper(self):
        results = {r.configuration: r.mean_rtt for r in run_table1(calls=10)}
        # CORBA beats SOAP for both static and SDE servers.
        assert results["OpenORB/OpenORB"] < results["Axis-Tomcat/Axis"]
        assert results["SDE CORBA/OpenORB"] < results["SDE SOAP/Axis"]
        # SDE adds overhead, but stays within ~25% of the static baseline.
        soap_overhead = results["SDE SOAP/Axis"] / results["Axis-Tomcat/Axis"] - 1
        corba_overhead = results["SDE CORBA/OpenORB"] / results["OpenORB/OpenORB"] - 1
        assert 0 < soap_overhead <= 0.25
        assert 0 < corba_overhead <= 0.25

    def test_absolute_values_in_paper_ballpark(self):
        """Not asserted tightly — the substrate is a simulator — but the
        calibrated model should land within 35% of each paper value."""
        for result in run_table1(calls=10):
            assert result.mean_rtt == pytest.approx(result.paper_rtt, rel=0.35)

    def test_individual_drivers_agree_with_batch(self):
        batch = {r.configuration: r.mean_rtt for r in run_table1(calls=5)}
        assert run_static_soap(calls=5).mean_rtt == pytest.approx(batch["Axis-Tomcat/Axis"], rel=0.05)
        assert run_sde_soap(calls=5).mean_rtt == pytest.approx(batch["SDE SOAP/Axis"], rel=0.05)

    def test_paper_reference_values_present(self):
        assert set(PAPER_TABLE1_RTT) == {
            "SDE SOAP/Axis",
            "Axis-Tomcat/Axis",
            "SDE CORBA/OpenORB",
            "OpenORB/OpenORB",
        }


class TestPublicationStrategyAblation:
    def test_stable_timeout_publishes_far_less_than_change_driven(self):
        results = {r.strategy: r for r in run_publication_strategy_comparison()}
        stable = results["stable-timeout"]
        change_driven = results["change-driven"]
        assert stable.publications < change_driven.publications
        assert stable.transient_publications == 0
        assert change_driven.transient_publications > 0

    def test_all_strategies_eventually_publish_final_interface(self):
        for result in run_publication_strategy_comparison():
            assert result.final_interface_published

    def test_stable_timeout_staleness_bounded_by_timeout_plus_generation(self):
        results = {r.strategy: r for r in run_publication_strategy_comparison(timeout=5.0, generation_cost=0.25)}
        assert results["stable-timeout"].staleness_after_last_edit <= 5.0 + 2 * 0.25


class TestStaleFloodAblation:
    def test_flood_triggers_at_most_one_generation(self):
        result = run_stale_flood(stale_calls=25)
        assert result.non_existent_method_faults == 25
        assert result.generations <= 1

    def test_no_generation_when_interface_already_current(self):
        result = run_stale_flood(stale_calls=10, change_interface_first=False)
        assert result.generations == 0
        assert result.non_existent_method_faults == 10

    def test_fast_flood_during_editing_stays_bounded(self):
        """Stale calls every 10 ms while the developer keeps editing."""
        result = run_stale_flood(stale_calls=40, interval=0.01, publication_timeout=2.0)
        assert result.non_existent_method_faults == 40
        assert result.generations <= 2


class TestEncodingAndGenerationSweeps:
    def test_soap_messages_larger_than_giop(self):
        for result in run_encoding_comparison():
            soap_total = result.soap_request_bytes + result.soap_response_bytes
            assert soap_total > result.giop_request_bytes + result.giop_reply_bytes

    def test_document_sizes_grow_with_interface_size(self):
        results = run_interface_generation_sweep((1, 10, 50))
        wsdl_sizes = [r.wsdl_bytes for r in results]
        idl_sizes = [r.idl_bytes for r in results]
        assert wsdl_sizes == sorted(wsdl_sizes)
        assert idl_sizes == sorted(idl_sizes)
        assert all(w > i for w, i in zip(wsdl_sizes, idl_sizes))
