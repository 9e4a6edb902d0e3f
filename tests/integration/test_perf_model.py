"""Integration tests for the performance model.

Covers the observable guarantees of the bounded server-CPU model:

* with ``server_cores=1`` the steady-state mean RTT grows monotonically
  with fleet size (the ROADMAP contention item), while the determinism
  contract (same spec → identical per-call RTTs at 32+ clients) holds.
"""

from __future__ import annotations

import pytest

from repro.experiments.multi_client import run_multi_client
from repro.net.latency import era_2004_cost_model


class TestServerContention:
    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_single_core_rtt_grows_with_fleet_size(self, technology):
        results = [
            run_multi_client(
                technology,
                clients,
                calls_per_client=3,
                cost_model=era_2004_cost_model(),
                server_cores=1,
            )
            for clients in (1, 4, 8, 16)
        ]
        rtts = [result.mean_rtt for result in results]
        assert all(a < b for a, b in zip(rtts, rtts[1:])), rtts
        # Larger fleets really queued for the one core.
        assert all(result.server_cores == 1 for result in results)
        assert results[-1].server_waited_seconds > results[0].server_waited_seconds

    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_unbounded_cores_keep_rtt_flat(self, technology):
        """Without the knob the seed behaviour is unchanged: processing in
        parallel, RTT essentially independent of fleet size."""
        small = run_multi_client(
            technology, 2, calls_per_client=3, cost_model=era_2004_cost_model()
        )
        large = run_multi_client(
            technology, 16, calls_per_client=3, cost_model=era_2004_cost_model()
        )
        assert large.mean_rtt == pytest.approx(small.mean_rtt, rel=0.15)
        assert small.server_cores is None

    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_contended_32_clients_deterministic(self, technology):
        kwargs = {
            "calls_per_client": 3,
            "cost_model": era_2004_cost_model(),
            "server_cores": 1,
        }
        first = run_multi_client(technology, 32, **kwargs)
        second = run_multi_client(technology, 32, **kwargs)
        assert first.report.all_rtts == second.report.all_rtts
        assert first.report.duration == second.report.duration

    def test_more_cores_reduce_queueing(self):
        one = run_multi_client(
            "soap", 8, calls_per_client=3,
            cost_model=era_2004_cost_model(), server_cores=1,
        )
        four = run_multi_client(
            "soap", 8, calls_per_client=3,
            cost_model=era_2004_cost_model(), server_cores=4,
        )
        assert four.mean_rtt < one.mean_rtt
        assert four.server_waited_seconds < one.server_waited_seconds
