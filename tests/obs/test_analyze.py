"""Trace-analytics acceptance tests: exact attribution, loaders, run-diff.

The ISSUE-level contract: on the 4-server × 256-client crash + partition
+ rolling-upgrade drill with observability armed, every call's attribution
components sum **exactly** (zero simulated-time residual) to its measured
RTT, and the resulting :class:`~repro.obs.analyze.LatencyProfile` and SLO
results are byte-deterministic run-to-run.  A Hypothesis property pushes
the same invariant across random fault/retry schedules, and the loader
tests prove every span source the repo produces — a live
:class:`Observability`, span JSONL exports, ``repro-trace/1`` recordings
and flight-recorder dumps — attributes to the identical profile.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.presets import fault_drill_scenario
from repro.cluster.scenario import Scenario, edit, op
from repro.core.sde import SDEConfig
from repro.evolve import rolling, upgrade
from repro.faults import RetryPolicy, crash, heal, partition, restart
from repro.net.latency import CostModel
from repro.obs import ObsConfig, Observability
from repro.obs.analyze import (
    ALL_COMPONENTS,
    RTT_COMPONENTS,
    attribute_calls,
    build_profile,
    diff_profiles,
    dominant_component,
    load_spans,
)
from repro.obs.analyze import main as analyze_main
from repro.obs.slo import availability_slo, latency_slo, recency_slo
from repro.rmitypes import STRING
from repro.traffic import record
from repro.traffic.trace import echo_body

ECHO = op("echo", (("message", STRING),), STRING, body=echo_body)
ECHO_V2 = op("echo_v2", (("message", STRING),), STRING, body=echo_body)
BREAKING = upgrade(add=[ECHO_V2], remove=["echo"], successors={"echo": "echo_v2"})


def _drill(name: str = "analyze-drill") -> Scenario:
    """The small fault drill from the obs suite: crash + partition + rolling
    upgrade, every retry path exercised.  Every operation body is a
    registered trace body, so the drill is recordable (the loader-parity
    test replays it through the ``repro-trace/1`` channel)."""
    echo_loud = op("echo_loud", (("message", STRING),), STRING, body=echo_body)
    return (
        Scenario(name=name, sde_config=SDEConfig(generation_cost=0.02))
        .servers(2)
        .service("Echo", [ECHO], replicas=2)
        .clients(
            8,
            service="Echo",
            calls=6,
            arguments=("hi",),
            think_time=0.01,
            arrival=0.001,
            retry=RetryPolicy(max_attempts=4, timeout=0.08, backoff=0.005),
        )
        .at(0.02, crash("server-1"))
        .at(0.03, partition("server-2"))
        .at(0.04, rolling("Echo", upgrade(add=[echo_loud]), batch_size=1, drain=0.01))
        .at(0.07, heal("server-2"))
        .at(0.08, restart("server-1"))
    )


def _stall_drill() -> Scenario:
    """Deliberate §5.7 stall pressure: stale probes against a just-edited
    interface force stall-queue waits equal to the generation cost."""
    return (
        Scenario(name="analyze-stall", sde_config=SDEConfig(generation_cost=0.05))
        .servers(2)
        .service("Echo", [ECHO], replicas=2)
        .clients(
            6,
            service="Echo",
            calls=6,
            arguments=("hi",),
            think_time=0.01,
            arrival=0.002,
            stale_every=3,
            retry=RetryPolicy(max_attempts=4, timeout=0.2, backoff=0.005),
        )
        .at(0.015, edit("Echo", op("added_mid_run")))
    )


def _rebind_drill() -> Scenario:
    """A rolling *breaking* upgrade: stale fault + rebind on every crossing
    client (the §5.7 contract), so rebind spans appear."""
    return (
        Scenario(name="analyze-rebind", sde_config=SDEConfig(generation_cost=0.02))
        .servers(2)
        .service("Echo", [ECHO], replicas=2)
        .clients(
            8,
            service="Echo",
            calls=8,
            arguments=("hi",),
            think_time=0.02,
            arrival=0.001,
        )
        .at(0.03, rolling("Echo", BREAKING, batch_size=1, drain=0.03))
    )


def _acceptance_scenario() -> Scenario:
    """The ISSUE acceptance workload: the historical 4×256 fault drill plus
    a rolling breaking upgrade, with declared SLOs."""
    return (
        fault_drill_scenario()
        .at(0.080, rolling("EchoSoap", BREAKING, batch_size=1, drain=0.005))
        .slo(
            latency_slo("fleet-latency", threshold_s=0.08, objective=0.5),
            availability_slo("fleet-availability", objective=0.999),
            recency_slo("fleet-recency"),
        )
    )


class TestExactAttribution:
    def test_every_drill_call_attributed_with_zero_residual(self):
        obs = Observability()
        report = _drill().run(obs=obs)
        profile = obs.profile()
        assert profile.call_count == report.outcomes("discrete").calls == 48
        assert profile.dropped == 0
        assert profile.max_residual_ns == 0
        for attribution in profile.attributions:
            assert attribution.residual_ns == 0
            assert (
                sum(attribution.components[name] for name in RTT_COMPONENTS)
                == attribution.rtt_ns
            )
            assert all(attribution.components[n] >= 0 for n in RTT_COMPONENTS)
            assert attribution.client and attribution.service == "Echo"
            assert attribution.outcome

    def test_network_dominates_an_unfaulted_run(self):
        scenario = (
            Scenario(name="analyze-clean", sde_config=SDEConfig(generation_cost=0.02))
            .servers(2)
            .service("Echo", [ECHO], replicas=2)
            .clients(4, service="Echo", calls=4, arguments=("hi",), think_time=0.01)
        )
        obs = Observability()
        scenario.run(obs=obs)
        profile = obs.profile()
        assert profile.max_residual_ns == 0
        assert profile.overall["network"]["total_s"] > 0
        assert profile.overall["backoff"]["total_s"] == 0
        assert profile.overall["stall"]["total_s"] == 0

    def test_stall_time_attributed_to_the_stall_component(self):
        obs = Observability()
        report = _stall_drill().run(obs=obs)
        assert report.outcomes("discrete").stale_faults > 0
        profile = obs.profile()
        assert profile.max_residual_ns == 0
        # The stalled probes waited out the 50ms generation; that wait must
        # land in `stall`, not be smeared into network time.
        assert profile.overall["stall"]["total_s"] > 0
        assert profile.overall["stall"]["max_s"] == pytest.approx(0.05, abs=0.01)

    def test_core_wait_and_cpu_attributed_with_bounded_cores(self):
        scenario = fault_drill_scenario(
            clients=16, servers=2, cores=1, cost_model=CostModel()
        )
        obs = Observability()
        scenario.run(obs=obs)
        profile = obs.profile()
        assert profile.max_residual_ns == 0
        # A modeled cost with one core per node: CPU service time appears,
        # and contention queues behind the busy core.
        assert profile.overall["cpu"]["total_s"] > 0
        assert profile.overall["core_wait"]["total_s"] > 0

    def test_backoff_counts_retry_gaps(self):
        obs = Observability()
        report = _drill().run(obs=obs)
        assert report.outcomes("all").retried_calls > 0
        profile = obs.profile()
        retried = [a for a in profile.attributions if a.attempts > 1]
        assert retried
        assert sum(a.components["backoff"] for a in retried) > 0

    def test_rebind_time_tracked_per_call_but_outside_the_rtt_sum(self):
        obs = Observability()
        report = _rebind_drill().run(obs=obs)
        assert report.outcomes("all").rebinds > 0
        profile = obs.profile()
        assert profile.max_residual_ns == 0
        rebound = [a for a in profile.attributions if a.rebind_ns > 0]
        assert rebound
        # The refetch happened after the call span closed: rebind time must
        # not inflate the RTT components.
        for attribution in rebound:
            assert (
                sum(attribution.components[name] for name in RTT_COMPONENTS)
                == attribution.rtt_ns
            )
        assert profile.overall["rebind"]["total_s"] > 0

    def test_degrades_gracefully_without_server_spans(self):
        obs = Observability()
        _drill().run(obs=obs)
        stripped = [s for s in load_spans(obs) if s["kind"] != "server"]
        attributions, dropped = attribute_calls(stripped)
        assert attributions and dropped == 0
        for attribution in attributions:
            assert attribution.residual_ns == 0
            # With no server span the whole attempt folds into transit time.
            assert attribution.components["stall"] == 0
            assert attribution.components["core_wait"] == 0
            assert attribution.components["cpu"] == 0

    def test_tail_view_ranks_component_growth(self):
        obs = Observability()
        _drill().run(obs=obs)
        tail = obs.profile().tail
        assert tail["tail_calls"] >= 1 and tail["median_calls"] >= 1
        assert [row["component"] for row in tail["ranked"]] != []
        growths = [row["growth_s"] for row in tail["ranked"]]
        assert growths == sorted(growths, reverse=True)
        # The faulted drill's slowest decile lost its time to retries.
        assert tail["ranked"][0]["growth_s"] > 0


class TestLoaderParity:
    def test_every_span_source_attributes_identically(self, tmp_path):
        obs = Observability(ObsConfig(dump_dir=tmp_path))
        _drill().run(obs=obs)
        jsonl = obs.export_jsonl(tmp_path / "spans.jsonl")
        dump = obs.recorder.trip("loader-parity")
        dump_path = Path(dump["path"])
        _report, reader = record(_drill(), tmp_path / "trace.jsonl", obs=True)

        reference = build_profile(obs)
        assert reference.call_count == 48
        sources = [jsonl, dump_path, tmp_path / "trace.jsonl", reader.spans]
        for source in sources:
            profile = build_profile(source)
            assert profile.fingerprint() == reference.fingerprint()

    def test_non_span_file_is_rejected(self, tmp_path):
        path = tmp_path / "not-spans.json"
        path.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(ValueError):
            load_spans(path)


class TestAcceptanceDrill:
    """ISSUE acceptance: the 4×256 crash + partition + rolling-upgrade
    drill, exact per-call attribution, byte-deterministic outputs."""

    def _run(self):
        obs = Observability(ObsConfig(ring_capacity=32768))
        report = _acceptance_scenario().run(obs=obs)
        return obs, report

    def test_exact_attribution_and_byte_determinism(self):
        obs_one, report_one = self._run()
        obs_two, report_two = self._run()

        profile = obs_one.profile()
        report_one_outcomes = report_one.outcomes("all")
        assert report_one_outcomes.calls == 1024
        assert profile.call_count == 1024
        assert profile.dropped == 0
        # Every call's components sum exactly to its measured RTT.
        assert profile.max_residual_ns == 0
        assert all(a.residual_ns == 0 for a in profile.attributions)
        # Both wire protocols and both services are represented.
        assert set(profile.by_protocol) == {"corba", "soap"}
        assert set(profile.by_service) == {"EchoCorba", "EchoSoap"}
        # The breaking rolling upgrade drove §5.7 stale faults + rebinds.
        assert report_one_outcomes.rebinds > 0
        assert sum(a.rebind_ns for a in profile.attributions) > 0

        # Byte-determinism: profile, SLO results and metrics fingerprints.
        assert profile.fingerprint() == obs_two.profile().fingerprint()
        assert [r.to_dict() for r in report_one.slo_results] == [
            r.to_dict() for r in report_two.slo_results
        ]
        assert report_one.metrics.fingerprint() == report_two.metrics.fingerprint()

        assert {r.name for r in report_one.slo_results} == {
            "fleet-availability",
            "fleet-latency",
            "fleet-recency",
        }
        assert report_one.slo("fleet-recency").ok
        assert report_one.slo("fleet-availability").ok


class TestAttributionProperty:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        clients=st.integers(min_value=1, max_value=3),
        calls=st.integers(min_value=1, max_value=3),
        crash_at=st.sampled_from([0.01, 0.02, 0.04]),
        partition_too=st.booleans(),
        timeout=st.sampled_from([0.03, 0.08]),
        backoff=st.sampled_from([0.0, 0.005]),
        generation_cost=st.sampled_from([0.0, 0.02]),
        stale_every=st.sampled_from([None, 2]),
        cores=st.sampled_from([None, 1]),
    )
    def test_components_always_sum_exactly(
        self,
        clients,
        calls,
        crash_at,
        partition_too,
        timeout,
        backoff,
        generation_cost,
        stale_every,
        cores,
    ):
        scenario = (
            Scenario(
                name="analyze-prop",
                sde_config=SDEConfig(
                    generation_cost=generation_cost, server_cores=cores
                ),
            )
            .servers(2)
            .service("Echo", [ECHO], replicas=2)
            .clients(
                clients,
                service="Echo",
                calls=calls,
                arguments=("hi",),
                think_time=0.005,
                arrival=0.001,
                stale_every=stale_every,
                retry=RetryPolicy(max_attempts=3, timeout=timeout, backoff=backoff),
            )
            .at(crash_at, crash("server-1"))
            .at(0.05, edit("Echo", op("added_mid_run")))
            .at(crash_at + 0.05, restart("server-1"))
        )
        if partition_too:
            scenario = scenario.at(0.03, partition("server-2")).at(
                0.06, heal("server-2")
            )
        obs = Observability()
        scenario.run(obs=obs)
        attributions, dropped = attribute_calls(obs)
        assert dropped == 0
        for attribution in attributions:
            assert attribution.residual_ns == 0
            assert (
                sum(attribution.components[name] for name in RTT_COMPONENTS)
                == attribution.rtt_ns
            )
            for name in ("stall", "core_wait", "cpu", "backoff"):
                assert attribution.components[name] >= 0


class TestDiffAndDominant:
    def test_identical_runs_diff_to_no_regression(self):
        first, second = Observability(), Observability()
        _drill().run(obs=first)
        _drill().run(obs=second)
        diff = diff_profiles(first, second)
        assert diff.dominant is None
        assert all(
            row["delta_mean_s"] == 0.0 for row in diff.components.values()
        )

    def test_dominant_component_names_the_largest_regression(self):
        before = {name: 0.001 for name in ALL_COMPONENTS}
        now = dict(before, stall=0.004, network=0.002)
        assert dominant_component(before, now) == ("stall", 0.001, 0.004)
        # Nothing regressed -> None; missing blobs -> None.
        assert dominant_component(now, before) is None
        assert dominant_component(None, now) is None
        assert dominant_component(before, None) is None
        # Ties break on the lexicographically first component name.
        tied = dict(before, cpu=0.002, network=0.002)
        assert dominant_component(before, tied)[0] == "cpu"


class TestAnalyzeCLI:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        obs = Observability()
        scenario = _drill().slo(
            latency_slo("cli-latency", threshold_s=0.01, objective=0.99),
            recency_slo("cli-recency"),
        )
        report = scenario.run(obs=obs)
        jsonl = obs.export_jsonl(tmp_path / "spans.jsonl")
        metrics = obs.export_metrics(tmp_path / "metrics.json")
        return obs, report, jsonl, metrics, tmp_path

    def test_profile_subcommand(self, artifacts, capsys):
        obs, _report, jsonl, _metrics, tmp_path = artifacts
        out_json = tmp_path / "profile.json"
        assert analyze_main(["profile", str(jsonl), "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "calls attributed: 48" in out
        assert "max residual 0 ns" in out
        payload = json.loads(out_json.read_text())
        assert payload == obs.profile().to_dict()

    def test_diff_subcommand(self, artifacts, capsys):
        _obs, _report, jsonl, _metrics, tmp_path = artifacts
        out_json = tmp_path / "diff.json"
        code = analyze_main(
            ["diff", str(jsonl), str(jsonl), "--json", str(out_json)]
        )
        assert code == 0
        assert "no component regressed" in capsys.readouterr().out
        assert json.loads(out_json.read_text())["dominant_component"] is None
        # argparse rejects anything but exactly two sources.
        with pytest.raises(SystemExit):
            analyze_main(["diff", str(jsonl)])

    def test_slo_subcommand_reevaluates_offline(self, artifacts, capsys):
        _obs, report, _jsonl, metrics, tmp_path = artifacts
        out_json = tmp_path / "slo.json"
        assert analyze_main(["slo", str(metrics), "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "cli-latency" in out and "cli-recency" in out
        # The offline verdicts are byte-identical to the in-run ones.
        assert json.loads(out_json.read_text()) == [
            result.to_dict() for result in report.slo_results
        ]

    def test_slo_check_exit_codes(self, artifacts, tmp_path):
        _obs, report, _jsonl, metrics, _tmp = artifacts
        # The 10ms objective is deliberately unmeetable in the fault drill.
        assert report.slo("cli-latency").breached
        assert analyze_main(["slo", str(metrics), "--check"]) == 1
        # A metrics export without embedded SLOs: nothing to check.
        bare = Observability()
        _drill().run(obs=bare)
        bare_path = bare.export_metrics(tmp_path / "bare-metrics.json")
        assert analyze_main(["slo", str(bare_path)]) == 0
        assert analyze_main(["slo", str(bare_path), "--check"]) == 2
