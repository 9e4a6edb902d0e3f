"""Seeded scenario fuzzing: the §6 / replay invariants over random worlds.

CI runs this file with ``--hypothesis-seed=0`` (see the ``fuzz`` job): a
bounded, derandomised sweep of ~25 worlds.  A failure leaves the shrunken
case's trace at ``fuzz-artifacts/minimized-failure.jsonl`` (under the
working directory) so the red run ships a replayable reproduction.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.traffic.fuzz import (
    MINIMIZED_SPANS_NAME,
    MINIMIZED_TRACE_NAME,
    build_scenario,
    case_strategy,
    check_report,
    replay_artifact,
    run_case,
)


@given(case=case_strategy())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_worlds_hold_the_invariants(case):
    # §6 recency == 0, no silent wrong answers, call conservation, and
    # byte-identical deterministic replay — for every generated world.  A
    # failing case's trace lands in ./fuzz-artifacts (CI uploads it).
    run_case(case)


def test_violation_writes_a_replayable_artifact(tmp_path, monkeypatch):
    # Force a "violation" by tightening the invariant checker, and verify
    # the failure path serialises a trace that replays.
    case = {
        "servers": 2,
        "cores": None,
        "soap_replicas": 1,
        "corba_replicas": 1,
        "clients": 6,
        "calls": 1,
        "soap_weight": 0.5,
        "think_time": 0.0,
        "arrival": "spacing",
        "arrival_seed": 0,
        "stale_every": None,
        "max_attempts": 2,
        "cohort": False,
        "fault_crash": False,
        "fault_partition": False,
        "crash_at": 0.01,
        "partition_at": 0.01,
        "rollout": None,
        "rollout_at": 0.03,
    }
    import repro.traffic.fuzz as fuzz_module

    monkeypatch.setattr(
        fuzz_module, "check_report", lambda _case, _report: ["synthetic violation"]
    )
    with pytest.raises(AssertionError, match="synthetic violation"):
        run_case(case, artifacts=tmp_path)
    artifact = tmp_path / MINIMIZED_TRACE_NAME
    assert artifact.exists()
    report = replay_artifact(artifact)
    # The artifact is a complete, runnable reproduction of the case.
    assert sum(len(client.rtts) for client in report.clients) == 6
    # The diagnostic re-run left the causal span log beside the trace.
    spans_log = tmp_path / MINIMIZED_SPANS_NAME
    assert spans_log.exists()
    import json

    spans = [json.loads(line) for line in spans_log.read_text().splitlines()]
    assert spans and any(span["kind"] == "server" for span in spans)


def test_check_report_passes_on_a_clean_case():
    case = {
        "servers": 2,
        "cores": None,
        "soap_replicas": 2,
        "corba_replicas": 2,
        "clients": 8,
        "calls": 2,
        "soap_weight": 0.5,
        "think_time": 0.0,
        "arrival": "poisson",
        "arrival_seed": 1,
        "stale_every": 3,
        "max_attempts": 3,
        "cohort": False,
        "fault_crash": True,
        "fault_partition": False,
        "crash_at": 0.02,
        "partition_at": 0.02,
        "rollout": "rolling",
        "rollout_at": 0.05,
    }
    report = build_scenario(case).run()
    assert check_report(case, report) == []
    assert report.outcomes("all").recency_violations == 0
