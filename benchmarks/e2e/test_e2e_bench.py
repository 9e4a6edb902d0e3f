"""Checks of the end-to-end benchmark itself: goldens, tracing, metric names.

One rep per workload plus one traced rep, shared by every test.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

import run
from e2e_workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def results():
    return run.run_benchmark(list(WORKLOADS.values()), seed=0, reps=1, seconds=None, trace=None)


@pytest.fixture(scope="module")
def spec():
    return json.loads(BENCHMARK_JSON.read_text())


def test_every_rep_matches_its_golden_and_passes_every_check(results):
    golden = json.loads(run.GOLDEN_PATH.read_text())["fingerprint_sha256"]
    assert set(golden) == set(WORKLOADS)
    for name, result in results.items():
        entry = result["entry"]
        assert entry["problems"] == [], name
        assert entry["failed"] == 0, name
        assert result["extra"]["fingerprint_sha256"] == golden[name]


def test_traced_run_attributes_every_layer(results):
    # The self-checks (every boundary fires, self times add up to the traced
    # wall, traced fingerprints equal the golden) land in entry["problems"].
    drill = results["drill-mixed"]["metrics"]
    cohort = results["cohort-250k"]["metrics"]
    assert drill["soap.wsdl.crossings_per_call"] > 0
    assert drill["cluster.cohort.crossings_per_call"] == 0
    assert cohort["cluster.cohort.crossings_per_call"] > 0
    for result in results.values():
        assert "trace.overhead_pct" in result["metrics"]


def test_emitted_metrics_are_exactly_those_in_benchmark_json(results, spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {metric["name"]: metric["unit"] for metric in spec[section]}
        line = run.result_line(results, trace)
        assert line["correct"] is True
        for name, metrics in line["metrics"].items():
            assert {m: value["unit"] for m, value in metrics.items()} == declared, name
    single = run.result_line({"drill-mixed": results["drill-mixed"]}, 0)
    assert set(single["metrics"]) == {metric["name"] for metric in spec["end_to_end"]}


def test_names_are_well_formed(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_a_wrong_report_fails_all_its_calls(results):
    workload = WORKLOADS["steady-bulk"]
    report = results["steady-bulk"]["entry"]["report"]
    digest = results["steady-bulk"]["extra"]["fingerprint_sha256"]
    assert run.judge(workload, report, digest)["failed"] == 0

    violated = copy.deepcopy(report)
    violated.clients[0].recency_violations = 1
    verdict = run.judge(workload, violated, digest)
    assert verdict["problems"] and verdict["failed"] == verdict["calls"] == 1024

    verdict = run.judge(workload, report, "0" * 64)
    assert verdict["problems"] and verdict["failed"] == verdict["calls"]
