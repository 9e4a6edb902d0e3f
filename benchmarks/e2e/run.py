"""End-to-end benchmark: host time per simulated client call, layer by layer.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                  [--reps 40 | --seconds S] [--trace 0|1]
                                  [--json out.json]

One process with one thread times every rep untraced, interleaving the
selected workloads round-robin after one untimed warm-up rep each.  Each
rep's host times are scaled to reference speed with the fixed job timed
just before it (see ``reference_job.py``).  Every rep is checked: the §6 /
no-silent-wrong-answer / conservation invariants of
``repro.traffic.fuzz.check_report``, and a report fingerprint equal to the
warm-up rep's (at ``--seed 0``, to ``golden.json``).  Subprocesses, run one
at a time, add a cold rep (peak RSS, cold µs per call) and a traced run
(per-layer self time, see ``layer_trace.py``); one rep with ``repro.obs``
on, after the timed reps, explains the simulated latency.

Metrics are printed by name with their units, then the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones, and no ``--trace`` both.  With several workloads, ``metrics`` is keyed
by workload.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from e2e_workloads import WORKLOADS, Workload  # noqa: E402
from layer_trace import BOUNDARIES, LAYERS, LayerTracer, layer_crossings  # noqa: E402
from reference_job import REFERENCE_S, reference_seconds  # noqa: E402
from repro.obs import ObsConfig, Observability  # noqa: E402
from repro.traffic.fuzz import check_report  # noqa: E402
from repro.traffic.trace import fingerprint_digest  # noqa: E402
from repro.util.ids import reset_global_ids  # noqa: E402

GOLDEN_PATH = HERE / "golden.json"
#: The seed whose report fingerprints are pinned in golden.json.
GOLDEN_SEED = 0
#: Fewest timed rounds a ``--seconds`` run makes, however slow the machine.
MIN_ROUNDS = 3
#: Traced reps are this fraction of the timed ones (the wrappers cost more).
TRACED_SHARE = 0.5
#: Largest allowed gap between the layer self times and the traced wall.
SELF_TIME_TOLERANCE = 0.01
CHILD_TIMEOUT_S = 150

#: name → unit.  End-to-end metrics are gated by BENCHMARK.json bounds.
END_TO_END = {
    "host_us_per_call": "us/call",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SIM_WAITS = ("network", "stall", "core_wait", "cpu", "backoff")
PER_LAYER = {
    **{
        name: unit
        for layer in LAYERS
        for name, unit in (
            (f"{layer}.self_us_per_call", "us/call"),
            (f"{layer}.crossings_per_call", "count/call"),
        )
    },
    "sim_rtt_p50_ms": "sim_ms",
    "sim_rtt_p99_ms": "sim_ms",
    "model.events_per_call": "count/call",
    "model.retries_per_call": "count/call",
    "model.failed_attempts": "count",
    "model.stale_faults": "count",
    "model.rebinds": "count",
    "model.max_stall_queue": "count",
    "model.sim_duration_s": "sim_s",
    **{f"model.{wait}_ms": "sim_ms" for wait in SIM_WAITS},
    "trace.overhead_pct": "%",
    "cold_us_per_call": "us/call",
}


# -- one rep -------------------------------------------------------------------


def calls_issued(report) -> int:
    """Simulated client calls the run issued: discrete plus cohort-modeled."""
    discrete = sum(len(client.rtts) + client.abandoned_calls for client in report.clients)
    modeled = sum(cohort.modeled_clients * cohort.calls_per_client for cohort in report.cohorts)
    return discrete + modeled


def failed_calls(report) -> int:
    """Abandoned calls plus unclassified and not-initialized faults.

    §5.7 stale faults followed by a rebind are the protocol working, not
    failures.
    """
    discrete = sum(
        client.abandoned_calls + client.other_faults + client.not_initialized_faults
        for client in report.clients
    )
    return discrete + sum(cohort.abandoned_calls for cohort in report.cohorts)


def judge(workload: Workload, report, expected_digest: str | None) -> dict[str, Any]:
    """Check one rep; a rep that fails any check fails all its calls."""
    calls = calls_issued(report)
    problems = check_report({"calls": workload.calls_per_client}, report)
    digest = fingerprint_digest(report)
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"fingerprint {digest} differs from the expected {expected_digest}")
    failed = calls if problems else failed_calls(report)
    return {"calls": calls, "failed": failed, "problems": problems, "digest": digest}


class Rep(NamedTuple):
    """One rep: raw host seconds, the factor to reference speed, the report."""

    setup_s: float
    total_s: float
    scale: float
    report: Any


def timed_rep(workload: Workload, seed: int, obs: Observability | None = None) -> Rep:
    """Time declaration + ``build()`` (set-up) and the whole rep to ``run()``'s end."""
    gc.collect()
    scale = REFERENCE_S / reference_seconds()
    reset_global_ids()
    gc.collect()
    start = time.perf_counter()
    runtime = workload.scenario(seed).build()
    built = time.perf_counter()
    report = runtime.run(obs=obs)
    end = time.perf_counter()
    return Rep(built - start, end - start, scale, report)


def interleave(workloads: list[Workload], reps: int, seconds: float | None,
               rep: Callable[[Workload], None]) -> None:
    """Call ``rep`` round-robin over ``workloads``: ``reps`` rounds or, when
    ``seconds`` is given, rounds until that many seconds per workload have
    passed (at least :data:`MIN_ROUNDS`)."""
    started = time.perf_counter()
    rounds = 0
    while True:
        for workload in workloads:
            rep(workload)
        rounds += 1
        if seconds is None:
            if rounds >= reps:
                return
        elif rounds >= MIN_ROUNDS and time.perf_counter() - started >= seconds * len(workloads):
            return


def expected_digests(seed: int) -> dict[str, str]:
    if seed != GOLDEN_SEED:
        return {}
    return json.loads(GOLDEN_PATH.read_text())["fingerprint_sha256"]


# -- subprocesses --------------------------------------------------------------


def child_cold(workload: Workload, seed: int) -> dict[str, Any]:
    """One rep in this fresh process: cold time per call and peak RSS."""
    reference_seconds()  # a first run of the fixed job would misjudge the host as slow
    rep = timed_rep(workload, seed)
    return {
        "cold_us_per_call": rep.total_s * rep.scale / calls_issued(rep.report) * 1e6,
        "peak_rss_mb": peak_rss_kib() / 1024,
        "digest": fingerprint_digest(rep.report),
    }


def peak_rss_kib() -> int:
    """This process's resident-set high-water mark.

    ``ru_maxrss`` is not used: on Linux it carries the parent's RSS at fork
    over the exec, so a child would report at least its parent's size.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def child_traced(workloads: list[Workload], seed: int, reps: int,
                 seconds: float | None) -> dict[str, Any]:
    """Traced reps in this process, after wrapping every boundary function."""
    tracer = LayerTracer()
    tracer.install()
    results = {
        workload.name: {"walls": [], "self_us": [], "counts": None, "digests": [], "gaps": []}
        for workload in workloads
    }

    def rep(workload: Workload) -> None:
        tracer.reset()
        timed = timed_rep(workload, seed)
        per_call = timed.scale / calls_issued(timed.report) * 1e6
        self_times = tracer.self_times()
        result = results[workload.name]
        result["walls"].append(timed.total_s * timed.scale)
        result["self_us"].append({layer: t * per_call for layer, t in self_times.items()})
        result["gaps"].append(abs(sum(self_times.values()) - timed.total_s) / timed.total_s)
        result["counts"] = tracer.boundary_counts()
        result["digests"].append(fingerprint_digest(timed.report))

    for workload in workloads:  # warm-up, as for the timed reps
        rep(workload)
        results[workload.name].update(walls=[], self_us=[], gaps=[])
    interleave(workloads, reps, seconds, rep)
    return results


def run_child(kind: str, workloads: list[Workload], seed: int, *options: str) -> dict[str, Any]:
    """Run ``run.py --child kind`` in a fresh interpreter; return its JSON line."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child", kind, "--seed",
               str(seed), "--workload", *(w.name for w in workloads), *options]
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{kind} subprocess failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


# -- the benchmark -------------------------------------------------------------


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles, and the highest whole percentile with at least
    ten samples beyond it (``tail_level`` 0 when there are too few)."""
    if len(values) < 2:
        (value,) = values
        return {"median": value, "q1": value, "q3": value, "tail_level": 0, "tail": value}
    q1, median, q3 = statistics.quantiles(values, n=4)
    level = max(0, 100 * (len(values) - 10) // len(values))
    tail = statistics.quantiles(values, n=100)[level - 1] if level else median
    return {"median": median, "q1": q1, "q3": q3, "tail_level": level, "tail": tail}


def model_metrics(report, calls: int) -> dict[str, float]:
    """Deterministic simulated outcomes of one untraced rep."""
    rtt = report.modeled_rtt_percentiles if report.cohorts else report.rtt_percentiles
    return {
        "sim_rtt_p50_ms": rtt["p50"] * 1e3,
        "sim_rtt_p99_ms": rtt["p99"] * 1e3,
        "model.events_per_call": report.events_dispatched / calls,
        "model.retries_per_call": report.total_retried_calls / calls,
        "model.failed_attempts": report.total_failed_attempts,
        "model.stale_faults": report.total_stale_faults + report.total_stale_faults_modeled,
        "model.rebinds": report.total_rebinds,
        "model.max_stall_queue": report.max_stall_queue_depth,
        "model.sim_duration_s": report.duration,
    }


def run_benchmark(workloads: list[Workload], seed: int, reps: int,
                  seconds: float | None, trace: int | None) -> dict[str, Any]:
    """Measure ``workloads``; returns per-workload metrics, extras and checks."""
    per_layer = trace != 0
    golden = expected_digests(seed)
    state = {
        w.name: {"setups": [], "walls": [], "raw_walls": [], "attempted": 0, "failed": 0,
                 "problems": [], "expected": golden.get(w.name), "report": None}
        for w in workloads
    }

    def record(workload: Workload, report, where: str, pinned: bool = True) -> None:
        entry = state[workload.name]
        verdict = judge(workload, report, entry["expected"] if pinned else None)
        if pinned:
            entry["expected"] = entry["expected"] or verdict["digest"]
        entry["attempted"] += verdict["calls"]
        entry["failed"] += verdict["failed"]
        entry["problems"] += [f"{where}: {problem}" for problem in verdict["problems"]]

    def rep(workload: Workload) -> None:
        timed = timed_rep(workload, seed)
        entry = state[workload.name]
        entry["setups"].append(timed.setup_s * timed.scale)
        entry["walls"].append(timed.total_s * timed.scale)
        entry["raw_walls"].append(timed.total_s)
        entry["report"] = timed.report
        record(workload, timed.report, "timed rep")

    for workload in workloads:
        record(workload, timed_rep(workload, seed).report, "warm-up rep")
    interleave(workloads, reps, seconds, rep)

    results: dict[str, Any] = {}
    for workload in workloads:
        entry = state[workload.name]
        report = entry["report"]
        calls = calls_issued(report)
        walls = spread([wall / calls * 1e6 for wall in entry["walls"]])
        results[workload.name] = {
            "metrics": {
                "host_us_per_call": walls["median"],
                "setup_s": statistics.median(entry["setups"]),
                **model_metrics(report, calls),
            },
            "extra": {
                "host_us_per_call_spread": walls,
                "raw_host_us_per_call": statistics.median(entry["raw_walls"]) / calls * 1e6,
                "reps": len(entry["walls"]),
                "calls_per_rep": calls,
                "clients_per_s": report.simulated_clients / (walls["median"] * calls / 1e6),
                "fingerprint_sha256": entry["expected"],
            },
            "entry": entry,
        }
        if per_layer:
            # One obs-on rep after the host-time reps, never under the wrappers.
            # Its trace context rides in-band and lengthens messages, so it
            # simulates a slightly different run: invariants only, no digest.
            obs = Observability(ObsConfig(metrics=False, ring_capacity=1 << 16))
            record(workload, timed_rep(workload, seed, obs=obs).report, "obs rep", pinned=False)
            means = obs.profile().component_means()
            results[workload.name]["metrics"].update(
                {f"model.{wait}_ms": means[wait] * 1e3 for wait in SIM_WAITS}
            )

    for workload in workloads:  # fresh processes, one at a time
        cold = run_child("cold", [workload], seed)
        result = results[workload.name]
        result["metrics"]["peak_rss_mb"] = cold["peak_rss_mb"]
        result["metrics"]["cold_us_per_call"] = cold["cold_us_per_call"]
        if cold["digest"] != result["entry"]["expected"]:
            result["entry"]["problems"].append("cold rep: fingerprint differs")

    if per_layer:
        length = (
            ("--reps", str(math.ceil(reps * TRACED_SHARE))) if seconds is None
            else ("--seconds", repr(seconds * TRACED_SHARE))
        )
        traced = run_child("traced", workloads, seed, *length)
        fired = [0] * len(BOUNDARIES)
        for workload in workloads:
            add_traced_metrics(results[workload.name], traced[workload.name])
            fired = [a + b for a, b in zip(fired, traced[workload.name]["counts"])]
        if len(workloads) == len(WORKLOADS):
            results[workloads[0].name]["entry"]["problems"] += [
                f"traced run: boundary {target} never fired on any workload"
                for (_layer, target), count in zip(BOUNDARIES, fired)
                if not count
            ]
    return results


def add_traced_metrics(result: dict[str, Any], traced: dict[str, Any]) -> None:
    """Fold the traced subprocess's per-layer numbers and self-checks in."""
    metrics = result["metrics"]
    entry = result["entry"]
    calls = result["extra"]["calls_per_rep"]
    crossings = layer_crossings(traced["counts"])
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_call"] = statistics.median(
            rep[layer] for rep in traced["self_us"]
        )
        metrics[f"{layer}.crossings_per_call"] = crossings[layer] / calls
    traced_wall = statistics.median(traced["walls"])
    metrics["trace.overhead_pct"] = (traced_wall / statistics.median(entry["walls"]) - 1) * 100
    if any(digest != entry["expected"] for digest in traced["digests"]):
        entry["problems"].append("traced run: fingerprint differs, the wrappers are not transparent")
    worst_gap = max(traced["gaps"])
    if worst_gap > SELF_TIME_TOLERANCE:
        entry["problems"].append(
            f"traced run: layer self times miss the traced wall by {worst_gap:.2%}"
        )
    result["extra"]["traced_reps"] = len(traced["walls"])


# -- output --------------------------------------------------------------------


def selected_metrics(trace: int | None) -> dict[str, str]:
    if trace == 0:
        return END_TO_END
    if trace == 1:
        return PER_LAYER
    return {**END_TO_END, **PER_LAYER}


def print_tables(results: dict[str, Any], seed: int, trace: int | None) -> None:
    names = selected_metrics(trace)
    for name, result in results.items():
        extra = result["extra"]
        entry = result["entry"]
        print(f"== {name}  seed={seed}  reps={extra['reps']}  calls/rep={extra['calls_per_rep']}  "
              f"fingerprint={extra['fingerprint_sha256']}")
        for metric, unit in names.items():
            print(f"  {metric:<36} {result['metrics'][metric]:>14.6g} {unit}")
        q = extra["host_us_per_call_spread"]
        tail = f"p{q['tail_level']} {q['tail']:.6g}  " if q["tail_level"] else ""
        print(f"  host_us_per_call over reps: q1 {q['q1']:.6g}  median {q['median']:.6g}  "
              f"q3 {q['q3']:.6g}  {tail}n={extra['reps']}  "
              f"(unscaled median {extra['raw_host_us_per_call']:.6g})")
        print(f"  clients_per_s {extra['clients_per_s']:.6g}   failed_call_ratio "
              f"{entry['failed'] / entry['attempted']:.6g} ({entry['failed']}/{entry['attempted']})")
        for problem in entry["problems"]:
            print(f"  FAILED CHECK: {problem}")


def result_line(results: dict[str, Any], trace: int | None) -> dict[str, Any]:
    """The last line of stdout: verdict, call counts and the selected metrics."""
    names = selected_metrics(trace)
    metrics = {
        name: {metric: {"value": result["metrics"][metric], "unit": unit}
               for metric, unit in names.items()}
        for name, result in results.items()
    }
    entries = [result["entry"] for result in results.values()]
    return {
        "correct": not any(entry["problems"] for entry in entries),
        "attempted": sum(entry["attempted"] for entry in entries),
        "failed": sum(entry["failed"] for entry in entries),
        "metrics": next(iter(metrics.values())) if len(metrics) == 1 else metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--reps", type=int, default=40, help="timed reps per workload")
    length.add_argument("--seconds", type=float, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="print only end-to-end (0) or per-layer (1) metrics")
    parser.add_argument("--json", type=Path, help="also write every metric to this file")
    parser.add_argument("--child", choices=("cold", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads = [WORKLOADS[name] for name in dict.fromkeys(args.workload)]

    if args.child == "cold":
        print(json.dumps(child_cold(workloads[0], args.seed)))
        return 0
    if args.child == "traced":
        print(json.dumps(child_traced(workloads, args.seed, args.reps, args.seconds)))
        return 0

    results = run_benchmark(workloads, args.seed, args.reps, args.seconds, args.trace)
    print_tables(results, args.seed, args.trace)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {name: {"metrics": result["metrics"], **result["extra"],
                    "attempted": result["entry"]["attempted"],
                    "failed": result["entry"]["failed"],
                    "problems": result["entry"]["problems"]}
             for name, result in results.items()},
            indent=2,
        ))
    line = result_line(results, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
