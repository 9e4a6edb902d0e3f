"""Run every ``bench_*.py`` and append a trajectory record to BENCH_results.json.

Usage::

    python benchmarks/run_all.py                 # run all benchmarks
    python benchmarks/run_all.py table1          # only files matching the substring
    python benchmarks/run_all.py table1 fault    # several filters: match ANY of them
    python benchmarks/run_all.py --quick         # small parameter grids (CI mode)
    python benchmarks/run_all.py --strict        # exit nonzero on corroborated
                                                 # wall-clock regressions (CI gate)
    python benchmarks/run_all.py --list          # print discovered files, run nothing
    python benchmarks/run_all.py --compact       # prune the trajectory file and exit
    python benchmarks/run_all.py --quick --compact   # run, then prune in one go

Each invocation appends one record to ``BENCH_results.json`` at the repo
root, so successive PRs accumulate a performance trajectory: wall-clock
seconds per benchmark (the cost of simulating each experiment) plus every
``extra_info`` quantity the benchmarks attach (simulated RTTs, throughput,
stall-queue depths).  Future PRs diff the latest record against earlier ones
to spot regressions — and this runner warns when a benchmark's wall-clock
time regresses against the previous comparable run.

Wall clock alone is machine-noisy, so a wall-clock slowdown is only flagged
when the benchmark's *deterministic* workload metrics (simulated duration,
scheduler events dispatched, or any ``deterministic_*`` quantity in
``extra_info``) corroborate it by regressing too; when a benchmark records
no deterministic metrics, the wall-clock-only warning is kept as before.
Slowdowns with identical simulated work are not recorded as regressions,
but they are still printed as informational notes so a pure code-level
slowdown cannot pass silently.

``--strict`` (used by the CI perf gate) promotes the corroborated warnings
to failures: the run exits nonzero when a wall-clock regression is
accompanied by deterministic simulated work that *changed* — grown work
means the same scenario now dispatches more events, and shrunk work taking
longer is the clearest possible code slowdown.  Both are machine-
independent signals.  Wall-clock-only slowdowns — including those with
*identical* deterministic work — stay warnings/notes even under
``--strict``: a 2× wall-clock swing on identical work is routinely plain
machine variance across CI runners, so failing on it would make the gate
flaky.  Benchmarks that record an ``obs_profile`` blob (per-component mean
simulated latency from ``repro.obs.analyze``) get their flagged
regressions *attributed*: the warning and the STRICT line name the
dominant regressed component (network / stall / core_wait / cpu /
backoff / rebind), so a failing gate says which layer to look at.

``--compact`` prunes ``BENCH_results.json`` in place: each benchmark keeps
only its most recent appearances (per quick/full mode), and runs left with
no benchmarks are dropped.  The trajectory grows by one record per
invocation forever otherwise; compaction keeps enough history for the
regression gate (which only ever compares against the most recent
comparable run) while bounding the file.  Alone, ``--compact`` prunes and
exits; combined with a run (``--quick --strict --compact``, as CI does) it
prunes *after* the run's record is appended, so the trajectory stays
bounded without a separate invocation.

``--quick`` exports ``REPRO_BENCH_QUICK=1``; parameter-heavy benchmarks read
it at collection time and shrink their grids (fewer fleet sizes, fewer
events), which keeps the CI run to a fraction of the full sweep.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_DIR))

from repro.obs.analyze import dominant_component  # noqa: E402 - needs SRC_DIR on sys.path

BENCH_DIR = REPO_ROOT / "benchmarks"
RESULTS_PATH = REPO_ROOT / "BENCH_results.json"

#: A benchmark this much slower than the previous comparable run is flagged.
REGRESSION_FACTOR = 1.5
#: ... unless the absolute growth is under this (timer noise on tiny runs).
REGRESSION_MIN_DELTA_S = 0.05
#: Deterministic ``extra_info`` metrics used to corroborate wall-clock
#: regressions: identical simulated work + slower wall clock = machine noise.
DETERMINISTIC_KEYS = ("simulated_duration_s", "events_dispatched")
DETERMINISTIC_PREFIX = "deterministic_"
#: A deterministic metric this much above its previous value counts as a
#: genuine workload regression (simulated quantities are exact, the margin
#: only absorbs rounding in recorded values).
DETERMINISTIC_FACTOR = 1.05


def discover(patterns: "list[str] | None" = None) -> list[Path]:
    """Every benchmark file, optionally filtered by name substrings.

    With several patterns a file is kept when it matches *any* of them,
    so ``run_all.py fault rolling`` runs both drills in one invocation.
    """
    files = sorted(BENCH_DIR.glob("bench_*.py"))
    if patterns:
        files = [
            path
            for path in files
            if any(pattern in path.name for pattern in patterns)
        ]
    return files


def run_benchmarks(files: list[Path], quick: bool = False) -> tuple[int, list[dict]]:
    """Run ``files`` under pytest-benchmark; return (exit_code, records)."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = Path(handle.name)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if quick:
        env["REPRO_BENCH_QUICK"] = "1"
    else:
        env.pop("REPRO_BENCH_QUICK", None)
    command = [
        sys.executable,
        "-m",
        "pytest",
        *[str(path) for path in files],
        "--benchmark-only",
        "-q",
        f"--benchmark-json={json_path}",
    ]
    completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
    try:
        payload = json.loads(json_path.read_text())
    except (OSError, json.JSONDecodeError):
        payload = {"benchmarks": []}
    finally:
        json_path.unlink(missing_ok=True)

    records = [
        {
            "name": bench["name"],
            "group": bench.get("group"),
            "wall_clock_mean_s": bench["stats"]["mean"],
            "extra_info": bench.get("extra_info", {}),
        }
        for bench in payload.get("benchmarks", [])
    ]
    return completed.returncode, records


def load_trajectory() -> dict:
    """Read the trajectory file, tolerating a missing or corrupt one."""
    if RESULTS_PATH.exists():
        try:
            trajectory = json.loads(RESULTS_PATH.read_text())
        except json.JSONDecodeError:
            trajectory = {"runs": []}
    else:
        trajectory = {"runs": []}
    trajectory.setdefault("runs", [])
    return trajectory


def deterministic_metrics(bench: dict) -> dict[str, float]:
    """The deterministic workload metrics a benchmark record carries."""
    metrics = {}
    for key, value in (bench.get("extra_info") or {}).items():
        if key in DETERMINISTIC_KEYS or key.startswith(DETERMINISTIC_PREFIX):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[key] = float(value)
    return metrics


def find_regressions(records: list[dict], trajectory: dict, quick: bool) -> list[dict]:
    """Compare each benchmark against the previous comparable run of it.

    Only runs with the same ``quick`` mode are comparable (the grids differ),
    and the most recent comparable appearance of each benchmark name wins.
    A wall-clock slowdown is reported only when the benchmark's deterministic
    metrics regressed too (or when it records none to compare).
    """
    previous: dict[str, dict] = {}
    for run in trajectory["runs"]:
        if bool(run.get("quick")) != quick:
            continue
        for bench in run.get("benchmarks", []):
            previous[bench["name"]] = bench

    regressions = []
    for bench in records:
        before = previous.get(bench["name"])
        if before is None:
            continue
        before_s = before["wall_clock_mean_s"]
        now = bench["wall_clock_mean_s"]
        wall_regressed = (
            now > before_s * REGRESSION_FACTOR and now - before_s > REGRESSION_MIN_DELTA_S
        )
        if not wall_regressed:
            continue
        metrics_now = deterministic_metrics(bench)
        metrics_before = deterministic_metrics(before)
        shared = sorted(set(metrics_now) & set(metrics_before))
        grew = [
            key
            for key in shared
            if metrics_now[key] > metrics_before[key] * DETERMINISTIC_FACTOR
        ]
        shrank = [
            key
            for key in shared
            if metrics_now[key] < metrics_before[key] / DETERMINISTIC_FACTOR
        ]
        regression = {
            "name": bench["name"],
            "previous_s": round(before_s, 4),
            "current_s": round(now, 4),
            "factor": round(now / before_s, 2),
        }
        dominant = dominant_component(
            (before.get("extra_info") or {}).get("obs_profile"),
            (bench.get("extra_info") or {}).get("obs_profile"),
        )
        if dominant is not None:
            # Attribute the regression to the simulated-latency component
            # that grew most (from the benchmark's obs_profile blob), so a
            # flagged run names the layer to look at, not just the number.
            regression["dominant_component"] = {
                "component": dominant[0],
                "previous_mean_s": dominant[1],
                "current_mean_s": dominant[2],
            }
        if shared and not grew and not shrank:
            # Identical simulated work, slower wall clock: per the flagging
            # policy this is not recorded as a regression, but it is still
            # surfaced as a note — it could be machine noise *or* a pure
            # code slowdown, and silence would hide the latter.
            regression["suppressed"] = True
        changed = grew or shrank
        if changed:
            # Flag with evidence either way: more simulated work explains a
            # slower wall clock; *less* simulated work taking longer is the
            # clearest possible pure code slowdown.
            regression["deterministic_metrics"] = {
                key: {"previous": metrics_before[key], "current": metrics_now[key]}
                for key in changed
            }
            if shrank and not grew:
                regression["workload_shrank"] = True
        regressions.append(regression)
    return regressions


def strict_failures(candidates: list[dict]) -> list[dict]:
    """The regression candidates that fail a ``--strict`` run.

    Exactly the corroborated warnings: wall-clock regressions whose
    deterministic simulated work *changed* (``deterministic_metrics`` —
    grown work costs more events for the same scenario, shrunk work taking
    longer is the clearest code slowdown).  Those signals are
    machine-independent.  Identical-work slowdowns (``suppressed``) and
    wall-clock-only candidates are excluded: wall clock alone swings 2×
    between runners on unchanged code, so failing on it would flake CI.
    """
    return [c for c in candidates if c.get("deterministic_metrics")]


def append_trajectory(
    records: list[dict],
    exit_code: int,
    files: list[Path],
    quick: bool,
    regressions: list[dict],
) -> dict:
    """Append one run record to the trajectory file and return it."""
    trajectory = load_trajectory()
    run_record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "files": [path.name for path in files],
        "exit_code": exit_code,
        "quick": quick,
        "benchmarks": records,
    }
    if regressions:
        run_record["wall_clock_regressions"] = regressions
    trajectory["runs"].append(run_record)
    RESULTS_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
    return run_record


#: ``--compact`` keeps this many most-recent appearances of each benchmark
#: (per quick/full mode) — comfortably more than the single previous run
#: the regression gate compares against.
COMPACT_KEEP = 8


def compact_trajectory(trajectory: dict, keep: int = COMPACT_KEEP) -> dict:
    """Prune the trajectory to each benchmark's last ``keep`` appearances.

    Quick and full runs are counted separately (they are never comparable),
    and a run record whose benchmarks are all pruned is dropped entirely.
    Run-level metadata (timestamps, exit codes, recorded regressions) is
    untouched for the runs that remain.
    """
    seen: dict[tuple[bool, str], int] = {}
    kept_runs = []
    for run in reversed(trajectory.get("runs", [])):
        quick = bool(run.get("quick"))
        benches = []
        for bench in run.get("benchmarks", []):
            key = (quick, bench["name"])
            if seen.get(key, 0) < keep:
                seen[key] = seen.get(key, 0) + 1
                benches.append(bench)
        if benches:
            kept_runs.append({**run, "benchmarks": benches})
    kept_runs.reverse()
    return {**trajectory, "runs": kept_runs}


def main(argv: list[str]) -> int:
    args = argv[1:]
    quick = "--quick" in args
    list_only = "--list" in args
    strict = "--strict" in args
    compact = "--compact" in args
    if compact and args == ["--compact"]:
        # Standalone form: prune the trajectory and exit (the historical
        # behaviour).  Combined with a run, compaction happens after the
        # run's record is appended instead — see the end of main().
        _compact_and_report()
        return 0
    patterns = [
        arg for arg in args if arg not in ("--quick", "--list", "--strict", "--compact")
    ]
    files = discover(patterns or None)
    if not files:
        print(f"no benchmark files match {patterns!r}", file=sys.stderr)
        return 2
    if list_only:
        for path in files:
            print(path.name)
        return 0
    mode = " (quick grids)" if quick else ""
    print(
        f"running {len(files)} benchmark file(s){mode}: "
        f"{', '.join(p.name for p in files)}"
    )
    trajectory_before = load_trajectory()
    exit_code, records = run_benchmarks(files, quick=quick)
    candidates = find_regressions(records, trajectory_before, quick)
    regressions = [c for c in candidates if not c.get("suppressed")]
    suppressed = [c for c in candidates if c.get("suppressed")]
    run_record = append_trajectory(records, exit_code, files, quick, regressions)
    print(
        f"recorded {len(records)} benchmark(s) to {RESULTS_PATH.name} "
        f"({len(load_trajectory()['runs'])} run(s) in trajectory)"
    )
    for bench in run_record["benchmarks"]:
        line = f"  {bench['name']}: {bench['wall_clock_mean_s']:.4f}s wall-clock"
        extra = bench.get("extra_info") or {}
        percentiles = [
            f"{level}={extra[key]:.5f}s"
            for level, key in (
                ("p50", "rtt_p50_s"),
                ("p95", "rtt_p95_s"),
                ("p99", "rtt_p99_s"),
            )
            if isinstance(extra.get(key), (int, float))
        ]
        if percentiles:
            line += f"  [simulated RTT {' '.join(percentiles)}]"
        calls_per_sec = extra.get("calls_per_sec")
        if isinstance(calls_per_sec, (int, float)) and not isinstance(calls_per_sec, bool):
            line += f"  [{calls_per_sec:,.0f} simulated calls/s]"
        obs_overhead = extra.get("obs_overhead_pct")
        if isinstance(obs_overhead, (int, float)) and not isinstance(obs_overhead, bool):
            line += f"  [obs overhead {obs_overhead:+.1f}%]"
        print(line)
    for regression in regressions:
        evidence = regression.get("deterministic_metrics")
        if evidence and regression.get("workload_shrank"):
            corroboration = (
                " (simulated work SHRANK — likely a pure code slowdown: "
                + ", ".join(sorted(evidence))
                + ")"
            )
        elif evidence:
            corroboration = (
                " (deterministic workload grew: " + ", ".join(sorted(evidence)) + ")"
            )
        else:
            corroboration = " (no deterministic metrics recorded to corroborate)"
        dominant = regression.get("dominant_component")
        if dominant:
            corroboration += (
                f" [dominant component: {dominant['component']} "
                f"{dominant['previous_mean_s'] * 1e3:.3f}ms -> "
                f"{dominant['current_mean_s'] * 1e3:.3f}ms]"
            )
        print(
            f"  WARNING: {regression['name']} wall-clock regressed "
            f"{regression['previous_s']}s -> {regression['current_s']}s "
            f"({regression['factor']}x slower than the previous run){corroboration}"
        )
    for note in suppressed:
        print(
            f"  note: {note['name']} wall clock slowed "
            f"{note['previous_s']}s -> {note['current_s']}s ({note['factor']}x) with "
            "identical simulated work — machine noise or a code slowdown; not flagged"
        )
    if strict:
        corroborated = strict_failures(candidates)
        if corroborated:
            names = []
            for candidate in corroborated:
                label = candidate["name"]
                dominant = candidate.get("dominant_component")
                if dominant:
                    label += f" [dominant component: {dominant['component']}]"
                names.append(label)
            print(
                f"STRICT: {len(corroborated)} corroborated wall-clock "
                "regression(s) (deterministic workload changed) — failing "
                "the run: " + ", ".join(names)
            )
            if exit_code == 0:
                exit_code = 3
    if compact:
        _compact_and_report()
    return exit_code


def _compact_and_report() -> None:
    trajectory = load_trajectory()
    before = len(trajectory["runs"])
    compacted = compact_trajectory(trajectory)
    RESULTS_PATH.write_text(json.dumps(compacted, indent=2) + "\n")
    print(
        f"compacted {RESULTS_PATH.name}: {before} -> "
        f"{len(compacted['runs'])} run(s), keeping the last "
        f"{COMPACT_KEEP} appearance(s) of each benchmark"
    )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
