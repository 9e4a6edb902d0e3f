"""Paired timing: the repo benchmark on this working tree against a git revision.

Run from the repository root::

    python3 benchmarks/pairs.py REV [--pairs 6] [--reps 6] [--seed 0]
                                    [--workload NAME ...] [--json out.json]

Each pair runs ``benchmarks/e2e/run.py --trace 0 --seed N`` twice, one
process at a time: once from a ``git worktree`` of ``REV`` (the base) and once from the
working tree (the change), alternating which of the two goes first.  For
every workload and end-to-end metric it prints the median of the per-pair
change/base ratios, their quartiles, the base runs' own quartiles, in how
many pairs the change was better ("change better in k/N") and a verdict:

* ``gain``: the change is better in at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the base
  runs' interquartile range;
* ``worse``: the same rule with the sides swapped, when the median shift
  exceeds the metric's ``bound`` in ``BENCHMARK.json`` (relative to the
  base median; a metric without a bound has none to stay inside);
* ``within bound``: the ``worse`` rule fires, but the median shift is no
  larger than the bound — measurably slower, yet inside what the
  benchmark tolerates;
* ``unresolved``: otherwise, when the base runs' interquartile range,
  relative to their median, exceeds the metric's ``bound`` in
  ``BENCHMARK.json`` (the runs spread too widely to call it unchanged);
* ``no change``: otherwise.

A ratio below 1 is better: every end-to-end metric of the benchmark is
lower-is-better.

The exit code is 1 when any run fails its own checks (wrong fingerprint,
failed calls); the table is printed either way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "e2e" / "run.py"
#: The share of pairs the winning side must win for ``gain`` or ``worse``.
WIN_SHARE = 0.9


def run_once(tree: Path, workloads: list[str], reps: int, seed: int) -> dict[str, Any]:
    """One ``run.py --trace 0`` in ``tree``: its metrics keyed by workload."""
    command = [sys.executable, str(tree / RUN), "--trace", "0", "--reps", str(reps),
               "--seed", str(seed)]
    if workloads:
        command += ["--workload", *workloads]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    try:
        line = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{tree}: run.py printed no result line\n{done.stderr}") from None
    metrics = line["metrics"]
    if len(workloads) == 1:
        metrics = {workloads[0]: metrics}
    return {"correct": line["correct"] and done.returncode == 0, "metrics": metrics}


def _quartiles(values: list[float]) -> list[float]:
    """q1, median and q3 of ``values`` (one value is its own quartiles)."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def verdict(row: dict[str, Any], bound: float | None) -> str:
    """``gain``, ``worse``, ``within bound``, ``unresolved`` or ``no change``
    for one summarised metric."""
    spread = row["base_q3"] - row["base_q1"]
    shift = row["change_median"] - row["base_median"]
    if row["better"] >= WIN_SHARE * row["pairs"] and -shift > spread:
        return "gain"
    if row["worse"] >= WIN_SHARE * row["pairs"] and shift > spread:
        if bound is not None and shift <= bound * abs(row["base_median"]):
            return "within bound"
        return "worse"
    if bound is not None and spread > bound * abs(row["base_median"]):
        return "unresolved"
    return "no change"


def summarise(base: list[dict], change: list[dict],
              bounds: dict[str, float]) -> dict[str, dict[str, dict[str, Any]]]:
    """Per workload and metric: medians, base quartiles, ratio quartiles,
    the better and worse counts and the verdict under ``bounds`` (metric
    name → the relative bound by which it may worsen)."""
    table: dict[str, dict[str, dict[str, Any]]] = {}
    for workload, metrics in change[0]["metrics"].items():
        for metric in metrics:
            before = [run["metrics"][workload][metric]["value"] for run in base]
            after = [run["metrics"][workload][metric]["value"] for run in change]
            ratios = [a / b if b else float("nan") for a, b in zip(after, before)]
            q1, median, q3 = _quartiles(ratios)
            base_q1, _, base_q3 = _quartiles(before)
            row = {
                "base_runs": before,
                "change_runs": after,
                "base_median": statistics.median(before),
                "change_median": statistics.median(after),
                "base_q1": base_q1,
                "base_q3": base_q3,
                "ratio_median": median,
                "ratio_q1": q1,
                "ratio_q3": q3,
                "better": sum(a < b for a, b in zip(after, before)),
                "worse": sum(a > b for a, b in zip(after, before)),
                "pairs": len(ratios),
            }
            row["verdict"] = verdict(row, bounds.get(metric))
            table.setdefault(workload, {})[metric] = row
    return table


def benchmark_bounds() -> dict[str, float]:
    """Each end-to-end metric's regression bound from ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}


def print_table(table: dict[str, dict[str, dict[str, Any]]]) -> None:
    print(f"{'workload':<14} {'metric':<18} {'base':>10} {'base q1-q3':>21} {'change':>10} "
          f"{'ratio':>7} {'q1-q3':>13}  {'better':<7} verdict")
    for workload, metrics in table.items():
        for metric, row in metrics.items():
            base_spread = f"{row['base_q1']:.4g}-{row['base_q3']:.4g}"
            better = f"{row['better']}/{row['pairs']}"
            print(f"{workload:<14} {metric:<18} {row['base_median']:>10.4g} "
                  f"{base_spread:>21} {row['change_median']:>10.4g} "
                  f"{row['ratio_median']:>7.3f} "
                  f"{row['ratio_q1']:>6.3f}-{row['ratio_q3']:<6.3f}  "
                  f"{better:<7} {row['verdict']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the base revision (a commit, branch or tag)")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--reps", type=int, default=6, help="timed reps per run.py run")
    parser.add_argument("--seed", type=int, default=0, help="the workloads' seed")
    parser.add_argument("--workload", nargs="+", default=[])
    parser.add_argument("--json", type=Path, help="also write the table to this file")
    args = parser.parse_args(argv)

    worktree = Path(tempfile.mkdtemp(prefix="pairs-base-"))
    subprocess.run(["git", "worktree", "add", "--detach", str(worktree), args.rev],
                   cwd=ROOT, check=True, capture_output=True)
    base: list[dict] = []
    change: list[dict] = []
    try:
        for pair in range(args.pairs):
            order = [(worktree, base), (ROOT, change)]
            if pair % 2:
                order.reverse()
            for tree, runs in order:
                runs.append(run_once(tree, args.workload, args.reps, args.seed))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                       cwd=ROOT, capture_output=True)

    table = summarise(base, change, benchmark_bounds())
    print(f"change = working tree, base = {args.rev}; {args.pairs} alternating pairs "
          f"of run.py --trace 0 --reps {args.reps} --seed {args.seed}")
    print_table(table)
    failed = [side for side, runs in (("base", base), ("change", change))
              if not all(run["correct"] for run in runs)]
    for side in failed:
        print(f"FAILED CHECK: a {side} run failed its own checks")
    if args.json is not None:
        args.json.write_text(json.dumps({"rev": args.rev, "seed": args.seed, "table": table},
                                        indent=2))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
