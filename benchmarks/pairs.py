"""Paired timing: the repo benchmark on this working tree against a git revision.

Run from the repository root::

    python3 benchmarks/pairs.py REV [--pairs 6] [--reps 6]
                                    [--workload NAME ...] [--json out.json]

Each pair runs ``benchmarks/e2e/run.py --trace 0`` (seed 0) twice, one
process at a time: once from a ``git worktree`` of ``REV`` (the base) and once from the
working tree (the change), alternating which of the two goes first.  For
every workload and end-to-end metric it prints the median of the per-pair
change/base ratios, their quartiles, and in how many pairs the change was
better ("change better in k/N").  A ratio below 1 is better: every
end-to-end metric of the benchmark is lower-is-better.

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


def run_once(tree: Path, workloads: list[str], reps: int) -> dict[str, Any]:
    """One ``run.py --trace 0`` in ``tree``: its metrics keyed by workload."""
    command = [sys.executable, str(tree / RUN), "--trace", "0", "--reps", str(reps),
               "--seed", "0"]
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


def summarise(base: list[dict], change: list[dict]) -> dict[str, dict[str, dict[str, float]]]:
    """Per workload and metric: medians, ratio quartiles and the better count."""
    table: dict[str, dict[str, dict[str, float]]] = {}
    for workload, metrics in change[0]["metrics"].items():
        for metric in metrics:
            before = [run["metrics"][workload][metric]["value"] for run in base]
            after = [run["metrics"][workload][metric]["value"] for run in change]
            ratios = [a / b if b else float("nan") for a, b in zip(after, before)]
            q1, median, q3 = (
                statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
            )
            table.setdefault(workload, {})[metric] = {
                "base_runs": before,
                "change_runs": after,
                "base_median": statistics.median(before),
                "change_median": statistics.median(after),
                "ratio_median": median,
                "ratio_q1": q1,
                "ratio_q3": q3,
                "better": sum(a < b for a, b in zip(after, before)),
                "pairs": len(ratios),
            }
    return table


def print_table(table: dict[str, dict[str, dict[str, float]]]) -> None:
    print(f"{'workload':<14} {'metric':<18} {'base':>10} {'change':>10} "
          f"{'ratio':>7} {'q1-q3':>13}  change better in")
    for workload, metrics in table.items():
        for metric, row in metrics.items():
            print(f"{workload:<14} {metric:<18} {row['base_median']:>10.4g} "
                  f"{row['change_median']:>10.4g} {row['ratio_median']:>7.3f} "
                  f"{row['ratio_q1']:>6.3f}-{row['ratio_q3']:<6.3f}  "
                  f"{row['better']}/{row['pairs']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the base revision (a commit, branch or tag)")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--reps", type=int, default=6, help="timed reps per run.py run")
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
                runs.append(run_once(tree, args.workload, args.reps))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                       cwd=ROOT, capture_output=True)

    table = summarise(base, change)
    print(f"change = working tree, base = {args.rev}; {args.pairs} alternating pairs "
          f"of run.py --trace 0 --reps {args.reps} --seed 0")
    print_table(table)
    failed = [side for side, runs in (("base", base), ("change", change))
              if not all(run["correct"] for run in runs)]
    for side in failed:
        print(f"FAILED CHECK: a {side} run failed its own checks")
    if args.json is not None:
        args.json.write_text(json.dumps({"rev": args.rev, "table": table}, indent=2))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
