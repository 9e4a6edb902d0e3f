"""The examples print exactly what they printed when their output was pinned.

Each example is a self-checking end-to-end script; its stdout (RTTs,
routing balance, rollout waves, debugger text) is a deterministic function
of the simulation, so any change to it is a behaviour change.  Each script
runs in its own interpreter, and its stdout is compared byte for byte with
``example_stdout/<name>.out``.  ``traced_fault_drill.py`` is left out: it
prints the paths of the artifacts it writes.

To re-pin after an intended change, run the example and redirect its
stdout into the matching file, e.g.
``PYTHONPATH=src python examples/quickstart.py > tests/integration/example_stdout/quickstart.out``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PINNED = Path(__file__).resolve().parent / "example_stdout"

EXAMPLES = (
    "cluster_scenario",
    "corba_mail_service",
    "crash_during_publish",
    "publication_tuning",
    "quickstart",
    "rolling_upgrade",
    "simultaneous_development",
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_stdout_is_unchanged(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        env=env,
        capture_output=True,
        check=True,
    )
    assert result.stdout == (PINNED / f"{name}.out").read_bytes()


def test_every_example_but_the_traced_drill_is_pinned():
    scripts = {path.stem for path in (ROOT / "examples").glob("*.py")}
    assert scripts - set(EXAMPLES) == {"traced_fault_drill"}
