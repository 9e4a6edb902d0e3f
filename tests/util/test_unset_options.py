"""Every field of the run configurations is set by some caller.

A configuration field is an option only when some caller needs a value
other than its default; one that nothing sets is a constant with a
validation branch and docs around it.  A field of :class:`SDEConfig`,
:class:`ObsConfig`, :class:`CohortModel` or :class:`RetryPolicy` counts as
set when it is passed as a keyword to a call of that class (or of
``dataclasses.replace``) in a ``.py`` file of ``src/``, ``examples/`` or
``benchmarks/``.  Tests do not count: a test that sets a field checks a
value no program uses.  The allowlist names the fields kept unset, each
with its reason.
"""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from repro.cluster.cohort import CohortModel
from repro.core.sde.manager import SDEConfig
from repro.faults.policy import RetryPolicy
from repro.obs.api import ObsConfig

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "examples", "benchmarks")
CONFIGS = (SDEConfig, ObsConfig, CohortModel, RetryPolicy)

#: Fields kept configurable although no program sets them, and why.
ALLOWED_UNSET: dict[str, str] = {
    "SDEConfig.interface_port": "deployment port",
    "SDEConfig.soap_base_port": "deployment port",
    "SDEConfig.corba_base_port": "deployment port",
    "CohortModel.tick": "tests/cluster/test_cohort.py runs flows at a finer tick",
    "CohortModel.max_attempts": "tests/cluster/test_cohort.py lowers it on a faulted flow",
    "ObsConfig.sample_interval": "the verify notes set it to sample more coarsely",
}


def _keywords_passed(root: Path = ROOT) -> dict[str, set[str]]:
    """Config class name -> the keywords some call passes to it."""
    passed: dict[str, set[str]] = {config.__name__: set() for config in CONFIGS}
    for directory in SCANNED:
        for path in sorted((root / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = getattr(callee, "id", None) or getattr(callee, "attr", None)
                if name == "replace":
                    targets = list(passed)
                elif name in passed:
                    targets = [name]
                else:
                    continue
                keywords = {keyword.arg for keyword in node.keywords if keyword.arg}
                for target in targets:
                    passed[target] |= keywords
    return passed


def unset_fields(root: Path = ROOT) -> list[str]:
    """``Class.field`` for every configuration field no program sets."""
    passed = _keywords_passed(root)
    return sorted(
        f"{config.__name__}.{field.name}"
        for config in CONFIGS
        for field in fields(config)
        if field.name not in passed[config.__name__]
    )


def test_every_config_field_is_set_by_some_program():
    assert [name for name in unset_fields() if name not in ALLOWED_UNSET] == []


def test_allowlist_names_only_unset_fields():
    assert set(ALLOWED_UNSET) <= set(unset_fields())
