"""The docs name only report attributes that exist.

README.md's ``python`` blocks read a run's ``report.<name>``, and
ARCHITECTURE.md names fleet-wide aggregates (``total_*``, ``modeled_*``)
in backticks.  Each such name must be an attribute of
:class:`~repro.cluster.report.ClusterReport`, so deleting or renaming an
aggregate fails here until the docs follow.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from repro.cluster.report import ClusterReport

ROOT = Path(__file__).resolve().parents[2]

_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)
_REPORT_NAME = re.compile(r"\breport\.(\w+)")
_BACKTICKED = re.compile(r"`([^`\n]+)`")
_AGGREGATE = re.compile(r"\b((?:total|modeled)_\w+)")


def _is_report_attribute(name: str) -> bool:
    return hasattr(ClusterReport, name) or name in {entry.name for entry in fields(ClusterReport)}


def readme_report_names(text: str) -> set[str]:
    """Every ``report.<name>`` in the ``python`` blocks of ``text``."""
    return {
        name for block in _PYTHON_BLOCK.findall(text) for name in _REPORT_NAME.findall(block)
    }


def backticked_aggregates(text: str) -> set[str]:
    """Every ``total_*`` / ``modeled_*`` name inside backticks in ``text``."""
    return {name for span in _BACKTICKED.findall(text) for name in _AGGREGATE.findall(span)}


def test_readme_snippets_read_existing_report_attributes():
    names = readme_report_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert "outcomes" in names
    assert sorted(name for name in names if not _is_report_attribute(name)) == []


def test_architecture_names_existing_aggregates():
    names = backticked_aggregates((ROOT / "ARCHITECTURE.md").read_text(encoding="utf-8"))
    assert sorted(name for name in names if not _is_report_attribute(name)) == []


def test_the_guard_catches_a_deleted_name():
    readme = "```python\nreport.outcomes('all')\nreport.total_successes\n```\n"
    architecture = "the `total_successes` and `modeled_clients` counts"
    assert readme_report_names(readme) == {"outcomes", "total_successes"}
    assert backticked_aggregates(architecture) == {"total_successes", "modeled_clients"}
    assert not _is_report_attribute("total_successes")
    assert _is_report_attribute("modeled_clients")
