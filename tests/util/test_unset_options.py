"""Every field of the run configurations, and every Scenario keyword, is set
by some caller.

A configuration field is an option only when some caller needs a value
other than its default; one that nothing sets is a constant with a
validation branch and docs around it.  A field of :class:`SDEConfig`,
:class:`ObsConfig`, :class:`CohortModel` or :class:`RetryPolicy` counts as
set when it is passed as a keyword to a call of that class (or of
``dataclasses.replace``) in a ``.py`` file of ``src/``, ``examples/`` or
``benchmarks/``.  The same holds for the parameters with a default of the
:class:`Scenario` builder (``Scenario(...)``, ``.servers``, ``.service``
and ``.clients``), which also count as set when passed by position.
Tests do not count: a test that sets a field checks a value no program
uses.  Nor does trace replay's ``scenario_from_spec``, which passes through
whatever a recording held.  The allowlist names the fields kept unset,
each with its reason.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import fields
from pathlib import Path

from repro.cluster.cohort import CohortModel
from repro.cluster.scenario import Scenario
from repro.core.sde.manager import SDEConfig
from repro.faults.policy import RetryPolicy
from repro.obs.api import ObsConfig

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "examples", "benchmarks")
CONFIGS = (SDEConfig, ObsConfig, CohortModel, RetryPolicy)
#: Callee name -> the Scenario builder function it names.
BUILDER = {
    "Scenario": Scenario.__init__,
    "servers": Scenario.servers,
    "service": Scenario.service,
    "clients": Scenario.clients,
}
#: Functions whose calls pass recorded values through rather than set them.
PASS_THROUGH = frozenset({"scenario_from_spec"})

#: Fields kept configurable although no program sets them, and why.
ALLOWED_UNSET: dict[str, str] = {
    "SDEConfig.interface_port": "deployment port",
    "SDEConfig.soap_base_port": "deployment port",
    "SDEConfig.corba_base_port": "deployment port",
    "CohortModel.tick": "tests/cluster/test_cohort.py runs flows at a finer tick",
    "CohortModel.max_attempts": "tests/cluster/test_cohort.py lowers it on a faulted flow",
    "ObsConfig.sample_interval": "the verify notes set it to sample more coarsely",
}


def _calls(tree: ast.AST):
    """Every call in ``tree`` outside the :data:`PASS_THROUGH` functions."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef) and node.name in PASS_THROUGH:
            continue
        if isinstance(node, ast.Call):
            yield node
        yield from _calls(node)


def _parameters(function) -> list[str]:
    return [name for name in inspect.signature(function).parameters if name != "self"]


def _arguments_passed(root: Path = ROOT) -> dict[str, set[str]]:
    """Callee name -> the parameters some call passes to it."""
    passed: dict[str, set[str]] = {name: set() for name in (*BUILDER, *(c.__name__ for c in CONFIGS))}
    for directory in SCANNED:
        for path in sorted((root / directory).rglob("*.py")):
            for node in _calls(ast.parse(path.read_text(encoding="utf-8"))):
                callee = node.func
                name = getattr(callee, "id", None) or getattr(callee, "attr", None)
                if name == "replace":
                    targets = [config.__name__ for config in CONFIGS]
                elif name in passed:
                    targets = [name]
                else:
                    continue
                arguments = {keyword.arg for keyword in node.keywords if keyword.arg}
                if name in BUILDER and not any(isinstance(a, ast.Starred) for a in node.args):
                    arguments |= set(_parameters(BUILDER[name])[: len(node.args)])
                for target in targets:
                    passed[target] |= arguments
    return passed


def unset_fields(root: Path = ROOT) -> list[str]:
    """``Class.field`` for every configuration field no program sets."""
    passed = _arguments_passed(root)
    return sorted(
        f"{config.__name__}.{field.name}"
        for config in CONFIGS
        for field in fields(config)
        if field.name not in passed[config.__name__]
    )


def unset_scenario_keywords(root: Path = ROOT) -> list[str]:
    """``Scenario.method.parameter`` for every builder default no program overrides."""
    passed = _arguments_passed(root)
    return sorted(
        f"Scenario.{function.__name__}.{name}"
        for callee, function in BUILDER.items()
        for name, parameter in inspect.signature(function).parameters.items()
        if parameter.default is not inspect.Parameter.empty and name not in passed[callee]
    )


def test_every_config_field_is_set_by_some_program():
    assert [name for name in unset_fields() if name not in ALLOWED_UNSET] == []


def test_every_scenario_keyword_is_set_by_some_program():
    assert [name for name in unset_scenario_keywords() if name not in ALLOWED_UNSET] == []


def test_allowlist_names_only_unset_fields():
    assert set(ALLOWED_UNSET) <= set(unset_fields()) | set(unset_scenario_keywords())


def test_a_replay_pass_through_sets_nothing(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "replay.py").write_text(
        "def scenario_from_spec(spec):\n"
        "    return Scenario(spec['name']).clients(1, stale_every=spec['k'])\n"
    )
    (tmp_path / "src" / "main.py").write_text("Scenario('x').clients(2, calls=3)\n")
    unset = unset_scenario_keywords(tmp_path)
    assert "Scenario.clients.stale_every" in unset
    assert "Scenario.clients.calls" not in unset
    assert "Scenario.__init__.name" not in unset
