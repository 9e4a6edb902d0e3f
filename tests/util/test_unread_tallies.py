"""Every tally that ``src/`` keeps is read by a program.

A tally is an attribute that an augmented assignment updates
(``stats.sent += 1``, ``self.pending -= 1``).  It counts as read when some
code in ``src/``, ``examples/`` or ``benchmarks/`` loads an attribute of
the same name.  A load inside a ``__repr__`` does not count: a number that
only a debugging string shows is work the program does for nobody.  Tests
do not count either, since a tally only a test reads measures nothing the
system uses; such a test checks the behaviour through what the program
keeps instead.

Counters of drops, faults and refusals are safety code: they record that
something went wrong even when nothing reads them yet.
:data:`ALLOWED_UNREAD` keeps those, each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PROGRAMS = ("src", "examples", "benchmarks")

_FAULT = "safety: counts a fault or refusal returned to a caller"

#: Tallies no program reads, kept for the reason given.
ALLOWED_UNREAD: dict[str, str] = {
    "messages_dropped": "safety: counts a message the network dropped",
    "replies_dropped": "safety: counts a reply lost to a closed connection",
    "late_replies_dropped": "safety: counts a reply that arrived after its call gave up",
    "unsolicited_replies": "safety: counts a reply no pending call asked for",
    "requests_aborted": "safety: counts a call aborted by a closed connection",
    "handler_errors": "safety: counts a request handler that raised",
    "malformed_requests": "safety: counts a request the server could not parse",
    "application_faults": _FAULT,
    "system_exceptions_sent": _FAULT,
    "user_exceptions_sent": _FAULT,
    "faults_returned": _FAULT,
    "suppressed_trips": "safety: counts a fault trip suppressed by the injector's budget",
    "delayed": "safety: counts a message a link fault profile delayed",
}


def _repr_nodes(tree: ast.AST) -> set[int]:
    """The ids of every node inside a ``__repr__`` definition."""
    return {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and function.name == "__repr__"
        for node in ast.walk(function)
    }


def unread_tallies(root: Path = ROOT) -> dict[str, str]:
    """``name -> "file:line"`` of each attribute ``src/`` updates with
    ``+=``/``-=`` that no program code outside a ``__repr__`` loads."""
    updated: dict[str, str] = {}
    loaded: set[str] = set()
    for directory in PROGRAMS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            in_repr = _repr_nodes(tree)
            for node in ast.walk(tree):
                if (
                    directory == "src"
                    and isinstance(node, ast.AugAssign)
                    and isinstance(node.op, (ast.Add, ast.Sub))
                    and isinstance(node.target, ast.Attribute)
                ):
                    updated.setdefault(
                        node.target.attr, f"{path.relative_to(root)}:{node.lineno}"
                    )
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in in_repr
                ):
                    loaded.add(node.attr)
    return {
        name: location
        for name, location in sorted(updated.items())
        if name not in loaded
    }


def test_every_tally_is_read_by_a_program():
    assert [
        f"{name}: {location}"
        for name, location in unread_tallies().items()
        if name not in ALLOWED_UNREAD
    ] == []


def test_allowlist_names_only_unread_tallies():
    assert set(ALLOWED_UNREAD) <= set(unread_tallies())
    assert all(reason.strip() for reason in ALLOWED_UNREAD.values())


def test_a_tally_only_a_test_or_a_repr_reads_is_flagged(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "lib.py").write_text(
        "class Stats:\n"
        "    def __init__(self):\n"
        "        self.read = 0\n"
        "        self.tested = 0\n"
        "        self.shown = 0\n"
        "\n"
        "    def bump(self):\n"
        "        self.read += 1\n"
        "        self.tested += 1\n"
        "        self.shown -= 1\n"
        "\n"
        "    def __repr__(self):\n"
        "        return f'Stats({self.shown})'\n"
    )
    (tmp_path / "src" / "main.py").write_text(
        "from lib import Stats\n\nprint(Stats().read)\n"
    )
    (tmp_path / "tests" / "test_lib.py").write_text(
        "from lib import Stats\n\nassert Stats().tested == 0\n"
    )
    assert unread_tallies(tmp_path) == {
        "shown": "src/lib.py:10",
        "tested": "src/lib.py:9",
    }
