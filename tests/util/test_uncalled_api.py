"""Every function and class defined in ``src/`` is used somewhere.

A ``def`` or ``class`` name counts as used when the same word occurs
anywhere in the ``.py`` files of ``src/``, ``tests/``, ``examples/`` or
``benchmarks/`` other than in a definition of that name: a call, an
import, an attribute access or a string (``getattr`` targets and the
benchmark's ``"module:Class.method"`` boundaries are strings).  Dunder
methods are called by the interpreter and are not checked, and this file,
which names its allowlist, is not scanned.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "tests", "examples", "benchmarks")

#: Kept although nothing uses it yet.
ALLOWED_UNUSED: set[str] = set()

_DEFINITION = re.compile(r"^[ \t]*(?:async[ \t]+)?(?:def|class)[ \t]+(\w+)", re.MULTILINE)
_WORD = re.compile(r"\w+")


def uncalled_names(root: Path = ROOT) -> list[str]:
    """The ``src/`` definitions whose name occurs nowhere but in definitions."""
    definitions: Counter[str] = Counter()
    words: Counter[str] = Counter()
    for directory in SCANNED:
        for path in sorted((root / directory).rglob("*.py")):
            if path.resolve() == Path(__file__).resolve():
                continue
            text = path.read_text(encoding="utf-8")
            words.update(_WORD.findall(text))
            if directory == "src":
                definitions.update(_DEFINITION.findall(text))
    return sorted(
        name
        for name, count in definitions.items()
        if words[name] == count and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_src_definition_is_used():
    assert [name for name in uncalled_names() if name not in ALLOWED_UNUSED] == []


def test_allowlist_names_only_unused_definitions():
    assert ALLOWED_UNUSED <= set(uncalled_names())
