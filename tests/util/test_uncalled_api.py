"""Every function and class defined in ``src/`` is used, and used by a program.

A ``def`` or ``class`` name counts as used when the same word occurs in
the code of the scanned ``.py`` files other than in a definition of that
name: a call, an import, an attribute access or a string literal
(``getattr`` targets and the benchmark's ``"module:Class.method"``
boundaries are strings).  Comments and docstrings are prose, not code,
and do not count.  Dunder methods are called by the interpreter and are not
checked, and this file, which names its allowlist, is not scanned.

Two checks read that count.  The first scans ``src/``, ``tests/``,
``examples/`` and ``benchmarks/``: a name nothing uses is dead.  The second
leaves ``tests/`` out: a name only tests use is code the system never runs,
so it goes, unless :data:`ALLOWED_TEST_ONLY` keeps it with its reason.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EVERYWHERE = ("src", "tests", "examples", "benchmarks")
PROGRAMS = ("src", "examples", "benchmarks")

#: ``src/`` names that only tests use, kept for the reason given: a paper
#: section, an API the docs describe, or a behaviour-contract fingerprint.
ALLOWED_TEST_ONLY: dict[str, str] = {
    "soap_server_class": "§4: a class becomes a SOAP server by subclassing SOAPServer",
    "set_publication_timeout": "§4/§5.6: the SDE Manager Interface sets the publication timeout",
    "start_interface_server": "§4: the SDE Manager Interface controls the HTTP server",
    "stop_interface_server": "§4: the SDE Manager Interface controls the HTTP server",
    "interface_server_running": "§4: the SDE Manager Interface controls the HTTP server",
    "add_modifier": "§4: selecting the distributed modifier adds a method to the interface",
    "remove_modifier": "§4: deselecting the distributed modifier removes a method",
    "add_display_listener": "§6: the JPie debugger displays each exception to the user",
    "withdraw": "documented API: ARCHITECTURE says publish and withdraw drop a document",
    "flight_dumps": "documented API: ARCHITECTURE and the verify notes read obs.flight_dumps",
    "replay_artifact": "documented API: ARCHITECTURE replays a fuzz artifact with it",
    "try_again": "§6: the debugger's 'try again' re-executes the failed call",
    "million_client_scenario": "documented API: README runs it, and so does CI's memory smoke",
}

_WORD = re.compile(r"\w+")
#: Token types whose text is literal string content (3.12+ splits f-strings).
_STRING_TYPES = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def _prose_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Start and end of each string that stands alone as a statement
    (docstrings), in source order."""
    return sorted(
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def code_words(text: str) -> tuple[list[str], list[tuple[str, int]]]:
    """The words ``text``'s code names, and its ``(name, line)`` definitions.

    Names and the words inside string literals count; comments, docstrings
    and the name a ``def``/``class`` statement defines do not.
    """
    spans = _prose_spans(ast.parse(text))
    span = 0
    words: list[str] = []
    definitions: list[tuple[str, int]] = []
    defining = False
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.NAME:
            if defining:
                definitions.append((token.string, token.start[0]))
            else:
                words.append(token.string)
            defining = token.string in ("def", "class")
            continue
        defining = False
        if token.type in _STRING_TYPES:
            while span < len(spans) and spans[span][1] <= token.start:
                span += 1
            if span < len(spans) and spans[span][0] <= token.start:
                continue
            words.extend(_WORD.findall(token.string))
    return words, definitions


def unused_definitions(scanned: tuple[str, ...], root: Path = ROOT) -> dict[str, str]:
    """``name -> "file:line"`` of each ``src/`` definition whose name no code
    in the ``scanned`` directories (``src`` among them) uses."""
    where: dict[str, str] = {}
    words: Counter[str] = Counter()
    for directory in scanned:
        for path in sorted((root / directory).rglob("*.py")):
            if path.resolve() == Path(__file__).resolve():
                continue
            used, defined = code_words(path.read_text(encoding="utf-8"))
            words.update(used)
            if directory == "src":
                for name, line in defined:
                    where.setdefault(name, f"{path.relative_to(root)}:{line}")
    return {
        name: location
        for name, location in sorted(where.items())
        if not words[name] and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_src_definition_is_used():
    assert unused_definitions(EVERYWHERE) == {}


def test_every_src_definition_is_used_by_a_program():
    flagged = unused_definitions(PROGRAMS)
    assert [
        f"{location}: {name}" for name, location in flagged.items()
        if name not in ALLOWED_TEST_ONLY
    ] == []


def test_allowlist_names_only_unused_definitions():
    assert set(ALLOWED_TEST_ONLY) <= set(unused_definitions(PROGRAMS))
    assert all(reason.strip() for reason in ALLOWED_TEST_ONLY.values())


def test_a_name_only_tests_call_is_flagged_with_its_location(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "lib.py").write_text(
        "def used():\n    return helper()\n\n\ndef helper():\n    pass\n\n\n"
        "def only_tested():\n    pass\n"
    )
    (tmp_path / "src" / "main.py").write_text("from lib import used\n\nused()\n")
    (tmp_path / "tests" / "test_lib.py").write_text("from lib import only_tested\n")
    assert unused_definitions(("src", "tests"), tmp_path) == {}
    assert unused_definitions(("src",), tmp_path) == {"only_tested": "src/lib.py:9"}


def test_a_name_only_prose_names_is_flagged(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "lib.py").write_text(
        '"""Call :func:`documented` for help."""\n\n\n'
        "def documented():\n    pass\n\n\n"
        "def named_in_a_string():\n    pass\n\n\n"
        "# commented is mentioned here only\n"
        "def commented():\n    pass\n\n\n"
        "LOOKUP = getattr(object(), 'named_in_a_string', None)\n"
    )
    assert unused_definitions(("src",), tmp_path) == {
        "commented": "src/lib.py:13",
        "documented": "src/lib.py:4",
    }
