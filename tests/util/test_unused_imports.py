"""Every module-level import in ``src/`` is used by its module.

An imported name counts as used when the same word occurs in the module
more than once: the import itself is one occurrence, so a use in code, an
annotation, a string or ``__all__`` is another.  Package ``__init__``
files re-export what they import and are not checked, nor are
``__future__`` imports.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_WORD = re.compile(r"\w+")


def _module_imports(tree: ast.Module):
    """The import statements of the module body and of blocks directly in it
    (``if TYPE_CHECKING:``, ``try``)."""
    for node in tree.body:
        if isinstance(node, (ast.If, ast.Try)):
            yield from _module_imports(ast.Module(body=node.body + node.orelse, type_ignores=[]))
        elif isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            yield node


def unused_imports(root: Path = SRC) -> list[str]:
    """``"<path>:<name>"`` for each imported name its module never uses."""
    unused = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        words = Counter(_WORD.findall(text))
        for node in _module_imports(ast.parse(text)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name != "*" and words[name] == 1:
                    unused.append(f"{path.relative_to(root).as_posix()}:{name}")
    return unused


def test_every_module_level_import_is_used():
    assert unused_imports() == []


def test_an_unused_import_is_reported(tmp_path):
    module = tmp_path / "pkg" / "module.py"
    module.parent.mkdir()
    module.write_text(
        "from __future__ import annotations\n"
        "from typing import Any, Callable\n"
        "import os.path\n"
        "if True:\n"
        "    from dataclasses import field\n"
        "def run(f: Callable) -> None:\n"
        "    os.getcwd()\n"
    )
    (module.parent / "__init__.py").write_text("from typing import Any\n")
    assert unused_imports(tmp_path) == ["pkg/module.py:Any", "pkg/module.py:field"]
