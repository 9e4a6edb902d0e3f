"""The README's "Rolling upgrades" snippet runs and finishes its rollout."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[2] / "README.md"


def _snippet(heading: str) -> str:
    """The first ``python`` code block after the README section ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_rolling_upgrade_snippet_completes_every_wave(capsys):
    namespace: dict = {}
    exec(compile(_snippet("Rolling upgrades"), str(README), "exec"), namespace)
    rollout = namespace["rollout"]
    assert rollout.completed
    assert [wave.duration is None for wave in rollout.waves] == [False, False]
    assert capsys.readouterr().out.startswith("breaking [")
