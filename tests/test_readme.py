"""README's library example must run against the current public names."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library example'"
    exec(compile(match.group(1), "README.md", "exec"), {})
