"""The README's documented library entry points import as written."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _first_python_fence_after(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n## {heading}\n"):]
    start = after.index("```python\n") + len("```python\n")
    return after[start:after.index("```", start)]


def test_library_entry_points_block_runs():
    block = _first_python_fence_after("Library entry points")
    assert "from hjj import" in block
    exec(compile(block, str(README), "exec"), {})
