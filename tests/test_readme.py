"""The README's documented library entry points and command options match the code."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from hjj.cli import build_parser

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


def _options_table() -> dict:
    """{command: its options} from README's | Command | Options | table.

    A row names its commands in backticks, or "every command", and its options as
    backticked words that start with "--" (an option's metavar follows it).
    """
    text = README.read_text(encoding="utf-8")
    rows = text[text.index("| Command | Options |\n"):].split("\n\n", 1)[0].splitlines()[2:]
    table = {}
    for row in rows:
        commands, options = row.strip("|").split("|")
        names = re.findall(r"`(\w+)`", commands) if "`" in commands else ["*"]
        for name in names:
            table.setdefault(name, set()).update(re.findall(r"`(--[\w-]+)", options))
    return table


def test_the_options_table_lists_what_each_command_takes():
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    table = _options_table()
    every = table.pop("*")
    assert set(table) <= set(sub.choices)
    for name, parser in sub.choices.items():
        taken = {a.option_strings[0] for a in parser._actions
                 if a.option_strings and a.dest != "help"}
        assert every | table.get(name, set()) == taken, name
