from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_without_docstrings_comments_or_blanks(tmp_path: Path, code_lines,
                                                                 capsys):
    source = '"""Doc."""\n\n# note\nx = 1  # one\n\n\ndef f():\n    """Doc."""\n    return x\n'
    (tmp_path / "m.py").write_text(source, encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "code 3 total 9\n"


def test_a_path_that_does_not_exist_exits_2_naming_it(tmp_path: Path, code_lines, capsys):
    missing = tmp_path / "nonexistent"
    assert code_lines.main([str(tmp_path), str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"code_lines: no such file or directory: {missing}\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_and_exits_0(code_lines, capsys, flag):
    assert code_lines.main([flag]) == 0
    assert "python tools/code_lines.py DIR ..." in capsys.readouterr().out
