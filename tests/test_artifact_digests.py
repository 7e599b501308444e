from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_names_every_rung_whose_prefix_moved():
    tool = _tool()
    recorded = {label: prefix for label, *_, prefix in tool.RUNS}
    assert len(recorded) == 14
    assert tool.moved(recorded) == []
    printed = dict(recorded)
    printed["tdq-approx seed=41"] = "00000000"
    printed["model-compare dx=0.008"] = "ffffffff"
    del printed["model-value dx=0.01"]
    assert tool.moved(printed) == ["model-compare dx=0.008", "tdq-approx seed=41",
                                   "model-value dx=0.01"]


def test_every_recorded_prefix_is_printed_today():
    """Every rung's CLI artifacts are byte-identical to the recorded ones (--check exits 0)."""
    assert _tool().main(["--check"]) == 0


def test_a_rung_that_writes_to_stderr_fails_by_name(monkeypatch, capsys):
    """A command that exits 0 but warns fails its rung, as one that exits nonzero does."""
    tool = _tool()
    monkeypatch.setattr(tool.subprocess, "run", lambda cmd, **kw: subprocess.CompletedProcess(
        cmd, 0, "", "RuntimeWarning: overflow encountered in add\n"))
    assert tool.main(["--check"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "model-compare dx=0.008: exit 0: RuntimeWarning: overflow encountered in add"]
