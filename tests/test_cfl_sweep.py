from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cfl_sweep.py"


def test_a_short_sweep_marches_every_seed_without_a_failure(capsys):
    """tdq solve seeds 1-3, approx 1-2 and tdc 1-3: 26 runs through solve, value, compare
    and approx, none raising."""
    spec = importlib.util.spec_from_file_location("cfl_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["3", "2", "3"]) == 0
    tdq, tdc = capsys.readouterr().out.splitlines()
    assert tdq.startswith("tdq: 8 runs, 0 failed;") and tdc.startswith("tdc: 18 runs, 0 failed;")
