"""Print the sha1 prefixes of the checked CLI artifacts.

Writes the benchmark's problem files (tdq seeds 41 and 98 and the model
problem, drawn by perfbench/problems.py) and the time-dependent control
problem TDC below into a temporary directory, runs each command below in a
fresh `python -m hjj.cli` process with PYTHONPATH=src, and prints one
`<sha1[:8]> <rung> <artifacts>` line per rung, in this fixed order:

    model-compare compare.json at dx 0.008, 0.004 and 0.002
    tdq-solve field.csv, seeds 41 and 98 (dx 0.02)
    tdq-approx approx.json, seeds 41 and 98 (dx 0.04)
    hjj value field.csv on the model (dx 0.01)
    tdc-solve field.csv (dx 0.02) and tdc-approx approx.json (dx 0.04)
    tdc-compare compare.json (dx 0.02)
    model-compare compare.json at dx 0.004 with --report-times 0,0.25,1
    hjj value on the model (dx 0.01) with --report-times 0,0.25,1: field.csv
        and its three snapshot_k.tsv, digested together

    python tools/artifact_digests.py            # print the prefixes
    python tools/artifact_digests.py --check    # and compare them with RUNS

Two checkouts that print the same lines wrote byte-identical artifacts.
RUNS records the prefix each rung prints today; with --check the tool exits
1 and names every rung whose prefix moved. A change that moves an artifact
by design updates its recorded prefix. Exits nonzero, naming the command,
when one of them fails.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (label, problem file stem, subcommand, its options, artifacts, recorded sha1 prefix);
# options and artifacts are space-separated, and a rung with several artifacts
# digests their bytes one after another.
RUNS = [
    ("model-compare dx=0.008", "model", "compare", "--dx 0.008", "compare.json", "0f750bc2"),
    ("model-compare dx=0.004", "model", "compare", "--dx 0.004", "compare.json", "5a8adf25"),
    ("model-compare dx=0.002", "model", "compare", "--dx 0.002", "compare.json", "f9450365"),
    ("tdq-solve seed=41", "tdq41", "solve", "--dx 0.02", "field.csv", "a386d84c"),
    ("tdq-solve seed=98", "tdq98", "solve", "--dx 0.02", "field.csv", "4210b6b2"),
    ("tdq-approx seed=41", "tdq41", "approx", "--dx 0.04", "approx.json", "c9892001"),
    ("tdq-approx seed=98", "tdq98", "approx", "--dx 0.04", "approx.json", "63f7fe84"),
    ("model-value dx=0.01", "model", "value", "--dx 0.01", "field.csv", "3df70b7f"),
    ("tdc-solve dx=0.02", "tdc", "solve", "--dx 0.02", "field.csv", "f0643ca3"),
    ("tdc-approx dx=0.04", "tdc", "approx", "--dx 0.04", "approx.json", "30fe89cf"),
    ("tdc-compare dx=0.02", "tdc", "compare", "--dx 0.02", "compare.json", "dc3ce5c9"),
    ("model-compare dx=0.004 report-times", "model", "compare",
     "--dx 0.004 --report-times 0,0.25,1", "compare.json", "08c086df"),
    ("model-value dx=0.01 report-times", "model", "value", "--dx 0.01 --report-times 0,0.25,1",
     "field.csv snapshot_0.tsv snapshot_1.tsv snapshot_2.tsv", "e50d0715"),
]


def _step(breakpoints: list, values: list) -> dict:
    return {"breakpoints": breakpoints, "values": values}


# A line control system whose speeds and costs change in time: on edge 0
# f = b(t) a and l = c(t) + a^2 / 2, on edge 1 f = a and l = d(t) + e(t) a^2,
# with 21 controls in [-1, 1] each, a step parking cost l0 and datum |x| / 2.
# Both edges carry step signals in their forms, so the scheme route freezes
# them window by window; the model problem's edges are constant.
TDC = {
    "schema": "hjj/1",
    "T": 1.0,
    "R_domain": 2.0,
    "control_system": {
        "edges": [
            {"f": {"c1": _step([0.0, 0.3, 0.7, 1.0], [1.0, 1.6, 0.8])},
             "l": {"c0": _step([0.0, 0.5, 1.0], [0.5, 1.0]), "c2": 0.5},
             "controls": {"min": -1.0, "max": 1.0, "n": 21}},
            {"f": {"c1": 1.0},
             "l": {"c0": _step([0.0, 0.4, 1.0], [1.0, 0.2]),
                   "c2": _step([0.0, 0.6, 1.0], [0.5, 1.0])},
             "controls": {"min": -1.0, "max": 1.0, "n": 21}},
        ],
        "junction": {"l0": _step([0.0, 0.25, 1.0], [0.3, -0.2]), "A0": -1.0},
        "delta": 0.8,
    },
    "u0": {"form": "abs", "scale": 0.5},
}


def moved(printed: dict) -> list:
    """The labels of RUNS, in order, whose prefix in printed is not the recorded one."""
    return [label for label, *_, recorded in RUNS if printed.get(label) != recorded]


def _problems():
    spec = importlib.util.spec_from_file_location(
        "_bench_problems", ROOT / "perfbench" / "problems.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print("usage: artifact_digests.py [--check]", file=sys.stderr)
        return 2
    problems = _problems()
    configs = {"model": problems.model_problem(),
               "tdq41": problems.tdq_problem(41), "tdq98": problems.tdq_problem(98),
               "tdc": TDC}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for stem, cfg in configs.items():
            Path(tmp, f"{stem}.json").write_text(json.dumps(cfg), encoding="utf-8")
        printed = {}
        for k, (label, stem, command, options, artifacts, _) in enumerate(RUNS):
            out = Path(tmp, f"out{k}")
            cmd = [sys.executable, "-m", "hjj.cli", command, "--problem",
                   str(Path(tmp, f"{stem}.json")), *options.split(), "--out", str(out)]
            done = subprocess.run(cmd, env=env, cwd=tmp, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{label}: exit {done.returncode}: {done.stderr.strip()}", file=sys.stderr)
                return 1
            digest = hashlib.sha1()
            for name in artifacts.split():
                digest.update((out / name).read_bytes())
            printed[label] = digest.hexdigest()[:8]
            print(f"{printed[label]} {label} {artifacts}", flush=True)
    bad = moved(printed) if check else []
    recorded = {label: prefix for label, *_, prefix in RUNS}
    for label in bad:
        print(f"moved: {label}: recorded {recorded[label]}, got {printed[label]}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
