"""Check that `hjj compare` holds no (levels x nodes) field, by its peak RSS.

    python -S tools/rss_guard.py

Run it from anywhere, with -S: the launcher imports no site packages and so
stays small, which matters because a child's ru_maxrss starts at the RSS of
the process that spawned it. It starts three children one at a time with
os.posix_spawn, PYTHONPATH=src, and reaps each with os.wait4, so each peak
is that child's own:

  1. a child that writes perfbench/problems.model_problem() to a file in a
     temporary directory;
  2. python -c "import hjj.cli", the floor every command pays;
  3. hjj compare --dx 0.002 on that file.

It prints both peaks in MiB and exits 1 when the compare peak exceeds the
import peak by more than one field of the compare grid, (steps + 1) x nodes
x 8 bytes as compare.json reports them (1001 x 2001 x 8 B = 16.0 MB, 15.3
MiB), or when a child fails.
"""

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WRITE_MODEL = ("import json, pathlib, sys; sys.path.insert(0, 'perfbench'); import problems; "
               "pathlib.Path(sys.argv[1]).write_text(json.dumps(problems.model_problem()))")


def _peak_mib(argv: list) -> float:
    """Spawn python with argv, wait for it, and return its peak RSS in MiB.

    SystemExit naming argv when the child exits nonzero.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"failed: {' '.join(argv)}")
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        problem, out = os.path.join(tmp, "model.json"), os.path.join(tmp, "out")
        _peak_mib(["-c", WRITE_MODEL, problem])
        floor = _peak_mib(["-c", "import hjj.cli"])
        peak = _peak_mib(["-m", "hjj.cli", "compare", "--problem", problem, "--dx", "0.002",
                         "--out", out])
        with open(os.path.join(out, "compare.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    field_mib = (report["steps"] + 1) * report["nodes"] * 8 / 2**20
    print(f"import hjj.cli {floor:.1f} MiB, compare at dx 0.002 {peak:.1f} MiB: "
          f"+{peak - floor:.1f} MiB against one field of {field_mib:.1f} MiB")
    return 1 if peak - floor > field_mib else 0


if __name__ == "__main__":
    sys.exit(main())
