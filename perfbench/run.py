"""hjj benchmark: three CLI workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload tdq-solve --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout that holds src/hjj; it needs only the
Python and numpy that hjj needs. Workloads (why each was chosen is in
BENCHMARK.json):

  tdq-solve      hjj solve, dx=0.02, on a seed-drawn time-dependent quadratic
  model-compare  hjj compare along dx = 0.008, 0.004, 0.002 on criterion 1's
                 model problem, whose value function is min(t, |x|); no seed
  tdq-approx     hjj approx, dx=0.04, default widths, same problem family

--trace 0 starts fresh `python -m hjj.cli` processes back to back (a
closed loop, one process at a time) for --seconds, at least three samples,
and reports medians: wall_s (process start to exit, summed over the ladder
for model-compare), peak_rss_mb (the child's ru_maxrss), and setup_s, from
set-up probes in fresh processes (perfbench/setup_probe.py), one before
each sample and at least seven.

--trace 1 runs untraced samples for a third of --seconds, then the same
command twice in-process under perfbench/tracer.py, and reports the
per-layer metrics of perfbench/layers.py, unscaled.

Calibration: on a shared host the speed of the CPU drifts by tens of
percent over minutes, in CPU time as much as in wall time, which no amount
of sampling inside one run removes. So next to each set-up probe the run
also times perfbench/calibrate.py, a fixed computation that uses no hjj
code, in a fresh process, and reports wall_s and setup_s scaled to a host
on which that takes REF_S: median * REF_S / median(calibration). The
unscaled medians and the scale factor are printed and recorded too.

Every output is checked; a sample with a nonzero exit or a failed check
counts as failed. Human-readable lines come first; the last line of stdout
is one JSON object with correct, attempted, failed and metrics. The full
record (samples, checks, accuracy, versions) goes to
perfbench_out/result-<workload>-seed<seed>-trace<0|1>.json and the spans of
traced runs to perfbench_out/spans/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import layers
import problems

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, "perfbench_out")

PROBE_ROUNDS = 7           # at least this many set-up probes and calibrations
MIN_SAMPLES = 3
REF_S = 0.4                # nominal wall time of perfbench/calibrate.py
TRACED_RUNS = 2
DEADLINE_S = 170.0         # the whole run ends well inside 180 s
CHILD_TIMEOUT_S = 120.0
GAP_TOL = 0.05             # criterion 1: both routes within 0.05 of min(t, |x|)
MIN_ORDER = 0.45           # O(dx^1/2) rate for flux-limited junction schemes
SANDWICH_TOL = 1e-9
COVER_SLACK = 0.03         # main-thread self times vs traced wall, relative


@dataclass(frozen=True)
class Workload:
    command: str
    dxs: tuple
    seeded: bool


WORKLOADS = {
    "tdq-solve": Workload("solve", (0.02,), True),
    "model-compare": Workload("compare", (0.008, 0.004, 0.002), False),
    "tdq-approx": Workload("approx", (0.04,), True),
}
APPROX_WIDTHS = (0.2, 0.1, 0.05, 0.025)  # the CLI default
ARTIFACT = {"solve": "field.csv", "compare": "compare.json", "approx": "approx.json"}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["HJJ_THREADS"] = str(min(2, nproc()))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list, log_path: str, deadline: float) -> tuple:
    """Run argv to its end; (exit code, wall s, peak RSS MB, CPU s). Killed on timeout."""
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def _tail(path: str, n: int = 400) -> str:
    with open(path, "rb") as fh:
        return fh.read()[-n:].decode(errors="replace").strip()


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- output checks: each returns a list of failure messages ------------------

def check_field_csv(path: str, cfg: dict, dx: float, grid: dict) -> list:
    with open(path, "rb") as fh:
        if fh.readline() != b"t,x,u\n":
            return ["field.csv header is not t,x,u"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    levels, nodes = grid["steps"] + 1, grid["nodes"]
    if data.shape != (levels * nodes, 3):
        return [f"field.csv has {data.shape[0]} rows, expected (steps+1)*nodes = "
                f"{levels}*{nodes}"]
    if not np.all(np.isfinite(data)):
        return ["field.csv holds non-finite values"]
    errors = []
    t = data[:, 0].reshape(levels, nodes)
    x = data[:, 1].reshape(levels, nodes)
    m = (nodes - 1) // 2
    if not (np.all(t == t[:, :1]) and t[0, 0] == 0.0 and t[-1, 0] == cfg["T"]
            and np.all(np.diff(t[:, 0]) > 0)):
        errors.append("field.csv time levels are not 0 < ... < T, one per block")
    if not np.allclose(x, np.arange(-m, m + 1) * dx, rtol=0, atol=1e-12):
        errors.append("field.csv x column is not the line grid")
    sup_u = float(np.max(np.abs(data[:, 2])))
    bound = problems.tdq_sup_bound(cfg)
    if sup_u > bound * (1 + 1e-9) + 1e-12:
        errors.append(f"sup|u| = {sup_u:.6g} exceeds T*max(sup|A|, sup|H_i(t,0)|) = {bound:.6g}")
    return errors


def check_compare(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    gap = rep["sup_gap"]
    if not (math.isfinite(gap) and gap <= GAP_TOL):
        return [f"compare sup_gap {gap!r} > {GAP_TOL} at dx={rep['dx']}"]
    return []


def check_approx(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    rows = rep["widths"]
    errors = []
    if [r["eps"] for r in rows] != sorted(APPROX_WIDTHS, reverse=True):
        errors.append(f"approx widths {[r['eps'] for r in rows]} != {APPROX_WIDTHS}")
    viol = [r["sandwich_violation"] for r in rows]
    if not all(math.isfinite(v) and abs(v) <= SANDWICH_TOL for v in viol):
        errors.append(f"sandwich_violation {viol} not within {SANDWICH_TOL} of 0")
    kn = [r["kn_l1"] for r in rows]
    if not all(math.isfinite(k) for k in kn) or any(b >= a for a, b in zip(kn, kn[1:])):
        errors.append(f"kn_l1 {kn} does not decrease strictly with eps")
    return errors


def fit_order(dxs: list, errs: list) -> float:
    """Least-squares slope of log(err) against log(dx)."""
    return float(np.polyfit(np.log(dxs), np.log(errs), 1)[0])


# -- one benchmark run --------------------------------------------------------

class Bench:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.w = WORKLOADS[name]
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = os.path.join(OUT, "work", name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        self.cfg = problems.tdq_problem(seed) if self.w.seeded else problems.model_problem()
        self.problem = os.path.join(self.work, "problem.json")
        with open(self.problem, "w", encoding="utf-8") as fh:
            json.dump(self.cfg, fh)
        self.attempted = self.failed = 0
        self.failures = []
        self.digests = None
        self.verdicts = {}
        self.grids = []
        self.samples = []
        self.setup, self.calib = [], []
        self.findings = []
        self.record = {}

    def _path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def cli_argv(self, k: int) -> list:
        return [self.w.command, "--problem", self.problem, "--dx", repr(self.w.dxs[k]),
                "--out", self._path(f"out{k}")]

    def prepare(self) -> None:
        """Compile and cache hjj once, then learn each rung's grid from a probe."""
        rc, *_ = run_child([sys.executable, "-c", "import hjj.cli"],
                             self._path("warmup.log"), self.deadline)
        if rc != 0:
            raise SystemExit(f"cannot import hjj from src/: {_tail(self._path('warmup.log'))}")
        for k, dx in enumerate(self.w.dxs):
            self.grids.append(self.probe(dx))

    def probe(self, dx: float) -> dict:
        log = self._path("probe.log")
        rc, *_ = run_child([sys.executable, os.path.join(HERE, "setup_probe.py"),
                              self.problem, repr(dx)], log, self.deadline)
        if rc != 0:
            raise SystemExit(f"set-up probe failed: {_tail(log)}")
        with open(log, encoding="utf-8") as fh:
            return json.loads(fh.read().strip().splitlines()[-1])

    def check_rung(self, k: int, found: list, digests: list) -> None:
        """Check rung k's artifact; failures go to found, its hash to digests.

        Byte-identical artifacts get identical verdicts, so each distinct
        artifact is parsed and checked once per run.
        """
        out = self._path(f"out{k}", ARTIFACT[self.w.command])
        if not os.path.isfile(out):
            found.append(f"{out} was not written")
            return
        key = (k, _digest(out))
        if key not in self.verdicts:
            if self.w.command == "solve":
                errors = check_field_csv(out, self.cfg, self.w.dxs[k], self.grids[k])
            elif self.w.command == "compare":
                errors = check_compare(out)
            else:
                errors = check_approx(out)
            self.verdicts[key] = errors
        found += self.verdicts[key]
        digests.append(key)

    def finish_sample(self, found: list, digests: list) -> bool:
        """Count one attempted sample; outputs must match the run's first sample."""
        if not found:
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                found.append("outputs differ from the first sample of this run")
        self.attempted += 1
        if found:
            self.failed += 1
            self.failures.extend(found)
        return not found

    def untraced_sample(self) -> dict | None:
        wall, rss, cpu, found, digests = 0.0, 0.0, 0.0, [], []
        for k in range(len(self.w.dxs)):
            log = self._path(f"cli{k}.log")
            rc, w, mb, c = run_child([sys.executable, "-m", "hjj.cli", *self.cli_argv(k)],
                                     log, self.deadline)
            wall += w
            cpu += c
            rss = max(rss, mb)
            if rc != 0:
                found.append(f"exit {rc}: {_tail(log)}")
            else:
                self.check_rung(k, found, digests)
        if not self.finish_sample(found, digests):
            return None
        return {"wall_s": wall, "rss_mb": rss, "cpu_s": cpu}

    def inproc_sample(self, run: int, trace: bool) -> dict | None:
        """The command in-process: traced, and with closed-form errors for compare."""
        closed = self.w.command == "compare"
        wall, found, digests, summaries = 0.0, [], [], []
        cf = {"fd": [], "dp": []}
        for k in range(len(self.w.dxs)):
            log, res = self._path(f"inproc{k}.log"), self._path(f"inproc{k}.json")
            argv = [sys.executable, os.path.join(HERE, "inproc.py"), "--result", res]
            if trace:
                spans = os.path.join(OUT, "spans", f"{self.name}-seed{self.seed}-run{run}-{k}.json")
                argv += ["--trace", "--spans", spans, "--run-id", f"{run}.{k}"]
            if closed:
                argv.append("--closed-form")
            rc, w, *_ = run_child(argv + ["--", *self.cli_argv(k)], log, self.deadline)
            if rc != 0:
                found.append(f"in-process run exit {rc}: {_tail(log)}")
                continue
            with open(res, encoding="utf-8") as fh:
                result = json.load(fh)
            if not result["hjj_file"].startswith(os.path.join(ROOT, "src")):
                found.append(f"hjj imported from {result['hjj_file']}, not this checkout")
            if result["rc"] != 0:
                found.append(f"hjj exit {result['rc']}: {_tail(log)}")
                continue
            self.check_rung(k, found, digests)
            wall += w - result["post_s"]
            if trace:
                summaries.append(result["summary"])
            if closed:
                for route in ("fd", "dp"):
                    cf[route] += result["closed_form"][route]
        if closed:
            found += self.check_accuracy(cf)
        if not self.finish_sample(found, digests):
            return None
        return {"wall_s": wall, "sample": layers.Sample(summaries) if trace else None}

    def check_accuracy(self, cf: dict) -> list:
        errors = []
        acc = {}
        for route in ("fd", "dp"):
            rows = sorted(cf[route], key=lambda r: -r["dx"])
            if [r["dx"] for r in rows] != list(self.w.dxs):
                errors.append(f"{route}: expected one field per dx {self.w.dxs}")
                continue
            errs = [r["err"] for r in rows]
            acc[f"err_{route}_closed"] = errs[-1]
            acc[f"order_{route}"] = fit_order(list(self.w.dxs), errs)
            acc[f"err_{route}_ladder"] = errs
            if errs[-1] > GAP_TOL:
                errors.append(f"{route} error {errs[-1]:.4g} against min(t,|x|) > {GAP_TOL}")
            if acc[f"order_{route}"] < MIN_ORDER:
                errors.append(f"{route} order {acc[f'order_{route}']:.3f} < {MIN_ORDER}")
        self.record.setdefault("accuracy", acc)
        return errors

    def probe_round(self) -> None:
        """One set-up probe and one calibration, each in a fresh process."""
        self.setup.append(self.probe(self.w.dxs[-1])["setup_s"])
        log = self._path("calibrate.log")
        rc, wall, *_ = run_child([sys.executable, os.path.join(HERE, "calibrate.py")],
                                 log, self.deadline)
        if rc != 0:
            raise SystemExit(f"calibration failed: {_tail(log)}")
        self.calib.append(wall)

    def sample_loop(self, seconds: float, min_samples: int, probes: bool) -> list:
        """Untraced samples back to back for `seconds`; the successful ones.

        With probes, a probe round runs before each sample, so set-up and
        calibration are measured over the same stretch of time as the samples.
        """
        start = time.monotonic()
        done = []
        while (len(self.samples) < min_samples or time.monotonic() - start < seconds) \
                and time.monotonic() < self.deadline - 2.0 * (max(
                    (s["wall_s"] for s in done), default=0.0) + 1.0):
            if probes:
                self.probe_round()
            s = self.untraced_sample()
            self.samples.append(s)
            if s is not None:
                done.append(s)
        return done

    def run_untraced(self) -> dict:
        if self.w.command == "compare":
            self.inproc_sample(0, trace=False)
        done = self.sample_loop(self.seconds, MIN_SAMPLES, probes=True)
        if not done:
            raise SystemExit("no sample succeeded: " + "; ".join(self.failures[:3]))
        while len(self.setup) < PROBE_ROUNDS:
            self.probe_round()
        walls = [s["wall_s"] for s in done]
        rss = [s["rss_mb"] for s in done]
        scale = REF_S / statistics.median(self.calib)
        self.record.update(walls_s=walls, rss_mb=rss, cpu_s=[s["cpu_s"] for s in done],
                           setup_s=self.setup, calibrate_s=self.calib, scale=scale,
                           unscaled={"wall_s": statistics.median(walls),
                                     "setup_s": statistics.median(self.setup)})
        return {
            "wall_s": (statistics.median(walls) * scale, "s"),
            "setup_s": (statistics.median(self.setup) * scale, "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }

    def trace_checks(self, samples: list) -> None:
        """The traced runs checked against themselves.

        Every counter and span call count should repeat exactly across traced
        runs, and on the main thread the spans' self times should sum to the
        traced wall within COVER_SLACK. These check the measurement, not hjj's
        outputs, so a miss is reported and recorded as a finding, not counted
        in `failed`; no later claim may rest on a count that did not repeat.
        """
        reps = [s.repeatables() for s in samples]
        keys = sorted(set().union(*reps))
        differ = {k: [r.get(k) for r in reps] for k in keys
                  if len({r.get(k) for r in reps}) > 1}
        cover = [s.main_self_s / s.wall_s for s in samples]
        self.record.update(counts_not_repeating=differ, main_thread_cover=cover)
        if differ:
            self.findings.append("counts differ between traced runs: " + ", ".join(
                f"{k} {v}" for k, v in differ.items()))
        if any(abs(c - 1.0) > COVER_SLACK for c in cover):
            self.findings.append(f"main-thread self times cover {cover} of the traced wall, "
                                 f"outside 1 +- {COVER_SLACK}")

    def run_traced(self) -> dict:
        walls = [s["wall_s"] for s in self.sample_loop(self.seconds / 3.0, 1, probes=False)]
        traced = [self.inproc_sample(r, trace=True) for r in range(1, TRACED_RUNS + 1)]
        if not walls or any(t is None for t in traced):
            raise SystemExit("traced run failed: " + "; ".join(self.failures[:3]))
        samples = [t["sample"] for t in traced]
        self.trace_checks(samples)
        metrics = {}
        for name, unit, _better, value, _moves in layers.PER_LAYER:
            metrics[name] = (statistics.fmean(value(s) for s in samples), unit)
        untraced = statistics.median(walls)
        traced_wall = statistics.fmean(t["wall_s"] for t in traced)
        metrics[layers.OVERHEAD[0]] = ((traced_wall - untraced) / untraced, layers.OVERHEAD[1])
        self.record.update(
            untraced_walls_s=walls, traced_walls_s=[t["wall_s"] for t in traced],
            layer_self_s=[s.layer_self_s() for s in samples],
            missing_spans=sorted(samples[0].missing),
            moves={name: moves for name, _u, _b, _v, moves in layers.PER_LAYER})
        return metrics


# -- run record ---------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of a .git directory at the root, read as files; None elsewhere."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "hjj", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


SAMPLING = (
    "closed loop, one child process at a time, HJJ_THREADS=min(2, nproc), one BLAS "
    "thread; wall_s and peak_rss_mb are medians over back-to-back samples for "
    "--seconds (at least 3; failed samples excluded); setup_s is the median of "
    f"fresh-process set-up probes, one before each sample and at least {PROBE_ROUNDS}, "
    f"after one warm-up import; wall_s and setup_s are scaled by {REF_S} s / median "
    "time of perfbench/calibrate.py, run in a fresh process next to each probe; "
    "per-layer values are the mean of 2 traced in-process runs, unscaled")


def check_benchmark_json() -> None:
    """BENCHMARK.json must name the workloads and metrics this file reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want_layers = [m[0] for m in layers.PER_LAYER] + [layers.OVERHEAD[0]]
    if ([w["name"] for w in spec["workloads"]] != list(WORKLOADS)
            or [m["name"] for m in spec["end_to_end"]] != ["wall_s", "setup_s", "peak_rss_mb"]
            or [m["name"] for m in spec["per_layer"]] != want_layers):
        raise SystemExit("BENCHMARK.json does not match perfbench/run.py and layers.py")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so run_child kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "hjj", "cli.py")):
        print("src/hjj not found: run from the root of an hjj checkout", file=sys.stderr)
        return 2
    check_benchmark_json()

    bench = Bench(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    bench.prepare()
    metrics = bench.run_traced() if bench.trace else bench.run_untraced()
    info = {
        "workload": opts.workload, "seed": opts.seed if bench.w.seeded else None,
        "trace": opts.trace, "nproc": nproc(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": git_commit(), "src_hjj_lines": src_lines(),
        "sampling": SAMPLING,
    }
    correct = bench.failed == 0

    print(f"hjj benchmark  workload={opts.workload} seed={info['seed']} trace={opts.trace} "
          f"nproc={info['nproc']} python={info['python']} numpy={info['numpy']} "
          f"commit={info['commit']} src_hjj_lines={info['src_hjj_lines']}")
    n_ok = sum(s is not None for s in bench.samples)
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "wall_s":
            note = (f"median of {n_ok} samples, {bench.record['unscaled'][name]:.4g} s unscaled, "
                    f"x {bench.record['scale']:.4g} (calibration median of {len(bench.calib)})")
        elif name == "setup_s":
            note = (f"median of {len(bench.setup)} probes, "
                    f"{bench.record['unscaled'][name]:.4g} s unscaled")
        elif name == "peak_rss_mb":
            note = f"median of {n_ok} samples"
        print(f"  {name:42s} {value:14.6g} {unit:10s} {note}")
    print(f"  {'failed_frac':42s} {bench.failed / bench.attempted:14.6g} {'ratio':10s} "
          f"{bench.failed} of {bench.attempted} runs")
    for name, value in bench.record.get("accuracy", {}).items():
        if name.startswith("err_") and not name.endswith("_ladder"):
            print(f"  {name:42s} {value:14.6g} {'u':10s} sup error vs min(t,|x|), "
                  f"dx={bench.w.dxs[-1]}")
        elif name.startswith("order_"):
            print(f"  {name:42s} {value:14.6g} {'1':10s} fitted along dx={bench.w.dxs}")
    for msg in bench.failures:
        print(f"  FAILED: {msg}")
    if bench.trace:
        print("  trace check: " + ("; ".join(bench.findings) or
                                   "counts repeat exactly; self times cover the traced wall"))

    record = dict(info, correct=correct, attempted=bench.attempted, failed=bench.failed,
                  failed_frac=bench.failed / bench.attempted, failures=bench.failures,
                  trace_findings=bench.findings,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  **bench.record)
    with open(os.path.join(OUT, f"result-{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(bench.work, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
