"""In-memory spans around calls into hjj, recorded from outside the package.

install() replaces each callable listed in TRACED by a wrapper, at every
name an hjj module binds it to (so `from .fd_scheme import solve as
fd_solve` in cli is wrapped as well), and a method on its class. A span
holds name, start, end, parent span, thread and the evaluator calls made
inside it on its own thread. Spans stay in memory until write_spans().

A span's self time is its duration minus the durations of its children on
the same thread; a child on another thread (a pool task) runs beside its
parent rather than inside it, so it does not reduce the parent's self time.
Counters live per thread and are summed at the end, so counts made under
the approximation thread pool repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import json
import threading
import time

# (hjj module, attribute or Class.method). Names a later version of hjj
# no longer has are skipped and listed in the summary as "missing".
TRACED = [
    ("cli", "_load_config"),
    ("cli", "_field_artifacts"),
    ("cli", "_dump_json"),
    ("cli", "_write_all"),
    ("junction_problem", "problem_from_config"),
    ("hamiltonian", "argmin_p"),
    ("hamiltonian", "check_convexity"),
    ("hamiltonian", "envelopes"),
    ("hamiltonian", "Hamiltonian.frozen"),
    ("hamiltonian", "EnvelopePair.h_plus"),
    ("hamiltonian", "EnvelopePair.h_minus"),
    ("time_signal", "TimeSignal.average"),
    ("time_signal", "TimeSignal.mollify"),
    ("control_system", "ControlSystem.local_f_avg"),
    ("control_system", "ControlSystem.local_l_avg"),
    ("fd_scheme", "grid_for"),
    ("fd_scheme", "solve"),
    ("fd_scheme", "step"),
    ("dpp_oracle", "value_function"),
    ("dpp_oracle", "_bellman"),
    ("approximation", "comparison_diagnostic"),
    ("approximation", "approx_problem"),
    ("approximation", "compute_kn"),
    ("approximation", "shifted_fields"),
    ("grid", "make_grid"),
    ("grid", "SolutionField.to_csv"),
    ("grid", "SolutionField.to_snapshot_tsv"),
    ("grid", "atomic_write_text"),
]

MODULES = ["cli", "junction_problem", "hamiltonian", "time_signal",
           "control_system", "fd_scheme", "dpp_oracle", "approximation", "grid"]

# span record fields
NAME, START, END, PARENT, THREAD, EVALS = range(6)


class _ThreadState:
    __slots__ = ("ident", "stack", "parent", "evaluator", "counts", "gauges")

    def __init__(self):
        self.ident = threading.get_ident()
        self.stack = []
        self.parent = None
        self.evaluator = 0
        self.counts = {}
        self.gauges = {}

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def gauge(self, key: str, value: float) -> None:
        self.gauges.setdefault(key, []).append(float(value))


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._states = []

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            self._states.append(st)
            return st

    def begin(self, name: str, st: _ThreadState | None = None) -> list:
        st = st or self.state()
        parent = st.stack[-1] if st.stack else st.parent
        rec = [name, 0.0, 0.0, parent, st.ident, st.evaluator]
        self.spans.append(rec)
        st.stack.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def end(self, rec: list, st: _ThreadState | None = None) -> None:
        rec[END] = time.perf_counter()
        st = st or self.state()
        st.stack.pop()
        rec[EVALS] = st.evaluator - rec[EVALS]

    def wrap(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer.state()
            rec = tracer.begin(name, st)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec, st)
            if hook is not None:
                hook(st, args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        import importlib

        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        every = list(mods.values()) + [package]
        for mod_name, attr in TRACED:
            mod = mods[mod_name]
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, meth, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            name = f"{mod_name}.{attr}"
            wrapped = self.wrap(fn, name, _HOOKS.get(name))
            if owner_name:
                setattr(owner, meth, wrapped)
                continue
            for m in every:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
        self._count_evaluators(mods["hamiltonian"])
        self._trace_pool(mods["approximation"])

    def _count_evaluators(self, hamiltonian) -> None:
        cls = getattr(hamiltonian, "Hamiltonian", None)
        if cls is None:
            self.missing.append("hamiltonian.Hamiltonian")
            return
        tracer = self
        original = cls.__init__

        def counted(evaluator):
            @functools.wraps(evaluator)
            def call(*args, **kwargs):
                tracer.state().evaluator += 1
                return evaluator(*args, **kwargs)
            return call

        @functools.wraps(original)
        def init(self, *args, **kwargs):
            if args:
                args = (counted(args[0]),) + args[1:]
            elif "evaluator" in kwargs:
                kwargs["evaluator"] = counted(kwargs["evaluator"])
            original(self, *args, **kwargs)

        cls.__init__ = init

    def _trace_pool(self, approximation) -> None:
        base = getattr(approximation, "ThreadPoolExecutor", None)
        if base is None:
            self.missing.append("approximation.ThreadPoolExecutor")
            return
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._span = tracer.begin("approximation.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self._span)

            def submit(self, fn, /, *args, **kwargs):
                st = tracer.state()
                parent = st.stack[-1] if st.stack else st.parent
                task = tracer.wrap(fn, "approximation.width_task")

                def adopted(*a, **k):
                    st = tracer.state()
                    st.parent = parent
                    cpu = time.thread_time()
                    try:
                        return task(*a, **k)
                    finally:
                        st.gauge("approximation.width_task_cpu_s", time.thread_time() - cpu)
                        st.parent = None

                return super().submit(adopted, *args, **kwargs)

        approximation.ThreadPoolExecutor = TracedPool

    # -- results ----------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-span-name totals, summed counters and the main-thread cover."""
        child = {}
        for rec in self.spans:
            parent = rec[PARENT]
            if parent is not None and parent[THREAD] == rec[THREAD]:
                child[id(parent)] = child.get(id(parent), 0.0) + rec[END] - rec[START]
        names = {}
        main_self = 0.0
        for rec in self.spans:
            dur = rec[END] - rec[START]
            self_s = dur - child.get(id(rec), 0.0)
            row = names.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0, "evaluator_calls": 0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += self_s
            row["evaluator_calls"] += rec[EVALS]
            if rec[THREAD] == self.main_thread:
                main_self += self_s
        counts, gauges = {"evaluator_calls": 0}, {}
        for st in self._states:
            counts["evaluator_calls"] += st.evaluator
            for k, v in st.counts.items():
                counts[k] = counts.get(k, 0) + v
            for k, v in st.gauges.items():
                gauges.setdefault(k, []).extend(v)
        return {"wall_s": wall_s, "main_self_s": main_self, "spans": names,
                "counts": counts, "gauges": gauges, "missing": self.missing,
                "threads": len(self._states)}

    def write_spans(self, path: str, run_id: str) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        threads = {}
        rows = []
        for i, rec in enumerate(self.spans):
            parent = rec[PARENT]
            tid = threads.setdefault(rec[THREAD], len(threads))
            rows.append([i, rec[NAME], round(rec[START], 9), round(rec[END], 9),
                         -1 if parent is None else index[id(parent)], tid, run_id])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "thread", "run"], "spans": rows}, fh,
                      separators=(",", ":"))


# -- hooks: counts read off the arguments and results of a traced call ------

def _solve_hook(st, args, field):
    levels, nodes = field.values.shape
    st.add("fd_scheme.steps", levels - 1)
    st.add("fd_scheme.node_updates", (levels - 1) * nodes)
    st.gauge("fd_scheme.dt", field.grid.dt)
    c2_max = getattr(args[0], "c2_max", None)
    if c2_max is not None:
        st.gauge("fd_scheme.c2", c2_max())


def _bellman_hook(st, args, _result):
    cs, grid = args[0], args[1]
    st.add("dpp_oracle.transitions", sum(
        len(edge.controls) * len(grid.edge_y(i)) for i, edge in enumerate(cs.edges)))


def _csv_hook(st, _args, text):
    st.add("grid.csv_rows", text.count("\n") - 1)
    st.add("grid.csv_bytes", len(text))  # fmt() output is ASCII


_HOOKS = {
    "fd_scheme.solve": _solve_hook,
    "dpp_oracle._bellman": _bellman_hook,
    "grid.SolutionField.to_csv": _csv_hook,
}
