"""Per-layer metrics read off a traced sample, and the end-to-end metric each should move.

Each entry is (name, unit, better, value, moves). `value` takes a Sample,
the merged tracer summaries of the processes of one workload sample.
`moves` is written down before any optimisation: the end-to-end metric the
layer metric should move, on which workloads, and where no change is
predicted. BENCHMARK.json lists the same names, units and directions.

Width-march busy time is the thread CPU time of the pool's tasks, so
parallel_ratio reads about 1 while the interpreter lock serialises them and
up to the pool size when it does not.
"""

from __future__ import annotations


class Sample:
    """Merged tracer summaries (tracer.Tracer.summary) of one sample."""

    def __init__(self, summaries: list):
        self.spans, self.counts, self.gauges = {}, {}, {}
        self.wall_s = self.main_self_s = 0.0
        self.missing = set()
        for s in summaries:
            self.wall_s += s["wall_s"]
            self.main_self_s += s["main_self_s"]
            self.missing.update(s["missing"])
            for name, row in s["spans"].items():
                acc = self.spans.setdefault(name, dict.fromkeys(row, 0))
                for k, v in row.items():
                    acc[k] += v
            for k, v in s["counts"].items():
                self.counts[k] = self.counts.get(k, 0) + v
            for k, v in s["gauges"].items():
                self.gauges.setdefault(k, []).extend(v)

    def _field(self, names, field):
        return sum(self.spans.get(n, {}).get(field, 0) for n in names)

    def total(self, *names) -> float:
        return float(self._field(names, "total_s"))

    def self_s(self, *names) -> float:
        return float(self._field(names, "self_s"))

    def calls(self, *names) -> int:
        return int(self._field(names, "calls"))

    def evals(self, *names) -> int:
        return int(self._field(names, "evaluator_calls"))

    def count(self, key: str) -> int:
        return int(self.counts.get(key, 0))

    def gauge(self, key: str, pick) -> float:
        vals = self.gauges.get(key)
        return float(pick(vals)) if vals else 0.0

    def repeatables(self) -> dict:
        """Every counter and span call count: equal across runs of one input."""
        out = {f"calls:{name}": row["calls"] for name, row in self.spans.items()}
        out.update({f"count:{key}": value for key, value in self.counts.items()})
        return out

    def layer_self_s(self) -> dict:
        """Self time per module, summed over spans of every thread."""
        out = {}
        for name, row in self.spans.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + row["self_s"]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


ENVELOPE = ("hamiltonian.EnvelopePair.h_plus", "hamiltonian.EnvelopePair.h_minus",
            "hamiltonian.envelopes")
WINDOW_AVG = ("control_system.ControlSystem.local_f_avg",
              "control_system.ControlSystem.local_l_avg")
RENDER = ("cli._field_artifacts", "cli._dump_json")

TDQ = "wall_s on tdq-solve and tdq-approx; no change predicted on model-compare"
SETUP = "setup_s on all three workloads"
SIGNAL = "wall_s on tdq-approx first, then tdq-solve"
DPP = "wall_s on model-compare only"
APPROX = "wall_s on tdq-approx only"
CSV = "wall_s and peak_rss_mb on tdq-solve only"
STEPS = ("wall_s and peak_rss_mb on tdq-solve and tdq-approx; no change predicted "
         "on model-compare, where C2 is the maximum speed")

PER_LAYER = [
    ("hamiltonian.argmin_s", "s", "lower", lambda s: s.total("hamiltonian.argmin_p"), TDQ),
    ("hamiltonian.argmin_calls", "count", "lower", lambda s: s.calls("hamiltonian.argmin_p"), TDQ),
    ("hamiltonian.evaluator_calls", "count", "lower", lambda s: s.count("evaluator_calls"), TDQ),
    ("hamiltonian.evaluator_calls_per_window", "count", "lower",
     lambda s: _ratio(s.evals("hamiltonian.argmin_p"), s.calls("hamiltonian.argmin_p")), TDQ),
    ("hamiltonian.frozen_s", "s", "lower", lambda s: s.total("hamiltonian.Hamiltonian.frozen"), TDQ),
    ("hamiltonian.envelope_self_s", "s", "lower", lambda s: s.self_s(*ENVELOPE), TDQ),
    ("hamiltonian.check_convexity_s", "s", "lower",
     lambda s: s.total("hamiltonian.check_convexity"), SETUP),
    ("junction_problem.build_s", "s", "lower",
     lambda s: s.total("junction_problem.problem_from_config"), SETUP),
    ("cli.load_s", "s", "lower", lambda s: s.total("cli._load_config"), SETUP),
    ("grid.make_grid_s", "s", "lower", lambda s: s.total("grid.make_grid"), SETUP),
    ("time_signal.average_s", "s", "lower", lambda s: s.total("time_signal.TimeSignal.average"), SIGNAL),
    ("time_signal.average_calls", "count", "lower",
     lambda s: s.calls("time_signal.TimeSignal.average"), SIGNAL),
    ("time_signal.mollify_s", "s", "lower", lambda s: s.total("time_signal.TimeSignal.mollify"), SIGNAL),
    ("control_system.window_avg_s", "s", "lower", lambda s: s.total(*WINDOW_AVG),
     "wall_s on model-compare"),
    ("control_system.window_avg_calls", "count", "lower", lambda s: s.calls(*WINDOW_AVG),
     "wall_s on model-compare"),
    ("fd_scheme.solve_s", "s", "lower", lambda s: s.total("fd_scheme.solve"),
     "wall_s on all three workloads"),
    ("fd_scheme.step_self_s", "s", "lower", lambda s: s.self_s("fd_scheme.step"),
     "wall_s on all three workloads"),
    ("fd_scheme.steps", "count", "lower", lambda s: s.count("fd_scheme.steps"), STEPS),
    ("fd_scheme.node_updates", "count", "lower", lambda s: s.count("fd_scheme.node_updates"), STEPS),
    ("fd_scheme.node_updates_per_s", "1/s", "higher",
     lambda s: _ratio(s.count("fd_scheme.node_updates"), s.total("fd_scheme.solve")),
     "wall_s on all three workloads"),
    ("fd_scheme.marches", "count", "lower", lambda s: s.calls("fd_scheme.solve"), APPROX),
    ("fd_scheme.c2", "speed", "lower", lambda s: s.gauge("fd_scheme.c2", max), STEPS),
    ("fd_scheme.dt", "model_t", "higher", lambda s: s.gauge("fd_scheme.dt", min), STEPS),
    ("dpp_oracle.value_function_s", "s", "lower", lambda s: s.total("dpp_oracle.value_function"), DPP),
    ("dpp_oracle.bellman_s", "s", "lower", lambda s: s.total("dpp_oracle._bellman"), DPP),
    ("dpp_oracle.bellman_calls", "count", "lower", lambda s: s.calls("dpp_oracle._bellman"), DPP),
    ("dpp_oracle.transitions", "count", "lower", lambda s: s.count("dpp_oracle.transitions"), DPP),
    ("approximation.diagnostic_s", "s", "lower",
     lambda s: s.total("approximation.comparison_diagnostic"), APPROX),
    ("approximation.compute_kn_s", "s", "lower", lambda s: s.total("approximation.compute_kn"), APPROX),
    ("approximation.width_marches_s", "s", "lower",
     lambda s: s.gauge("approximation.width_task_cpu_s", sum), APPROX),
    ("approximation.pool_wait_s", "s", "lower", lambda s: s.total("approximation.pool"), APPROX),
    ("approximation.parallel_ratio", "ratio", "higher",
     lambda s: _ratio(s.gauge("approximation.width_task_cpu_s", sum),
                      s.total("approximation.pool")), APPROX),
    ("grid.to_csv_s", "s", "lower", lambda s: s.total("grid.SolutionField.to_csv"), CSV),
    ("grid.csv_rows", "count", "lower", lambda s: s.count("grid.csv_rows"), CSV),
    ("grid.csv_bytes", "bytes", "lower", lambda s: s.count("grid.csv_bytes"), CSV),
    ("grid.atomic_write_s", "s", "lower", lambda s: s.total("grid.atomic_write_text"), CSV),
    ("cli.render_s", "s", "lower", lambda s: s.total(*RENDER), CSV),
    ("cli.write_s", "s", "lower", lambda s: s.total("cli._write_all"), CSV),
]

# Filled in by run.py from the traced and untraced walls of the same run.
OVERHEAD = ("trace.overhead_frac", "ratio", "lower",
            "none: measures the tracer, not hjj")
