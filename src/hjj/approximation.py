"""Coefficient smoothing and the error signal that prices it.

A problem with piecewise-constant time dependence is replaced by one whose
coefficients are window averages on a width eps. The pointwise distance
between the two junction conditions, maximized over a slope box, defines a
time signal k(t); shifting the smoothed solution by the running integral of
k produces a sub/supersolution pair that brackets the original solution up
to the scheme's own error. comparison_diagnostic runs the whole pipeline
over a ladder of widths: the base problem and every smoothed one are marched
together on one grid (fd_scheme.solve_many), then each width is priced with
array passes over the shared fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeKn
from .fd_scheme import solve_many
from .grid import Grid, SolutionField, _positive_finite
from .hamiltonian import Hamiltonian
from .junction_problem import Edge, JunctionProblem
from .time_signal import TimeSignal, union_mesh

__all__ = [
    "approx_hamiltonian",
    "approx_problem",
    "KnResult",
    "compute_kn",
    "shifted_fields",
    "shift_functions",
    "WidthReport",
    "ApproximationStudy",
    "comparison_diagnostic",
]


def approx_hamiltonian(h: Hamiltonian, eps: float) -> Hamiltonian:
    """Window-average the time-dependent coefficients at width eps."""
    if h.time_independent:
        return h
    new = {k: (v.mollify(eps) if isinstance(v, TimeSignal) else v)
           for k, v in h.coefficients.items()}
    return h.with_coefficients(new)


def approx_problem(problem: JunctionProblem, eps: float) -> JunctionProblem:
    if eps <= 0:
        raise ValueError("smoothing width must be positive")
    edges = [Edge(approx_hamiltonian(e.hamiltonian, eps), e.length)
             for e in problem.edges]
    return JunctionProblem(
        edges,
        problem.flux_limiter.mollify(eps),
        problem.initial_data,
        problem.lipschitz_u0,
        problem.horizon,
        line_convention=problem.line_convention,
        u0_line=problem.u0_line,
    )


@dataclass(frozen=True)
class KnResult:
    """Per-window error signal and its decomposition."""

    signal: TimeSignal
    junction_part: TimeSignal
    edge_parts: tuple

    @property
    def l1(self) -> float:
        return self.signal.integrate(0.0, self.signal.horizon)


def _combo_values(a_val: float, slope_tables: list) -> np.ndarray:
    """max(a, m_1(q_1), ..., m_J(q_J)) on the product slope grid."""
    J = len(slope_tables)
    out = np.full((1,) * J, a_val)
    for i, m in enumerate(slope_tables):
        shape = [1] * J
        shape[i] = len(m)
        out = np.maximum(out, m.reshape(shape))
    return out


def compute_kn(problem: JunctionProblem, approx: JunctionProblem,
               K: float, R: float, n_p: int = 64, n_x: int = 17) -> KnResult:
    """Sup distance between the two problems, resolved per coefficient cell.

    The junction part compares the limited slope combinations over the box
    [-K, K]^J; the edge parts compare the Hamiltonians over [0, R] x [-K, K].
    Both are exact in t because every coefficient is constant on each cell of
    the union mesh.
    """
    if K <= 0 or R < 0:
        raise ValueError("slope box and radius must be positive")
    sigs = problem.coefficient_signals() + approx.coefficient_signals()
    mesh = union_mesh(sigs)
    T = problem.horizon
    J = len(problem.edges)
    n_eff = n_p if J == 2 else max(6, int(round(n_p ** (2.0 / J))))
    q = np.linspace(-K, K, n_eff)
    p_line = np.linspace(-K, K, n_p)
    # an x-dependent pair is compared at n_x positions, one per column of slopes
    at_nodes = (np.linspace(0.0, R, n_x), np.repeat(p_line[:, None], n_x, axis=1))

    k0_vals = np.empty(len(mesh) - 1)
    ki_vals = np.zeros((J, len(mesh) - 1))
    for c in range(len(mesh) - 1):
        t = 0.5 * (mesh[c] + mesh[c + 1])
        a_base = problem.flux_limiter(t)
        a_appr = approx.flux_limiter(t)
        m_base = [problem.envelope(i).h_minus(t, 0.0, q) for i in range(J)]
        m_appr = [approx.envelope(i).h_minus(t, 0.0, q) for i in range(J)]
        combo_b = _combo_values(a_base, m_base)
        combo_a = _combo_values(a_appr, m_appr)
        k0_vals[c] = float(np.max(np.abs(combo_b - combo_a)))
        for i in range(J):
            hb = problem.edges[i].hamiltonian
            ha = approx.edges[i].hamiltonian
            x, p = (0.0, p_line) if hb.x_independent and ha.x_independent else at_nodes
            ki_vals[i, c] = np.max(np.abs(hb.eval_p(t, x, p) - ha.eval_p(t, x, p)))

    bp = np.asarray(mesh, dtype=float)
    bp[-1] = T  # union mesh ends at the shared horizon
    total = np.maximum(k0_vals, ki_vals.max(axis=0))
    if np.any(total < -1e-12):
        raise NegativeKn("error signal came out negative")
    total = np.clip(total, 0.0, None)
    mk = lambda v: TimeSignal(bp, v)  # noqa: E731
    return KnResult(mk(total), mk(np.clip(k0_vals, 0.0, None)),
                    tuple(mk(np.clip(ki_vals[i], 0.0, None)) for i in range(J)))


def shifted_fields(field: SolutionField, kn: TimeSignal):
    """(lower, upper) copies shifted by -/+ the running integral of kn."""
    if kn.min() < -1e-12:
        raise NegativeKn("shift signal must be nonnegative")
    cum = kn.running_integrals(field.grid.times)
    lower = SolutionField(field.grid, field.values - cum[:, None], field.line)
    upper = SolutionField(field.grid, field.values + cum[:, None], field.line)
    return lower, upper


def shift_functions(field: SolutionField, kn: TimeSignal,
                    direction: str) -> SolutionField:
    """One shifted copy: 'sub' subtracts the running integral, 'super' adds."""
    lower, upper = shifted_fields(field, kn)
    if direction == "sub":
        return lower
    if direction == "super":
        return upper
    raise ValueError("direction must be 'sub' or 'super'")


@dataclass(frozen=True)
class WidthReport:
    eps: float
    kn: KnResult
    sup_gap: float
    sandwich_violation: float

    @property
    def kn_l1(self) -> float:
        return self.kn.l1


@dataclass
class ApproximationStudy:
    """Per-width error signals and gaps against one base solution."""

    base: SolutionField
    reports: list
    K: float
    R: float

    @property
    def widths(self) -> list:
        return [r.eps for r in self.reports]

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "R": self.R,
            "dx": self.base.grid.dx,
            "dt": self.base.grid.dt,
            "widths": [
                {"eps": r.eps, "kn_l1": r.kn_l1, "solution_gap": r.sup_gap,
                 "sandwich_violation": r.sandwich_violation}
                for r in self.reports
            ],
        }


def _measured_slope_box(field: SolutionField) -> float:
    worst = 0.0
    g = field.grid
    for i in range(g.n_edges):
        idx = g.edge_full_indices(i)
        block = field.values[:, idx]
        worst = max(worst, float(np.max(np.abs(np.diff(block, axis=1)))) / g.dx)
    return worst


def comparison_diagnostic(problem: JunctionProblem, widths, grid: Grid,
                          K: float | None = None, R: float | None = None
                          ) -> ApproximationStudy:
    """Solve the problem and its smoothed versions on grid, pricing each gap.

    grid is the problem's own (as grid_for builds it); it serves every run,
    since averaged coefficients never enlarge the slope Lipschitz bound, and
    one batched march solves the base problem and every smoothed one. A grid
    too coarse for the problem raises the CflViolation that solve raises on
    it. K and R, when given, must be positive and finite. K defaults to the
    measured discrete slope range of the base run plus ten percent, R to the
    grid radius. The sandwich check compares the base field with the smoothed
    field shifted by -/+ the running integral of k, computed in one scratch
    buffer rather than as two shifted fields.
    """
    widths = sorted(set(float(w) for w in widths), reverse=True)
    if not widths:
        raise ValueError("need at least one smoothing width")
    K = None if K is None else _positive_finite("K", K)
    R = None if R is None else _positive_finite("R", R)
    smoothed = [approx_problem(problem, eps) for eps in widths]
    base, *fields = solve_many([problem, *smoothed], grid)
    if K is None:
        K = max(1.1 * _measured_slope_box(base), problem.lipschitz_u0, 1.0)
    if R is None:
        R = float(max(np.max(grid.edge_y(i)) for i in range(grid.n_edges)))

    u = base.values
    buf = np.empty_like(u)
    reports = []
    for eps, ap, fld in zip(widths, smoothed, fields):
        kn = compute_kn(problem, ap, K, R)
        cum = kn.signal.running_integrals(grid.times)[:, None]
        v = fld.values
        np.subtract(v, cum, out=buf)
        below = float(np.max(np.subtract(buf, u, out=buf)))  # (fld - cum) - base
        np.add(v, cum, out=buf)
        above = float(np.max(np.subtract(u, buf, out=buf)))  # base - (fld + cum)
        np.subtract(u, v, out=buf)
        sup_gap = float(np.max(np.abs(buf, out=buf)))
        reports.append(WidthReport(eps, kn, sup_gap, max(0.0, max(below, above))))
    return ApproximationStudy(base, reports, float(K), float(R))
