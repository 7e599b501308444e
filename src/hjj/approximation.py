"""Coefficient smoothing and the error signal that prices it.

A problem with piecewise-constant time dependence is replaced by one whose
coefficients are window averages on a width eps. The pointwise distance
between the two junction conditions, maximized over a slope box, defines a
time signal k(t); shifting the smoothed solution by the running integral of
k produces a sub/supersolution pair that brackets the original solution up
to the scheme's own error. comparison_diagnostic runs the whole pipeline
over a ladder of widths: the base problem and every smoothed one are marched
together on one grid, as one batch of fd_scheme's stream, into one
(problems, levels, nodes) array, then each width is priced with array
passes over it.

compute_kn reads k on a leading axis of union-mesh cells, and reads every
edge through its problem's EnvelopePair. The limiter and every edge with a
closed form (catalog forms and edges of control forms) are read at all
cell midpoints in one array pass (the pair frozen at (cells, 1)
coefficient columns). A black box is time-independent, so it is read once
in all, and one that ignores x is frozen already, with the problem. A
control edge with a callable f or l may read t, so it is read per cell,
frozen exactly at its table at x = 0; it is the one edge with no
coefficients to smooth, so approx_hamiltonian refuses it
(NonSeparableTimeDependence).
The junction part is priced edge by edge, in O(J n) per cell for J edges
of n junction slopes, with the bits of the maximum over the product grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fd_scheme import _stream
from .grid import Grid, _positive_finite
from .hamiltonian import CATALOG, EnvelopePair, Hamiltonian
from .junction_problem import Edge, JunctionProblem
from .time_signal import TimeSignal, _midpoints, coeff_bounds, union_mesh

__all__ = [
    "approx_hamiltonian",
    "approx_problem",
    "smoothing_ladder",
    "KnResult",
    "compute_kn",
    "WidthReport",
    "ApproximationStudy",
    "comparison_diagnostic",
]


def approx_hamiltonian(h: Hamiltonian, eps: float) -> Hamiltonian:
    """Window-average the time-dependent coefficients at width eps.

    A time-independent Hamiltonian (every black box) is returned as it is.
    A callable control edge, the one time-dependent Hamiltonian with no
    coefficients to rebuild from, raises NonSeparableTimeDependence.
    A quadratic whose averaged a is not positive somewhere (the averages
    beside a huge cell can cancel to 0.0) raises ConfigError naming a and eps.
    """
    if h.time_independent:
        return h
    new = {k: (v.mollify(eps) if isinstance(v, TimeSignal) else v)
           for k, v in h.coefficients.items()}
    if h.form is CATALOG["quadratic"] and not (a_lo := coeff_bounds(new["a"])[0]) > 0.0:
        raise ConfigError(f"quadratic a: its average at smoothing width {eps:g} is {a_lo!r}, "
                          f"expected a positive number")
    return h.with_coefficients(new)


def approx_problem(problem: JunctionProblem, eps: float) -> JunctionProblem:
    eps = _positive_finite("smoothing width", eps)
    edges = [Edge(approx_hamiltonian(e.hamiltonian, eps), e.length)
             for e in problem.edges]
    return JunctionProblem(
        edges,
        problem.flux_limiter.mollify(eps),
        problem.initial_data,
        problem.lipschitz_u0,
        problem.horizon,
        line_convention=problem.line_convention,
    )


def smoothing_ladder(problem: JunctionProblem, widths) -> dict:
    """{eps: approx_problem(problem, eps)} over the distinct widths, widest first."""
    widths = sorted(set(float(w) for w in widths), reverse=True)
    if not widths:
        raise ValueError("need at least one smoothing width")
    return {eps: approx_problem(problem, eps) for eps in widths}


@dataclass(frozen=True)
class KnResult:
    """Per-window error signal and its decomposition."""

    signal: TimeSignal
    junction_part: TimeSignal
    edge_parts: tuple

    @property
    def l1(self) -> float:
        return self.signal.integrate(0.0, self.signal.horizon)


# compute_kn's sampling: slopes on [-K, K] per edge (fewer per junction slope on
# J > 2 edges, which keeps the values recorded for stars) and positions on [0, R]
# for an x-dependent edge
_KN_SLOPES = 64
_KN_POSITIONS = 17


def _junction_gap(a, m, b, w) -> np.ndarray:
    """max |max(a, m_1(q_1), ..., m_J(q_J)) - max(b, w_1(q_1), ...)| over all q, per cell.

    a and b hold one limiter value per cell, m and w one (cells, n) slope
    table per edge. The q_j are independent, so the least G = max(b, w(q))
    with q_i fixed is max(w_i(q_i), b, max_{j != i} min w_j), and F - G is
    largest at a - min G or at some m_i(q_i) less that. Rounding is monotone
    and fl(G - F) = -fl(F - G), so both directions give the product grid's
    float; abs makes its zero +0.0.
    """
    def above(a, m, b, w):  # max over q of F - G
        lows = np.array([t.min(axis=1) for t in w])
        gap = a - np.maximum(b, lows.max(axis=0))
        for i, t in enumerate(m):
            least = np.maximum(b, np.delete(lows, i, axis=0).max(axis=0))
            gap = np.maximum(gap, (t - np.maximum(w[i], least[:, None])).max(axis=1))
        return gap
    return np.abs(np.maximum(above(a, m, b, w), above(b, w, a, m)))


def _edge_tables(h: Hamiltonian, env: EnvelopePair, mids: np.ndarray, q: np.ndarray,
                 x, p: np.ndarray) -> list:
    """(h_minus on q, H at (x, p) raveled) of one edge, one row per cell midpoint of mids.

    Every edge is read through its problem's pair env and H itself. A
    closed form is read at all the midpoints in one call, as a (cells, 1)
    column of times. A callable control edge is read cell by cell, and a
    time-independent Hamiltonian once and broadcast.
    """
    if h.form is not None:
        rows = (env.h_minus(mids[:, None], 0.0, q), h(mids[:, None], x, p.ravel()))
    else:
        ts = mids[:1] if h.time_independent else mids
        rows = (np.array([env.h_minus(t, 0.0, q) for t in ts]),
                np.array([h.eval_p(t, x, p).ravel() for t in ts]))
    return [np.broadcast_to(r, (len(mids), r.shape[-1])) for r in rows]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is refused below
def compute_kn(problem: JunctionProblem, approx: JunctionProblem,
               K: float, R: float) -> KnResult:
    """Sup distance between the two problems, resolved per coefficient cell.

    The junction part compares the limited slope combinations over the box
    [-K, K]^J; the edge parts compare the Hamiltonians over [0, R] x [-K, K].
    Both are exact in t because every coefficient is constant on each cell of
    the union mesh, so each is read at the cell midpoints. The limiter and
    the edges with a closed form are read at every cell in one array pass;
    any other edge (black box, callable control edge, x-dependent) keeps
    one call per cell, or one call in all when it is time-independent. The
    junction part is priced edge by edge, in O(J n) per cell (_junction_gap).
    K must be positive and R non-negative, both finite, and a K at which a
    priced value is not finite (H overflows on the slope box) raises
    ConfigError naming K.
    """
    K = _positive_finite("K", K)
    R = _positive_finite("R", R, zero_ok=True)
    mesh = union_mesh(problem.coefficient_signals() + approx.coefficient_signals())
    mids = _midpoints(mesh)
    J = len(problem.edges)
    n_eff = _KN_SLOPES if J == 2 else max(6, int(round(_KN_SLOPES ** (2.0 / J))))
    q = np.linspace(-K, K, n_eff)
    p_line = np.linspace(-K, K, _KN_SLOPES)
    # an x-dependent pair is compared at _KN_POSITIONS positions, one per column of slopes
    at_nodes = (np.linspace(0.0, R, _KN_POSITIONS),
                np.repeat(p_line[:, None], _KN_POSITIONS, axis=1))

    m_base, m_appr, ki_vals = [], [], np.empty((J, len(mids)))
    for i in range(J):
        hb, ha = problem.edges[i].hamiltonian, approx.edges[i].hamiltonian
        x, p = (0.0, p_line) if hb.x_independent and ha.x_independent else at_nodes
        mb, Hb = _edge_tables(hb, problem.envelope(i), mids, q, x, p)
        ma, Ha = _edge_tables(ha, approx.envelope(i), mids, q, x, p)
        m_base.append(mb)
        m_appr.append(ma)
        ki_vals[i] = np.max(np.abs(Hb - Ha), axis=1)

    k0_vals = _junction_gap(problem.flux_limiter(mids), m_base, approx.flux_limiter(mids), m_appr)
    if not (np.isfinite(k0_vals).all() and np.isfinite(ki_vals).all()):
        raise ConfigError(f"K: the error signal overflows on the slope box [-K, K] at K = {K!r}")
    mesh[-1] = problem.horizon  # union mesh ends at the shared horizon
    mk = lambda v: TimeSignal(mesh, v)  # noqa: E731
    return KnResult(mk(np.maximum(k0_vals, ki_vals.max(axis=0))), mk(k0_vals),
                    tuple(mk(ki_vals[i]) for i in range(J)))


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
    """Per-width error signals and gaps against one base solution on grid."""

    grid: Grid
    reports: list
    K: float
    R: float

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "R": self.R,
            "dx": self.grid.dx,
            "dt": self.grid.dt,
            "steps": self.grid.steps,
            "widths": [
                {"eps": r.eps, "kn_l1": r.kn_l1, "solution_gap": r.sup_gap,
                 "sandwich_violation": r.sandwich_violation}
                for r in self.reports
            ],
        }


def _measured_slope_box(grid: Grid, u: np.ndarray) -> float:
    """The largest |slope| of u (levels x nodes) over the edges of grid."""
    worst = 0.0
    for i in range(grid.n_edges):
        block = u[:, grid.edge_full_indices(i)]
        worst = max(worst, float(np.max(np.abs(np.diff(block, axis=1)))) / grid.dx)
    return worst


def comparison_diagnostic(problem: JunctionProblem, widths, grid: Grid) -> ApproximationStudy:
    """Solve the problem and its smoothed versions on grid, pricing each gap.

    widths are the smoothing widths, or their smoothing_ladder(problem,
    widths) when it is built already. One batched march (fd_scheme's
    stream) solves the base problem and every smoothed one on grid, into
    one (problems, levels, nodes) array. A smoothed coefficient can
    exceed the original near a jump, so a grid that serves them all is
    grid_for([problem, *ladder.values()], ...); a grid too coarse for one
    of them raises the CflViolation that solve raises on it. The slope box
    is measured, not set: K is the largest discrete slope of the base run
    plus ten percent (at least L_u0 and 1), and R is the grid's largest edge
    radius. The sandwich check compares the base field with the smoothed
    field shifted by -/+ the running integral of k, computed in one scratch
    buffer. compute_kn takes a fixed K and R for a caller who wants them.
    """
    ladder = widths if isinstance(widths, dict) else smoothing_ladder(problem, widths)
    levels = _stream([problem, *ladder.values()], grid)
    values = np.empty((len(ladder) + 1, grid.steps + 1, grid.n_nodes))
    for n, level in enumerate(levels()):
        values[:, n] = level
    u = values[0]
    K = max(1.1 * _measured_slope_box(grid, u), problem.lipschitz_u0, 1.0)
    R = max(grid.edge_radii)

    buf = np.empty_like(u)
    reports = []
    for (eps, ap), v in zip(ladder.items(), values[1:]):
        kn = compute_kn(problem, ap, K, R)
        cum = kn.signal.running_integrals(grid.times)[:, None]
        np.subtract(v, cum, out=buf)
        below = float(np.max(np.subtract(buf, u, out=buf)))  # (fld - cum) - base
        np.add(v, cum, out=buf)
        above = float(np.max(np.subtract(u, buf, out=buf)))  # base - (fld + cum)
        np.subtract(u, v, out=buf)
        sup_gap = float(np.max(np.abs(buf, out=buf)))
        reports.append(WidthReport(eps, kn, sup_gap, max(0.0, max(below, above))))
    return ApproximationStudy(grid, reports, float(K), float(R))
