from __future__ import annotations

import numpy as np
import pytest

from hjj import (
    ControlEdge,
    ControlForm,
    ControlSystem,
    Edge,
    EnvelopePair,
    Hamiltonian,
    JunctionProblem,
    TimeSignal,
    abs_shift,
    approx_hamiltonian,
    approx_problem,
    comparison_diagnostic,
    compute_kn,
    constant,
    control_edge,
    eikonal,
    from_line,
    grid_for,
    induced_problem,
    make_grid,
    problem_from_config,
    quadratic,
    smoothing_ladder,
    solve,
    union_mesh,
)
from hjj.approximation import _edge_tables
from hjj.errors import CflViolation, ConfigError, NonSeparableTimeDependence

from conftest import bench_tdq_problem, zero_datum
from reference import NegativeKn, edge_hamiltonian, l1_distance, shifted_fields


def _step_limiter_problem(horizon: float = 1.0):
    limiter = TimeSignal(np.array([0.0, 0.5, horizon]), np.array([0.0, -1.0]))
    return from_line(eikonal(), eikonal(), limiter, zero_datum, 0.0, horizon)


def _exact_sup_gap_integral(h1: Hamiltonian, h2: Hamiltonian, c1: TimeSignal,
                            c2: TimeSignal, k_slope: float) -> float:
    """Plain-loop time integral of sup_p |h1 - h2| on the joint coefficient mesh.

    Both inputs are piecewise constant in time, so evaluating at cell
    midpoints is exact.
    """
    mesh = union_mesh([c1, c2])
    ps = np.linspace(-k_slope, k_slope, 201)
    total = 0.0
    for a, b in zip(mesh[:-1], mesh[1:]):
        mid = 0.5 * (a + b)
        gap = np.max(np.abs(h1.eval_p(mid, 0.0, ps) - h2.eval_p(mid, 0.0, ps)))
        total += float(gap) * (b - a)
    return total


def test_approx_hamiltonian_keeps_time_independent_input():
    h = eikonal()
    assert approx_hamiltonian(h, 0.1) is h


def test_approx_hamiltonian_mollifies_signal_coefficients():
    shift = TimeSignal(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0]))
    h = abs_shift(shift)
    hn = approx_hamiltonian(h, 0.1)
    want = shift.mollify(0.1)
    got = hn.coefficients["c"]
    assert l1_distance(got, want) == 0.0
    # pointwise the smoothed Hamiltonian is |p| + smoothed shift
    for t in (0.1, 0.48, 0.52, 0.9):
        assert hn.eval_p(t, 0.0, np.array([2.0]))[0] == pytest.approx(
            2.0 + want(t), abs=1e-14)


def _cost_one_minus_t() -> Hamiltonian:
    """A callable control edge with cost 1 - t: H = |p| - (1 - t)."""
    return edge_hamiltonian(control_edge(ControlForm(c1=1.0),
                                         lambda t, x, a: (1.0 - t) + 0.0 * a, -1.0, 1.0))


def test_approx_hamiltonian_rejects_black_box_time_dependence():
    h = Hamiltonian(lambda t, x, p: np.abs(p) + t, lipschitz_p=1.0,
                    coercivity_radius=2.0, time_data={"kind": "blackbox"},
                    x_independent=True, validate=False)
    refusal = ("^no coefficients to rebuild from: H is a black box or a control edge with a "
               "callable f or l$")
    with pytest.raises(NonSeparableTimeDependence, match=refusal):
        approx_hamiltonian(h, 0.1)
    # a callable control edge: time-dependent, priced per cell, and refused
    table = _cost_one_minus_t()
    assert not table.time_independent
    rows = _edge_tables(table, EnvelopePair(table), np.array([0.05, 0.95]), np.zeros(1),
                        0.0, np.zeros(1))[0]
    assert rows[:, 0].tolist() == pytest.approx([-0.95, -0.05], abs=1e-15)
    with pytest.raises(NonSeparableTimeDependence, match=refusal):
        approx_hamiltonian(table, 0.1)


def test_approx_problem_mollifies_the_flux_limiter():
    prob = _step_limiter_problem()
    smoothed = approx_problem(prob, 0.1)
    assert l1_distance(smoothed.flux_limiter, prob.flux_limiter.mollify(0.1)) == 0.0
    assert smoothed.horizon == prob.horizon
    assert smoothed.n_edges == prob.n_edges


def test_compute_kn_vanishes_for_identical_problems():
    prob = _step_limiter_problem()
    kn = compute_kn(prob, prob, K=2.0, R=2.0)
    assert kn.l1 == 0.0
    assert kn.signal.min() >= 0.0


def test_compute_kn_for_a_smoothed_step_limiter():
    """Only the limiter differs, so the error signal is exactly |A - A_n|."""
    prob = _step_limiter_problem()
    smoothed = approx_problem(prob, 0.1)
    kn = compute_kn(prob, smoothed, K=2.0, R=2.0)
    assert kn.l1 == pytest.approx(
        l1_distance(prob.flux_limiter, smoothed.flux_limiter), abs=1e-12)
    assert kn.l1 == pytest.approx(0.05, abs=1e-12)
    assert all(part.integrate(0.0, 1.0) == 0.0 for part in kn.edge_parts)
    assert kn.junction_part.integrate(0.0, 1.0) == pytest.approx(kn.l1, abs=1e-12)


def test_compute_kn_width_ladder_decreases():
    prob = _step_limiter_problem()
    values = [compute_kn(prob, approx_problem(prob, eps), K=2.0, R=2.0).l1
              for eps in (0.2, 0.1, 0.05)]
    assert values[0] > values[1] > values[2]


def test_compute_kn_bounded_by_coefficient_distances():
    """The junction error is 1-Lipschitz in each envelope argument."""
    shift = TimeSignal(np.array([0.0, 0.3, 1.0]), np.array([0.5, -0.5]))
    h = abs_shift(shift)
    limiter = TimeSignal(np.array([0.0, 0.6, 1.0]), np.array([-0.25, -1.0]))
    prob = from_line(h, h, limiter, zero_datum, 0.0, 1.0)
    smoothed = approx_problem(prob, 0.15)
    kn = compute_kn(prob, smoothed, K=2.0, R=2.0)
    assert kn.signal.min() >= 0.0

    a_dist = l1_distance(prob.flux_limiter, smoothed.flux_limiter)
    edge_dists = [
        _exact_sup_gap_integral(prob.edges[i].hamiltonian,
                                smoothed.edges[i].hamiltonian,
                                prob.edges[i].hamiltonian.coefficients["c"],
                                smoothed.edges[i].hamiltonian.coefficients["c"],
                                2.0)
        for i in range(2)
    ]
    assert kn.l1 <= a_dist + sum(edge_dists) + 1e-9

    # each edge part is dominated by that edge's own sup gap
    for part, ref in zip(kn.edge_parts, edge_dists):
        assert part.integrate(0.0, 1.0) <= ref + 1e-9


def _per_cell_kn(problem, approx, K: float, R: float, n_p: int = 64, n_x: int = 17):
    """compute_kn as one Python iteration per union-mesh cell.

    Returns (signal, junction part, edge parts) as value arrays.
    """
    mesh = union_mesh(problem.coefficient_signals() + approx.coefficient_signals())
    J = len(problem.edges)
    n_eff = n_p if J == 2 else max(6, int(round(n_p ** (2.0 / J))))
    q = np.linspace(-K, K, n_eff)
    p_line = np.linspace(-K, K, n_p)
    at_nodes = (np.linspace(0.0, R, n_x), np.repeat(p_line[:, None], n_x, axis=1))

    def combo(a_val, tables):
        out = np.full((1,) * J, a_val)
        for i, m in enumerate(tables):
            shape = [1] * J
            shape[i] = len(m)
            out = np.maximum(out, m.reshape(shape))
        return out

    k0 = np.empty(len(mesh) - 1)
    ki = np.zeros((J, len(mesh) - 1))
    for c in range(len(mesh) - 1):
        t = 0.5 * (mesh[c] + mesh[c + 1])
        combo_b = combo(problem.flux_limiter(t),
                        [problem.envelope(i).h_minus(t, 0.0, q) for i in range(J)])
        combo_a = combo(approx.flux_limiter(t),
                        [approx.envelope(i).h_minus(t, 0.0, q) for i in range(J)])
        k0[c] = float(np.max(np.abs(combo_b - combo_a)))
        for i in range(J):
            hb = problem.edges[i].hamiltonian
            ha = approx.edges[i].hamiltonian
            x, p = (0.0, p_line) if hb.x_independent and ha.x_independent else at_nodes
            ki[i, c] = np.max(np.abs(hb.eval_p(t, x, p) - ha.eval_p(t, x, p)))
    total = np.clip(np.maximum(k0, ki.max(axis=0)), 0.0, None)
    return total, np.clip(k0, 0.0, None), [np.clip(row, 0.0, None) for row in ki]


def _tdq_pair():
    prob = _time_dependent_quadratic_problem()
    return prob, approx_problem(prob, 0.05)


def _quadratic_right_edge(h_left: Hamiltonian):
    """h_left on edge 1 beside a time-dependent quadratic on edge 0."""
    a = TimeSignal(np.array([0.0, 0.4, 1.0]), np.array([1.0, 1.5]))
    b = TimeSignal(np.array([0.0, 0.6, 1.0]), np.array([0.1, -0.2]))
    limiter = TimeSignal(np.array([0.0, 0.3, 1.0]), np.array([-0.5, -1.0]))
    return JunctionProblem([Edge(quadratic(a, b, -1.0)), Edge(h_left)], limiter,
                           [zero_datum, zero_datum], 0.0, 1.0)


def _black_box_pair():
    h = Hamiltonian(lambda t, x, p: 0.5 * np.asarray(p) ** 2 - 0.2, lipschitz_p=4.0,
                    coercivity_radius=1.0, x_independent=True, validate=False)
    prob = _quadratic_right_edge(h)
    return prob, approx_problem(prob, 0.1)


def _x_dependent_pair():
    """Black boxes whose gap grows with |x|, at a step signal and at its smoothing."""
    def black_box(s: TimeSignal) -> Hamiltonian:
        return Hamiltonian(lambda t, x, p: np.abs(p) * (1.0 + s(t) * np.minimum(np.abs(x), 1.0))
                           - 1.0, lipschitz_p=1.3, coercivity_radius=1.0, time_data={"s": s},
                           x_independent=False, validate=False)

    s = TimeSignal(np.array([0.0, 0.45, 1.0]), np.array([0.0, 0.3]))
    prob = _quadratic_right_edge(black_box(s))
    smoothed = JunctionProblem([prob.edges[0], Edge(black_box(s.mollify(0.1)))],
                               prob.flux_limiter.mollify(0.1), prob.initial_data, 0.0, 1.0)
    return prob, smoothed


def _control_pair():
    drift = ControlForm(c0=TimeSignal(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.5])), c1=1.0)
    edges = [ControlEdge(drift, ControlForm(c2=0.5), np.linspace(-2.0, 2.0, 41)),
             ControlEdge(ControlForm(c1=1.0), ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21))]
    cs = ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)
    prob = induced_problem(cs, zero_datum, 0.0, 1.0)
    return prob, approx_problem(prob, 0.1)


def _callable_pair():
    """A callable edge with cost 1 - t against the constant cost 1/2, read per cell."""
    model = edge_hamiltonian(control_edge(ControlForm(c1=1.0), ControlForm(c0=1.0), -1.0, 1.0))
    limiter = TimeSignal(np.array([0.0, 0.3, 1.0]), np.array([-0.5, -1.0]))
    half = edge_hamiltonian(control_edge(ControlForm(c1=1.0), ControlForm(c0=0.5), -1.0, 1.0))
    return tuple(JunctionProblem([Edge(h), Edge(model)], limiter, [zero_datum] * 2, 0.0, 1.0)
                 for h in (_cost_one_minus_t(), half))


def _star_pair():
    a = TimeSignal(np.array([0.0, 0.35, 1.0]), np.array([0.8, 1.6]))
    c = TimeSignal(np.array([0.0, 0.55, 1.0]), np.array([-1.0, -0.4]))
    limiter = TimeSignal(np.array([0.0, 0.2, 0.7, 1.0]), np.array([-0.3, 0.2, -0.6]))
    prob = JunctionProblem([Edge(quadratic(a, 0.1, -1.0)), Edge(abs_shift(c)), Edge(eikonal())],
                           limiter, [zero_datum] * 3, 0.0, 1.0)
    return prob, approx_problem(prob, 0.1)


@pytest.mark.parametrize("make,K", [(_tdq_pair, 1.51), (_tdq_pair, 3.0), (_black_box_pair, 2.0),
                                    (_x_dependent_pair, 2.0), (_control_pair, 2.0),
                                    (_star_pair, 2.0), (_callable_pair, 2.0)])
def test_compute_kn_equals_a_per_cell_loop(make, K):
    prob, smoothed = make()
    kn = compute_kn(prob, smoothed, K=K, R=1.5)
    total, k0, ki = _per_cell_kn(prob, smoothed, K=K, R=1.5)
    assert np.array_equal(kn.signal.values, total)
    assert np.array_equal(kn.junction_part.values, k0)
    assert len(kn.edge_parts) == len(ki)
    for part, want in zip(kn.edge_parts, ki):
        assert np.array_equal(part.values, want)
    assert kn.l1 > 0.0


def test_compute_kn_reads_each_catalog_envelope_once(monkeypatch):
    calls = []
    h_minus = EnvelopePair.h_minus
    monkeypatch.setattr(EnvelopePair, "h_minus",
                        lambda self, *args: calls.append(1) or h_minus(self, *args))
    prob, smoothed = _tdq_pair()
    compute_kn(prob, smoothed, K=2.0, R=1.0)
    assert len(calls) == 2 * prob.n_edges


@pytest.mark.parametrize("K,R,name", [(float("nan"), 2.0, "K"), (float("inf"), 2.0, "K"),
                                      (0.0, 2.0, "K"), (1.0, float("nan"), "R"),
                                      (1.0, float("inf"), "R"), (1.0, -1.0, "R")])
def test_compute_kn_refuses_a_slope_box_or_radius_out_of_range(K, R, name):
    prob = _step_limiter_problem()
    with pytest.raises(ConfigError, match=f"^{name}: expected a"):
        compute_kn(prob, approx_problem(prob, 0.1), K=K, R=R)


@pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, np.inf])
def test_approx_problem_refuses_a_width_that_is_not_positive_and_finite(eps):
    prob = _step_limiter_problem()
    smooths = [lambda: approx_problem(prob, eps),
               lambda: smoothing_ladder(prob, [0.1, eps]),
               lambda: comparison_diagnostic(prob, [eps], grid_for(prob, 0.1, 1.0))]
    for smooth in smooths:
        with pytest.raises(ConfigError) as err:
            smooth()
        assert str(err.value) == f"smoothing width: expected a positive finite number, got {eps!r}"


def test_compute_kn_takes_a_zero_radius():
    prob = _step_limiter_problem()
    assert compute_kn(prob, approx_problem(prob, 0.1), K=2.0, R=0.0).l1 == pytest.approx(0.05)


@pytest.mark.filterwarnings("error")
def test_compute_kn_refuses_a_slope_box_on_which_h_overflows():
    prob = bench_tdq_problem(1)
    approx = approx_problem(prob, 0.1)
    with pytest.raises(ConfigError, match=r"^K: the error signal overflows .* K = 1e\+300$"):
        compute_kn(prob, approx, 1e300, 1.0)
    assert np.isfinite(compute_kn(prob, approx, 1e153, 1.0).l1)


def test_shift_functions_move_by_the_integrated_error():
    prob = _step_limiter_problem()
    grid = grid_for(prob, 0.1, 2.0)
    base = solve(prob, grid)
    lower, upper = shifted_fields(base, constant(1.0, 1.0))
    for n, t in enumerate(grid.times):
        assert np.max(np.abs(lower.values[n] - (base.values[n] - t))) <= 1e-12
        assert np.max(np.abs(upper.values[n] - (base.values[n] + t))) <= 1e-12
    assert np.all(lower.values <= base.values + 1e-15)
    assert np.all(base.values <= upper.values + 1e-15)


def test_shift_functions_reject_negative_error_signals():
    prob = _step_limiter_problem()
    base = solve(prob, grid_for(prob, 0.2, 1.0))
    bad = TimeSignal(np.array([0.0, 1.0]), np.array([-0.5]))
    with pytest.raises(NegativeKn):
        shifted_fields(base, bad)


def test_comparison_diagnostic_on_a_constant_limiter_is_exact():
    prob = from_line(eikonal(), eikonal(), constant(-0.5, 1.0), zero_datum, 0.0, 1.0)
    study = comparison_diagnostic(prob, [0.2, 0.1], grid_for(prob, 0.1, 2.0))
    assert [r.sup_gap for r in study.reports] == [0.0, 0.0]
    assert [r.kn_l1 for r in study.reports] == [0.0, 0.0]
    assert [r.sandwich_violation for r in study.reports] == [0.0, 0.0]


def test_comparison_diagnostic_gap_is_controlled_by_the_error_integral():
    prob = _step_limiter_problem()
    study = comparison_diagnostic(prob, [0.2, 0.1, 0.05], grid_for(prob, 0.05, 2.0))
    assert study.widths == [0.2, 0.1, 0.05]
    for report in study.reports:
        assert report.sup_gap <= report.kn_l1 + 0.05
        assert report.sandwich_violation <= 1e-9
    gaps = [r.sup_gap for r in study.reports]
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    d = study.to_dict()
    assert set(d) == {"K", "R", "dx", "dt", "steps", "widths"}
    assert (d["dt"], d["steps"]) == (study.grid.dt, study.grid.steps)
    assert [w["solution_gap"] for w in d["widths"]] == gaps


def test_comparison_diagnostic_gives_equal_dicts_on_two_runs():
    prob = _step_limiter_problem()
    results = [comparison_diagnostic(prob, [0.2, 0.1], grid_for(prob, 0.1, 1.5)).to_dict()
               for _ in range(2)]
    assert results[0] == results[1]


def _serial_diagnostic(problem, widths, dx: float, r_domain: float, K=None) -> dict:
    """comparison_diagnostic width by width: solve, compute_kn, shifted_fields."""
    grid = grid_for(problem, dx, r_domain)
    base = solve(problem, grid)
    slopes = max(float(np.max(np.abs(np.diff(base.values[:, grid.edge_full_indices(i)],
                                               axis=1)))) / grid.dx
                 for i in range(grid.n_edges))
    K = max(1.1 * slopes, problem.lipschitz_u0, 1.0) if K is None else K
    R = float(max(np.max(grid.edge_y(i)) for i in range(grid.n_edges)))
    rows = []
    for eps in sorted(widths, reverse=True):
        ap = approx_problem(problem, eps)
        kn = compute_kn(problem, ap, K, R)
        fld = solve(ap, grid)
        lower, upper = shifted_fields(fld, kn.signal)
        viol = max(float(np.max(lower.values - base.values)),
                   float(np.max(base.values - upper.values)))
        rows.append({"eps": eps, "kn_l1": kn.l1, "solution_gap": base.linf_gap(fld),
                     "sandwich_violation": max(0.0, viol),
                     "kn": kn.signal.to_dict()})
    return {"K": K, "R": R, "dx": grid.dx, "dt": grid.dt, "steps": grid.steps, "widths": rows}


def _time_dependent_quadratic_problem():
    a = TimeSignal(np.array([0.0, 0.13, 0.31, 0.5]), np.array([1.0, 1.7, 0.6]))
    b = TimeSignal(np.array([0.0, 0.22, 0.5]), np.array([0.2, -0.15]))
    limiter = TimeSignal(np.array([0.0, 0.07, 0.29, 0.5]), np.array([-0.5, 0.3, -1.0]))
    # p_span pins the grid on which the K = 0.05 sandwich shows round-off (dx = 0.025)
    return from_line(eikonal(), quadratic(a, b, -1.0, p_span=10.0), limiter,
                     lambda x: 0.4 * min(1.0, abs(x)), 0.4, 0.5)


@pytest.mark.parametrize("make,K", [(_step_limiter_problem, None),
                                    (_time_dependent_quadratic_problem, None),
                                    (_time_dependent_quadratic_problem, 0.05)])
def test_comparison_diagnostic_equals_a_serial_per_width_run(make, K):
    """With K = 0.05 on dx = 0.025 the sandwich violations are positive
    round-off at every width, so the order of the shift and the subtraction
    shows in the bits."""
    prob = make()
    widths = [0.2, 0.1, 0.05]
    dx = 0.05 if K is None else 0.025
    grid = grid_for(prob, dx, 1.0)
    study = comparison_diagnostic(prob, widths, grid, K=K)
    got = study.to_dict()
    for row, report in zip(got["widths"], study.reports):
        row["kn"] = report.kn.signal.to_dict()
    assert got == _serial_diagnostic(prob, widths, dx=dx, r_domain=1.0, K=K)
    assert study.grid is grid
    if K is not None:
        assert min(r.sandwich_violation for r in study.reports) > 0.0


def test_comparison_diagnostic_on_a_grid_too_coarse_raises_what_solve_raises():
    """C2 = 34.68 from the declared p_span; a grid built for C2 = 1 breaks it."""
    prob = _time_dependent_quadratic_problem()
    coarse = make_grid(dx=0.05, horizon=prob.horizon, radii=(1.0, 1.0), c2=1.0)
    with pytest.raises(CflViolation) as want:
        solve(prob, coarse).values
    with pytest.raises(CflViolation) as got:
        comparison_diagnostic(prob, [0.2, 0.1], coarse)
    assert str(got.value) == str(want.value)
    assert "C2 from declared p_span 10 on edge 1" in str(got.value)
