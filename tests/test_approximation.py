from __future__ import annotations

import numpy as np
import pytest

from hjj import (
    Hamiltonian,
    TimeSignal,
    abs_shift,
    approx_hamiltonian,
    approx_problem,
    comparison_diagnostic,
    compute_kn,
    constant,
    eikonal,
    from_line,
    grid_for,
    l1_distance,
    make_grid,
    problem_from_config,
    quadratic,
    shift_functions,
    shifted_fields,
    solve,
    union_mesh,
)
from hjj.errors import CflViolation, NegativeKn, NonSeparableTimeDependence

from conftest import zero_datum


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
    h = abs_shift(shift, horizon=1.0)
    hn = approx_hamiltonian(h, 0.1)
    want = shift.mollify(0.1)
    got = hn.coefficients["c"]
    assert l1_distance(got, want) == 0.0
    # pointwise the smoothed Hamiltonian is |p| + smoothed shift
    for t in (0.1, 0.48, 0.52, 0.9):
        assert hn.eval_p(t, 0.0, np.array([2.0]))[0] == pytest.approx(
            2.0 + want(t), abs=1e-14)


def test_approx_hamiltonian_rejects_black_box_time_dependence():
    h = Hamiltonian(lambda t, x, p: np.abs(p) + t, lipschitz_p=1.0,
                    coercivity_radius=2.0, time_data={"kind": "blackbox"},
                    x_independent=True, validate=False)
    with pytest.raises(NonSeparableTimeDependence):
        approx_hamiltonian(h, 0.1)


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
    h = abs_shift(shift, horizon=1.0)
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


def test_shift_functions_move_by_the_integrated_error():
    prob = _step_limiter_problem()
    grid = grid_for(prob, 0.1, 2.0)
    base = solve(prob, grid)
    lower, upper = shifted_fields(base, constant(1.0, 1.0))
    for n, t in enumerate(grid.times):
        assert np.max(np.abs(lower.level(n) - (base.level(n) - t))) <= 1e-12
        assert np.max(np.abs(upper.level(n) - (base.level(n) + t))) <= 1e-12
    assert np.all(lower.values <= base.values + 1e-15)
    assert np.all(base.values <= upper.values + 1e-15)
    assert np.array_equal(shift_functions(base, constant(1.0, 1.0), "sub").values,
                          lower.values)
    assert np.array_equal(shift_functions(base, constant(1.0, 1.0), "super").values,
                          upper.values)


def test_shift_functions_reject_negative_error_signals():
    prob = _step_limiter_problem()
    base = solve(prob, grid_for(prob, 0.2, 1.0))
    bad = TimeSignal(np.array([0.0, 1.0]), np.array([-0.5]))
    with pytest.raises(NegativeKn):
        shift_functions(base, bad, "sub")
    with pytest.raises(ValueError):
        shift_functions(base, constant(1.0, 1.0), "down")


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
    assert set(d) == {"K", "R", "dx", "dt", "widths"}
    assert [w["solution_gap"] for w in d["widths"]] == gaps


def test_comparison_diagnostic_is_deterministic_across_thread_caps(monkeypatch):
    prob = _step_limiter_problem()
    results = []
    for cap in ("1", "4"):
        monkeypatch.setenv("HJJ_THREADS", cap)
        study = comparison_diagnostic(prob, [0.2, 0.1], grid_for(prob, 0.1, 1.5))
        results.append(study.to_dict())
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
    return {"K": K, "R": R, "dx": grid.dx, "dt": grid.dt, "widths": rows}


def _time_dependent_quadratic_problem():
    a = TimeSignal(np.array([0.0, 0.13, 0.31, 0.5]), np.array([1.0, 1.7, 0.6]))
    b = TimeSignal(np.array([0.0, 0.22, 0.5]), np.array([0.2, -0.15]))
    limiter = TimeSignal(np.array([0.0, 0.07, 0.29, 0.5]), np.array([-0.5, 0.3, -1.0]))
    # p_span pins the grid on which the K = 0.05 sandwich shows round-off
    return from_line(eikonal(), quadratic(a, b, -1.0, p_span=10.0), limiter,
                     lambda x: 0.4 * min(1.0, abs(x)), 0.4, 0.5)


@pytest.mark.parametrize("make,K", [(_step_limiter_problem, None),
                                    (_time_dependent_quadratic_problem, None),
                                    (_time_dependent_quadratic_problem, 0.05)])
def test_comparison_diagnostic_equals_a_serial_per_width_run(make, K):
    """With K = 0.05 the sandwich violations are positive round-off, so the
    order of the shift and the subtraction shows in the bits."""
    prob = make()
    widths = [0.2, 0.1, 0.05]
    study = comparison_diagnostic(prob, widths, grid_for(prob, 0.05, 1.0), K=K)
    got = study.to_dict()
    for row, report in zip(got["widths"], study.reports):
        row["kn"] = report.kn.signal.to_dict()
    assert got == _serial_diagnostic(prob, widths, dx=0.05, r_domain=1.0, K=K)
    assert study.base.values.tobytes() == solve(prob, study.base.grid).values.tobytes()
    if K is not None:
        assert min(r.sandwich_violation for r in study.reports) > 0.0


def test_comparison_diagnostic_on_a_grid_too_coarse_raises_what_solve_raises():
    """C2 = 34.68 from the declared p_span; a grid built for C2 = 1 breaks it."""
    prob = _time_dependent_quadratic_problem()
    coarse = make_grid(dx=0.05, horizon=prob.horizon, radii=(1.0, 1.0), c2=1.0)
    with pytest.raises(CflViolation) as want:
        solve(prob, coarse)
    with pytest.raises(CflViolation) as got:
        comparison_diagnostic(prob, [0.2, 0.1], coarse)
    assert str(got.value) == str(want.value)
    assert "C2 from declared p_span 10 on edge 1" in str(got.value)
