from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import hjj.control_system as control_system_module
import hjj.fd_scheme as fd_scheme_module
import hjj.hamiltonian as hamiltonian_module
from hjj import (
    ControlEdge,
    ControlForm,
    ControlSystem,
    Edge,
    EnvelopePair,
    Grid,
    Hamiltonian,
    JunctionProblem,
    TimeSignal,
    constant,
    control_edge,
    control_system_from_config,
    eikonal,
    from_line,
    grid_for,
    induced_problem,
    make_grid,
    abs_shift,
    problem_from_config,
    approx_problem,
    comparison_diagnostic,
    compute_kn,
    quadratic,
    smoothing_ladder,
    solve,
    solve_many,
    validate,
    value_function,
)
from hjj.errors import CflViolation, ConfigError, NonSeparableTimeDependence, NumericalFailure
from hjj.fd_scheme import _advance, _windows
from hjj.hamiltonian import CATALOG, numeric_argmin
from hjj.time_signal import coeff_window_averages

from conftest import (bench_tdq_problem, frozen, godunov_flux, random_control_system,
                      random_tdq_problem, record_line_max, share_grid, tdc_config, zero_datum)
from reference import step


def _line_problem(a_value: float, u0=zero_datum, lip: float = 0.0,
                  horizon: float = 1.0) -> JunctionProblem:
    return from_line(eikonal(), eikonal(), constant(a_value, horizon), u0, lip, horizon)


def _hopf_lax(u0, x: float, t: float, n: int = 4001) -> float:
    """Reference value for u_t + |u_x| - 1 = 0 on the whole line."""
    ys = np.linspace(x - t, x + t, n)
    return float(np.min([u0(y) for y in ys])) + t


def test_godunov_flux_examples():
    prob = _star(eikonal(), zero_datum, 0.0)
    assert godunov_flux(prob, 0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)
    assert godunov_flux(prob, 2.0, -2.0) == pytest.approx(1.0, abs=1e-12)
    assert godunov_flux(prob, 2.0, 0.0) == pytest.approx(1.0, abs=1e-12)  # max, not min
    probq = _star(quadratic(1.0, 0.0, 0.0), zero_datum, 0.0)
    assert godunov_flux(probq, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_godunov_flux_is_consistent_with_the_hamiltonian():
    rng = np.random.default_rng(37)
    for h in (eikonal(), quadratic(1.5, -0.5, 2.0)):
        prob = _star(h, zero_datum, 0.0)
        for p in rng.uniform(-4.0, 4.0, size=60):
            want = float(h.eval_p(0.0, 0.0, np.array([p]))[0])
            assert godunov_flux(prob, p, p) == pytest.approx(want, abs=1e-12)


def test_godunov_flux_is_monotone():
    prob = _star(quadratic(1.0, 0.3, 0.0), zero_datum, 0.0)
    rng = np.random.default_rng(39)
    for _ in range(200):
        pm, pp = rng.uniform(-3.0, 3.0, size=2)
        d = rng.uniform(0.0, 1.0)
        base = godunov_flux(prob, pm, pp)
        assert godunov_flux(prob, pm + d, pp) >= base - 1e-10
        assert godunov_flux(prob, pm, pp + d) <= base + 1e-10


def test_step_hand_evaluated_on_flat_data():
    """dx=1, dt=0.5, u=0: interior nodes gain dt, the junction follows max(A, -1)."""
    grid = share_grid(1.0, dx=1.0, source=1.0, radius=(3.0, 3.0), horizon=0.5)
    flat = np.zeros(grid.n_nodes)
    for a_value, junction_want in ((0.0, 0.0), (-1.0, 0.5)):
        prob = _line_problem(a_value, horizon=0.5)
        new = step(prob, grid, flat, 0.0, 0.5)
        assert new[0] == pytest.approx(junction_want, abs=1e-14)
        interiors = np.concatenate([new[grid.edge_full_indices(i)][1:] for i in range(2)])
        assert np.max(np.abs(interiors - 0.5)) <= 1e-14


def test_step_averages_the_flux_limiter_over_the_window():
    # A jumps from 0 to -1 at t=0.3, inside the window [0, 0.5]
    limiter = TimeSignal(np.array([0.0, 0.3, 0.5]), np.array([0.0, -1.0]))
    prob = from_line(eikonal(), eikonal(), limiter, zero_datum, 0.0, 0.5)
    grid = share_grid(1.0, dx=1.0, source=1.0, radius=(3.0, 3.0), horizon=0.5)
    new = step(prob, grid, np.zeros(grid.n_nodes), 0.0, 0.5)
    # junction update is -dt * max(avg A, -1) with avg A = -0.4
    assert new[0] == pytest.approx(0.2, abs=1e-14)


def test_solve_is_independent_of_the_signal_representative():
    bp = np.array([0.0, 0.3, 0.5])
    vals = np.array([0.0, -1.0])
    redundant = TimeSignal(np.array([0.0, 0.15, 0.3, 0.41, 0.5]),
                           np.array([0.0, 0.0, -1.0, -1.0]))
    p1 = from_line(eikonal(), eikonal(), TimeSignal(bp, vals), zero_datum, 0.0, 0.5)
    p2 = from_line(eikonal(), eikonal(), redundant, zero_datum, 0.0, 0.5)
    grid = grid_for(p1, 0.1, 2.0)
    assert np.array_equal(solve(p1, grid).values, solve(p2, grid).values)


def test_solve_level_zero_is_the_sampled_datum():
    u0 = lambda x: min(1.0, abs(x))
    prob = _line_problem(-1.0, u0=u0, lip=1.0)
    grid = grid_for(prob, 0.25, 2.0)
    field = solve(prob, grid)
    want = np.array([u0(x) for x in grid.line_x()])
    assert np.array_equal(field.values[0][grid.line_flat_indices()], want)


def test_solve_matches_hopf_lax_reference():
    """With A at the floor the junction is inactive and the line formula applies."""
    u0 = lambda x: min(1.0, abs(x))
    prob = _line_problem(-1.0, u0=u0, lip=1.0)
    grid = grid_for(prob, 0.01, 2.0)
    field = solve(prob, grid)
    n = grid.steps
    t = grid.times[n]
    xs = grid.line_x()
    keep = np.abs(xs) <= 1.5  # keep clear of the truncation boundary
    got = field.values[n][grid.line_flat_indices()][keep]
    want = np.array([_hopf_lax(u0, x, t) for x in xs[keep]])
    assert np.max(np.abs(got - want)) <= 0.05


def test_solve_commutes_with_adding_constants():
    u0 = lambda x: min(1.0, abs(x))
    prob = _line_problem(0.0, u0=u0, lip=1.0)
    shifted = _line_problem(0.0, u0=lambda x: u0(x) + 2.5, lip=1.0)
    grid = grid_for(prob, 0.1, 2.0)
    base = solve(prob, grid)
    moved = solve(shifted, grid)
    assert np.max(np.abs(moved.values - base.values - 2.5)) <= 1e-12


def test_solve_respects_the_sup_norm_stability_bound():
    rng = np.random.default_rng(47)
    for _ in range(15):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-1.0, 1.0)
        c = rng.uniform(-1.0, 1.0)
        h = quadratic(a, b, c)
        a_value = c + rng.uniform(0.0, 1.0)
        s = rng.uniform(0.2, 1.0)
        u0 = lambda x, s=s: s * min(1.0, abs(x))
        prob = from_line(h, h, constant(a_value, 0.5), u0, s, 0.5)
        grid = grid_for(prob, 0.1, 1.0)
        field = solve(prob, grid)
        h0 = abs(float(h.eval_p(0.0, 0.0, np.array([0.0]))[0]))
        # zero-slope fluxes: H(0) inside, max(A, H(0)) at the junction and
        # the parabola minimum c at the outflow closure
        bound = max(abs(a_value), h0, abs(c))
        for nlev, t in enumerate(grid.times):
            assert float(np.max(np.abs(field.values[nlev]))) \
                <= float(np.max(np.abs(field.values[0]))) + t * bound + 1e-12


def test_discrete_comparison_on_ordered_data():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a_value = rng.uniform(-1.0, 0.0)
        s = rng.uniform(0.2, 0.8)
        x0 = rng.uniform(-1.0, 1.0)
        lo = lambda x, s=s, x0=x0: s * abs(x - x0)
        bump = lambda x, x0=x0: 0.4 * max(0.0, 1.0 - abs(x + x0))
        hi = lambda x: lo(x) + 0.1 + bump(x)
        prob_lo = _line_problem(a_value, u0=lo, lip=1.0, horizon=0.5)
        prob_hi = _line_problem(a_value, u0=hi, lip=1.5, horizon=0.5)
        grid = grid_for(prob_lo, 0.1, 1.5)
        f_lo = solve(prob_lo, grid)
        f_hi = solve(prob_hi, grid)
        assert float(np.max(f_lo.values - f_hi.values)) <= 1e-12


def test_cfl_violation_raises():
    """Steps sized for C2 = 0.25 or 0.5 break eikonal's C2 = 1: solve refuses them in the
    call, before its first step."""
    prob = _line_problem(-1.0)
    for dx, c2 in ((0.05, 0.25), (0.1, 0.5)):
        grid = share_grid(1.0, dx=dx, source=c2, radius=(1.0, 1.0), horizon=1.0)
        with pytest.raises(CflViolation):
            solve(prob, grid)


def test_three_edge_star_solve_is_stable():
    prob = JunctionProblem(
        edges=[Edge(eikonal()) for _ in range(3)],
        flux_limiter=constant(-0.5, 0.5),
        initial_data=[zero_datum] * 3,
        lipschitz_u0=0.0,
        horizon=0.5,
    )
    grid = grid_for(prob, 0.1, 1.0)
    field = solve(prob, grid)
    field.check_finite()
    assert field.values.shape[1] == 1 + 3 * (len(grid.edge_y(0)) - 1)
    # junction cost rate is max(A, -1) = -0.5
    assert field.values[-1][0] == pytest.approx(0.25, abs=1e-12)


def test_csv_round_trips_17_digit_floats():
    prob = _line_problem(0.0, u0=lambda x: abs(x) / 3.0, lip=1.0 / 3.0, horizon=0.5)
    grid = grid_for(prob, 0.25, 1.0)
    field = solve(prob, grid)
    text = field.to_csv()
    lines = text.split("\n")
    assert lines[0] == "t,x,u"
    assert "\r" not in text
    t_str, x_str, u_str = lines[1].split(",")
    assert float(t_str) == grid.times[0]
    rebuilt = {}
    for row in lines[1:]:
        if not row:
            continue
        t_s, x_s, u_s = row.split(",")
        rebuilt[(float(t_s), float(x_s))] = float(u_s)
    xs = grid.line_x()
    for n, t in enumerate(grid.times):
        prof = field.values[n][grid.line_flat_indices()]
        for x, u in zip(xs, prof):
            assert rebuilt[(float(t), float(x))] == u


def test_snapshot_records_requested_and_grid_times():
    prob = _line_problem(0.0, horizon=0.5)
    grid = grid_for(prob, 0.25, 1.0)
    field = solve(prob, grid)
    text = field.to_snapshot_tsv(0.28125)
    header, columns = text.split("\n")[:2]
    assert header.startswith("# t_requested=0.28125")
    assert "t_grid=0.25" in header  # nearest level wins
    assert columns == "x\tu"


def test_linf_gap_against_self_is_zero():
    prob = _line_problem(0.0, horizon=0.5)
    grid = grid_for(prob, 0.25, 1.0)
    field = solve(prob, grid)
    assert field.linf_gap(field) == 0.0


class _NumericSplit:
    """Envelopes of a frozen Hamiltonian split at its numeric minimiser."""

    def __init__(self, h, t: float):
        self.h = h
        self.p_hat, self.h_min = numeric_argmin(h, t, 0.0)

    def h_plus(self, t, x, p):
        p = np.asarray(p, dtype=float)
        return np.where(p <= self.p_hat, self.h_min, self.h.eval_p(t, x, p))

    def h_minus(self, t, x, p):
        p = np.asarray(p, dtype=float)
        return np.where(p <= self.p_hat, self.h.eval_p(t, x, p), self.h_min)


def _reference_march(problem: JunctionProblem, grid) -> np.ndarray:
    """The scheme window by window: frozen Hamiltonians, numeric minimisers."""
    values = np.empty((grid.steps + 1, grid.n_nodes))
    values[0] = grid.sample(problem.initial_data)
    for n in range(grid.steps):
        t = float(grid.times[n])
        dt = float(grid.times[n + 1]) - t
        u = values[n]
        junction = problem.flux_limiter.average(t, t + dt)
        for i, edge in enumerate(problem.edges):
            env = _NumericSplit(frozen(edge.hamiltonian, t, t + dt), t)
            idx = grid.edge_full_indices(i)
            q = np.diff(u[idx]) / grid.dx
            flux = np.append(np.maximum(env.h_plus(t, 0.0, q[:-1]), env.h_minus(t, 0.0, q[1:])),
                             env.h_plus(t, 0.0, q[-1]))
            values[n + 1, idx[1:]] = u[idx[1:]] - dt * flux
            junction = max(junction, float(env.h_minus(t, 0.0, q[0])))
        values[n + 1, 0] = u[0] - dt * junction
    return values


def _time_dependent_quadratic_problem() -> JunctionProblem:
    a = TimeSignal(np.array([0.0, 0.13, 0.31, 0.5]), np.array([1.0, 1.7, 0.6]))
    b = TimeSignal(np.array([0.0, 0.22, 0.5]), np.array([0.2, -0.15]))
    limiter = TimeSignal(np.array([0.0, 0.07, 0.29, 0.5]), np.array([-0.5, 0.3, -1.0]))
    u0 = lambda x: 0.4 * min(1.0, abs(x))
    return from_line(eikonal(), quadratic(a, b, -1.0), limiter, u0, 0.4, 0.5)


def test_solve_matches_a_frozen_numeric_reference_bit_for_bit():
    prob = _time_dependent_quadratic_problem()
    grid = grid_for(prob, 0.05, 1.0)
    field = solve(prob, grid)
    want = _reference_march(prob, grid)
    assert field.values.tobytes() == want.tobytes()


def test_step_reproduces_each_level_of_solve():
    prob = _time_dependent_quadratic_problem()
    grid = grid_for(prob, 0.05, 1.0)
    field = solve(prob, grid)
    for n in (0, 1, grid.steps // 2, grid.steps - 1):
        t = float(grid.times[n])
        got = step(prob, grid, field.values[n], t, float(grid.times[n + 1]) - t)
        assert got.tobytes() == field.values[n + 1].tobytes()


def test_march_minimises_each_edge_at_most_once(monkeypatch):
    """Catalog edges need no search; time-independent black boxes need one."""
    calls = []
    real = hamiltonian_module.numeric_argmin

    def counted(h, t, x):
        calls.append((t, x))
        return real(h, t, x)

    monkeypatch.setattr(hamiltonian_module, "numeric_argmin", counted)
    prob = _time_dependent_quadratic_problem()
    solve(prob, grid_for(prob, 0.05, 1.0)).check_finite()
    assert calls == []

    flat = Hamiltonian(lambda t, x, p: np.maximum(np.abs(p) - 1.0, 0.0),
                       lipschitz_p=1.0, coercivity_radius=2.0, x_independent=True)
    prob = from_line(flat, eikonal(), constant(0.0, 0.5), zero_datum, 0.0, 0.5)
    grid = grid_for(prob, 0.1, 1.0)
    solve(prob, grid).check_finite()
    assert grid.steps > 1
    assert len(calls) == 1


@pytest.mark.parametrize("x_dependent, want", [(False, [1, 0, 2]), (True, [0, 11, 15])],
                         ids=["x-independent", "x-dependent"])
def test_a_black_box_is_searched_once_per_problem_and_node(monkeypatch, x_dependent, want):
    """numeric_argmin calls to build a problem, solve it, and run a two-width diagnostic.

    A box that ignores t and x is frozen once per problem, and a march and
    compute_kn share that pair; one that depends on x is frozen at the 11
    nodes of its edge once per march, and compute_kn reads it at x = 0 once
    per problem of each width.
    """
    calls = []
    real = hamiltonian_module.numeric_argmin
    monkeypatch.setattr(hamiltonian_module, "numeric_argmin",
                        lambda h, t, x: calls.append((t, x)) or real(h, t, x))
    if x_dependent:
        box = Hamiltonian(lambda t, x, p: (1.0 + 0.2 * np.minimum(np.abs(x), 1.0)) * np.abs(p)
                          - 1.0, lipschitz_p=1.2, coercivity_radius=2.0)
    else:
        box = Hamiltonian(lambda t, x, p: np.maximum(np.abs(p) - 1.0, 0.0), lipschitz_p=1.0,
                          coercivity_radius=2.0, x_independent=True)
    limiter = TimeSignal(np.array([0.0, 0.2, 0.5]), np.array([0.1, 0.4]))
    counts = []
    prob = from_line(box, eikonal(), limiter, zero_datum, 0.0, 0.5)
    counts.append(len(calls))
    grid = grid_for(prob, 0.1, 1.0)
    for run in (lambda: solve(prob, grid), lambda: comparison_diagnostic(prob, [0.2, 0.1], grid)):
        del calls[:]
        run()
        counts.append(len(calls))
    assert counts == want


def _control_induced_problem() -> JunctionProblem:
    """Line problem: time-independent right edge, time-dependent left edge."""
    speed = TimeSignal(np.array([0.0, 0.17, 0.36, 0.5]), np.array([0.8, 1.3, 0.9]))
    cost = TimeSignal(np.array([0.0, 0.23, 0.5]), np.array([1.0, 2.5]))
    edges = [control_edge(ControlForm(c1=1.0), ControlForm(c0=1.0, c2=0.5),
                          -1.0, 1.0, n=21),
             control_edge(ControlForm(c0=0.05, c1=speed, c2=0.05),
                          ControlForm(c0=cost, c1=0.2), -1.0, 1.0, n=17)]
    l0 = TimeSignal(np.array([0.0, 0.2, 0.5]), np.array([0.3, -0.2]))
    cs = ControlSystem(edges, l0=l0, A0=-0.7, delta=0.5)
    return induced_problem(cs, lambda x: 0.3 * min(1.0, abs(x)), 0.3, 0.5)


def test_solve_matches_the_reference_on_control_induced_edges():
    prob = _control_induced_problem()
    assert [e.hamiltonian.time_independent for e in prob.edges] == [True, False]
    grid = grid_for(prob, 0.05, 1.0)
    field = solve(prob, grid)
    assert field.values.tobytes() == _reference_march(prob, grid).tobytes()
    for n in (0, grid.steps // 2, grid.steps - 1):
        t = float(grid.times[n])
        got = step(prob, grid, field.values[n], t, float(grid.times[n + 1]) - t)
        assert got.tobytes() == field.values[n + 1].tobytes()


def test_step_evaluates_each_non_catalog_edge_once(monkeypatch):
    """One H(q) per control-induced edge gives its flux, outflow and junction terms.

    Each pair of the window is split once, and the two frozen control pairs
    evaluate their lines once each (the eikonal pair is |p| - 1).
    """
    base = _control_induced_problem()
    prob = JunctionProblem(
        edges=[*base.edges, Edge(eikonal())],
        flux_limiter=base.flux_limiter,
        initial_data=[*base.initial_data, lambda y: 0.3 * min(1.0, y)],
        lipschitz_u0=0.3,
        horizon=0.5,
    )
    grid = grid_for(prob, 0.05, 1.0)
    at = _windows([prob], grid, grid.times)
    u = grid.sample(prob.initial_data)
    for n in (0, grid.steps // 2, grid.steps - 1):
        window = at(n)
        assert window[1][2].h.form is CATALOG["abs_shift"] and window[1][2].values is not None
        splits = []
        real_split = EnvelopePair.split
        monkeypatch.setattr(EnvelopePair, "split",
                            lambda pair, t, x, p: splits.append(pair) or real_split(pair, t, x, p))
        lines = record_line_max(monkeypatch)
        t = float(grid.times[n])
        _advance([prob], grid, u[None], t, float(grid.times[n + 1]) - t, window)
        monkeypatch.undo()
        assert sorted(map(id, splits)) == sorted(map(id, window[1]))
        assert len(lines) == 2 and lines[0][0] is not lines[1][0]


def _x_dependent_problem(limiter: TimeSignal) -> JunctionProblem:
    """Line problem whose right edge is an x-dependent black box."""
    def evaluator(t, x, p):
        assert np.ndim(p) <= 1
        return np.abs(p) * (1.0 + 0.2 * min(abs(float(x)), 1.0)) - 1.0

    h = Hamiltonian(evaluator, lipschitz_p=1.2, coercivity_radius=2.0)
    return from_line(h, eikonal(), limiter, lambda x: 0.3 * min(1.0, abs(x)), 0.3, 0.5)


def _star_problem() -> JunctionProblem:
    a = TimeSignal(np.array([0.0, 0.13, 0.31, 0.5]), np.array([1.0, 1.7, 0.6]))
    c = TimeSignal(np.array([0.0, 0.21, 0.5]), np.array([-1.0, -0.4]))
    limiter = TimeSignal(np.array([0.0, 0.07, 0.29, 0.5]), np.array([-0.5, 0.3, -0.2]))
    return JunctionProblem(
        edges=[Edge(eikonal()), Edge(quadratic(a, 0.1, -1.0, p_span=2.0)), Edge(abs_shift(c))],
        flux_limiter=limiter,
        initial_data=[lambda y: 0.2 * min(1.0, y)] * 3,
        lipschitz_u0=0.2,
        horizon=0.5,
    )


def _ladder(problem: JunctionProblem) -> list:
    return [problem] + [approx_problem(problem, eps) for eps in (0.2, 0.1, 0.05)]


_LIMITER = TimeSignal(np.array([0.0, 0.19, 0.5]), np.array([-0.4, -0.9]))


@pytest.mark.parametrize("problems", [
    _ladder(_time_dependent_quadratic_problem()),
    _ladder(_control_induced_problem()),
    _ladder(_x_dependent_problem(_LIMITER)),
    _ladder(_star_problem()),
], ids=["quadratic-ladder", "control-ladder", "x-dependent-ladder", "star-ladder"])
def test_batched_march_equals_per_problem_solve_bit_for_bit(problems):
    grid = grid_for(problems[0], 0.05, 1.0)
    fields = solve_many(problems, grid)
    assert len(fields) == len(problems)
    for problem, field in zip(problems, fields):
        want = solve(problem, grid)
        assert field.values.tobytes() == want.values.tobytes()
        assert field.line == problem.line_convention
        # a contiguous view into one batch array, not a copy
        assert field.values.flags.c_contiguous
        assert field.values.base is fields[0].values.base


def test_batched_march_evaluates_a_shared_edge_once_per_step(monkeypatch):
    """The time-independent edge every smoothed problem keeps is one H call per step.

    Its pair is frozen once per march, so every step evaluates the same
    lines, once, on the slopes of the whole batch.
    """
    problems = _ladder(_control_induced_problem())
    h = problems[0].edges[0].hamiltonian
    assert all(p.edges[0].hamiltonian is h for p in problems)
    grid = grid_for(problems[0], 0.05, 1.0)
    calls = record_line_max(monkeypatch)
    solve_many(problems, grid)
    m = len(grid.edge_y(0)) - 1
    by_lines = {}
    for speeds, _, shape in calls:
        by_lines.setdefault(id(speeds), []).append(shape)
    assert [(len(problems), m)] * grid.steps in by_lines.values()


def _star(h, u0, lip: float, a_value: float = 0.0) -> JunctionProblem:
    return JunctionProblem(edges=[Edge(h) for _ in range(3)],
                           flux_limiter=constant(a_value, 0.5), initial_data=[u0] * 3,
                           lipschitz_u0=lip, horizon=0.5)


def _bad_stars() -> dict:
    """Three stars that fail, a good one sharing each one's edges, and the grid of the
    steep one, where they fail.

    A batch shares each edge: the good quadratic star shares the closed form of the
    steep and the fast one, and stays flat at A = A0 = -1; the good blind star shares
    the black box and has a zero datum.
    """
    blind_h = Hamiltonian(lambda t, x, p: np.asarray(p) ** 2 - 1.0, lipschitz_p=1.0,
                          coercivity_radius=2.0, x_independent=True)
    stars = {
        "good": _star(quadratic(1.0, 0.0, -1.0, p_span=0.5), zero_datum, 0.0, a_value=-1.0),
        # the declared span understates the slopes: the per-step guard catches it
        "steep": _star(quadratic(1.0, 0.0, -1.0, p_span=0.5), lambda y: 0.5 * y, 0.5),
        "fast": _star(quadratic(1.0, 0.0, -1.0, p_span=50.0), zero_datum, 0.0),
        # a black box has no guard, so an understated lipschitz_p overflows
        "blind": _star(blind_h, lambda y: 0.5 * y, 0.5),
        "good-blind": _star(blind_h, zero_datum, 0.0),
    }
    return {**stars, "grid": share_grid(1.0, 0.02, stars["steep"], 1.0)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batched_march_checks_every_problem():
    """A bad problem in the batch fails as it does alone: same class, level and node.

    Each batch puts the bad star between two good ones that share its edges.
    """
    stars = _bad_stars()
    good, good_blind, grid = stars["good"], stars["good-blind"], stars["grid"]
    for bad, error, twin in ((stars["steep"], CflViolation, good),
                             (stars["fast"], CflViolation, good),
                             (stars["blind"], NumericalFailure, good_blind)):
        with pytest.raises(error) as alone:
            solve(bad, grid).values
        with pytest.raises(error) as batched:
            solve_many([twin, bad, twin], grid)
        assert str(batched.value) == str(alone.value)
    for twin in (good, good_blind):
        solve(twin, grid).values
    with pytest.raises(ValueError):
        solve_many([], grid)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_march_stops_at_its_first_non_finite_level(monkeypatch):
    """The blind star overflows at level 13 of 25: the march makes 13 updates, not 25,
    alone and between two good stars that share its black box."""
    stars = _bad_stars()
    good, blind, grid = stars["good-blind"], stars["blind"], stars["grid"]
    assert grid.steps == 25
    calls, real = [], fd_scheme_module._advance
    monkeypatch.setattr(fd_scheme_module, "_advance",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    for batch in ([blind], [good, blind, good]):
        calls.clear()
        with pytest.raises(NumericalFailure, match="^non-finite value at level 13, node 0$"):
            solve_many(batch, grid)
        assert len(calls) == 13


def _random_induced_problem(seed: int, n_edges: int) -> JunctionProblem:
    cs = random_control_system(np.random.default_rng(seed), horizon=0.5, n_edges=n_edges)
    return induced_problem(cs, lambda x: 0.4 * min(1.0, abs(x - 0.1)), 0.4, 0.5)


@pytest.mark.parametrize("share", [0.5, 1.0])
@pytest.mark.parametrize("case", ["random-3", "random-4", "random-5", "random-star-6",
                                  "random-star-7", "time-dependent"])
def test_pruned_solve_equals_the_march_over_every_control(monkeypatch, case, share):
    """The reference is the same march with undominated keeping every control."""
    def run() -> np.ndarray:
        if case == "time-dependent":
            prob = _control_induced_problem()
        else:
            prob = _random_induced_problem(int(case[-1]), 3 if "star" in case else 2)
        return solve(prob, share_grid(share, 0.05, prob, 1.0)).values

    got = run()
    monkeypatch.setattr(control_system_module, "undominated",
                        lambda speeds, costs: np.ones(np.shape(speeds), dtype=bool))
    assert got.tobytes() == run().tobytes()


# ---------------------------------------------------------------------------
# C2 from the slope box, and the per-step guard

def _achieved_cfl(problem: JunctionProblem, field) -> float:
    """max over steps and edges of dt |dH/dp| / dx at the slopes each step reads.

    The edges are catalog forms; |dH/dp| is taken under each window's
    averaged coefficients, as the scheme takes H.
    """
    grid = field.grid
    dts = np.diff(grid.times)[:, None]
    worst = 0.0
    for i, edge in enumerate(problem.edges):
        h = edge.hamiltonian
        q = np.diff(field.values[:-1][:, grid.edge_full_indices(i)], axis=1) / grid.dx
        if h.form is CATALOG["quadratic"]:
            a, b = (coeff_window_averages(h.coefficients[k], grid.times)[:, None] for k in "ab")
            speed = 2.0 * a * np.abs(q - b)
        else:
            speed = np.ones_like(q)  # |p| + c
        worst = max(worst, float(np.max(dts * speed)) / grid.dx)
    return worst


def test_solve_keeps_the_achieved_cfl_number_within_the_safety_factor():
    for seed in range(20):
        prob = random_tdq_problem(seed)
        field = solve(prob, grid_for(prob, 0.04, 1.0))
        assert _achieved_cfl(prob, field) <= 0.5, seed


def test_an_understated_p_span_raises_cfl_violation_at_the_first_breach():
    """H = p^2 - 1, p_span 0.5, u0 = 0.5 y: level 0 sits at the limit, level 1 is past it."""
    star = JunctionProblem(edges=[Edge(quadratic(1.0, 0.0, -1.0, p_span=0.5)) for _ in range(3)],
                           flux_limiter=constant(0.0, 0.5), initial_data=[lambda y: 0.5 * y] * 3,
                           lipschitz_u0=0.5, horizon=0.5)
    grid = share_grid(1.0, 0.02, star, 1.0)
    assert star.cfl_speed() == (1.0, "declared p_span 0.5 on edge 0")
    with pytest.raises(CflViolation) as got:
        solve(star, grid).values
    assert str(got.value) == ("dt |dH/dp| / dx = 2.5 > 1 at level 1, on the slope from node 0 "
                              "to node 1 (edge 0); C2 = 1 from declared p_span 0.5 on edge 0")


def test_x_dependent_control_edge_takes_its_speed_on_the_grid_nodes():
    """Speeds a (1 + 3 min(|y|, 0.1) / 0.1): 1 at the junction, 4 from y = 0.1 on."""
    drift = lambda t, y, a: a * (1.0 + 3.0 * min(abs(y), 0.1) / 0.1)  # noqa: E731
    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21))
             for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(0.0, 0.05), A0=-1.0, delta=1.0)
    prob = induced_problem(cs, lambda x: 0.5 * abs(x), 0.5, 0.05)
    grid = share_grid(1.0, 0.01, prob, 0.3)
    assert grid.dt <= 0.01 / 4.0
    assert prob.cfl_speed(0.01, [0.3, 0.3]) == (4.0, "max|f| over 21 controls and 31 nodes "
                                                     "on edge 0")
    field = solve(prob, grid)
    assert field.sup_norm() <= 0.5 * 0.3 + 0.05 + 1e-12  # u0 plus T times the unit cost
    with pytest.raises(ValueError, match="needs the grid's nodes"):
        prob.cfl_speed()
    # a grid at the speed seen from the junction is refused before the first step
    probed = share_grid(1.0, 0.01, 1.0, [0.3, 0.3], 0.05)
    with pytest.raises(CflViolation, match="max\\|f\\| over 21 controls and 31 nodes"):
        solve(prob, probed)


@pytest.mark.parametrize("dx", [np.nan, np.inf])
def test_an_x_dependent_problem_refuses_a_non_finite_dx_where_it_takes_its_nodes(dx):
    """cfl_speed reads the grid's nodes before make_grid runs, so edge_nodes checks dx."""
    prob = _x_dependent_problem(constant(-1.0, 0.5))
    with pytest.raises(ConfigError, match="^dx: expected a positive finite number"):
        prob.cfl_speed(dx, [1.0, 1.0])
    with pytest.raises(ConfigError, match="^dx: expected a positive finite number"):
        grid_for(prob, dx, 1.0)


# ---------------------------------------------------------------------------
# x-dependent edges against the node-by-node scheme

class _NodeSplit:
    """Envelopes of a time-independent h split at numeric_argmin of each node of ys."""

    def __init__(self, h, ys):
        self.h = h
        self.minima = {y: numeric_argmin(h, 0.0, y) for y in ys.tolist()}

    def h_plus(self, t, x, p):
        p_hat, h_min = self.minima[x]
        return np.where(p <= p_hat, h_min, self.h.eval_p(t, x, p))

    def h_minus(self, t, x, p):
        p_hat, h_min = self.minima[x]
        return np.where(p <= p_hat, self.h.eval_p(t, x, p), h_min)


def _node_by_node_march(problem: JunctionProblem, grid) -> np.ndarray:
    """The scheme with one Godunov flux per node, max(h_plus, h_minus) at that node's position."""
    envs = [problem.envelope(i) if e.hamiltonian.x_independent
            else _NodeSplit(e.hamiltonian, grid.edge_y(i)) for i, e in enumerate(problem.edges)]
    values = np.empty((grid.steps + 1, grid.n_nodes))
    values[0] = grid.sample(problem.initial_data)
    for n in range(grid.steps):
        t = float(grid.times[n])
        dt = float(grid.times[n + 1]) - t
        u = values[n]
        junction = problem.flux_limiter.average(t, t + dt)
        for i, env in enumerate(envs):
            idx = grid.edge_full_indices(i)
            ys = grid.edge_y(i).tolist()
            q = np.diff(u[idx]) / grid.dx
            flux = [float(np.maximum(env.h_plus(t, ys[j], q[j - 1]), env.h_minus(t, ys[j], q[j])))
                    for j in range(1, len(q))]
            flux.append(float(env.h_plus(t, ys[-1], q[-1])))
            values[n + 1, idx[1:]] = u[idx[1:]] - dt * np.array(flux)
            junction = max(junction, float(env.h_minus(t, 0.0, q[0])))
        values[n + 1, 0] = u[0] - dt * junction
    return values


def _scalar_box(t, x, p):
    assert np.ndim(p) <= 1
    return np.abs(p) * (1.0 + 0.2 * min(abs(float(x) - 0.1), 1.0)) - 1.0


def _broadcast_box(t, x, p):
    return np.abs(p) * (1.0 + 0.2 * np.minimum(np.abs(x - 0.1), 1.0)) - 1.0


def _box_problem(evaluator, limiter: TimeSignal = _LIMITER) -> JunctionProblem:
    """x-dependent black boxes on both edges, the left one reflected."""
    h = Hamiltonian(evaluator, lipschitz_p=1.2, coercivity_radius=2.0)
    return from_line(h, h, limiter, lambda x: 0.3 * min(1.0, abs(x)), 0.3, 0.5)


def _induced_drift_problem() -> JunctionProblem:
    drift = lambda t, y, a: a * (1.0 + 0.25 * min(abs(y), 1.0))  # noqa: E731
    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 11))
             for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(0.0, 0.5), A0=-1.0, delta=1.0)
    return induced_problem(cs, lambda x: 0.5 * min(1.0, abs(x)), 0.5, 0.5)


@pytest.mark.parametrize("make", [lambda: _box_problem(_scalar_box),
                                  lambda: _box_problem(_broadcast_box),
                                  _induced_drift_problem],
                         ids=["scalar-only", "broadcasting", "induced-drift"])
def test_x_dependent_solve_equals_the_node_by_node_scheme_bit_for_bit(make):
    problem = make()
    grid = grid_for(problem, 0.05, 1.0)
    want = _node_by_node_march(problem, grid)
    assert solve(problem, grid).values.tobytes() == want.tobytes()
    # in a batch: a twin sharing its Hamiltonians makes one two-row edge
    twin = JunctionProblem(problem.edges, constant(-0.6, 0.5), problem.initial_data,
                           problem.lipschitz_u0, problem.horizon, problem.line_convention)
    shared = solve_many([problem, twin], grid)
    assert shared[0].values.tobytes() == want.tobytes()
    assert shared[1].values.tobytes() == _node_by_node_march(twin, grid).tobytes()


@pytest.mark.parametrize("problems, edge", [
    ([_control_induced_problem(), _control_induced_problem()], 0),
    ([_x_dependent_problem(_LIMITER), _x_dependent_problem(constant(-0.6, 0.5))], 0),
    ([_time_dependent_quadratic_problem(), _x_dependent_problem(_LIMITER)], 0),
    ([_x_dependent_problem(_LIMITER), _box_problem(_scalar_box)], 0),
    ([_x_dependent_problem(_LIMITER), _box_problem(_broadcast_box)], 0),
    ([_x_dependent_problem(_LIMITER), _induced_drift_problem()], 0),
], ids=["control-distinct", "x-dependent-distinct", "mixed-forms", "beside-scalar-only",
        "beside-broadcasting", "beside-induced-drift"])
def test_a_batch_that_does_not_share_an_edge_is_refused(problems, edge):
    """A batch shares each edge's Hamiltonian object or closed form, or solve_many
    raises ValueError naming the first edge it does not share; each problem alone
    still marches."""
    grid = grid_for(problems, 0.05, 1.0)
    with pytest.raises(ValueError, match=f"^the batch does not share edge {edge}'s "):
        solve_many(problems, grid)
    for problem in problems:
        solve(problem, grid).check_finite()


def _callable_systems() -> list:
    """(problem, control system, distinct tables per march) with callable drifts on [0, 0.5].

    The x-dependent drift ignores t: one table. The step a + 0.5 [t > 0.25]
    ignores x: one table before the step and one after it.
    """
    drifts = ((lambda t, y, a: a * (1.0 + 0.25 * min(abs(y), 1.0)), 1),
              (lambda t, y, a: a + 0.5 * (t > 0.25), 2))
    out = []
    for drift, tables in drifts:
        edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 11))
                 for _ in range(2)]
        cs = ControlSystem(edges, l0=TimeSignal(np.array([0.0, 0.2, 0.5]), np.array([0.0, 0.5])),
                           A0=-1.0, delta=1.0)
        out.append((induced_problem(cs, lambda x: 0.5 * min(1.0, abs(x)), 0.5, 0.5), cs, tables))
    return out


def test_callable_control_edges_never_reach_the_numeric_argmin(monkeypatch):
    """solve, value_function, compute_kn and validate search nothing.

    A march freezes each callable edge once per distinct table. A callable
    may read t and has no coefficients to smooth, so smoothing_ladder
    refuses it, whether or not it reads t. A black box is still counted.
    """
    calls, freezes = [], []
    real, real_freeze = hamiltonian_module.numeric_argmin, control_system_module._freeze_lines
    monkeypatch.setattr(hamiltonian_module, "numeric_argmin",
                        lambda h, t, x: calls.append((t, x)) or real(h, t, x))
    monkeypatch.setattr(control_system_module, "_freeze_lines",
                        lambda s, c: freezes.append(s.shape) or real_freeze(s, c))
    for problem, cs, tables in _callable_systems():
        grid = grid_for(problem, 0.05, 1.0)
        del freezes[:]
        values = solve(problem, grid).values
        marched = [s for s in freezes if s[1:] == (len(grid.edge_y(0)),)]
        assert len(marched) == 2 * tables
        gap = values - value_function(cs, problem.initial_data, grid).values
        assert np.max(np.abs(gap)) <= 1e-12
        with pytest.raises(NonSeparableTimeDependence):
            smoothing_ladder(problem, [0.2, 0.1])
        assert compute_kn(problem, problem, 1.0, 1.0).l1 == 0.0
        assert validate(problem).ok
    assert calls == []
    box = Hamiltonian(lambda t, x, p: np.abs(p) - 1.0, lipschitz_p=1.0, x_independent=True)
    hamiltonian_module.argmin_p(box, 0.0, 0.0)
    assert calls == [(0.0, 0.0)]


def _count_pairs(monkeypatch) -> list:
    """Every EnvelopePair that fd_scheme builds from here on, appended to the list returned."""
    pairs = []

    class Counted(EnvelopePair):
        def __init__(self, h, values=None):
            pairs.append(values)
            super().__init__(h, values=values)

    monkeypatch.setattr(fd_scheme_module, "EnvelopePair", Counted)
    return pairs


def test_a_windowed_edge_is_frozen_again_only_when_its_values_change(monkeypatch):
    """TDC at dx 0.02 against the same march with every window frozen afresh.

    Its averaged coefficients repeat inside a signal cell, mostly bit for
    bit, so 113 of the 248 window-edge pairs are built, and the field keeps
    its bits.
    """
    prob = problem_from_config(tdc_config())[0]
    grid = grid_for(prob, 0.02, 2.0)
    pairs = _count_pairs(monkeypatch)
    got = solve(prob, grid).values
    assert len(pairs) == 113 < 2 * grid.steps == 248
    real = fd_scheme_module._edge_windows
    monkeypatch.setattr(fd_scheme_module, "_edge_windows",
                        lambda *args: lambda n: real(*args)(n))  # a fresh cache per window
    del pairs[:]
    assert solve(prob, grid).values.tobytes() == got.tobytes()
    assert len(pairs) == 248


def test_a_callable_table_whose_zero_costs_change_sign_is_frozen_again(monkeypatch):
    """Equal tables up to the sign of a zero are two tables: -0.0 and 0.0 may split differently.

    The callable's cost is 0.0 before t = 0.25 and -0.0 after it, on every
    control: each edge is frozen twice, and the run without the flip once.
    """
    for flip, want in ((True, 4), (False, 2)):
        def cost(t, y, a, flip=flip):
            return np.copysign(0.0, 0.25 - t if flip else 1.0) * (1.0 + abs(y))

        edges = [ControlEdge(ControlForm(c1=1.0), cost, np.linspace(-1.0, 1.0, 11))
                 for _ in range(2)]
        cs = ControlSystem(edges, l0=constant(0.0, 0.5), A0=-1.0, delta=1.0)
        problem = induced_problem(cs, lambda x: 0.5 * min(1.0, abs(x)), 0.5, 0.5)
        pairs = _count_pairs(monkeypatch)
        solve(problem, grid_for(problem, 0.05, 1.0)).values
        assert len(pairs) == want


def test_both_routes_agree_on_a_callable_that_changes_on_every_window():
    """f = a (1 + 0.25 min(|y|, 1)) (1 - 0.2 t) on 21 controls: a new table on each of the
    125 windows at dx 0.02, frozen table-wise; solve agrees with value_function."""
    def drift(t, y, a):
        return a * (1.0 + 0.25 * min(abs(y), 1.0)) * (1.0 - 0.2 * t)

    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21))
             for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)
    u0 = lambda x: 0.5 * min(1.0, abs(x))  # noqa: E731
    problem = induced_problem(cs, u0, 0.5, 1.0)
    grid = grid_for(problem, 0.02, 1.0)
    assert (grid.steps, grid.n_nodes) == (125, 101)
    gap = solve(problem, grid).values - value_function(cs, u0, grid).values
    assert np.max(np.abs(gap)) <= 1e-12


def _callable_twin(cs: ControlSystem) -> ControlSystem:
    """cs with every edge's f and l written as callables of the same float coefficients."""
    def callable_form(g):
        return lambda t, y, a: g.c0 + g.c1 * a + g.c2 * a * a

    edges = [ControlEdge(callable_form(e.f), callable_form(e.l), e.controls) for e in cs.edges]
    return ControlSystem(edges, l0=cs.l0, A0=cs.A0, delta=cs.delta, orientation=cs.orientation)


def test_a_form_written_as_callables_gives_the_forms_fields_bit_for_bit():
    """Time-independent control forms against the same forms as callables, on both routes.

    The callable's table has the form's lines at every node, and both are
    minimised by line_argmin, so solve gives the closed form's field bit for
    bit; value_function reads the same speeds and costs as its form tables.
    """
    rng = np.random.default_rng(113)
    for _ in range(10):
        cs = random_control_system(rng, horizon=0.5, n_edges=int(rng.integers(2, 4)))
        for e in cs.edges:  # each coefficient at its value at t = 0
            e.f, e.l = (ControlForm(*(float(c(0.0)) if isinstance(c, TimeSignal) else c
                                      for c in (g.c0, g.c1, g.c2))) for g in (e.f, e.l))
        twin = _callable_twin(cs)
        u0 = lambda x: 0.5 * min(1.0, abs(x))  # noqa: E731
        data = u0 if cs.orientation == "line" else [u0] * len(cs.edges)
        grid = grid_for(induced_problem(cs, data, 0.5, 0.5), 0.05, 1.0)
        for route in (lambda c: solve(induced_problem(c, data, 0.5, 0.5), grid),
                      lambda c: value_function(c, data, grid)):
            assert route(twin).values.tobytes() == route(cs).values.tobytes()


# ---------------------------------------------------------------------------
# per-window time steps

def test_tdq_steps_follow_the_integral_of_the_speed():
    """At dx 0.02 the default grid has ceil(Phi(T) / (0.5 dx)) windows, against
    ceil(T sup C2 / (0.5 dx)) uniform steps."""
    for seed, steps, uniform in ((41, 599, 870), (98, 472, 942)):
        prob = bench_tdq_problem(seed)
        grid = grid_for(prob, 0.02, 2.0)
        phi = prob.speed_signal().integrate(0.0, prob.horizon)
        assert grid.steps == math.ceil(phi / 0.01 - 1e-12) == steps
        assert math.ceil(prob.horizon * prob.cfl_speed()[0] / 0.01 - 1e-12) == uniform
        assert prob.speed_signal().max() == prob.cfl_speed()[0]
        assert grid.dt == np.max(np.diff(grid.times))


def _final_line_level(problem: JunctionProblem, grid) -> np.ndarray:
    """The scheme's last level on grid, marched without storing the others."""
    at = _windows([problem], grid, grid.times)
    u = grid.sample(problem.initial_data)[None]
    for n in range(grid.steps):
        t, t_next = float(grid.times[n]), float(grid.times[n + 1])
        u = _advance([problem], grid, u, t, t_next - t, at(n))
    return u[0][grid.line_flat_indices()]


def _uniform_grid(problem: JunctionProblem, dx: float) -> Grid:
    """grid_for's grid at dx and R_domain 2 with N uniform steps of T / N, N fitting
    dt = 0.5 dx / sup C2: levels k T / N, the last one T, as a uniform step lays them."""
    n = math.ceil(problem.horizon * problem.cfl_speed()[0] / (0.5 * dx) - 1e-12)
    dt = problem.horizon / n
    times = np.minimum(np.arange(math.ceil(problem.horizon / dt - 1e-9) + 1) * dt,
                       problem.horizon)
    times[-1] = problem.horizon
    return dataclasses.replace(grid_for(problem, dx, 2.0), dt=dt, times=times)


# Sup errors at T of the uniform-step scheme (dt = 0.5 dx / sup C2) at dx 0.04,
# 0.02 and 0.01 against the reference below, and their fitted order.
_UNIFORM_STEP_ERRORS = {41: ((0.04637822855729057, 0.029667919176793345, 0.018994890265824127),
                            0.643918169478507),
                        98: ((0.05466209353834117, 0.03591785208327758, 0.022494401954287202),
                            0.6404873521456002)}


@pytest.mark.parametrize("seed", [41, 98])
def test_per_window_steps_are_no_less_accurate_than_uniform_steps(seed):
    """Against the uniform-step scheme at dx 0.00125, per-window steps at dx 0.04,
    0.02 and 0.01 err no more than uniform steps did, and converge no slower."""
    prob = bench_tdq_problem(seed)
    fine = 0.00125
    reference = _final_line_level(prob, _uniform_grid(prob, fine))
    dxs = (0.04, 0.02, 0.01)
    errors = []
    for dx in dxs:
        field = solve(prob, grid_for(prob, dx, 2.0))
        level = field.values[field.grid.steps][field.grid.line_flat_indices()]
        errors.append(float(np.max(np.abs(level - reference[::round(dx / fine)]))))
    uniform, uniform_order = _UNIFORM_STEP_ERRORS[seed]
    assert all(e <= u for e, u in zip(errors, uniform)), (errors, uniform)
    assert np.polyfit(np.log(dxs), np.log(errors), 1)[0] >= uniform_order


# Sup errors at T of TDC's uniform steps (dt = 0.5 dx / sup max|f|, 80, 160 and 320
# of them) at dx 0.04, 0.02 and 0.01 against the reference below.
_TDC_UNIFORM_STEP_ERRORS = (0.028952360166674407, 0.01875582218538141, 0.011450432937241073)


def test_tdc_takes_per_window_steps_on_both_routes_and_errs_no_more():
    """TDC's speed max|f| is 1, 1.6 and 0.8 on [0, 0.3), [0.3, 0.7) and [0.7, 1], so its
    windows follow it: fewer steps than uniform ones, no larger error at T against the
    uniform scheme at dx 0.00125, and the value function agrees with the scheme."""
    config = tdc_config()
    prob = problem_from_config(config)[0]
    cs = control_system_from_config(config["control_system"], 1.0)
    fine = 0.00125
    reference = _final_line_level(prob, _uniform_grid(prob, fine))
    for dx, steps, uniform in zip((0.04, 0.02, 0.01), (62, 124, 248), _TDC_UNIFORM_STEP_ERRORS):
        grid = grid_for(prob, dx, 2.0)
        assert grid.steps == steps
        field = solve(prob, grid)
        level = field.values[grid.steps][grid.line_flat_indices()]
        error = np.max(np.abs(level - reference[::round(dx / fine)]))
        assert error <= uniform, (dx, error, uniform)
        gap = np.max(np.abs(field.values - value_function(cs, prob.initial_data, grid).values))
        assert gap <= 1e-12, (dx, gap)


def test_tdq_solves_and_smoothing_ladders_keep_the_cfl_guard_quiet():
    """Seeds 1-20 of the benchmark's tdq family: solve at dx 0.04 and 0.02 and the
    approx ladder at dx 0.04 raise no CflViolation (window check or per-slope guard)."""
    for seed in range(1, 21):
        prob = bench_tdq_problem(seed)
        for dx in (0.04, 0.02):
            field = solve(prob, grid_for(prob, dx, 2.0))
            assert _achieved_cfl(prob, field) <= 0.5 * (1.0 + 1e-9), (seed, dx)
        ladder = smoothing_ladder(prob, [0.2, 0.1, 0.05, 0.025])
        grid = grid_for([prob, *ladder.values()], 0.04, 2.0)
        comparison_diagnostic(prob, ladder, grid)


def test_a_batch_grid_covers_a_smoothed_coefficient_above_the_original():
    """Averaging a(t) over [t - 0.2, t + 0.2] raises it before its jump at t = 0.5,
    so the base problem's grid at share 1 is too coarse for the smoothed problem
    there; the batch grid follows the larger speed and serves both."""
    a = TimeSignal(np.array([0.0, 0.5, 1.0]), np.array([0.5, 2.0]))
    prob = from_line(eikonal(), quadratic(a, 0.0, -1.0), constant(-0.5, 1.0), zero_datum,
                     0.0, 1.0)
    ladder = smoothing_ladder(prob, [0.2])
    base_grid = share_grid(1.0, 0.05, prob, 1.0)
    solve(prob, base_grid).check_finite()
    with pytest.raises(CflViolation, match="exceeds dx/C2=.* at level 18 "):
        solve(ladder[0.2], base_grid)
    with pytest.raises(CflViolation, match="at level 18 "):
        comparison_diagnostic(prob, ladder, base_grid)
    batch_grid = share_grid(1.0, 0.05, [prob, ladder[0.2]], 1.0)
    speeds = [p.speed_signal().window_integrals(batch_grid.times) for p in (prob, ladder[0.2])]
    assert np.max(speeds) <= 0.05 * (1.0 + 1e-9)
    study = comparison_diagnostic(prob, ladder, batch_grid)
    assert study.base.grid is batch_grid


def test_step_checks_its_window_against_the_speed_integral():
    """step refuses a window over which C2 integrates above dx, naming its level."""
    prob = random_tdq_problem(3)
    grid = grid_for(prob, 0.04, 1.0)
    u = grid.sample(prob.initial_data)
    c2 = prob.speed_signal()
    step(prob, grid, u, 0.0, float(grid.times[1]))
    too_long = 1.01 * grid.dx / c2(0.0)
    with pytest.raises(CflViolation, match="at level 0 "):
        step(prob, grid, u, 0.0, too_long)
