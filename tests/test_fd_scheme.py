from __future__ import annotations

import numpy as np
import pytest

import hjj.hamiltonian as hamiltonian_module
from hjj import (
    ControlForm,
    ControlSystem,
    Edge,
    Hamiltonian,
    JunctionProblem,
    TimeSignal,
    constant,
    control_edge,
    eikonal,
    envelopes,
    from_line,
    godunov_flux,
    grid_for,
    induced_problem,
    make_grid,
    abs_shift,
    approx_problem,
    quadratic,
    solve,
    solve_many,
    step,
)
from hjj.errors import CflViolation, NumericalFailure
from hjj.fd_scheme import _windows
from hjj.hamiltonian import FixedEnvelopes, numeric_argmin

from conftest import zero_datum


def _line_problem(a_value: float, u0=zero_datum, lip: float = 0.0,
                  horizon: float = 1.0) -> JunctionProblem:
    return from_line(eikonal(), eikonal(), constant(a_value, horizon), u0, lip, horizon)


def _hopf_lax(u0, x: float, t: float, n: int = 4001) -> float:
    """Reference value for u_t + |u_x| - 1 = 0 on the whole line."""
    ys = np.linspace(x - t, x + t, n)
    return float(np.min([u0(y) for y in ys])) + t


def test_godunov_flux_examples():
    env = envelopes(eikonal())
    assert godunov_flux(env, 0.0, 0.0, 0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)
    assert godunov_flux(env, 0.0, 0.0, 2.0, -2.0) == pytest.approx(1.0, abs=1e-12)
    envq = envelopes(quadratic(1.0, 0.0, 0.0))
    assert godunov_flux(envq, 0.0, 0.0, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_godunov_flux_is_consistent_with_the_hamiltonian():
    rng = np.random.default_rng(37)
    for h in (eikonal(), quadratic(1.5, -0.5, 2.0)):
        env = envelopes(h)
        for p in rng.uniform(-4.0, 4.0, size=60):
            want = float(h.eval_p(0.0, 0.0, np.array([p]))[0])
            assert godunov_flux(env, 0.0, 0.0, p, p) == pytest.approx(want, abs=1e-12)


def test_godunov_flux_is_monotone():
    env = envelopes(quadratic(1.0, 0.3, 0.0))
    rng = np.random.default_rng(39)
    for _ in range(200):
        pm, pp = rng.uniform(-3.0, 3.0, size=2)
        d = rng.uniform(0.0, 1.0)
        base = godunov_flux(env, 0.0, 0.0, pm, pp)
        assert godunov_flux(env, 0.0, 0.0, pm + d, pp) >= base - 1e-10
        assert godunov_flux(env, 0.0, 0.0, pm, pp + d) <= base + 1e-10


def test_step_hand_evaluated_on_flat_data():
    """dx=1, dt=0.5, u=0: interior nodes gain dt, the junction follows max(A, -1)."""
    grid = make_grid(dx=1.0, horizon=0.5, radii=(3.0, 3.0), c2=1.0, dt=0.5)
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
    grid = make_grid(dx=1.0, horizon=0.5, radii=(3.0, 3.0), c2=1.0, dt=0.5)
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
    assert np.array_equal(field.line_profile(0), want)


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
    got = field.line_profile(n)[keep]
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
            assert float(np.max(np.abs(field.level(nlev)))) \
                <= float(np.max(np.abs(field.level(0)))) + t * bound + 1e-12


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
    prob = _line_problem(-1.0)
    with pytest.raises(CflViolation):
        grid_for(prob, 0.05, 2.0, dt=0.2)
    with pytest.raises(CflViolation):
        make_grid(dx=0.1, horizon=1.0, radii=(1.0, 1.0), c2=2.0, dt=0.1)


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
    assert field.final()[0] == pytest.approx(0.25, abs=1e-12)


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
        prof = field.line_profile(n)
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
    """The scheme window by window: frozen() Hamiltonians, numeric minimisers."""
    values = np.empty((grid.steps + 1, grid.n_nodes))
    values[0] = grid.sample(problem.initial_data)
    for n in range(grid.steps):
        t = float(grid.times[n])
        dt = float(grid.times[n + 1]) - t
        u = values[n]
        junction = problem.flux_limiter.average(t, t + dt)
        for i, edge in enumerate(problem.edges):
            env = _NumericSplit(edge.hamiltonian.frozen(t, t + dt), t)
            idx = grid.edge_full_indices(i)
            q = np.diff(u[idx]) / grid.dx
            flux = np.append(godunov_flux(env, t, 0.0, q[:-1], q[1:]),
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
    solve(prob, grid_for(prob, 0.05, 1.0))
    assert calls == []

    flat = Hamiltonian(lambda t, x, p: np.maximum(np.abs(p) - 1.0, 0.0),
                       lipschitz_p=1.0, coercivity_radius=2.0, x_independent=True)
    prob = from_line(flat, eikonal(), constant(0.0, 0.5), zero_datum, 0.0, 0.5)
    grid = grid_for(prob, 0.1, 1.0)
    solve(prob, grid)
    assert grid.steps > 1
    assert len(calls) == 1


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
    """One H(q) per control-induced edge gives its flux, outflow and junction terms."""
    base = _control_induced_problem()
    prob = JunctionProblem(
        edges=[*base.edges, Edge(eikonal())],
        flux_limiter=base.flux_limiter,
        initial_data=[*base.initial_data, lambda y: 0.3 * min(1.0, y)],
        lipschitz_u0=0.3,
        horizon=0.5,
    )
    grid = grid_for(prob, 0.05, 1.0)
    at = _windows(prob, grid, grid.times)
    u = grid.sample(prob.initial_data)
    for n in (0, grid.steps // 2, grid.steps - 1):
        window = at(n)
        assert isinstance(window[1][2], FixedEnvelopes)
        calls = []
        for i, env in enumerate(window[1][:2]):
            def counted(t, x, p, _i=i, _h=env.h.evaluator):
                calls.append(_i)
                return _h(t, x, p)
            monkeypatch.setattr(env.h, "evaluator", counted)
        t = float(grid.times[n])
        step(prob, grid, u, t, float(grid.times[n + 1]) - t, _window=window)
        monkeypatch.undo()
        assert sorted(calls) == [0, 1]


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
    [_control_induced_problem(), _control_induced_problem()],
    _ladder(_x_dependent_problem(_LIMITER)),
    [_x_dependent_problem(_LIMITER), _x_dependent_problem(constant(-0.6, 0.5))],
    _ladder(_star_problem()),
    [_time_dependent_quadratic_problem(), _x_dependent_problem(_LIMITER)],
], ids=["quadratic-ladder", "control-ladder", "control-distinct", "x-dependent-ladder",
        "x-dependent-distinct", "star-ladder", "mixed-forms"])
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
    """The time-independent edge every smoothed problem keeps is one H call per step."""
    problems = _ladder(_control_induced_problem())
    h = problems[0].edges[0].hamiltonian
    assert all(p.edges[0].hamiltonian is h for p in problems)
    calls = []
    real = h.evaluator

    def counted(t, x, p):
        calls.append(np.shape(p))
        return real(t, x, p)

    monkeypatch.setattr(h, "evaluator", counted)
    grid = grid_for(problems[0], 0.05, 1.0)
    solve_many(problems, grid)
    m = len(grid.edge_y(0)) - 1
    assert calls == [(len(problems) * m,)] * grid.steps


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batched_march_checks_every_problem():
    """A bad problem in the batch fails as it does alone: same class, level and node."""
    def star(h, u0, lip):
        return JunctionProblem(edges=[Edge(h) for _ in range(3)],
                               flux_limiter=constant(0.0, 0.5), initial_data=[u0] * 3,
                               lipschitz_u0=lip, horizon=0.5)

    good = star(eikonal(), zero_datum, 0.0)
    # the declared span understates the slopes, so the march overflows
    steep = star(quadratic(1.0, 0.0, -1.0, p_span=0.5), lambda y: 0.5 * y, 0.5)
    fast = star(quadratic(1.0, 0.0, -1.0, p_span=50.0), zero_datum, 0.0)
    grid = grid_for(steep, 0.02, 1.0, cfl_safety=1.0)
    for bad, error in ((steep, NumericalFailure), (fast, CflViolation)):
        with pytest.raises(error) as alone:
            solve(bad, grid)
        with pytest.raises(error) as batched:
            solve_many([good, bad, good], grid)
        assert str(batched.value) == str(alone.value)
    with pytest.raises(ValueError):
        solve_many([], grid)
