"""End to end acceptance checks.

One test per criterion, executed in order, then the paper's headline cases
(a jump in the limiter, a jump in H) against their exact solutions.  Every
dynamic-programming run of the criteria is collected and re-audited by the
regularity criterion (number 6).  Each test finishes with a single printed
pass line carrying the measured quantities.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from hjj import (
    ControlForm,
    ControlSystem,
    EnvelopePair,
    TimeSignal,
    abs_shift,
    comparison_diagnostic,
    constant,
    control_edge,
    eikonal,
    from_line,
    grid_for,
    induced_hamiltonian,
    induced_problem,
    oracle_grid,
    quadratic,
    solve,
    value_function,
)

from conftest import (abar_bound, build_model_system, check_value_function_bounds, cost_bound,
                      zero_datum)
from reference import RestrictedEnvelopes, dpp_consistency_check, enumerate_trajectories

_DP_RUNS: list = []


def _model_problem(l0_value: float):
    cs = build_model_system(l0_value)
    return cs, induced_problem(cs, zero_datum, 0.0, 1.0)


def _model_grid(problem):
    return grid_for(problem, 0.01, 2.0)


def _random_affine_system(rng: np.random.Generator, horizon: float,
                          n: int = 41) -> ControlSystem:
    c1 = rng.uniform(0.5, 1.0)
    c0 = rng.uniform(-0.3, 0.3)
    d0 = rng.uniform(0.5, 1.5)
    d1 = rng.uniform(-0.5, 0.5)
    delta = 0.99 * (c1 - abs(c0))
    edges = [control_edge(ControlForm(c0=c0, c1=c1), ControlForm(c0=d0, c1=d1),
                          -1.0, 1.0, n=n) for _ in range(2)]
    return ControlSystem(edges, l0=constant(rng.uniform(0.0, 1.0), horizon),
                         A0=-2.0, delta=delta)


def _random_data_pair(rng: np.random.Generator, cs: ControlSystem):
    """Ordered datum pair whose slopes stay inside the regularity regime."""
    big_c = 2.0 * cost_bound(cs) + abar_bound(cs)
    lip_cap = 0.9 * min(2.0 * big_c / cs.delta, big_c / cs.speed_signal(cs.l0.horizon).max())
    s1 = rng.uniform(0.1, 0.5 * lip_cap)
    s2 = rng.uniform(0.1, 0.5 * lip_cap)
    x0 = rng.uniform(-0.5, 0.5)
    x1 = rng.uniform(-0.5, 0.5)
    lo = lambda x, s1=s1, x0=x0: s1 * abs(x - x0)
    hi = lambda x, lo=lo, s2=s2, x1=x1: lo(x) + 0.05 + s2 * max(0.0, 0.8 - abs(x - x1))
    return (lo, s1), (hi, s1 + s2)


def test_criterion_1_model_problem_matches_the_closed_form():
    """Both solvers reproduce min(t, |x|) at dx=0.01 and agree with each other."""
    started = time.perf_counter()
    cs, problem = _model_problem(0.0)

    # Derive the closed form independently first: exhaustive piecewise-constant
    # trajectory enumeration over aligned starts, final time t=1.
    for x in (-2.0, -1.5, -1.0, -0.75, -0.5, -0.25, 0.0,
              0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        best = np.inf
        for y0 in np.arange(x - 1.0, x + 1.0 + 1e-9, 0.25):
            cost, _ = enumerate_trajectories(cs, (float(y0), 0.0), (x, 1.0),
                                             pieces=4, u0=zero_datum,
                                             controls_per_piece=2)
            best = min(best, cost)
        assert best == pytest.approx(min(1.0, abs(x)), abs=1e-9)

    grid = _model_grid(problem)
    fd = solve(problem, grid)
    dp = value_function(cs, zero_datum, grid)
    _DP_RUNS.append((cs, dp))

    order = grid.line_flat_indices()
    exact = np.minimum(grid.times[:, None], np.abs(grid.line_x())[None, :])
    fd_err = float(np.max(np.abs(fd.values[:, order] - exact)))
    dp_err = float(np.max(np.abs(dp.values[:, order] - exact)))
    gap = fd.linf_gap(dp)
    elapsed = time.perf_counter() - started

    assert fd_err <= 0.05
    assert dp_err <= 0.05
    assert gap <= 0.05
    assert elapsed <= 30.0
    print(f"criterion 1: PASS  fd_err={fd_err:.4f} dp_err={dp_err:.4f} "
          f"gap={gap:.2e} elapsed={elapsed:.1f}s")


def test_criterion_2_constant_limiter_closed_forms():
    """A=-1 gives u=t everywhere; A=0 pins the junction at zero."""
    cs1, problem1 = _model_problem(1.0)   # A = -1
    grid = _model_grid(problem1)
    fd1 = solve(problem1, grid)
    dp1 = value_function(cs1, zero_datum, grid)
    _DP_RUNS.append((cs1, dp1))
    err_fd1 = float(np.max(np.abs(fd1.values - grid.times[:, None])))
    err_dp1 = float(np.max(np.abs(dp1.values - grid.times[:, None])))
    assert err_fd1 <= 0.05
    assert err_dp1 <= 0.05

    cs0, problem0 = _model_problem(0.0)   # A = 0
    fd0 = solve(problem0, grid)
    dp0 = value_function(cs0, zero_datum, grid)
    _DP_RUNS.append((cs0, dp0))
    err_fd0 = float(np.max(np.abs(fd0.values[:, 0])))
    err_dp0 = float(np.max(np.abs(dp0.values[:, 0])))
    assert err_fd0 <= 0.05
    assert err_dp0 <= 0.05
    print(f"criterion 2: PASS  u=t errors fd={err_fd1:.2e} dp={err_dp1:.2e}; "
          f"junction errors fd={err_fd0:.2e} dp={err_dp0:.2e}")


def test_criterion_3_envelope_splits_of_random_quadratics():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_rec = worst_mono = worst_stab = 0.0
    for _ in range(1000):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-3.0, 3.0)
        c = rng.uniform(-5.0, 5.0)
        h = quadratic(a, b, c)
        env = EnvelopePair(h)
        p_hat = env.p_hat(0.0, 0.0)
        h_min = env.h_min(0.0, 0.0)
        ps = np.sort(rng.uniform(-8.0, 8.0, size=100))
        plus = env.split(0.0, 0.0, ps)[0]
        minus = env.h_minus(0.0, 0.0, ps)

        vals = h.eval_p(0.0, 0.0, ps)
        worst_rec = max(worst_rec, float(np.max(np.abs(np.maximum(plus, minus) - vals))))
        worst_mono = max(worst_mono,
                         float(max(0.0, -np.min(np.diff(plus)))),
                         float(max(0.0, np.max(np.diff(minus)))))

        # moving the split anywhere inside the near-minimal set is invisible
        wiggle = np.sqrt(0.5e-9 / a)
        for shift in (-wiggle, wiggle):
            alt_plus = np.where(ps <= p_hat + shift, h_min, vals)
            alt_minus = np.where(ps <= p_hat + shift, vals, h_min)
            worst_stab = max(worst_stab,
                             float(np.max(np.abs(alt_plus - plus))),
                             float(np.max(np.abs(alt_minus - minus))))
    elapsed = time.perf_counter() - started
    assert worst_rec <= 1e-8
    assert worst_mono <= 1e-10
    assert worst_stab <= 1e-9
    assert elapsed <= 5.0
    print(f"criterion 3: PASS  reconstruction={worst_rec:.1e} "
          f"monotonicity={worst_mono:.1e} split_stability={worst_stab:.1e} "
          f"elapsed={elapsed:.1f}s")


def test_criterion_4_restricted_suprema_match_minimization_envelopes():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        cs = _random_affine_system(rng, horizon=1.0, n=10_001)
        rest = RestrictedEnvelopes(cs, 0)
        env = EnvelopePair(induced_hamiltonian(cs, 0))
        for p in np.sort(rng.uniform(-2.0, 2.0, size=100)):
            worst = max(worst,
                        abs(rest.h_plus(0.0, 0.0, p) - env.split(0.0, 0.0, p)[0]),
                        abs(rest.h_minus(0.0, 0.0, p) - env.h_minus(0.0, 0.0, p)))
    assert worst <= 1e-3
    print(f"criterion 4: PASS  worst envelope gap={worst:.2e} over 100 systems")


def test_criterion_5_discrete_comparison_for_both_solvers():
    rng = np.random.default_rng(303)
    horizon = 0.5
    worst_fd = worst_dp = 0.0
    for _ in range(100):
        cs = _random_affine_system(rng, horizon)
        (lo, lip_lo), (hi, lip_hi) = _random_data_pair(rng, cs)
        prob_lo = induced_problem(cs, lo, lip_lo, horizon)
        prob_hi = induced_problem(cs, hi, lip_hi, horizon)
        grid = grid_for(prob_lo, 0.1, 1.0)
        worst_fd = max(worst_fd, float(np.max(solve(prob_lo, grid).values
                                              - solve(prob_hi, grid).values)))
        dp_grid = oracle_grid(cs, 0.1, horizon, 1.0)
        dp_lo = value_function(cs, lo, dp_grid)
        dp_hi = value_function(cs, hi, dp_grid)
        _DP_RUNS.append((cs, dp_lo))
        worst_dp = max(worst_dp, float(np.max(dp_lo.values - dp_hi.values)))
    assert worst_fd <= 1e-12
    assert worst_dp <= 1e-12
    print(f"criterion 5: PASS  ordering violations fd={worst_fd:.1e} "
          f"dp={worst_dp:.1e} over 100 instances")


def test_criterion_6_regularity_of_every_dp_output():
    """Sup, time and space bounds hold for each collected run and a fresh batch."""
    assert len(_DP_RUNS) >= 3, "earlier criteria must contribute their runs"
    rng = np.random.default_rng(404)
    horizon = 0.5
    fresh = []
    for _ in range(20):
        cs = _random_affine_system(rng, horizon)
        (lo, _), _ = _random_data_pair(rng, cs)
        fresh.append((cs, value_function(cs, lo, oracle_grid(cs, 0.1, horizon, 1.0))))
    checked = 0
    for cs, field in _DP_RUNS + fresh:
        check_value_function_bounds(cs, field, slack_space=0.1)
        checked += 1
    print(f"criterion 6: PASS  regularity bounds verified on {checked} runs")


def test_criterion_7_restart_consistency():
    cs = build_model_system(0.0)
    field = value_function(cs, zero_datum, oracle_grid(cs, 0.01, 1.0, 2.0))
    _DP_RUNS.append((cs, field))
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        worst = max(worst, dpp_consistency_check(cs, field, s))
    assert worst <= 2.0 * 0.01
    print(f"criterion 7: PASS  worst restart deviation={worst:.1e}")


def test_criterion_8_error_signal_ladder_for_a_step_limiter():
    limiter = TimeSignal(np.array([0.0, 0.5, 1.0]), np.array([0.0, -1.0]))
    problem = from_line(eikonal(), eikonal(), limiter, zero_datum, 0.0, 1.0)
    widths = [0.2, 0.1, 0.05, 0.025]
    study = comparison_diagnostic(problem, widths, grid_for(problem, 0.02, 2.0))
    kns = [r.kn_l1 for r in study.reports]
    gaps = [r.sup_gap for r in study.reports]
    assert all(k2 < k1 for k1, k2 in zip(kns, kns[1:]))
    for eps, k in zip(widths, kns):
        assert k <= 1.1 * eps * 1.0  # unit jump
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    for report in study.reports:
        assert report.sandwich_violation <= 1e-9
        assert report.sup_gap <= report.kn_l1 + 0.05
    print(f"criterion 8: PASS  kn integrals={[f'{k:.4f}' for k in kns]} "
          f"gaps={[f'{g:.4f}' for g in gaps]}")


def test_criterion_9_oscillating_limiter_stability():
    horizon = 1.0

    def alternating(k: int) -> TimeSignal:
        width = 2.0 ** (-k)
        n = int(round(horizon / width))
        bp = np.linspace(0.0, horizon, n + 1)
        vals = np.array([0.0 if j % 2 == 0 else -1.0 for j in range(n)])
        return TimeSignal(bp, vals)

    grid = None
    sups = []
    last = None
    for k in range(1, 11):
        problem = from_line(eikonal(), eikonal(), alternating(k),
                            zero_datum, 0.0, horizon)
        if grid is None:
            grid = grid_for(problem, 0.01, 2.0)
        field = solve(problem, grid)
        sups.append(float(np.max(np.abs(field.values))))
        last = field
    # bounded uniformly in the oscillation rate
    assert max(sups) <= 1.0 + 1e-9

    averaged = from_line(eikonal(), eikonal(), constant(-0.5, horizon),
                         zero_datum, 0.0, horizon)
    gap = last.linf_gap(solve(averaged, grid))
    assert gap <= 0.1
    print(f"criterion 9: PASS  sup norms bounded by {max(sups):.3f}, "
          f"k=10 vs averaged limiter gap={gap:.2e}")


# The paper's headline case: A only in L-infinity and H only measurable in t. Each
# jump at t = 1/2 has an exact solution, which both routes must reach at order 1/2.
_JUMP = np.array([0.0, 0.5, 1.0])
_LADDER = (0.04, 0.02, 0.01, 0.005)


def _exact_ladder(routes, exact) -> list:
    """Per route (problem, solve or value function), the sup errors against exact(t, |x|)
    along _LADDER, their fitted order, and the finest rung's times and field."""
    out = []
    for problem, march in routes:
        errors = []
        for dx in _LADDER:
            grid = grid_for(problem, dx, 1.5)
            field = march(problem, grid)
            x = np.abs(grid.line_x())[None, :]
            errors.append(float(np.max(np.abs(field.values[:, grid.line_flat_indices()]
                                              - exact(grid.times[:, None], x)))))
        order = float(np.polyfit(np.log(_LADDER), np.log(errors), 1)[0])
        out.append((errors, order, grid.times, field))
    return out


def test_a_limiter_with_a_jump_matches_its_exact_solution_on_both_routes():
    """The model system with l0 stepping 0 -> 1 at t = 1/2, so A steps 0 -> -1.

    A trajectory runs to the junction at cost 1 per unit time and parks there
    at cost -A(s): u = min(t, max(|x|, t - 1/2)), and u(0, t) = max(0, t - 1/2).
    """
    cs = ControlSystem(build_model_system(0.0).edges, l0=TimeSignal(_JUMP, np.array([0.0, 1.0])),
                       A0=-1.0, delta=1.0)
    problem = induced_problem(cs, zero_datum, 0.0, 1.0)
    routes = [(problem, solve), (problem, lambda p, g: value_function(cs, zero_datum, g))]
    fd, dp = _exact_ladder(routes, lambda t, x: np.minimum(t, np.maximum(x, t - 0.5)))
    for errors, order, times, field in (fd, dp):
        assert errors[-1] <= 0.05 and order >= 0.45
        assert np.max(np.abs(field.values[:, 0] - np.maximum(0.0, times - 0.5))) <= 1e-12
    gap = fd[-1].linf_gap(dp[-1])
    assert gap <= 1e-12
    print(f"limiter jump: PASS  errors fd={fd[0][-1]:.4f} dp={dp[0][-1]:.4f} "
          f"orders fd={fd[1]:.3f} dp={dp[1]:.3f} gap={gap:.1e}")


def test_a_jump_in_h_matches_its_exact_solution_on_both_routes():
    """H = |p| + c(t) with c stepping -1 -> -2 at t = 1/2 and A = 0.

    With C the integral of -c, u = C(t) - C(max(t - |x|, 0)), and u(0, t) = 0.
    The scheme marches abs_shift(c); the value function the control system
    f = a, l = -c, a in [-1, 1], whose induced H is the same.
    """
    c = TimeSignal(_JUMP, np.array([-1.0, -2.0]))
    edges = [control_edge(ControlForm(c1=1.0), ControlForm(c0=TimeSignal(_JUMP, -c.values)),
                          -1.0, 1.0, n=21) for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)
    routes = [(from_line(abs_shift(c), abs_shift(c), constant(0.0, 1.0), zero_datum, 0.0, 1.0),
               solve),
              (induced_problem(cs, zero_datum, 0.0, 1.0),
               lambda p, g: value_function(cs, zero_datum, g))]

    def big_c(t):
        return np.where(t <= 0.5, t, 2.0 * t - 0.5)

    fd, dp = _exact_ladder(routes, lambda t, x: big_c(t) - big_c(np.maximum(t - x, 0.0)))
    for errors, order, _, field in (fd, dp):
        assert errors[-1] <= 0.05 and order >= 0.45
        assert np.max(np.abs(field.values[:, 0])) <= 1e-12
    print(f"H jump: PASS  errors fd={fd[0][-1]:.4f} dp={dp[0][-1]:.4f} "
          f"orders fd={fd[1]:.3f} dp={dp[1]:.3f}")


def test_a_cost_only_in_l1_matches_its_exact_solution_on_both_routes():
    """H = |p| + c(t) with c = -1/(2 sqrt t), in L1 but unbounded, and A = 0.

    c is given by its exact averages on the cells t_k = (k/256)^2, -256/(2k + 1),
    so C, the integral of -c, is sqrt t at every breakpoint and linear between, and
    u = C(t) - C(max(t - |x|, 0)), with u(0, t) = 0. The routes are those of the
    jump in H. u is only Holder-1/2 in x at the front |x| = t, so the order is about
    1/4, not 1/2.
    """
    bp = (np.arange(257) / 256.0) ** 2
    c = TimeSignal(bp, -256.0 / (2.0 * np.arange(256) + 1.0))
    edges = [control_edge(ControlForm(c1=1.0), ControlForm(c0=TimeSignal(bp, -c.values)),
                          -1.0, 1.0, n=21) for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)
    routes = [(from_line(abs_shift(c), abs_shift(c), constant(0.0, 1.0), zero_datum, 0.0, 1.0),
               solve),
              (induced_problem(cs, zero_datum, 0.0, 1.0),
               lambda p, g: value_function(cs, zero_datum, g))]

    def big_c(t):
        return np.interp(t, bp, np.sqrt(bp))

    fd, dp = _exact_ladder(routes, lambda t, x: big_c(t) - big_c(np.maximum(t - x, 0.0)))
    for errors, order, _, field in (fd, dp):
        assert errors[-1] <= 0.10 and 0.2 <= order <= 0.32
        assert np.max(np.abs(field.values[:, 0])) <= 1e-12
    gap = fd[-1].linf_gap(dp[-1])
    assert gap <= 1e-12
    print(f"L1 cost: PASS  errors fd={fd[0][-1]:.4f} dp={dp[0][-1]:.4f} "
          f"orders fd={fd[1]:.3f} dp={dp[1]:.3f} gap={gap:.1e}")
