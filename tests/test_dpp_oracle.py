from __future__ import annotations

import numpy as np
import pytest

from hjj import (
    ControlEdge,
    ControlForm,
    ControlSystem,
    DppConfig,
    TimeSignal,
    constant,
    control_edge,
    dpp_consistency_check,
    enumerate_trajectories,
    flux_limiter,
    make_grid,
    value_function,
)
from hjj.dpp_oracle import _bellman, oracle_grid
from hjj.errors import BudgetExceeded, CflViolation, NoAdmissibleControl

from conftest import build_model_system, check_value_function_bounds, zero_datum


def _abs_datum(x: float) -> float:
    return abs(x)


def test_enumerate_zero_duration_returns_the_datum():
    cs = build_model_system(0.0)
    cost, sample = enumerate_trajectories(cs, (0.7, 0.3), (0.7, 0.3), pieces=1,
                                          u0=_abs_datum)
    assert cost == pytest.approx(0.7, abs=1e-15)
    assert sample.labels == []
    assert sample.positions == [0.7]


def test_enumerate_isolates_the_stationary_control():
    # from x=1.3 only a=0 arrives back at x=1.3, so cost = u0 + l * T
    cs = build_model_system(0.0)
    cost, sample = enumerate_trajectories(cs, (1.3, 0.0), (1.3, 1.0), pieces=1,
                                          u0=_abs_datum, controls_per_piece=3)
    assert cost == pytest.approx(2.3, abs=1e-12)
    assert sample.labels == ["drive(edge1,a=0)"]


def test_enumerate_park_then_wait_example():
    """Driving to the junction and parking under A=0 costs only the driving time."""
    cs = build_model_system(0.0)
    cost, sample = enumerate_trajectories(cs, (0.5, 0.0), (0.0, 1.0), pieces=3,
                                          u0=zero_datum, controls_per_piece=3)
    assert cost == pytest.approx(0.5, abs=1e-12)
    assert sample.positions[0] == 0.5 and sample.positions[-1] == 0.0
    assert "park" in sample.labels


def test_enumerate_parking_is_billed_at_minus_a():
    # A = -1 makes parking cost 1 per unit time, the same as driving
    cs = build_model_system(1.0)
    cost, _ = enumerate_trajectories(cs, (0.5, 0.0), (0.0, 1.0), pieces=3,
                                     u0=zero_datum, controls_per_piece=3)
    assert cost == pytest.approx(1.0, abs=1e-12)


def test_enumerate_crossing_the_junction():
    cs = build_model_system(0.0)
    cost, sample = enumerate_trajectories(cs, (-0.5, 0.0), (0.5, 1.0), pieces=2,
                                          u0=zero_datum, controls_per_piece=3)
    assert cost == pytest.approx(1.0, abs=1e-12)
    assert sample.positions[0] == -0.5 and sample.positions[-1] == 0.5
    assert any(lbl.startswith("drive(edge2") for lbl in sample.labels)
    assert any(lbl.startswith("drive(edge1") for lbl in sample.labels)


def test_enumerate_unreachable_target_returns_infinity():
    cs = build_model_system(0.0)
    cost, sample = enumerate_trajectories(cs, (0.0, 0.0), (5.0, 0.5), pieces=2,
                                          u0=zero_datum)
    assert cost == np.inf
    assert sample is None


def test_enumerate_rejects_oversized_search_trees():
    cs = build_model_system(0.0)
    with pytest.raises(BudgetExceeded):
        enumerate_trajectories(cs, (0.0, 0.0), (0.0, 1.0), pieces=6,
                               u0=zero_datum, controls_per_piece=7)


def test_enumerate_is_deterministic():
    cs = build_model_system(0.0)
    runs = [enumerate_trajectories(cs, (0.5, 0.0), (0.0, 1.0), pieces=3,
                                   u0=zero_datum, controls_per_piece=3)
            for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].encoding == runs[1][1].encoding
    assert runs[0][1].labels == runs[1][1].labels


def test_trajectory_sample_is_a_consistent_path():
    cs = build_model_system(0.0)
    _, sample = enumerate_trajectories(cs, (0.5, 0.0), (0.0, 1.0), pieces=3,
                                       u0=zero_datum, controls_per_piece=3)
    times = np.array(sample.times)
    pos = np.array(sample.positions)
    assert times[0] == 0.0 and times[-1] == 1.0
    assert np.all(np.diff(times) >= -1e-15)
    speeds = np.abs(np.diff(pos)) / np.maximum(np.diff(times), 1e-15)
    assert np.max(speeds) <= cs.max_speed() + 1e-9


def test_value_function_on_the_model_problem():
    cs = build_model_system(0.0)
    cfg = DppConfig(dx=0.02, horizon=1.0, r_domain=2.0)
    field = value_function(cs, zero_datum, cfg)
    xs = field.grid.line_x()
    final = field.line_profile(field.grid.steps)
    want = np.minimum(1.0, np.abs(xs))
    assert np.max(np.abs(final - want)) <= 0.05
    check_value_function_bounds(cs, field)


def test_value_function_with_floor_limiter_is_exactly_linear_in_time():
    # A = -1: every trajectory costs 1 per unit time, so u(x, t) = t on the grid
    cs = build_model_system(1.0)
    cfg = DppConfig(dx=0.05, horizon=1.0, r_domain=2.0)
    field = value_function(cs, zero_datum, cfg)
    for n, t in enumerate(field.grid.times):
        assert np.max(np.abs(field.level(n) - t)) <= 1e-12


def test_value_function_matches_enumeration_at_aligned_points():
    cs = build_model_system(0.0)
    cfg = DppConfig(dx=0.05, horizon=1.0, r_domain=2.0)
    field = value_function(cs, zero_datum, cfg)
    grid = field.grid
    xs = grid.line_x()
    final = field.line_profile(grid.steps)
    for x_target in (0.0, 0.25, -0.5, 1.5):
        best = np.inf
        for y0 in np.arange(x_target - 1.0, x_target + 1.0 + 1e-9, 0.25):
            cost, _ = enumerate_trajectories(cs, (float(y0), 0.0), (x_target, 1.0),
                                             pieces=4, u0=zero_datum,
                                             controls_per_piece=2)
            best = min(best, cost)
        j = int(np.argmin(np.abs(xs - x_target)))
        assert abs(final[j] - best) <= 2.0 * grid.dx


def test_value_function_monotone_in_the_flux_limiter():
    # larger A makes parking dearer, so values can only drop ... the junction
    # operator max(A, .) grows, the running payoff -A shrinks
    cfg = DppConfig(dx=0.1, horizon=1.0, r_domain=2.0)
    hi_a = value_function(build_model_system(0.0), zero_datum, cfg)   # A = 0
    lo_a = value_function(build_model_system(1.0), zero_datum, cfg)   # A = -1
    assert float(np.max(hi_a.values - lo_a.values)) <= 1e-12


def test_value_function_monotone_in_the_datum():
    cs = build_model_system(0.0)
    cfg = DppConfig(dx=0.1, horizon=0.5, r_domain=1.5)
    rng = np.random.default_rng(59)
    for _ in range(10):
        s = rng.uniform(0.2, 0.9)
        x0 = rng.uniform(-0.5, 0.5)
        lo = lambda x, s=s, x0=x0: s * abs(x - x0)
        hi = lambda x, lo=lo: lo(x) + 0.25
        f_lo = value_function(cs, lo, cfg)
        f_hi = value_function(cs, hi, cfg)
        assert float(np.max(f_lo.values - f_hi.values)) <= 1e-12
        check_value_function_bounds(cs, f_lo)


def test_dpp_restart_reproduces_the_run():
    cs = build_model_system(0.0)
    cfg = DppConfig(dx=0.05, horizon=1.0, r_domain=2.0)
    field = value_function(cs, zero_datum, cfg)
    assert dpp_consistency_check(cs, zero_datum, cfg, 0.0, field) == 0.0
    assert dpp_consistency_check(cs, zero_datum, cfg, 0.5, field) <= 1e-13


def test_dpp_restart_rejects_off_grid_times():
    cs = build_model_system(0.0)
    cfg = DppConfig(dx=0.05, horizon=1.0, r_domain=2.0)
    with pytest.raises(ValueError):
        dpp_consistency_check(cs, zero_datum, cfg, 0.33)


def test_value_function_on_an_external_grid():
    cs = build_model_system(0.0)
    cfg = DppConfig(dx=0.1, horizon=1.0, r_domain=2.0)
    grid = make_grid(dx=0.1, horizon=1.0, radii=(2.0, 2.0), c2=1.0)
    field = value_function(cs, zero_datum, cfg, grid=grid)
    internal = value_function(cs, zero_datum, cfg)
    assert np.array_equal(field.values, internal.values)


def test_value_function_rejects_grids_that_break_the_cfl_condition():
    cs = build_model_system(0.0)
    cfg = DppConfig(dx=0.1, horizon=1.0, r_domain=2.0)
    slow = make_grid(dx=0.1, horizon=1.0, radii=(2.0, 2.0), c2=0.25)
    with pytest.raises(CflViolation):
        value_function(cs, zero_datum, cfg, grid=slow)


def test_value_function_with_position_dependent_speeds():
    drift = lambda t, y, a: a * (1.0 + 0.25 * min(y, 1.0))
    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21)),
             ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21))]
    cs = ControlSystem(edges, l0=constant(0.0, 0.5), A0=-1.0, delta=1.0)
    cfg = DppConfig(dx=0.1, horizon=0.5, r_domain=1.5)
    field = value_function(cs, _abs_datum, cfg)
    field.check_finite()
    assert field.sup_norm() <= abs(_abs_datum(-1.5)) + 0.5 * cs.cost_bound() + 1e-9
    assert field.final()[0] <= 0.5 + 1e-12


def test_dpp_config_rejects_too_few_controls():
    with pytest.raises(ValueError):
        DppConfig(dx=0.1, horizon=1.0, r_domain=2.0, controls=2)


# ---------------------------------------------------------------------------
# the vectorised Bellman update against a control-by-control reference

def _reference_bellman(cs, grid, A, level, a, b, park):
    """Bellman update with per-window averages and one np.interp per control."""
    dtn = b - a
    new = np.full(grid.n_nodes, np.inf)
    junction_best = level[0] - A.integrate(a, b) if park else np.inf
    for i, edge in enumerate(cs.edges):
        idx = grid.edge_full_indices(i)
        y = grid.edge_y(i)
        uu = level[idx]
        ztol = 1e-10 * max(1.0, float(y[-1]))
        if edge.x_independent:
            fmat = cs.local_f_avg(i, a, b)[:, None]
            lmat = cs.local_l_avg(i, a, b)[:, None]
        else:
            fmat = np.stack([cs.local_f_avg(i, a, b, float(yj)) for yj in y], axis=1)
            lmat = np.stack([cs.local_l_avg(i, a, b, float(yj)) for yj in y], axis=1)
        best = np.full(len(y), np.inf)
        for k in range(fmat.shape[0]):
            z = y - fmat[k] * dtn
            ok = (z >= -ztol) & (z <= y[-1] + ztol)
            if not ok.any():
                continue
            vals = np.interp(np.clip(z, 0.0, y[-1]), y, uu)
            vals = vals + (lmat[k] if lmat.shape[-1] > 1 else lmat[k, 0]) * dtn
            best = np.minimum(best, np.where(ok, vals, np.inf))
        new[idx[1:]] = np.minimum(new[idx[1:]], best[1:])
        junction_best = min(junction_best, float(best[0]))
    new[0] = junction_best
    if not np.all(np.isfinite(new)):
        node = int(np.flatnonzero(~np.isfinite(new))[0])
        raise NoAdmissibleControl(
            f"no admissible transition reaches node {node} on [{a}, {b}]")
    return new


def _reference_values(cs, grid, v0, park=True):
    A = flux_limiter(cs)
    out = [v0]
    for a, b in zip(grid.times[:-1], grid.times[1:]):
        out.append(_reference_bellman(cs, grid, A, out[-1], float(a), float(b), park))
    return np.array(out)


def _time_dependent_forms():
    speed = TimeSignal(np.array([0.0, 0.17, 0.52, 1.0]), np.array([0.8, 1.3, 0.9]))
    cost = TimeSignal(np.array([0.0, 0.33, 1.0]), np.array([1.0, 2.5]))
    l0 = TimeSignal(np.array([0.0, 0.4, 1.0]), np.array([0.3, -0.2]))
    edges = [control_edge(ControlForm(c0=0.05, c1=speed, c2=0.05),
                          ControlForm(c0=cost, c2=0.5), -1.0, 1.0, n=17),
             control_edge(ControlForm(c1=1.0), ControlForm(c0=1.0, c1=speed),
                          -1.0, 1.0, n=21)]
    cs = ControlSystem(edges, l0=l0, A0=-0.7, delta=0.5)
    return cs, lambda x: 0.3 * abs(x - 0.2), DppConfig(dx=0.04, horizon=1.0, r_domain=1.5)


def _position_dependent():
    drift = lambda t, y, a: a * (1.0 + 0.25 * min(y, 1.0))
    cost = lambda t, y, a: 1.0 + 0.3 * np.sin(3.0 * y) + 0.1 * a * t
    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21)),
             ControlEdge(ControlForm(c1=1.0), cost, np.linspace(-1.0, 1.0, 21))]
    cs = ControlSystem(edges, l0=constant(0.0, 0.5), A0=-1.0, delta=1.0)
    return cs, _abs_datum, DppConfig(dx=0.1, horizon=0.5, r_domain=1.5)


def _star():
    edges = [control_edge(ControlForm(c1=1.0 + 0.2 * k),
                          ControlForm(c0=1.0 + 0.1 * k, c2=0.3), -1.0, 1.0, n=15)
             for k in range(3)]
    cs = ControlSystem(edges, l0=constant(0.2, 1.0), A0=-1.0, delta=1.0,
                       orientation="star")
    return cs, lambda y: 0.5 * y, DppConfig(dx=0.05, horizon=1.0, r_domain=1.0)


def _full_cfl():
    # dt * max|f| = dx: the fastest departures land on the neighbouring nodes,
    # and at both ends of each edge some controls leave [0, R]
    return (build_model_system(0.0, n_controls=9), _abs_datum,
            DppConfig(dx=0.05, horizon=1.0, r_domain=1.0, cfl_safety=1.0))


BELLMAN_CASES = {
    "criterion_1": lambda: (build_model_system(0.0), zero_datum,
                            DppConfig(dx=0.05, horizon=1.0, r_domain=2.0)),
    "time_dependent_forms": _time_dependent_forms,
    "position_dependent": _position_dependent,
    "three_edge_star": _star,
    "departures_leave_the_edge": _full_cfl,
}


@pytest.mark.parametrize("case", sorted(BELLMAN_CASES))
def test_bellman_matches_the_per_control_loop_bit_for_bit(case):
    cs, u0, cfg = BELLMAN_CASES[case]()
    field = value_function(cs, u0, cfg)
    grid = field.grid
    want = _reference_values(cs, grid, field.values[0], cfg.park)
    assert field.values.tobytes() == want.tobytes()

    # a lone call builds its window row itself; parking off as well
    rng = np.random.default_rng(71)
    A = flux_limiter(cs)
    for n in (0, grid.steps // 2, grid.steps - 1):
        a, b = float(grid.times[n]), float(grid.times[n + 1])
        level = field.values[n] + rng.uniform(0.0, 0.1, grid.n_nodes)
        for park in (True, False):
            got = _bellman(cs, grid, A, level, a, b, park)
            assert got.tobytes() == _reference_bellman(cs, grid, A, level, a, b,
                                                       park).tobytes()


def test_full_cfl_case_has_partly_inadmissible_departures():
    cs, _, cfg = _full_cfl()
    grid = oracle_grid(cs, cfg)
    y = grid.edge_y(0)
    z = y - cs.local_f_avg(0, 0.0, grid.dt)[:, None] * grid.dt
    ok = (z >= 0.0) & (z <= y[-1])
    assert ok.any() and not ok.all()
    assert not ok[:, 0].all() and not ok[:, -1].all() and ok[:, 1:-1].all()


def test_no_admissible_control_names_the_same_node_and_window():
    # after t = 0.5 every speed at the far end of an edge points inward, so
    # no departure point stays inside the edge there
    drift = lambda t, y, a: a - 2.0 * (t > 0.5) * (y > 0.9)
    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 11))
             for _ in range(3)]
    cs = ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0,
                       orientation="star")
    cfg = DppConfig(dx=0.1, horizon=1.0, r_domain=1.0)
    with pytest.raises(NoAdmissibleControl) as got:
        value_function(cs, zero_datum, cfg)
    grid = oracle_grid(cs, cfg)
    with pytest.raises(NoAdmissibleControl) as want:
        _reference_values(cs, grid, np.zeros(grid.n_nodes))
    assert str(got.value) == str(want.value)
    assert f"node {grid.edge_full_indices(0)[-1]} on" in str(got.value)
