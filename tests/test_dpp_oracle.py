from __future__ import annotations

import math

import numpy as np
import pytest

import hjj.dpp_oracle as dpp_oracle_module
from hjj import (
    ControlEdge,
    ControlForm,
    ControlSystem,
    TimeSignal,
    constant,
    control_edge,
    control_system_from_config,
    flux_limiter,
    grid_for,
    induced_problem,
    make_grid,
    solve,
    value_function,
)
from hjj.control_system import undominated
from hjj.dpp_oracle import _bellman, _windows, oracle_grid
from hjj.errors import CflViolation, NoAdmissibleControl, NumericalFailure
from hjj.grid import Grid

from conftest import (build_model_system, check_value_function_bounds, cost_bound,
                      random_control_system, share_grid, tdc_config, zero_datum)
from reference import BudgetExceeded, array_field, dpp_consistency_check, enumerate_trajectories


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
    assert np.max(speeds) <= cs.speed_signal(1.0).max() + 1e-9


def test_value_function_on_the_model_problem():
    cs = build_model_system(0.0)
    field = value_function(cs, zero_datum, oracle_grid(cs, 0.02, 1.0, 2.0))
    xs = field.grid.line_x()
    final = field.values[field.grid.steps][field.grid.line_flat_indices()]
    want = np.minimum(1.0, np.abs(xs))
    assert np.max(np.abs(final - want)) <= 0.05
    check_value_function_bounds(cs, field)


def test_value_function_with_floor_limiter_is_exactly_linear_in_time():
    # A = -1: every trajectory costs 1 per unit time, so u(x, t) = t on the grid
    cs = build_model_system(1.0)
    field = value_function(cs, zero_datum, oracle_grid(cs, 0.05, 1.0, 2.0))
    for n, t in enumerate(field.grid.times):
        assert np.max(np.abs(field.values[n] - t)) <= 1e-12


def test_value_function_matches_enumeration_at_aligned_points():
    cs = build_model_system(0.0)
    field = value_function(cs, zero_datum, oracle_grid(cs, 0.05, 1.0, 2.0))
    grid = field.grid
    xs = grid.line_x()
    final = field.values[grid.steps][grid.line_flat_indices()]
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
    cs_hi, cs_lo = build_model_system(0.0), build_model_system(1.0)   # A = 0, A = -1
    hi_a = value_function(cs_hi, zero_datum, oracle_grid(cs_hi, 0.1, 1.0, 2.0))
    lo_a = value_function(cs_lo, zero_datum, oracle_grid(cs_lo, 0.1, 1.0, 2.0))
    assert float(np.max(hi_a.values - lo_a.values)) <= 1e-12


def test_value_function_monotone_in_the_datum():
    cs = build_model_system(0.0)
    grid = oracle_grid(cs, 0.1, 0.5, 1.5)
    rng = np.random.default_rng(59)
    for _ in range(10):
        s = rng.uniform(0.2, 0.9)
        x0 = rng.uniform(-0.5, 0.5)
        lo = lambda x, s=s, x0=x0: s * abs(x - x0)
        hi = lambda x, lo=lo: lo(x) + 0.25
        f_lo = value_function(cs, lo, grid)
        f_hi = value_function(cs, hi, grid)
        assert float(np.max(f_lo.values - f_hi.values)) <= 1e-12
        check_value_function_bounds(cs, f_lo)


def test_dpp_restart_reproduces_the_run():
    cs = build_model_system(0.0)
    field = value_function(cs, zero_datum, oracle_grid(cs, 0.05, 1.0, 2.0))
    assert dpp_consistency_check(cs, field, 0.0) == 0.0
    assert dpp_consistency_check(cs, field, 0.5) <= 1e-13


def test_restart_deviation_keeps_its_bits_on_criterion_7s_runs():
    """Criterion 7's run, and the same field perturbed so that the deviation is not 0."""
    cs = build_model_system(0.0)
    field = value_function(cs, zero_datum, oracle_grid(cs, 0.01, 1.0, 2.0))
    noise = np.random.default_rng(7).uniform(-1e-3, 1e-3, field.values.shape)
    perturbed = array_field(field.grid, field.values + noise, line=True)
    got = [dpp_consistency_check(cs, f, s).hex() for f in (field, perturbed)
           for s in (0.25, 0.5, 0.75)]
    assert got == ["0x0.0p+0"] * 3 + ["0x1.02d2460f99a00p-9", "0x1.055e870e8d600p-9",
                                      "0x1.0461ad8268600p-9"]


@pytest.mark.parametrize("k", [1, 7])
def test_value_function_stops_at_the_first_level_above_its_a_priori_bound(monkeypatch, k):
    """An update that overshoots the bound at level k is the last one made."""
    cs = build_model_system(0.0)
    grid = oracle_grid(cs, 0.05, 1.0, 2.0)
    calls, real = [], dpp_oracle_module._bellman

    def overshoot(*args, **kwargs):
        calls.append(1)
        new = real(*args, **kwargs)
        return new + 1e3 if len(calls) == k else new

    monkeypatch.setattr(dpp_oracle_module, "_bellman", overshoot)
    with pytest.raises(NumericalFailure,
                       match=f"^value function breaks its a priori bound at level {k}: "):
        value_function(cs, zero_datum, grid).values
    assert len(calls) == k < grid.steps


def test_dpp_restart_at_the_horizon_is_the_run_itself():
    cs = build_model_system(0.0)
    field = value_function(cs, zero_datum, oracle_grid(cs, 0.05, 1.0, 2.0))
    assert dpp_consistency_check(cs, field, 1.0) == 0.0


def test_dpp_restart_rejects_off_grid_times():
    cs = build_model_system(0.0)
    field = value_function(cs, zero_datum, oracle_grid(cs, 0.05, 1.0, 2.0))
    with pytest.raises(ValueError):
        dpp_consistency_check(cs, field, 0.33)


def test_value_function_on_an_external_grid():
    cs = build_model_system(0.0)
    grid = make_grid(dx=0.1, horizon=1.0, radii=(2.0, 2.0), c2=1.0)
    field = value_function(cs, zero_datum, grid)
    internal = value_function(cs, zero_datum, oracle_grid(cs, 0.1, 1.0, 2.0))
    assert np.array_equal(field.values, internal.values)


def test_value_function_rejects_grids_that_break_the_cfl_condition():
    cs = build_model_system(0.0)
    slow = make_grid(dx=0.1, horizon=1.0, radii=(2.0, 2.0), c2=0.25)
    with pytest.raises(CflViolation):
        value_function(cs, zero_datum, slow)


def test_value_function_with_position_dependent_speeds():
    drift = lambda t, y, a: a * (1.0 + 0.25 * min(y, 1.0))
    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21)),
             ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21))]
    cs = ControlSystem(edges, l0=constant(0.0, 0.5), A0=-1.0, delta=1.0)
    field = value_function(cs, _abs_datum, oracle_grid(cs, 0.1, 0.5, 1.5))
    assert np.max(np.abs(field.values)) <= abs(_abs_datum(-1.5)) + 0.5 * cost_bound(cs) + 1e-9
    assert field.values[-1][0] <= 0.5 + 1e-12


# ---------------------------------------------------------------------------
# the vectorised Bellman update against a control-by-control reference

def _reference_bellman(cs, grid, A, level, a, b):
    """Bellman update with per-window averages and one np.interp per control."""
    dtn = b - a
    new = np.full(grid.n_nodes, np.inf)
    junction_best = level[0] - A.integrate(a, b)
    for i, edge in enumerate(cs.edges):
        idx = grid.edge_full_indices(i)
        y = grid.edge_y(i)
        uu = level[idx]
        ztol = 1e-10 * max(1.0, float(y[-1]))
        if edge.x_independent:
            fmat, lmat = (v[:, None] for v in edge.lines(cs.sign(i), a, b))
        else:
            fmat, lmat = (np.stack(v, axis=1) for v in
                          zip(*(edge.lines(cs.sign(i), a, b, float(yj)) for yj in y)))
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


def _reference_values(cs, grid, v0):
    A = flux_limiter(cs)
    out = [v0]
    for a, b in zip(grid.times[:-1], grid.times[1:]):
        out.append(_reference_bellman(cs, grid, A, out[-1], float(a), float(b)))
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
    return cs, lambda x: 0.3 * abs(x - 0.2), oracle_grid(cs, 0.04, 1.0, 1.5)


def _position_dependent():
    drift = lambda t, y, a: a * (1.0 + 0.25 * min(y, 1.0))
    cost = lambda t, y, a: 1.0 + 0.3 * np.sin(3.0 * y) + 0.1 * a * t
    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21)),
             ControlEdge(ControlForm(c1=1.0), cost, np.linspace(-1.0, 1.0, 21))]
    cs = ControlSystem(edges, l0=constant(0.0, 0.5), A0=-1.0, delta=1.0)
    return cs, _abs_datum, oracle_grid(cs, 0.1, 0.5, 1.5)


def _star():
    edges = [control_edge(ControlForm(c1=1.0 + 0.2 * k),
                          ControlForm(c0=1.0 + 0.1 * k, c2=0.3), -1.0, 1.0, n=15)
             for k in range(3)]
    cs = ControlSystem(edges, l0=constant(0.2, 1.0), A0=-1.0, delta=1.0,
                       orientation="star")
    return cs, lambda y: 0.5 * y, oracle_grid(cs, 0.05, 1.0, 1.0)


def _full_cfl():
    # dt * max|f| = dx: the fastest departures land on the neighbouring nodes,
    # and at both ends of each edge some controls leave [0, R]
    cs = build_model_system(0.0, n_controls=9)
    return cs, _abs_datum, share_grid(1.0, 0.05, cs, 1.0, 1.0)


def _criterion_1():
    cs = build_model_system(0.0)
    return cs, zero_datum, oracle_grid(cs, 0.05, 1.0, 2.0)


BELLMAN_CASES = {
    "criterion_1": _criterion_1,
    "time_dependent_forms": _time_dependent_forms,
    "position_dependent": _position_dependent,
    "three_edge_star": _star,
    "departures_leave_the_edge": _full_cfl,
}


@pytest.mark.parametrize("case", sorted(BELLMAN_CASES))
def test_bellman_matches_the_per_control_loop_bit_for_bit(case):
    cs, u0, grid = BELLMAN_CASES[case]()
    field = value_function(cs, u0, grid)
    want = _reference_values(cs, grid, field.values[0])
    assert field.values.tobytes() == want.tobytes()

    # a lone update of a perturbed level, on its window's row
    rng = np.random.default_rng(71)
    A = flux_limiter(cs)
    for n in (0, grid.steps // 2, grid.steps - 1):
        a, b = float(grid.times[n]), float(grid.times[n + 1])
        level = field.values[n] + rng.uniform(0.0, 0.1, grid.n_nodes)
        got = _bellman(cs, grid, level, a, b, _windows(cs, grid, A, np.array([a, b]))(0))
        assert got.tobytes() == _reference_bellman(cs, grid, A, level, a, b).tobytes()


def test_full_cfl_case_has_partly_inadmissible_departures():
    cs, _, grid = _full_cfl()
    y = grid.edge_y(0)
    z = y - cs.edges[0].lines(cs.sign(0), 0.0, grid.dt)[0][:, None] * grid.dt
    ok = (z >= 0.0) & (z <= y[-1])
    assert ok.any() and not ok.all()
    assert not ok[:, 0].all() and not ok[:, -1].all() and ok[:, 1:-1].all()


def _inward_at_the_far_end():
    # after t = 0.5 every speed at the far end of an edge points inward, so
    # no departure point stays inside the edge there; |f| reaches 3 there,
    # three times the bound at t = 0
    drift = lambda t, y, a: a - 2.0 * (t > 0.5) * (y > 0.9)  # noqa: E731
    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 11))
             for _ in range(3)]
    return ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0,
                         orientation="star")


def test_no_admissible_control_names_the_same_node_and_window():
    cs = _inward_at_the_far_end()
    grid = share_grid(0.25, 0.1, cs, 1.0, 1.0)  # dt |f| <= 0.75 dx
    with pytest.raises(NoAdmissibleControl) as got:
        value_function(cs, zero_datum, grid).values
    with pytest.raises(NoAdmissibleControl) as want:
        _reference_values(cs, grid, np.zeros(grid.n_nodes))
    assert str(got.value) == str(want.value)
    assert f"node {grid.edge_full_indices(0)[-1]} on" in str(got.value)


def test_a_window_too_fast_for_its_step_is_refused_before_its_unreachable_node():
    """At dt = 0.05, |f| = 3 breaks dt |f| <= dx = 0.1 on the window that also leaves
    the far end unreachable: both routes raise the same CflViolation, read off the
    window's table before the update uses it."""
    cs = _inward_at_the_far_end()
    grid = oracle_grid(cs, 0.1, 1.0, 1.0)
    with pytest.raises(CflViolation) as dp:
        value_function(cs, zero_datum, grid).values
    with pytest.raises(CflViolation) as fd:
        solve(induced_problem(cs, zero_datum, 0.0, 1.0), grid).values
    assert str(dp.value) == str(fd.value)
    assert "the speed bound 1 understates |f|=3 there" in str(dp.value)


# ---------------------------------------------------------------------------
# dominated controls leave the tables; the answers stay bit for bit

def _random_case(seed: int, n_edges: int):
    rng = np.random.default_rng(seed)
    cs = random_control_system(rng, horizon=0.5, n_edges=n_edges)
    s, x0 = rng.uniform(0.1, 0.8), rng.uniform(-0.4, 0.4)
    return cs, lambda x: s * abs(x - x0)


@pytest.mark.parametrize("share", [0.5, 1.0])
@pytest.mark.parametrize("seed,n_edges", [(3, 2), (4, 2), (5, 2), (6, 3), (7, 3)])
def test_pruned_value_function_equals_the_per_control_loop(seed, n_edges, share):
    cs, u0 = _random_case(seed, n_edges)
    field = value_function(cs, u0, share_grid(share, 0.05, cs, 1.0, 0.5))
    want = _reference_values(cs, field.grid, field.values[0])
    assert field.values.tobytes() == want.tobytes()


def test_pruned_value_function_on_time_dependent_forms_at_full_cfl():
    cs, u0, _ = _time_dependent_forms()
    field = value_function(cs, u0, share_grid(1.0, 0.04, cs, 1.5, 1.0))
    assert field.values.tobytes() == _reference_values(cs, field.grid,
                                                       field.values[0]).tobytes()


def _columns(cs, grid, n: int = 0) -> list:
    return [row[0] for row in _windows(cs, grid, flux_limiter(cs), grid.times)(n)[1]]


def test_model_system_tables_keep_five_columns_per_edge():
    cs = build_model_system(0.0)
    for sign, speeds in zip((1.0, -1.0), _columns(cs, oracle_grid(cs, 0.05, 1.0, 2.0))):
        assert np.allclose(sign * speeds[:, 0], [-1.0, -0.1, 0.0, 0.1, 1.0], rtol=0.0, atol=1e-12)


def test_time_dependent_tables_keep_the_union_over_windows():
    """Speeds a + s(t), s = 0 then 0.25: each window keeps 5 of 9 controls, the march 6."""
    shift = TimeSignal(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25]))
    edges = [control_edge(ControlForm(c0=shift, c1=1.0), ControlForm(c0=1.0), -1.0, 1.0, n=9)
             for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=0.5, orientation="star")
    grid = oracle_grid(cs, 0.05, 1.0, 1.0)
    assert 0.5 in grid.times
    speeds, costs = cs.edges[0].window_tables(cs.sign(0), grid.times)
    rows = [undominated(f, l) for f, l in zip(speeds, costs)]
    assert {int(r.sum()) for r in rows} == {5}
    union = np.any(rows, axis=0)
    assert np.flatnonzero(union).tolist() == [0, 2, 3, 4, 5, 8]
    first, last = _columns(cs, grid, 0)[0], _columns(cs, grid, grid.steps - 1)[0]
    assert first.tobytes() == speeds[0][union].tobytes()
    assert last.tobytes() == speeds[-1][union].tobytes()
    field = value_function(cs, zero_datum, grid)
    assert field.values.tobytes() == _reference_values(cs, grid, field.values[0]).tobytes()


def test_full_cfl_case_keeps_every_column():
    cs, _, grid = _full_cfl()
    assert [len(c) for c in _columns(cs, grid)] == [9, 9]
    slower = oracle_grid(cs, 0.05, 1.0, 1.0)
    assert [len(c) for c in _columns(cs, slower)] == [5, 5]


def test_departures_one_rounding_past_the_cell_keep_every_column():
    """dt |f| = dx exactly, but node 12 of an edge sits an ulp right of 12 dx.

    The fastest departure from node 13 then lands in cell 11, left of its
    upwind cell, where a steep level makes it dearer than the dropped
    v = 0.5; the guard's margin keeps every column.
    """
    controls = np.array([-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0])
    edges = [ControlEdge(ControlForm(c1=1.0), ControlForm(c0=1.0), controls) for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(0.0, 0.1), A0=-1.0, delta=1.0, orientation="star")
    grid = share_grid(1.0, dx=0.1, source=1.0, radius=(1.5, 1.5), horizon=0.1)
    y, idx = grid.edge_y(0), grid.edge_full_indices(0)
    assert y[13] - 0.1 < y[12]
    level = np.zeros(grid.n_nodes)
    level[idx[11]] = 1e15
    level[idx[13:]] = 0.1 * np.arange(1, len(idx) - 12)
    A = flux_limiter(cs)
    assert [len(row[0]) for row in _windows(cs, grid, A, grid.times)(0)[1]] == [7, 7]
    got = _bellman(cs, grid, level, 0.0, 0.1, _windows(cs, grid, A, np.array([0.0, 0.1]))(0))
    assert got.tobytes() == _reference_bellman(cs, grid, A, level, 0.0, 0.1).tobytes()


# ---------------------------------------------------------------------------
# x-dependent speeds: both routes bound them on the grid's nodes

def _fast_far_out(delayed: bool = False):
    """Speeds a (1 + 3 min(|y|, 0.1) / 0.1): 1 at the junction, 4 from |y| = 0.1 on.

    With delayed the speed-up holds only for t > 0, and the bounds, which
    evaluate a callable at t = 0, read 1 on every node.
    """
    def drift(t, y, a):
        ramp = 0.0 if delayed and t == 0.0 else 3.0
        return a * (1.0 + ramp * min(abs(y), 0.1) / 0.1)

    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21))
             for _ in range(2)]
    return ControlSystem(edges, l0=constant(0.0, 0.05), A0=-1.0, delta=1.0)


def test_callable_speeds_above_the_bound_raise_cfl_violation():
    cs = _fast_far_out(delayed=True)
    assert cs.speed_signal(0.05, 0.01, (0.3, 0.3)).max() == 1.0
    grid = share_grid(1.0, 0.01, cs, 0.3, 0.05)
    with pytest.raises(CflViolation) as got:
        value_function(cs, zero_datum, grid).values
    # first offending node: y = 0.01 on edge 0, where the speed reaches 1.3
    node = int(grid.edge_full_indices(0)[1])
    assert f"at node {node} on [0.0, {grid.times[1]}]" in str(got.value)
    # a quarter of the step clears the true bound
    value_function(cs, zero_datum, share_grid(0.25, 0.01, cs, 0.3, 0.05)).values


def test_solve_raises_the_value_functions_cfl_violation_on_a_callable_that_speeds_up():
    """Both routes check dt |f| <= dx on the nodes of each window of a callable edge."""
    cs = _fast_far_out(delayed=True)
    grid = share_grid(1.0, 0.01, cs, 0.3, 0.05)
    with pytest.raises(CflViolation) as want:
        value_function(cs, zero_datum, grid).values
    with pytest.raises(CflViolation) as got:
        solve(induced_problem(cs, zero_datum, 0.0, 0.05), grid).values
    assert str(got.value) == str(want.value)


def test_fast_far_out_runs_on_the_grid_of_its_node_bound():
    """The bound on the nodes reads 4, so the default grid takes dt = 0.5 * dx / 4."""
    cs = _fast_far_out()
    with pytest.raises(ValueError, match="needs the grid's nodes"):
        cs.speed_signal(0.05)
    assert cs.speed_signal(0.05, 0.01, (0.3, 0.3)).max() == 4.0
    field = value_function(cs, zero_datum, oracle_grid(cs, 0.01, 0.05, 0.3))
    assert field.grid.dt <= 0.5 * 0.01 / 4.0
    field.values
    # a supplied grid at the junction's speed is refused before the march
    probed = share_grid(1.0, dx=0.01, source=1.0, radius=(0.3, 0.3), horizon=0.05)
    with pytest.raises(CflViolation,
                       match="exceeds dx/C2=0.0025 at level \\d+ \\(C2 from max\\|f\\|\\)"):
        value_function(cs, zero_datum, probed)


GRID_CASES = {
    "model": lambda: (build_model_system(0.0), 1.0, 2.0),
    "random_line": lambda: (_random_case(4, 2)[0], 0.5, 1.0),
    "random_star": lambda: (_random_case(7, 3)[0], 0.5, 1.0),
    "fast_far_out": lambda: (_fast_far_out(), 0.05, 0.3),
    "tdc": lambda: (control_system_from_config(tdc_config()["control_system"], 1.0), 1.0, 2.0),
}


@pytest.mark.parametrize("case", sorted(GRID_CASES))
@pytest.mark.parametrize("share", [0.5, 1.0])
def test_both_routes_and_compare_build_the_same_grid(case, share):
    """oracle_grid and grid_for build one grid; so do the system's and the induced
    problem's C2 and radii at share (share_grid, which at 0.5 is make_grid's own)."""
    cs, horizon, r_domain = GRID_CASES[case]()
    problem = induced_problem(cs, zero_datum, 0.0, horizon)
    for grids in ([oracle_grid(cs, 0.01, horizon, r_domain), grid_for(problem, 0.01, r_domain)],
                  [share_grid(share, 0.01, cs, r_domain, horizon),
                   share_grid(share, 0.01, problem, r_domain)]):
        assert len({(g.dt, g.steps, g.n_nodes) for g in grids}) == 1
        assert np.array_equal(grids[0].times, grids[1].times)
        assert all(np.array_equal(grids[1].edge_y(i), grids[0].edge_y(i))
                   for i in range(grids[0].n_edges))


# ---------------------------------------------------------------------------
# per-window steps: the value function checks the windows' integrals of max|f|

def _drift_step_system(horizon: float = 1.0) -> ControlSystem:
    """f = a + c0(t), c0 stepping from 0 to 0.5 at t = 0.3, l = a^2 / 2, 81 controls in [-2, 2].

    max|f| is 2 before the step and 2.5 after it. c0 runs to t = 1, l0 to horizon.
    """
    drift = ControlForm(c0=TimeSignal(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.5])), c1=1.0)
    edges = [control_edge(drift, ControlForm(c2=0.5), -2.0, 2.0, n=81) for _ in range(2)]
    return ControlSystem(edges, l0=constant(0.0, horizon), A0=-1.0, delta=1.0)


def test_both_routes_agree_on_a_drift_step_with_fewer_steps():
    """The integral of max|f| over [0, 1] is 0.3 * 2 + 0.7 * 2.5 = 2.35, so dx 0.02 takes
    235 windows in place of the 250 uniform steps of sup|f| = 2.5."""
    cs = _drift_step_system()
    problem = induced_problem(cs, zero_datum, 0.0, 1.0)
    grid = grid_for(problem, 0.02, 1.0)
    assert grid.steps == 235 < math.ceil(2.5 / 0.01 - 1e-12) == 250
    assert np.array_equal(grid.times, oracle_grid(cs, 0.02, 1.0, 1.0).times)
    gap = np.max(np.abs(solve(problem, grid).values - value_function(cs, zero_datum, grid).values))
    assert gap <= 1e-12


def test_both_routes_agree_on_a_callable_drift_step():
    """The drift step as callables, f = a + 0.5 [t > 0.3] and l = a^2 / 2, on 200 steps.

    Both routes read a callable at each window's midpoint, and reach the
    form version's 0.0875.
    """
    def drift(t, y, a):
        return a + 0.5 * (t > 0.3)

    def cost(t, y, a):
        return 0.5 * a * a

    edges = [ControlEdge(drift, cost, np.linspace(-2.0, 2.0, 81)) for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)
    problem = induced_problem(cs, zero_datum, 0.0, 1.0)
    grid = grid_for(problem, 0.02, 1.0)
    assert grid.steps == 200
    scheme = solve(problem, grid).values
    assert np.max(np.abs(scheme - value_function(cs, zero_datum, grid).values)) <= 1e-12
    form = _drift_step_system()
    want = value_function(form, zero_datum, grid_for(induced_problem(form, zero_datum, 0.0, 1.0),
                                                     0.02, 1.0)).values
    assert np.max(scheme) == pytest.approx(np.max(want), abs=1e-12) == 0.0875


def _per_window_grid() -> Grid:
    """The drift step's windows at share 1: each holds dx, the longest one 0.01 = dx / 2."""
    return share_grid(1.0, dx=0.02, source=TimeSignal(np.array([0.0, 0.3, 1.0]), np.array([2.0, 2.5])),
                      radius=(1.0, 1.0), horizon=1.0)


def test_value_function_accepts_windows_that_hold_dx_where_sup_f_times_the_longest_step_does_not():
    grid = _per_window_grid()
    assert grid.dt * 2.5 > grid.dx * 1.2
    value_function(_drift_step_system(), zero_datum, grid).values


def test_value_function_refuses_one_window_too_long_naming_its_level():
    """Dropping one time level after the step merges two windows into one that holds 2 dx."""
    grid = _per_window_grid()
    k = int(np.searchsorted(grid.times, 0.6))
    times = np.delete(grid.times, k)
    merged = Grid(dx=grid.dx, dt=float(np.max(np.diff(times))), horizon=grid.horizon,
                  edge_radii=grid.edge_radii, times=times)
    with pytest.raises(CflViolation, match=f"exceeds dx/C2=0.008 at level {k - 1} "):
        value_function(_drift_step_system(), zero_datum, merged)


def test_oracle_grid_cuts_the_speed_signal_to_a_shorter_horizon():
    """A system whose signals run to t = 1 gives, on [0, 0.5], the grid and the value
    function of the same system built on [0, 0.5]; so does the scheme's grid_for on a
    problem whose horizon is 0.5 while its edges' signals run to 1."""
    long, short = _drift_step_system(1.0), _drift_step_system(0.5)
    cut = TimeSignal(np.array([0.0, 0.3, 0.5]), np.array([0.0, 0.5]))
    for edge in short.edges:
        edge.f = ControlForm(c0=cut, c1=1.0)
    signal = long.speed_signal(0.5)
    assert signal.breakpoints.tolist() == [0.0, 0.3, 0.5]
    assert signal.values.tolist() == [2.0, 2.5]
    grids = [oracle_grid(cs, 0.05, 0.5, 1.0) for cs in (long, short)]
    assert grids[0].steps == grids[1].steps == math.ceil((0.6 + 0.5) / 0.025 - 1e-12)
    assert np.array_equal(grids[0].times, grids[1].times)
    mixed = induced_problem(_drift_step_system(0.5), _abs_datum, 1.0, 0.5)
    assert np.array_equal(grid_for(mixed, 0.05, 1.0).times, grids[0].times)
    fields = [value_function(cs, _abs_datum, grids[0]) for cs in (long, short)]
    assert np.array_equal(fields[0].values, fields[1].values)


def test_a_speed_up_after_the_start_raises_cfl_violation_with_the_node_bound():
    """Speed 1 at t = 0, where the bound evaluates the drift, and 2.5 at every later time."""
    drift = lambda t, y, a: a * (1.0 + 1.5 * (t > 0.0))  # noqa: E731
    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21))
             for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(0.0, 0.1), A0=-1.0, delta=1.0)
    grid = make_grid(dx=0.05, horizon=0.1, radii=(0.5, 0.5),
                     c2=cs.speed_signal(0.1, 0.05, (0.5, 0.5)))
    assert grid.dt == 0.025
    with pytest.raises(CflViolation) as got:
        _windows(cs, grid, flux_limiter(cs), np.array([0.0, grid.dt]))(0)
    assert "the speed bound 1 understates |f|=2.5 there" in str(got.value)


# ---------------------------------------------------------------------------
# callable edges evaluated on all nodes at once

def test_a_priori_bound_takes_a_callable_cost_on_every_node():
    """l = 1 + 5 min(|y|, 1) is 1 at the junction and 6 from |y| = 1 on."""
    cost = lambda t, y, a: 1.0 + 5.0 * min(abs(y), 1.0)  # noqa: E731
    edges = [ControlEdge(ControlForm(c1=1.0), cost, np.linspace(-1.0, 1.0, 21))
             for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(0.0, 0.5), A0=-1.0, delta=1.0)
    with pytest.raises(ValueError, match="needs the grid's nodes"):
        cost_bound(cs)
    assert cost_bound(cs, 0.05, (1.5, 1.5)) == 6.0
    field = value_function(cs, zero_datum, oracle_grid(cs, 0.05, 0.5, 1.5))
    assert 1.5 < np.max(np.abs(field.values)) <= (2.0 * 6.0 + 1.0) * 0.5


def test_a_priori_bound_sums_a_cost_that_grows_in_time():
    """l = 1 + 10 t is read at each window's midpoint; the value function reaches
    t + 5 t^2 = 6 at T = 1, far above (2 L + Abar) T with L read at t = 0 (which the
    bound once was: 3), and stays under the bound summed window by window."""
    cost = lambda t, y, a: 1.0 + 10.0 * t + 0.0 * a  # noqa: E731
    edges = [ControlEdge(ControlForm(c1=1.0), cost, np.linspace(-1.0, 1.0, 21))
             for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)
    grid = oracle_grid(cs, 0.02, 1.0, 1.5)
    field = value_function(cs, zero_datum, grid)
    values = field.values
    assert values.shape == (grid.steps + 1, grid.n_nodes)
    assert np.max(np.abs(values[-1])) == pytest.approx(6.0, abs=0.05)
    scheme = solve(induced_problem(cs, zero_datum, 0.0, 1.0), grid)
    assert field.linf_gap(scheme) <= 1e-12


def _broadcasting_position_dependent():
    drift = lambda t, y, a: a * (1.0 + 0.25 * np.minimum(y, 1.0))  # noqa: E731
    cost = lambda t, y, a: 1.0 + 0.3 * np.sin(3.0 * y) + 0.1 * a * t  # noqa: E731
    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21)),
             ControlEdge(ControlForm(c1=1.0), cost, np.linspace(-1.0, 1.0, 21))]
    cs = ControlSystem(edges, l0=constant(0.0, 0.5), A0=-1.0, delta=1.0)
    return cs, _abs_datum, oracle_grid(cs, 0.1, 0.5, 1.5)


def test_broadcasting_and_scalar_only_callables_give_the_same_value_function():
    cs, u0, grid = _broadcasting_position_dependent()
    shapes = []
    drift = cs.edges[0].f

    def counted(t, y, a):
        shapes.append(np.shape(y))
        return drift(t, y, a)

    cs.edges[0].f = counted
    field = value_function(cs, u0, grid)
    want = value_function(*_position_dependent())
    assert field.values.tobytes() == want.values.tobytes()
    # one (controls x nodes) call per window on the march, and one for the grid's bound
    n = 21 * len(field.grid.edge_y(0))
    assert shapes.count((n,)) == field.grid.steps + 1
