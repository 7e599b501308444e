from __future__ import annotations

import math
import os
import re
import stat

import numpy as np
import pytest

from hjj import (SolutionField, TimeSignal, constant, eikonal, from_line, grid_for,
                 induced_problem, make_grid, oracle_grid, solve, solve_many, value_function)
from hjj.errors import ConfigError, HorizonMismatch, NumericalFailure
from hjj.grid import _CFL_SAFETY, atomic_write_text, edge_nodes

from conftest import build_model_system, count_updates, share_grid, zero_datum


def _reference_csv(field: SolutionField) -> str:
    """One f-string per row, as t,x,u."""
    order = field._node_order()
    labels = field.node_labels()
    rows = ["t,x,u"]
    for n, t in enumerate(field.times):
        for lab, k in zip(labels, order):
            rows.append(f"{float(t):.17g},{lab},{float(field.values[n][k]):.17g}")
    return "\n".join(rows) + "\n"


def _reference_tsv(field: SolutionField, t_requested: float) -> str:
    n = field.grid.level_index(t_requested)
    rows = [f"# t_requested={float(t_requested):.17g}\tt_grid={float(field.times[n]):.17g}",
            "x\tu"]
    for lab, k in zip(field.node_labels(), field._node_order()):
        rows.append(f"{lab}\t{float(field.values[n][k]):.17g}")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("radii,line", [((0.7, 0.5), True), ((0.3, 0.5, 0.2), False)],
                         ids=["line", "star"])
def test_csv_and_snapshot_are_byte_equal_to_per_row_formatting(radii, line):
    grid = make_grid(0.1, 0.3, radii, c2=1.0)
    rng = np.random.default_rng(83)
    values = rng.normal(scale=1e3, size=(grid.steps + 1, grid.n_nodes)) / 7.0
    values[0, :3] = [-0.0, 0.0, 1e-300]
    values[1, 1] = np.inf
    values[-1, -1] = -0.0
    field = SolutionField(grid, values, line=line)
    assert field.to_csv() == _reference_csv(field)
    assert ",-0\n" in field.to_csv()
    for t in (0.0, 0.13, 0.3):
        assert field.to_snapshot_tsv(t) == _reference_tsv(field, t)


def _random_speed(rng: np.random.Generator, horizon: float) -> TimeSignal:
    """A step speed on 2 to 9 random cells, values in [0.1, 50]."""
    cells = int(rng.integers(2, 10))
    inner = np.sort(rng.uniform(0.0, horizon, cells - 1))
    return TimeSignal(np.concatenate(([0.0], inner, [horizon])), rng.uniform(0.1, 50.0, cells))


def test_make_grid_gives_each_window_an_equal_share_of_the_speed_integral():
    """times run from 0 to T, strictly increasing, in N = ceil(Phi(T) / (0.5 dx))
    windows, each with an integral of C2 of at most 0.5 dx; dt is the largest step.
    C2 is a random speed times a random scale, so N ranges as it would over shares."""
    rng = np.random.default_rng(131)
    for _ in range(300):
        horizon = float(rng.uniform(0.05, 3.0))
        dx = float(rng.choice([0.1, 0.02, 0.005]))
        scale = float(rng.uniform(0.5, 5.0))
        speed = _random_speed(rng, horizon).shift_values(lambda v: v * scale)
        grid = make_grid(dx, horizon, (1.0, 1.0), c2=speed)
        t = grid.times
        assert t[0] == 0.0 and t[-1] == horizon
        assert np.all(np.diff(t) > 0.0)
        assert np.all(speed.window_integrals(t) <= _CFL_SAFETY * dx * (1.0 + 1e-9))
        n = max(1, math.ceil(speed.integrate(0.0, horizon) / (_CFL_SAFETY * dx) - 1e-12))
        assert grid.steps == n
        assert grid.dt == np.max(np.diff(t))


@pytest.mark.parametrize("dx,c2,horizon,scale", [(0.1, 2.5, 1.0, 0.5), (0.02, 41.0, 1.0, 0.5),
                                                 (0.05, 1.0, 0.5, 0.5), (0.03, 7.3, 0.9, 0.7),
                                                 (0.01, 3.0, 1.0, 1.0)])
def test_a_constant_speed_keeps_the_linspace_levels(dx, c2, horizon, scale):
    """A float C2 = c2 scale, or a signal whose cells all carry it, gives N equal steps
    of T / N with N = ceil(T / (0.5 dx / C2) - 1e-12), bit for bit (the first four rows
    tie)."""
    c2 = c2 * scale
    n = max(1, math.ceil(horizon / (_CFL_SAFETY * dx / c2) - 1e-12))
    flat = TimeSignal(np.array([0.0, 0.3 * horizon, horizon]), np.array([c2, c2]))
    for speed in (c2, flat):
        grid = make_grid(dx, horizon, (1.0,), c2=speed)
        assert grid.times.tobytes() == np.linspace(0.0, horizon, n + 1).tobytes()
        assert grid.dt == horizon / n


def test_share_grid_takes_its_share_of_dx_and_is_make_grid_at_the_default():
    """share_grid at 0.5 is make_grid's grid bit for bit, and grid_for's and oracle_grid's
    on their sources. At shares 1, 0.5 and 0.25 every window integrates C2 to at most
    share dx, in N = ceil(Phi(T) / (share dx) - 1e-12) windows."""
    rng = np.random.default_rng(137)
    for _ in range(100):
        horizon = float(rng.uniform(0.05, 3.0))
        dx = float(rng.choice([0.1, 0.02, 0.005]))
        speed = _random_speed(rng, horizon)
        for c2 in (speed, speed.max()):
            want = make_grid(dx, horizon, (1.0, 1.0), c2=c2)
            got = share_grid(_CFL_SAFETY, dx, c2, (1.0, 1.0), horizon)
            assert (got.times.tobytes(), got.dt) == (want.times.tobytes(), want.dt)
        for share in (1.0, 0.5, 0.25):
            grid = share_grid(share, dx, speed, (1.0, 1.0), horizon)
            assert np.all(speed.window_integrals(grid.times) <= share * dx * (1.0 + 1e-9))
            n = max(1, math.ceil(speed.integrate(0.0, horizon) / (share * dx) - 1e-12))
            assert grid.steps == n
    cs = build_model_system(0.0)
    problem = induced_problem(cs, zero_datum, 0.0, 1.0)
    for got, want in ((share_grid(0.5, 0.02, problem, 2.0), grid_for(problem, 0.02, 2.0)),
                      (share_grid(0.5, 0.02, [problem, problem], 2.0),
                       grid_for([problem, problem], 0.02, 2.0)),
                      (share_grid(0.5, 0.02, cs, 2.0, 1.0), oracle_grid(cs, 0.02, 1.0, 2.0))):
        assert (got.times.tobytes(), got.dt, got.edge_radii) == \
            (want.times.tobytes(), want.dt, want.edge_radii)


def test_make_grid_refuses_a_speed_signal_on_another_horizon():
    speed = TimeSignal(np.array([0.0, 0.5, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(HorizonMismatch):
        make_grid(0.1, 1.0, (1.0,), c2=speed)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _planted(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Normal values with up to two each of NaN, +inf, -inf and -0.0 at random places."""
    values = rng.normal(scale=10.0, size=shape)
    for special in (np.nan, np.inf, -np.inf, -0.0):
        values.flat[rng.integers(0, values.size, rng.integers(0, 3))] = special
    return values


def test_the_level_folds_give_the_full_array_answers_bit_for_bit():
    """sup_norm, linf_gap and check_finite against the whole-field expressions they replace."""
    grid = make_grid(0.1, 0.4, (0.5, 0.3), c2=1.0)
    shape = (grid.steps + 1, grid.n_nodes)
    rng = np.random.default_rng(211)
    signed_zeros = rng.choice([0.0, -0.0], size=shape)
    for trial in range(300):
        a = signed_zeros if trial == 0 else _planted(rng, shape)
        b = _planted(rng, shape)
        fa, fb = SolutionField(grid, a, line=True), SolutionField(grid, b, line=True)
        with np.errstate(invalid="ignore"):  # inf - inf
            assert _bits(fa.sup_norm()) == _bits(np.max(np.abs(a)))
            assert _bits(fa.linf_gap(fb)) == _bits(np.max(np.abs(a - b)))
        bad = np.argwhere(~np.isfinite(a))
        if len(bad):
            with pytest.raises(NumericalFailure,
                               match=f"^non-finite value at level {bad[0][0]}, node {bad[0][1]}$"):
                fa.check_finite()
        else:
            fa.check_finite()
    assert _bits(SolutionField(grid, signed_zeros, line=True).sup_norm()) == _bits(0.0)


def test_field_csv_streams_one_chunk_per_level():
    grid = make_grid(0.1, 0.3, (0.7, 0.5), c2=1.0)
    values = np.random.default_rng(89).normal(size=(grid.steps + 1, grid.n_nodes))
    field = SolutionField(grid, values, line=True)
    chunks = list(field.csv_chunks())
    assert chunks[0] == "t,x,u\n" and len(chunks) == grid.steps + 2
    assert all(c.count("\n") == grid.n_nodes for c in chunks[1:])
    assert "".join(chunks) == field.to_csv() == _reference_csv(field)


def test_a_render_that_raises_midway_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("old\n")

    def chunks():
        yield "t,x,u\n"
        yield "0,0,0\n"
        raise MemoryError("render failed")

    with pytest.raises(MemoryError, match="render failed"):
        atomic_write_text(str(path), chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["field.csv"]
    assert path.read_text() == "old\n"


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o027, 0o077], ids=oct)
def test_artifacts_get_the_mode_open_gives_under_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_text(str(tmp_path / "text"), "x\n")
        atomic_write_text(str(tmp_path / "chunks"), iter(["x\n", "y\n"]))
        with open(tmp_path / "opened", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("text", "chunks", "opened")}
    assert modes == dict.fromkeys(modes, 0o666 & ~umask)
    assert (tmp_path / "chunks").read_text() == "x\ny\n"


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
def test_make_grid_refuses_a_horizon_that_is_not_positive_and_finite(horizon):
    with pytest.raises(ConfigError, match="^T: expected a positive finite number"):
        make_grid(0.1, horizon, (1.0, 1.0), c2=1.0)


@pytest.mark.parametrize("c2,shown", [
    (1e300, "1e+300"),
    (TimeSignal(np.array([0.0, 0.5, 1.0]), np.array([1.0, 1e300])), "1e+300"),
], ids=["constant", "signal"])
def test_make_grid_refuses_a_step_count_no_array_can_index(c2, shown):
    with pytest.raises(ConfigError) as err:
        make_grid(0.05, 1.0, (1.0, 1.0), c2=c2)
    assert re.fullmatch(rf"the grid needs \S+ time steps at C2 = {re.escape(shown)}, more than "
                        rf"{np.iinfo(np.intp).max} can be indexed", str(err.value))


@pytest.mark.parametrize("dx,radius,shown", [(1e-300, 2.0, "2e+300")])
def test_edge_nodes_refuses_a_node_count_no_array_can_index(dx, radius, shown):
    with pytest.raises(ConfigError) as err:
        edge_nodes(dx, (radius,))
    assert str(err.value) == (f"an edge needs {shown} nodes at dx = {dx:g}, "
                              f"more than {np.iinfo(np.intp).max} can be indexed")
    assert [len(ys) for ys in edge_nodes(0.1, (1.0, 0.04))] == [11, 2]


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.inf, math.nan])
def test_edge_nodes_refuses_a_radius_that_is_not_positive_and_finite(radius):
    problem = from_line(eikonal(), eikonal(), constant(0.0, 1.0), zero_datum, 1.0, 1.0)
    builds = [lambda: edge_nodes(0.1, (1.0, radius)),
              lambda: make_grid(0.1, 1.0, (radius, 2.0), c2=1.0),
              lambda: grid_for(problem, 0.1, radius),
              lambda: oracle_grid(build_model_system(), 0.1, 1.0, radius)]
    for build in builds:
        with pytest.raises(ConfigError) as err:
            build()
        assert str(err.value) == f"edge radius: expected a positive finite number, got {radius!r}"


@pytest.mark.parametrize("route", ["fd", "dp"])
def test_a_field_from_either_route_marches_when_it_is_read(monkeypatch, route):
    """solve and value_function take no step; levels() marches at each read, values
    marches once and keeps the array, and both give the same bits."""
    cs = build_model_system()
    problem = induced_problem(cs, zero_datum, 0.0, 1.0)
    grid = grid_for(problem, 0.1, 2.0)
    counts = count_updates(monkeypatch)
    field = solve(problem, grid) if route == "fd" else value_function(cs, zero_datum, grid)
    assert counts[route] == 0
    streamed = [level.copy() for level in field.levels()]
    assert counts[route] == grid.steps
    values = field.values
    assert counts[route] == 2 * grid.steps
    assert field.values is values and counts[route] == 2 * grid.steps
    assert [level.tobytes() for level in streamed] == [row.tobytes() for row in values]
    assert [level.tobytes() for level in field.levels()] == [row.tobytes() for row in values]
    assert counts[route] == 2 * grid.steps  # levels() now yields the kept rows


@pytest.mark.parametrize("route", ["fd", "dp"])
def test_the_scalar_passes_of_a_marching_field_march_once_between_them(monkeypatch, route):
    """sup_norm, check_finite and linf_gap read values: one march keeps the array."""
    cs = build_model_system()
    problem = induced_problem(cs, zero_datum, 0.0, 1.0)
    grid = grid_for(problem, 0.1, 2.0)
    counts = count_updates(monkeypatch)
    make = {"fd": lambda: solve(problem, grid), "dp": lambda: value_function(cs, zero_datum, grid)}
    field, other = make[route](), make[route]()
    norm = field.sup_norm()
    field.check_finite()
    assert field.linf_gap(other) == 0.0 and counts[route] == 2 * grid.steps
    assert _bits(norm) == _bits(np.max(np.abs(field.values))) and counts[route] == 2 * grid.steps


def test_a_field_of_stored_values_yields_its_rows_and_solve_many_marches_in_the_call(
        monkeypatch):
    cs = build_model_system()
    problem = induced_problem(cs, zero_datum, 0.0, 1.0)
    grid = grid_for(problem, 0.1, 2.0)
    counts = count_updates(monkeypatch)
    [batched] = solve_many([problem], grid)
    assert counts["fd"] == grid.steps
    rows = np.random.default_rng(5).normal(size=(grid.steps + 1, grid.n_nodes))
    for field, values in ((batched, batched.values), (SolutionField(grid, rows, True), rows)):
        assert [level.tobytes() for level in field.levels()] == [r.tobytes() for r in values]
    assert batched.values.tobytes() == solve(problem, grid).values.tobytes()
