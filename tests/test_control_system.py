from __future__ import annotations

import numpy as np
import pytest

from hjj import (
    ControlEdge,
    ControlForm,
    ControlSystem,
    EnvelopePair,
    TimeSignal,
    constant,
    control_edge,
    control_system_from_config,
    flux_limiter,
    induced_hamiltonian,
    reflected,
)
from hjj.control_system import _freeze_lines, line_argmin, undominated
from hjj.errors import BracketFailure, ConfigError, NoAdmissibleControl
from hjj.hamiltonian import argmin_p, numeric_argmin
from hjj.time_signal import coeff_average, on_horizon

from conftest import (abar_bound, build_model_system, cost_bound, random_control_system,
                      record_line_max)
from reference import RestrictedEnvelopes, edge_hamiltonian


def _affine_closed_form(c0: float, c1: float, d0: float, d1: float, p):
    """sup over a in [-1, 1] of (c0 + c1*a)*p - (d0 + d1*a), attained at a = +-1."""
    return c0 * p - d0 + np.abs(c1 * p - d1)


def _affine_system(rng: np.random.Generator, horizon: float = 1.0, n: int = 41):
    c1 = rng.uniform(0.5, 1.0)
    c0 = rng.uniform(-0.3, 0.3)
    d0 = rng.uniform(0.0, 2.0)
    d1 = rng.uniform(-0.5, 0.5)
    delta = 0.99 * (c1 - abs(c0))
    edges = [control_edge(ControlForm(c0=c0, c1=c1), ControlForm(c0=d0, c1=d1),
                          -1.0, 1.0, n=n) for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(rng.uniform(0.0, 1.0), horizon),
                       A0=-10.0, delta=delta)
    return cs, (c0, c1, d0, d1)


def test_flux_limiter_from_constant_parking_cost():
    assert flux_limiter(build_model_system(0.0)).values.tolist() == [0.0]
    assert flux_limiter(build_model_system(1.0)).values.tolist() == [-1.0]


def test_flux_limiter_piecewise_parking_cost():
    edges = [control_edge(ControlForm(c1=1.0), ControlForm(c0=1.0), -1.0, 1.0, n=21)
             for _ in range(2)]
    l0 = TimeSignal(np.array([0.0, 1.0, 2.0]), np.array([-3.0, 0.0]))
    cs = ControlSystem(edges, l0=l0, A0=0.0, delta=1.0)
    got = flux_limiter(cs)
    assert got.breakpoints.tolist() == [0.0, 1.0, 2.0]
    assert got.values.tolist() == [3.0, 0.0]


def test_flux_limiter_floor_clips_cheap_parking():
    # -l0 = -5 sits below A0 = -1, so the floor wins everywhere
    cs = build_model_system(5.0)
    assert flux_limiter(cs).values.tolist() == [-1.0]


def test_induced_hamiltonian_matches_eikonal():
    cs = build_model_system(0.0, n_controls=201)
    h = induced_hamiltonian(cs, 0)
    for p in (-2.0, 0.0, 3.0):
        assert h.eval_p(0.0, 0.0, np.array([p]))[0] == pytest.approx(abs(p) - 1.0, abs=1e-12)
    ps = np.linspace(-4.0, 4.0, 81)
    assert np.max(np.abs(h.eval_p(0.0, 0.0, ps) - (np.abs(ps) - 1.0))) <= 1e-12


def test_induced_hamiltonian_quadratic_running_cost():
    """f = a and l = a^2 give H(p) = p^2/4 inside |p| <= 2 and |p| - 1 outside."""
    edge = control_edge(ControlForm(c1=1.0), ControlForm(c2=1.0), -1.0, 1.0, n=1001)
    cs = ControlSystem([edge, edge], l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)
    h = induced_hamiltonian(cs, 0)
    assert h.eval_p(0.0, 0.0, np.array([2.0]))[0] == pytest.approx(1.0, abs=1e-12)
    assert h.eval_p(0.0, 0.0, np.array([4.0]))[0] == pytest.approx(3.0, abs=1e-12)
    assert h.eval_p(0.0, 0.0, np.array([1.0]))[0] == pytest.approx(0.25, abs=1e-5)


def test_single_stationary_control_yields_constant_hamiltonian():
    edge = ControlEdge(ControlForm(), ControlForm(c0=2.5), np.array([0.0]))
    h = edge_hamiltonian(edge)
    got = h.eval_p(0.0, 0.0, np.array([-3.0, 0.0, 7.0]))
    assert np.max(np.abs(got + 2.5)) <= 1e-15


def test_induced_hamiltonian_matches_affine_closed_form():
    rng = np.random.default_rng(41)
    for _ in range(25):
        cs, (c0, c1, d0, d1) = _affine_system(rng)
        h = induced_hamiltonian(cs, 0)
        ps = rng.uniform(-3.0, 3.0, size=40)
        assert np.max(np.abs(h.eval_p(0.0, 0.0, ps)
                             - _affine_closed_form(c0, c1, d0, d1, ps))) <= 1e-12


def test_restricted_envelope_values_on_the_model_system():
    cs = build_model_system(0.0)
    r = RestrictedEnvelopes(cs, 0)
    assert r.h_minus(0.0, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-12)
    assert r.h_plus(0.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert r.h_minus(0.0, 0.0, -2.0) == pytest.approx(1.0, abs=1e-12)
    assert r.h_plus(0.0, 0.0, -2.0) == pytest.approx(-1.0, abs=1e-12)


def test_restricted_envelopes_track_minimization_envelopes():
    rng = np.random.default_rng(43)
    for _ in range(10):
        cs, _ = _affine_system(rng, n=10_001)
        rest = RestrictedEnvelopes(cs, 0)
        env = EnvelopePair(induced_hamiltonian(cs, 0))
        ps = np.sort(rng.uniform(-2.0, 2.0, size=20))
        for p in ps:
            assert abs(rest.h_plus(0.0, 0.0, p) - env.split(0.0, 0.0, p)[0]) <= 1e-3
            assert abs(rest.h_minus(0.0, 0.0, p) - env.h_minus(0.0, 0.0, p)) <= 1e-3


def test_coverage_rejects_sparse_speed_samples():
    edges = [control_edge(ControlForm(c1=1.0), ControlForm(c0=1.0), -1.0, 1.0, n=3)
             for _ in range(2)]
    with pytest.raises(ValueError, match="hole"):
        ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)


def test_coverage_rejects_speed_range_narrower_than_delta():
    edges = [control_edge(ControlForm(c1=0.4), ControlForm(c0=1.0), -1.0, 1.0, n=41)
             for _ in range(2)]
    with pytest.raises(ValueError):
        ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)


@pytest.mark.parametrize("delta,A0,refused", [
    (np.inf, -1.0, "delta: expected a positive finite number, got inf"),
    (np.nan, -1.0, "delta: expected a positive finite number, got nan"),
    (0.0, -1.0, "delta: expected a positive finite number, got 0.0"),
    (1.0, np.nan, "A0: expected a finite number, got nan"),
    (1.0, -np.inf, "A0: expected a finite number, got -inf"),
], ids=["delta-inf", "delta-nan", "delta-zero", "A0-nan", "A0-minus-inf"])
def test_control_system_refuses_a_delta_or_A0_that_is_not_finite(delta, A0, refused):
    edges = build_model_system().edges
    with pytest.raises(ConfigError) as err:
        ControlSystem(edges, l0=constant(0.0, 1.0), A0=A0, delta=delta)
    assert str(err.value) == refused


@pytest.mark.parametrize("hi", [np.nan, np.inf])
def test_a_control_edge_refuses_controls_that_are_not_finite(hi):
    with pytest.raises(ConfigError, match="^controls: expected finite numbers, got"):
        control_edge(ControlForm(c1=1.0), ControlForm(c0=1.0), -1.0, hi)
    with pytest.raises(ConfigError, match=f"^controls: expected finite numbers, got {hi}$"):
        ControlEdge(ControlForm(c1=1.0), ControlForm(c0=1.0), np.array([-1.0, 0.0, hi]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("name", ["c0", "c1", "c2"])
def test_a_control_form_refuses_a_float_coefficient_that_is_not_finite(name, bad):
    """As f it used to leave a hole in the speeds, as l a system without admissible controls."""
    with pytest.raises(ConfigError) as err:
        ControlForm(**{name: bad})
    assert str(err.value) == f"ControlForm {name}: expected a finite number, got {bad!r}"
    step = TimeSignal(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]))
    assert ControlForm(**{name: step}).signals() == {name: step}


def test_restricted_envelope_raises_without_admissible_side():
    # off the junction every sampled speed is positive, so the nonpositive
    # restriction has nothing to optimise over
    drift = lambda t, y, a: a + 3.0 * min(y, 1.0)
    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21)),
             control_edge(ControlForm(c1=1.0), ControlForm(c0=1.0), -1.0, 1.0, n=21)]
    cs = ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)
    with pytest.raises(NoAdmissibleControl):
        RestrictedEnvelopes(cs, 0).h_minus(0.0, 1.0, 1.0)


def test_form_averaging_is_exact_for_time_signal_coefficients():
    c0 = TimeSignal(np.array([0.0, 0.25, 1.0]), np.array([1.0, -1.0]))
    edges = [control_edge(ControlForm(c0=c0, c1=2.0), ControlForm(c0=1.0), -1.0, 1.0, n=9)
             for _ in range(2)]
    cs = ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)
    alphas = edges[0].controls
    want = c0.average(0.0, 1.0) + 2.0 * alphas
    for got in (edges[0].lines(1.0, 0.0, 1.0)[0], edges[0].window_tables(1.0, [0.0, 1.0])[0][0]):
        assert np.max(np.abs(got - want)) <= 1e-14


def test_edge_lines_match_manual_window_average():
    cs = build_model_system(0.0)
    got = cs.edges[0].lines(cs.sign(0), 0.2, 0.7)[0]
    assert np.max(np.abs(got - cs.edges[0].controls)) <= 1e-14


def test_window_tables_are_bit_equal_to_the_per_window_averages():
    rng = np.random.default_rng(73)

    def coefficient():
        if rng.integers(2):
            return float(rng.uniform(-0.3, 0.3))
        bp = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 5)), [1.0]))
        return TimeSignal(bp, rng.uniform(-0.3, 0.3, 6))

    for _ in range(5):
        forms = [(ControlForm(coefficient(), rng.uniform(1.7, 2.0), coefficient()),
                  ControlForm(coefficient(), coefficient(), coefficient()))
                 for _ in range(2)]
        edges = [control_edge(f, l, -1.0, 1.0, n=int(rng.integers(9, 30)))
                 for f, l in forms]
        cs = ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 40)), [1.0]))
        for i in range(2):
            f_tab, l_tab = edges[i].window_tables(cs.sign(i), times)
            assert f_tab.shape == l_tab.shape == (len(times) - 1, len(edges[i].controls))
            for n, (a, b) in enumerate(zip(times[:-1], times[1:])):
                f_row, l_row = edges[i].lines(cs.sign(i), a, b)
                assert f_tab[n].tobytes() == f_row.tobytes()
                assert l_tab[n].tobytes() == l_row.tobytes()


def test_cost_and_speed_bounds_on_the_model_system():
    cs = build_model_system(1.0)
    assert cost_bound(cs) == pytest.approx(1.0)
    assert abar_bound(cs) == pytest.approx(2.0)
    assert cs.speed_signal(1.0).max() == pytest.approx(1.0)


def test_a_form_edge_bounds_its_speed_per_cell_of_its_signals():
    """f = c0(t) + c1(t) a on [-1, 1]: max|f| is 1, 1.5 and 2.5 on the cells of the union
    mesh {0, 0.3, 0.6, 1}; the induced Hamiltonian and the system report that signal."""
    f = ControlForm(c0=TimeSignal(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.5])),
                    c1=TimeSignal(np.array([0.0, 0.6, 1.0]), np.array([1.0, 2.0])))
    edge = control_edge(f, ControlForm(c2=0.5), -1.0, 1.0, n=21)
    signal = edge.speed_signal()
    assert signal.breakpoints.tolist() == [0.0, 0.3, 0.6, 1.0]
    assert signal.values.tolist() == [1.0, 1.5, 2.5]
    assert edge.speed_bound() == signal.max()
    cut = on_horizon(signal, 0.5)
    assert (cut.breakpoints.tolist(), cut.values.tolist()) == ([0.0, 0.3, 0.5], [1.0, 1.5])
    induced = edge_hamiltonian(edge).speed_bound(0.0)[0]
    assert (induced.breakpoints.tolist(), induced.values.tolist()) == ([0.0, 0.3, 0.6, 1.0],
                                                                       [1.0, 1.5, 2.5])
    cs = ControlSystem([edge, control_edge(ControlForm(c1=1.2), ControlForm(c0=1.0), -1.0, 1.0)],
                       l0=constant(0.0, 1.0), A0=-1.0, delta=0.5)
    both = cs.speed_signal(1.0)
    assert both.values.tolist() == [1.2, 1.5, 2.5]


def test_an_edge_without_speed_signals_keeps_its_float_bound():
    """A constant form, and a callable at t = 0 on the nodes, give speed_bound's float."""
    edge = control_edge(ControlForm(c0=0.1, c1=1.3, c2=-0.2), ControlForm(c0=1.0), -1.0, 1.0)
    assert type(edge.speed_signal()) is float
    assert edge.speed_signal() == edge.speed_bound() == edge_hamiltonian(edge).speed_bound(0.0)[0]
    drift = control_edge(lambda t, x, a: a * (1.0 + abs(x) + t), ControlForm(c0=1.0), -1.0, 1.0)
    xs = np.linspace(0.0, 0.5, 6)
    assert drift.speed_signal(xs) == drift.speed_bound(xs) == 1.5


def test_config_parser_builds_the_model_system():
    cs = control_system_from_config({
        "orientation": "line",
        "delta": 1.0,
        "junction": {"A0": -1.0, "l0": 0.0},
        "edges": [{"f": {"c1": 1.0}, "l": {"c0": 1.0},
                   "controls": {"min": -1.0, "max": 1.0, "n": 21}}] * 2,
    }, horizon=1.0)
    assert flux_limiter(cs).values.tolist() == [0.0]
    assert cs.speed_signal(1.0).max() == pytest.approx(1.0)


def test_config_parser_rejects_missing_blocks():
    with pytest.raises(ConfigError):
        control_system_from_config({"orientation": "line", "delta": 1.0,
                                    "junction": {"A0": -1.0, "l0": 0.0}}, horizon=1.0)
    with pytest.raises(ConfigError):
        control_system_from_config({"orientation": "line", "delta": 1.0,
                                    "edges": []}, horizon=1.0)


def _sloped_cost_edge(n: int):
    """f = a and l = 1 + 0.5 a for n controls a evenly spread over [-1, 1]."""
    return control_edge(ControlForm(c1=1.0), ControlForm(c0=1.0, c1=0.5), -1.0, 1.0, n=n)


@pytest.mark.parametrize("rows", [3, 4, 5])
def test_control_evaluators_broadcast_two_dimensional_slopes(rows):
    """A (rows, 6) slope array gives row by row the 1-D values, whatever rows is.

    Five controls, three of them on each side of the restricted envelopes, so
    rows covers both "as many as the controls" and "not".
    """
    cs = ControlSystem([_sloped_cost_edge(5) for _ in range(2)], l0=constant(0.0, 1.0),
                       A0=-1.0, delta=1.0)
    p = np.linspace(-2.0, 2.0, rows * 6).reshape(rows, 6)
    h = induced_hamiltonian(cs, 0)
    env = RestrictedEnvelopes(cs, 0)
    for fn in (lambda q: h.evaluator(0.0, 0.0, q), lambda q: env.h_plus(0.0, 0.0, q),
               lambda q: env.h_minus(0.0, 0.0, q)):
        got = fn(p)
        assert got.shape == p.shape
        for r in range(rows):
            assert got[r].tobytes() == fn(p[r]).tobytes()


def test_induced_evaluator_on_a_square_slope_array():
    """Three controls and a 3 x 3 slope array: max(-p - 0.5, -1, p - 1.5) entrywise."""
    h = edge_hamiltonian(_sloped_cost_edge(3))
    p = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.5, 2.0], [0.3, -0.7, 1.1]])
    want = np.maximum(np.maximum(-p - 0.5, -1.0), p - 1.5)
    assert h.evaluator(0.0, 0.0, p).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# dominated controls: the rule, its exactness and where it is applied

def _brute_undominated(speeds, costs) -> list:
    """The rule of undominated, one control at a time in O(K^2)."""
    keep = []
    for k, (vk, lk) in enumerate(zip(speeds, costs)):
        def beats(j):
            return (j != k and costs[j] <= lk
                    and ((speeds[j], costs[j]) != (vk, lk) or j < k))
        if vk == 0.0:
            keep.append(not any(speeds[j] == 0.0 and beats(j) for j in range(len(speeds))))
            continue
        side = [j for j in range(len(speeds)) if np.sign(speeds[j]) == np.sign(vk)]
        near = any(abs(speeds[j]) <= abs(vk) and beats(j) for j in side)
        far = any(abs(speeds[j]) >= abs(vk) and beats(j) for j in side)
        keep.append(not (near and far))
    return keep


def test_undominated_keeps_the_lower_front_of_each_sign_group():
    a = np.linspace(-1.0, 1.0, 21)
    assert np.flatnonzero(undominated(a, np.ones(21))).tolist() == [0, 9, 10, 11, 20]
    # a dearer control between two cheaper ones of its side goes ...
    assert undominated([0.25, 0.5, 1.0], [0.0, 1.0, 0.0]).tolist() == [True, False, True]
    assert undominated([-0.2, -0.6, -1.0], [1.0, 2.0, 1.0]).tolist() == [True, False, True]
    # ... but a cheaper control beyond zero is no near dominator
    assert undominated([-1.0, 0.5, 1.0], [0.0, 1.0, 0.0]).tolist() == [True, True, True]
    # identical (v, l) pairs keep the lowest index; zero speeds yield only to zero speeds
    assert undominated([0.5, 0.5, 0.5], [1.0, 1.0, 1.0]).tolist() == [True, False, False]
    assert undominated([0.0, 0.0, 0.5, 0.0], [2.0, 1.0, 0.0, 1.0]).tolist() == [
        False, True, True, False]
    assert undominated([], []).tolist() == []
    assert undominated([0.5, np.nan, 1.0], [1.0, 2.0, 1.0]).all()


def test_undominated_matches_the_rule_control_by_control():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 16))
        speeds = rng.choice([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0], n)
        costs = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], n)
        assert undominated(speeds, costs).tolist() == _brute_undominated(speeds, costs)


def _scalar_beaten(costs: np.ndarray, order: np.ndarray) -> np.ndarray:
    beaten = np.zeros(len(costs), dtype=bool)
    ranked = costs[order]
    beaten[order[1:]] = ranked[1:] >= np.minimum.accumulate(ranked)[:-1]
    return beaten


def _scalar_undominated(speeds, costs) -> np.ndarray:
    """undominated written for one column, sign group by sign group: the reference."""
    v = np.asarray(speeds, dtype=float)
    l = np.asarray(costs, dtype=float)
    keep = np.ones(v.shape, dtype=bool)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(l))):
        return keep
    zero = np.flatnonzero(v == 0.0)
    keep[zero] = ~_scalar_beaten(l[zero], np.lexsort((zero, l[zero])))
    for side in (np.flatnonzero(v > 0.0), np.flatnonzero(v < 0.0)):
        s, c = np.abs(v[side]), l[side]
        near = _scalar_beaten(c, np.lexsort((side, c, s)))
        far = _scalar_beaten(c, np.lexsort((side, c, -s)))
        keep[side] = ~(near & far)
    return keep


def _random_table(rng: np.random.Generator) -> tuple:
    """(speeds, costs), (controls, columns): ties, repeated and signed-zero speeds and costs,
    columns of one sign of speed and columns with a NaN or an infinite entry."""
    k, m = int(rng.choice([0, 1, 2, 3, 5, 8, 13])), int(rng.integers(1, 6))
    speeds = rng.choice([-1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0], (k, m))
    costs = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0], (k, m))
    if rng.random() < 0.3:
        speeds[rng.random((k, m)) < 0.5] += rng.normal(0.0, 1.0)
    for j in range(m):
        kind = rng.random()
        if kind < 0.3:
            speeds[:, j] = np.copysign(speeds[:, j], 1.0 if kind < 0.15 else -1.0)
        elif kind < 0.4 and k:
            (speeds if rng.random() < 0.5 else costs)[rng.integers(k), j] = rng.choice(
                [np.nan, np.inf, -np.inf])
    return speeds, costs


def test_table_undominated_equals_the_scalar_rule_column_by_column():
    """Bit for bit on 2,500 random tables, as a table, column by column and as 3-D tables."""
    rng = np.random.default_rng(131)
    seen = {"empty": 0, "one": 0, "non-finite": 0, "one-sign": 0, "pruned": 0}
    for _ in range(2500):
        speeds, costs = _random_table(rng)
        got = undominated(speeds, costs)
        assert got.shape == speeds.shape and got.dtype == bool
        for j in range(speeds.shape[1]):
            v, l = speeds[:, j], costs[:, j]
            want = _scalar_undominated(v, l)
            assert got[:, j].tolist() == undominated(v, l).tolist() == want.tolist()
            finite = np.all(np.isfinite(v) & np.isfinite(l))
            seen["non-finite"] += not finite
            seen["one-sign"] += finite and len(v) > 1 and not (np.any(v < 0) and np.any(v > 0))
            seen["pruned"] += not np.all(want)
        seen["empty"] += len(speeds) == 0
        seen["one"] += len(speeds) == 1
        if speeds.shape[1] % 2 == 0:
            cube = undominated(*(a.reshape(len(a), 2, a.shape[1] // 2) for a in (speeds, costs)))
            assert cube.reshape(got.shape).tolist() == got.tolist()
    assert min(seen.values()) > 50, seen


def _column_freeze_lines(speeds: np.ndarray, costs: np.ndarray) -> tuple:
    """_freeze_lines as it ran undominated, one column at a time: the reference."""
    cols = list(zip(*(np.reshape(a, (len(a), -1)).T for a in (speeds, costs))))
    keeps = [_scalar_undominated(f, l) for f, l in cols]
    p_hat = np.reshape([line_argmin(f[m], l[m]) for (f, l), m in zip(cols, keeps)],
                       speeds.shape[1:])
    keep = np.any(keeps, axis=0)
    return p_hat[()], speeds[keep], costs[keep]


def test_freeze_lines_equals_the_column_by_column_freeze_bit_for_bit():
    """p_hat, kept speeds and kept costs of random callable tables and random finite tables;
    a column of one sign of speed raises BracketFailure in both."""
    rng = np.random.default_rng(137)
    ys = np.linspace(0.0, 1.5, 13)
    one_sided = 0
    for n in range(400):
        if n % 2:
            t = float(rng.uniform(0.0, 1.0))
            table = np.broadcast_arrays(*_random_callable_edge(rng).lines(1.0, t, t, ys))
        else:
            table = _random_table(rng)
            if len(table[0]) == 0 or not np.all(np.isfinite(table)):
                continue
        try:
            want = _column_freeze_lines(*table)
        except BracketFailure:
            with pytest.raises(BracketFailure):
                _freeze_lines(*table)
            one_sided += 1
            continue
        got = _freeze_lines(*table)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    assert one_sided > 20


def _random_edge(rng: np.random.Generator) -> ControlEdge:
    """Duplicated controls, zero speeds, tied, concave and convex costs; maybe one-sided."""
    grid = np.linspace(-1.0, 1.0, int(rng.choice([3, 5, 9, 17])))
    if rng.random() < 0.2:
        grid = grid[grid >= 0.0] if rng.random() < 0.5 else grid[grid <= 0.0]
    f = ControlForm(c0=float(rng.choice([0.0, 0.0, 0.25, -0.5])),
                    c1=float(rng.choice([0.5, 1.0, 2.0, -1.0])),
                    c2=float(rng.choice([0.0, 0.5, -0.5])))
    l = ControlForm(c0=float(rng.choice([0.0, 1.0, -0.5])),
                    c1=float(rng.choice([0.0, 0.5, -0.25])),
                    c2=float(rng.choice([0.0, 1.0, -1.0, 0.5])))
    return ControlEdge(f, l, rng.choice(grid, int(rng.integers(1, 30))))


def test_pruned_induced_evaluator_equals_the_full_maximum(monkeypatch):
    """A frozen induced pair's H against max_k [f_k p - l_k] over every sampled control.

    The evaluator is that full maximum. The frozen pair evaluates only the
    undominated lines, and its split gives H back as where(p <= p_hat,
    h_minus, h_plus). The values agree bit for bit, except that a zero
    maximum may change its sign when some cost is exactly zero: only such a
    line can be -0.0, and np.max returns the last of tied zeros. Speeds of
    one sign leave H without a minimum, and the pair without a split.
    """
    rng = np.random.default_rng(83)
    special = np.array([0.0, -0.0, 1e300, -1e300, 1e-320, -1e-320,
                        0.5, -0.5, 1.0, -1.0, 4.0, -4.0])
    calls = record_line_max(monkeypatch)
    pruned = one_sided = 0
    for _ in range(400):
        edge = _random_edge(rng)
        h = edge_hamiltonian(edge)
        costs = edge.l.eval(0.0, edge.controls)
        for sign, hs in ((1.0, h), (-1.0, reflected(h))):
            speeds = sign * edge.f.eval(0.0, edge.controls)
            p = np.concatenate((special, rng.normal(0.0, 3.0, 16),
                                rng.choice(np.linspace(-4.0, 4.0, 33), 16)))
            want = np.max(np.multiply.outer(speeds, p) - costs[:, None], axis=0)
            assert hs.evaluator(0.0, 0.0, p).tobytes() == want.tobytes()
            if not (np.any(speeds < 0.0) and np.any(speeds > 0.0)):
                with pytest.raises(BracketFailure):
                    EnvelopePair(hs)
                one_sided += 1
                continue
            pair = EnvelopePair(hs)
            del calls[:]
            plus, minus = pair.split(0.0, 0.0, p)
            got = np.where(p <= pair.p_hat(0.0, 0.0), minus, plus)
            assert np.array_equal(got, want)
            if not np.any(costs == 0.0):
                assert got.tobytes() == want.tobytes()
            (kept, _, _), = calls
            pruned += len(speeds) - len(kept)
    assert pruned > 0 and one_sided > 0


def test_model_system_evaluator_reduces_over_five_lines(monkeypatch):
    """f = a, l = 1 on 21 controls: only a in {-1, -0.1, 0, 0.1, 1} can set H.

    A frozen pair of the induced Hamiltonian, its reflection and its rebuild
    evaluates those 5 lines, and splits at p_hat = 0 with h_min = -1.
    """
    h = induced_hamiltonian(build_model_system(0.0), 0)
    calls = record_line_max(monkeypatch)
    for hs, sign in ((h, 1.0), (reflected(h), -1.0),
                     (h.with_coefficients(h.coefficients), 1.0)):
        del calls[:]
        pair = EnvelopePair(hs)
        pair.split(0.0, 0.0, np.linspace(-2.0, 2.0, 9))
        assert len(calls) == 2  # h_min = H(p_hat), then the split
        for speeds, costs, _ in calls:
            assert np.allclose(sign * speeds, [-1.0, -0.1, 0.0, 0.1, 1.0], rtol=0.0, atol=1e-12)
            assert costs.tolist() == [1.0] * 5
        assert (pair.p_hat(0.0, 0.0), pair.h_min(0.0, 0.0)) == (0.0, -1.0)


def test_window_rebuilds_of_a_time_dependent_edge_are_pruned(monkeypatch):
    """Frozen at each window's averaged coefficients, one window or three as rows, 5 lines."""
    speed = TimeSignal(np.array([0.0, 0.4, 1.0]), np.array([1.0, 2.0]))
    edge = control_edge(ControlForm(c1=speed), ControlForm(c0=1.0), -1.0, 1.0, n=21)
    h = edge_hamiltonian(edge)
    assert not h.time_independent
    windows = ((0.0, 0.1), (0.3, 0.5), (0.6, 1.0))
    averages = [[coeff_average(h.coefficients[k], a, b) for k in h.form.names]
                for a, b in windows]
    calls = record_line_max(monkeypatch)
    for values in [*averages, [np.reshape(col, (-1, 1)) for col in zip(*averages)]]:
        del calls[:]
        EnvelopePair(h, values=tuple(values))
        (speeds, _, _), = calls
        assert len(speeds) == 5


def _brute_minimum(speeds, costs) -> tuple[float, float]:
    """(min, the middle of the argmin) of p -> max_k [v_k p - l_k], from the LP dual.

    The minimum is the best of every zero-speed line and every crossing of a
    line with v < 0 and one with v > 0; H stays below it on the interval
    where each line of either sign does.
    """
    v, l = np.asarray(speeds, dtype=float), np.asarray(costs, dtype=float)
    neg, pos = v < 0.0, v > 0.0
    vi, li = v[neg][:, None], l[neg][:, None]
    p = (l[pos] - li) / (v[pos] - vi)
    best = float(np.max(v[pos] * p - l[pos]))
    if np.any(v == 0.0):
        best = max(best, float(np.max(-l[v == 0.0])))
    lo, hi = np.max((best + l[neg]) / v[neg]), np.min((best + l[pos]) / v[pos])
    return best, 0.5 * (lo + hi)


def _random_lines(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Lines of both signs of speed: repeated speeds, tied costs, zero speeds, flat bottoms."""
    k = int(rng.integers(3, 40))
    if rng.random() < 0.5:
        speeds = rng.choice(np.linspace(-2.0, 2.0, 9), k)
        costs = rng.choice(np.linspace(-1.0, 2.0, 7), k)
    else:
        speeds, costs = rng.normal(0.0, 1.0, k), rng.normal(0.0, 1.0, k)
    speeds[:2] = -abs(speeds[0]) - 0.1, abs(speeds[1]) + 0.1
    if rng.random() < 0.3:  # a cheap zero-speed control sets a flat bottom
        speeds[2], costs[2] = 0.0, float(np.min(costs)) - rng.uniform(0.0, 1.0)
    return speeds, costs


def test_line_argmin_matches_a_brute_force_dual_over_every_sign_pair():
    rng = np.random.default_rng(97)
    flat = 0
    for _ in range(2000):
        speeds, costs = _random_lines(rng)
        p_hat = line_argmin(speeds, costs)
        best, middle = _brute_minimum(speeds, costs)
        h_min = float(np.max(speeds * p_hat - costs))
        assert abs(h_min - best) <= 1e-9 * max(1.0, abs(best))
        assert abs(p_hat - middle) <= 1e-9 * max(1.0, abs(middle))
        flat += bool(np.any(-costs[speeds == 0.0] > best - 1e-12))
    assert flat > 100
    for speeds in ([0.5, 1.0, 0.0], [-1.0, -0.5], [0.0, 0.0], [2.0]):
        with pytest.raises(BracketFailure):
            line_argmin(speeds, np.ones(len(speeds)))


def test_a_frozen_form_edge_minimises_each_row_of_its_columns():
    """(rows, 1) coefficient columns: row r splits at the minimiser of the lines at time r."""
    rng = np.random.default_rng(101)
    for _ in range(40):
        cs = random_control_system(rng, horizon=1.0)
        h = induced_hamiltonian(cs, 0)
        ts = np.sort(rng.uniform(0.0, 1.0, 6))
        cols = tuple(np.reshape(v, (-1, 1)) * np.ones((len(ts), 1))
                     for v in h.form.values_at(h.coefficients, ts))
        pair = EnvelopePair(h, values=cols)
        p_hat, h_min = pair.p_hat(0.0, 0.0), pair.h_min(0.0, 0.0)
        assert p_hat.shape == h_min.shape == (len(ts), 1)
        edge = cs.edges[0]
        for r, t in enumerate(ts):
            best, middle = _brute_minimum(edge.f.eval(t, edge.controls),
                                          edge.l.eval(t, edge.controls))
            assert abs(h_min[r, 0] - best) <= 1e-9 * max(1.0, abs(best))
            assert abs(p_hat[r, 0] - middle) <= 1e-9 * max(1.0, abs(middle))


def test_the_closed_form_minimum_agrees_with_numeric_argmin():
    """h_min within 1e-9 of the numeric search's, whose p_hat is a 1e-9-minimiser."""
    rng = np.random.default_rng(103)
    for _ in range(25):
        cs = random_control_system(rng, horizon=1.0, n_edges=int(rng.integers(2, 4)))
        for i in range(len(cs.edges)):
            h = induced_hamiltonian(cs, i)
            for t in rng.uniform(0.0, 1.0, 3):
                p_hat, h_min = argmin_p(h, float(t), 0.0)
                num_p, num_min = numeric_argmin(h, float(t), 0.0)
                assert abs(h_min - num_min) <= 1e-9
                assert h.evaluator(float(t), 0.0, num_p) <= h_min + 1e-9
                assert h.evaluator(float(t), 0.0, p_hat) == h_min


def _random_callable_edge(rng: np.random.Generator) -> ControlEdge:
    """f = a (1 + s m) + c m and l = d0 + d1 a + d2 a^2 (1 + m), m = min(|y|, 1), scalar-only in y.

    Coarse coefficients give cost ties, zero costs and flat bottoms; every
    node has speeds of both signs.
    """
    s, c = rng.choice([0.0, 0.25, 0.5]), rng.choice([-0.5, 0.0, 0.3])
    d = rng.choice([-0.5, 0.0, 0.5, 1.0], 3)

    def f(t, y, a):
        return a * (1.0 + s * min(abs(y), 1.0)) + c * min(abs(y), 1.0)

    def l(t, y, a):
        return d[0] + d[1] * a + d[2] * a * a * (1.0 + min(abs(y), 1.0))

    controls = np.concatenate((np.linspace(-1.0, 1.0, 17),
                               rng.choice(np.linspace(-1.0, 1.0, 9), rng.integers(0, 8))))
    return ControlEdge(f, l, controls)


def test_a_callable_edge_is_minimised_node_by_node_as_numeric_argmin_finds_it():
    """A window's table frozen at the nodes ys, node by node, against the numeric search.

    At every node h_min is within 1e-9 of the numeric minimum, whose p_hat
    is a 1e-9-minimiser, and p_hat is the middle of the argmin from the
    brute-force dual to 1e-9. argmin_p at a node is that node's column bit
    for bit: one minimiser for the march and for every other caller.
    """
    rng = np.random.default_rng(109)
    ys = np.linspace(0.0, 1.5, 7)
    for _ in range(30):
        edge = _random_callable_edge(rng)
        h = edge_hamiltonian(edge)
        pair = EnvelopePair(h, values=(*edge.lines(1.0, 0.0, 0.2, ys), ys))
        p_hat, h_min = pair.p_hat(0.0, ys), pair.h_min(0.0, ys)
        for j, y in enumerate(ys.tolist()):
            best, middle = _brute_minimum(*edge.lines(1.0, 0.1, 0.1, y))
            num_p, num_min = numeric_argmin(h, 0.1, y)
            assert abs(h_min[j] - num_min) <= 1e-9
            assert h.evaluator(0.1, y, num_p) <= h_min[j] + 1e-9
            assert abs(h_min[j] - best) <= 1e-9 * max(1.0, abs(best))
            assert abs(p_hat[j] - middle) <= 1e-9 * max(1.0, abs(middle))
            assert argmin_p(h, 0.1, y) == (p_hat[j], h_min[j])
