from __future__ import annotations

import numpy as np
import pytest

from hjj import (
    ControlEdge,
    ControlForm,
    ControlSystem,
    TimeSignal,
    constant,
    control_edge,
    control_system_from_config,
    edge_hamiltonian,
    envelopes,
    flux_limiter,
    induced_hamiltonian,
    reflected,
    restricted_envelopes,
)
from hjj.control_system import undominated
from hjj.errors import ConfigError, NoAdmissibleControl

from conftest import build_model_system


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
    r = restricted_envelopes(cs, 0)
    assert r.h_minus(0.0, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-12)
    assert r.h_plus(0.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert r.h_minus(0.0, 0.0, -2.0) == pytest.approx(1.0, abs=1e-12)
    assert r.h_plus(0.0, 0.0, -2.0) == pytest.approx(-1.0, abs=1e-12)


def test_restricted_envelopes_track_minimization_envelopes():
    rng = np.random.default_rng(43)
    for _ in range(10):
        cs, _ = _affine_system(rng, n=10_001)
        rest = restricted_envelopes(cs, 0)
        env = envelopes(induced_hamiltonian(cs, 0))
        ps = np.sort(rng.uniform(-2.0, 2.0, size=20))
        for p in ps:
            assert abs(rest.h_plus(0.0, 0.0, p) - env.h_plus(0.0, 0.0, p)) <= 1e-3
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


def test_restricted_envelope_raises_without_admissible_side():
    # off the junction every sampled speed is positive, so the nonpositive
    # restriction has nothing to optimise over
    drift = lambda t, y, a: a + 3.0 * min(y, 1.0)
    edges = [ControlEdge(drift, ControlForm(c0=1.0), np.linspace(-1.0, 1.0, 21)),
             control_edge(ControlForm(c1=1.0), ControlForm(c0=1.0), -1.0, 1.0, n=21)]
    cs = ControlSystem(edges, l0=constant(0.0, 1.0), A0=-1.0, delta=1.0)
    with pytest.raises(NoAdmissibleControl):
        restricted_envelopes(cs, 0).h_minus(0.0, 1.0, 1.0)


def test_form_averaging_is_exact_for_time_signal_coefficients():
    c0 = TimeSignal(np.array([0.0, 0.25, 1.0]), np.array([1.0, -1.0]))
    form = ControlForm(c0=c0, c1=1.0)
    alphas = np.array([-1.0, 0.0, 1.0])
    got = form.averaged(0.0, 1.0).eval(0.0, alphas)
    want = c0.average(0.0, 1.0) + alphas
    assert np.max(np.abs(got - want)) <= 1e-14


def test_local_f_avg_matches_manual_window_average():
    cs = build_model_system(0.0)
    got = cs.local_f_avg(0, 0.2, 0.7)
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
            f_tab, l_tab = cs.local_window_tables(i, times)
            assert f_tab.shape == l_tab.shape == (len(times) - 1, len(edges[i].controls))
            for n, (a, b) in enumerate(zip(times[:-1], times[1:])):
                assert f_tab[n].tobytes() == cs.local_f_avg(i, a, b).tobytes()
                assert l_tab[n].tobytes() == cs.local_l_avg(i, a, b).tobytes()


def test_cost_and_speed_bounds_on_the_model_system():
    cs = build_model_system(1.0)
    assert cs.cost_bound() == pytest.approx(1.0)
    assert cs.abar_bound() == pytest.approx(2.0)
    assert cs.max_speed() == pytest.approx(1.0)


def test_config_parser_builds_the_model_system():
    cs = control_system_from_config({
        "orientation": "line",
        "delta": 1.0,
        "junction": {"A0": -1.0, "l0": 0.0},
        "edges": [{"f": {"c1": 1.0}, "l": {"c0": 1.0},
                   "controls": {"min": -1.0, "max": 1.0, "n": 21}}] * 2,
    }, horizon=1.0)
    assert flux_limiter(cs).values.tolist() == [0.0]
    assert cs.max_speed() == pytest.approx(1.0)


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
    env = restricted_envelopes(cs, 0)
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


def test_pruned_induced_evaluator_equals_the_full_maximum():
    """The evaluator against max_k [f_k p - l_k] over every sampled control.

    The values agree bit for bit, except that a zero maximum may change its
    sign when some cost is exactly zero: only such a line can be -0.0, and
    np.max returns the last of tied zeros.
    """
    rng = np.random.default_rng(83)
    special = np.array([0.0, -0.0, 1e300, -1e300, 1e-320, -1e-320,
                        0.5, -0.5, 1.0, -1.0, 4.0, -4.0])
    pruned = 0
    for _ in range(400):
        edge = _random_edge(rng)
        h = edge_hamiltonian(edge)
        costs = edge.l.eval(0.0, edge.controls)
        for sign, hs in ((1.0, h), (-1.0, reflected(h))):
            speeds = sign * edge.f.eval(0.0, edge.controls)
            p = np.concatenate((special, rng.normal(0.0, 3.0, 16),
                                rng.choice(np.linspace(-4.0, 4.0, 33), 16)))
            want = np.max(np.multiply.outer(speeds, p) - costs[:, None], axis=0)
            got = hs.evaluator(0.0, 0.0, p)
            assert np.array_equal(got, want)
            if not np.any(costs == 0.0):
                assert got.tobytes() == want.tobytes()
            pruned += len(speeds) - len(_lines(hs)[0])
    assert pruned > 0


def _lines(h):
    """The (speeds, costs) lines that an induced evaluator takes the maximum of."""
    cells = dict(zip(h.evaluator.__code__.co_freevars, h.evaluator.__closure__))
    return cells["fixed"].cell_contents


def test_model_system_evaluator_reduces_over_five_lines():
    """f = a, l = 1 on 21 controls: only a in {-1, -0.1, 0, 0.1, 1} can set H."""
    h = induced_hamiltonian(build_model_system(0.0), 0)
    for hs, sign in ((h, 1.0), (reflected(h), -1.0),
                     (h.with_coefficients(h.coefficients), 1.0)):
        speeds, costs = _lines(hs)
        assert np.allclose(sign * speeds, [-1.0, -0.1, 0.0, 0.1, 1.0], rtol=0.0, atol=1e-12)
        assert costs.tolist() == [1.0] * 5


def test_window_rebuilds_of_a_time_dependent_edge_are_pruned():
    speed = TimeSignal(np.array([0.0, 0.4, 1.0]), np.array([1.0, 2.0]))
    edge = control_edge(ControlForm(c1=speed), ControlForm(c0=1.0), -1.0, 1.0, n=21)
    h = edge_hamiltonian(edge)
    assert not h.time_independent
    for a, b in ((0.0, 0.1), (0.3, 0.5), (0.6, 1.0)):
        assert len(_lines(h.frozen(a, b))[0]) == 5
