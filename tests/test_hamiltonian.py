from __future__ import annotations

import math

import numpy as np
import pytest

from hjj import (
    Hamiltonian,
    TimeSignal,
    abs_shift,
    argmin_p,
    check_convexity,
    eikonal,
    quadratic,
    reflected,
)
from hjj.hamiltonian import CATALOG, ClosedForm, EnvelopePair, numeric_argmin
from hjj.errors import BracketFailure, ConfigError, ConvexityError, NonSeparableTimeDependence

from conftest import frozen


def _grid_argmin(h: Hamiltonian, span: float = 12.0, n: int = 200_001) -> tuple[float, float]:
    """Brute-force reference minimiser over a dense slope grid."""
    ps = np.linspace(-span, span, n)
    vals = h.eval_p(0.0, 0.0, ps)
    k = int(np.argmin(vals))
    return float(ps[k]), float(vals[k])


def _formula_envelopes(h: Hamiltonian, p_hat: float, h_min: float, ps: np.ndarray):
    """Textbook split of H into nondecreasing / nonincreasing parts at p_hat."""
    vals = h.eval_p(0.0, 0.0, ps)
    plus = np.where(ps <= p_hat, h_min, vals)
    minus = np.where(ps <= p_hat, vals, h_min)
    return plus, minus


def _flat_bottom() -> Hamiltonian:
    return Hamiltonian(lambda t, x, p: np.maximum(np.abs(p) - 1.0, 0.0),
                       lipschitz_p=1.0, coercivity_radius=2.0, x_independent=True)


def test_argmin_of_centered_parabola():
    p_hat, h_min = argmin_p(quadratic(1.0, 0.0, 0.0), 0.0, 0.0)
    assert p_hat == pytest.approx(0.0, abs=1e-9)
    assert h_min == pytest.approx(0.0, abs=1e-12)


def test_argmin_of_shifted_parabola():
    p_hat, h_min = argmin_p(quadratic(1.0, 2.0, 3.0), 0.0, 0.0)
    assert p_hat == pytest.approx(2.0, abs=1e-9)
    assert h_min == pytest.approx(3.0, abs=1e-12)


def test_argmin_of_eikonal():
    p_hat, h_min = argmin_p(eikonal(), 0.0, 0.0)
    assert p_hat == pytest.approx(0.0, abs=1e-9)
    assert h_min == pytest.approx(-1.0, abs=1e-12)


def test_argmin_matches_grid_search_on_random_quadratics():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-3.0, 3.0)
        c = rng.uniform(-5.0, 5.0)
        h = quadratic(a, b, c)
        p_hat, h_min = argmin_p(h, 0.0, 0.0)
        ref_p, ref_v = _grid_argmin(h)
        assert p_hat == pytest.approx(b, abs=1e-8)
        assert abs(p_hat - ref_p) <= 2e-4  # grid resolution dominates here
        assert h_min <= ref_v + 1e-12


def test_flat_bottom_minimum_value_is_exact():
    h = _flat_bottom()
    p_hat, h_min = argmin_p(h, 0.0, 0.0)
    assert h_min == 0.0
    assert -1.0 - 1e-9 <= p_hat <= 1.0 + 1e-9


def test_envelope_values_for_eikonal():
    env = EnvelopePair(eikonal())
    assert env.split(0.0, 0.0, 1.0)[0] == pytest.approx(0.0, abs=1e-12)
    assert env.h_minus(0.0, 0.0, 1.0) == pytest.approx(-1.0, abs=1e-12)
    assert env.split(0.0, 0.0, -1.0)[0] == pytest.approx(-1.0, abs=1e-12)
    assert env.h_minus(0.0, 0.0, -1.0) == pytest.approx(0.0, abs=1e-12)


def test_envelopes_reconstruct_the_hamiltonian():
    rng = np.random.default_rng(29)
    hams = [eikonal(), quadratic(2.0, -1.0, 0.5), _flat_bottom()]
    for h in hams:
        env = EnvelopePair(h)
        ps = np.sort(rng.uniform(-6.0, 6.0, size=200))
        plus = env.split(0.0, 0.0, ps)[0]
        minus = env.h_minus(0.0, 0.0, ps)
        assert np.max(np.abs(np.maximum(plus, minus) - h.eval_p(0.0, 0.0, ps))) <= 1e-12


def test_envelope_monotonicity():
    rng = np.random.default_rng(31)
    for h in (eikonal(), quadratic(0.7, 1.2, -2.0), _flat_bottom()):
        env = EnvelopePair(h)
        ps = np.sort(rng.uniform(-8.0, 8.0, size=300))
        plus = env.split(0.0, 0.0, ps)[0]
        minus = env.h_minus(0.0, 0.0, ps)
        assert np.min(np.diff(plus)) >= -1e-10
        assert np.max(np.diff(minus)) <= 1e-10


def test_flat_bottom_envelopes_do_not_depend_on_split_choice():
    """Any minimiser inside the flat set yields the same envelope values."""
    h = _flat_bottom()
    env = EnvelopePair(h)
    ps = np.linspace(-3.0, 3.0, 121)
    got_plus = env.split(0.0, 0.0, ps)[0]
    got_minus = env.h_minus(0.0, 0.0, ps)
    for p_hat in (-1.0, -0.3, 0.0, 0.64, 1.0):
        want_plus, want_minus = _formula_envelopes(h, p_hat, 0.0, ps)
        assert np.max(np.abs(got_plus - want_plus)) <= 1e-9
        assert np.max(np.abs(got_minus - want_minus)) <= 1e-9


def _a0_floor(hamiltonians, t: float) -> float:
    """max_i min_p H_i(t, 0, p), the junction floor that check_floor reads."""
    return max(argmin_p(h, t, 0.0)[1] for h in hamiltonians)


def test_a0_floor_examples():
    assert _a0_floor([eikonal(), eikonal()], 0.0) == pytest.approx(-1.0, abs=1e-12)
    assert _a0_floor([quadratic(1.0, 0.0, 3.0)], 0.0) == pytest.approx(3.0, abs=1e-12)
    plain_abs = Hamiltonian(lambda t, x, p: np.abs(p), lipschitz_p=1.0,
                            coercivity_radius=1.0, x_independent=True)
    assert _a0_floor([plain_abs], 0.0) == pytest.approx(0.0, abs=1e-9)
    assert _a0_floor([eikonal(), quadratic(2.0, 1.0, -4.0)], 0.0) == pytest.approx(-1.0, abs=1e-12)


def test_convexity_check_rejects_concave_evaluator():
    with pytest.raises(ConvexityError):
        Hamiltonian(lambda t, x, p: -np.asarray(p) ** 2, lipschitz_p=20.0,
                    coercivity_radius=1.0, x_independent=True)
    h = Hamiltonian(lambda t, x, p: -np.asarray(p) ** 2, lipschitz_p=20.0,
                    coercivity_radius=1.0, x_independent=True, validate=False)
    with pytest.raises(ConvexityError):
        check_convexity(h, n_checks=500, seed=4)


def test_bracket_failure_on_non_coercive_evaluator():
    h = Hamiltonian(lambda t, x, p: np.asarray(p) * 1.0, lipschitz_p=1.0,
                    coercivity_radius=1.0, x_independent=True, validate=False)
    with pytest.raises(BracketFailure):
        argmin_p(h, 0.0, 0.0)


def test_eval_p_falls_back_to_scalar_evaluation():
    def scalar_only(t: float, x: float, p: float) -> float:
        return math.sqrt(p * p + 1.0)

    h = Hamiltonian(scalar_only, lipschitz_p=1.0, coercivity_radius=1.0,
                    x_independent=True)
    ps = np.array([-2.0, 0.0, 1.5])
    got = h.eval_p(0.0, 0.0, ps)
    want = np.array([math.sqrt(5.0), 1.0, math.sqrt(3.25)])
    assert np.max(np.abs(got - want)) <= 1e-15


def test_frozen_averages_time_signal_coefficients():
    shift = TimeSignal(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0]))
    h = abs_shift(shift)
    assert not h.time_independent
    assert h.eval_p(0.75, 0.0, np.array([2.0]))[0] == pytest.approx(3.0, abs=1e-15)
    averaged = frozen(h, 0.0, 1.0)
    assert averaged.time_independent
    assert averaged.eval_p(0.0, 0.0, np.array([2.0]))[0] == pytest.approx(2.5, abs=1e-15)
    assert averaged.eval_p(0.9, 0.0, np.array([-1.0]))[0] == pytest.approx(1.5, abs=1e-15)


def test_frozen_rejects_black_box_time_dependence():
    h = Hamiltonian(lambda t, x, p: np.abs(p) + t, lipschitz_p=1.0,
                    coercivity_radius=2.0, time_data={"kind": "blackbox"},
                    x_independent=True, validate=False)
    with pytest.raises(NonSeparableTimeDependence):
        frozen(h, 0.0, 0.5)


def test_reflected_quadratic_negates_the_drift():
    h = quadratic(2.0, 1.0, -3.0)
    r = reflected(h)
    assert r.coefficients["b"] == pytest.approx(-1.0)
    ps = np.array([-2.0, 0.5, 3.0])
    assert np.max(np.abs(r.eval_p(0.0, 0.0, ps) - h.eval_p(0.0, 0.0, -ps))) <= 1e-15


def test_reflected_generic_wrapper_and_involution():
    def skewed(t: float, x: float, p: float) -> float:
        return abs(p - 1.0)

    h = Hamiltonian(skewed, lipschitz_p=1.0, coercivity_radius=3.0, x_independent=True)
    r = reflected(h)
    ps = np.linspace(-4.0, 4.0, 33)
    assert np.max(np.abs(r.eval_p(0.0, 0.0, ps) - h.eval_p(0.0, 0.0, -ps))) <= 1e-15
    rr = reflected(r)
    assert np.max(np.abs(rr.eval_p(0.0, 0.0, ps) - h.eval_p(0.0, 0.0, ps))) <= 1e-15
    assert np.max(np.abs(reflected(eikonal()).eval_p(0.0, 0.0, ps)
                         - eikonal().eval_p(0.0, 0.0, ps))) <= 1e-15
    assert r.coercivity_radius == rr.coercivity_radius == h.coercivity_radius == 3.0
    assert numeric_argmin(r, 0.0, 0.0) == pytest.approx((-1.0, 0.0), abs=1e-9)


def test_reflected_black_box_keeps_its_declared_bounds_at_the_mirrored_nodes():
    """H = (1 + max(x, 0)) |p| - 1 declares both bounds from its largest node x.

    Its reflection sees edge-local nodes y >= 0 at x = -y <= 0, so both bounds
    read the original's nodes -ys and find x <= 0.
    """
    def reach(ys):
        return 1.0 + max(float(np.max(ys)), 0.0)

    h = Hamiltonian(lambda t, x, p: (1.0 + np.maximum(x, 0.0)) * np.abs(p) - 1.0,
                    lipschitz_p=np.inf, validate=False,
                    speed_bound=lambda M, ys: (reach(ys), "declared reach"),
                    value_bound=lambda L, ys: 1.0 + reach(ys) * L)
    ys = np.linspace(0.0, 2.0, 5)
    assert (h.speed_bound(5.0, ys), h.value_bound(2.0, ys)) == ((3.0, "declared reach"), 7.0)
    r = reflected(h)
    assert (r.speed_bound(5.0, ys), r.value_bound(2.0, ys)) == ((1.0, "declared reach"), 3.0)


def test_envelope_evaluations_are_reproducible():
    env = EnvelopePair(quadratic(1.5, 0.3, 0.0))
    ps = np.linspace(-5.0, 5.0, 47)
    first = env.split(0.0, 0.0, ps)[0].copy()
    again = env.split(0.0, 0.0, ps)[0]
    assert np.array_equal(first, again)


def _random_step_signal(rng: np.random.Generator, lo: float, hi: float) -> TimeSignal:
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, 3)), [1.0]))
    return TimeSignal(bp, rng.uniform(lo, hi, 4))


def test_closed_form_argmin_agrees_with_the_numeric_path():
    rng = np.random.default_rng(71)
    for _ in range(200):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-3.0, 3.0)
        c = rng.uniform(-5.0, 5.0)
        hams = [quadratic(a, b, c), abs_shift(c),
                quadratic(_random_step_signal(rng, 0.1, 5.0),
                          _random_step_signal(rng, -3.0, 3.0),
                          _random_step_signal(rng, -5.0, 5.0)),
                abs_shift(_random_step_signal(rng, -5.0, 5.0))]
        t = float(rng.uniform(0.0, 1.0))
        for h in hams:
            p_hat, h_min = argmin_p(h, t, 0.0)
            ref_p, ref_min = numeric_argmin(h, t, 0.0)
            assert abs(p_hat - ref_p) <= 1e-9
            assert abs(h_min - ref_min) <= 1e-9


def test_closed_form_envelopes_agree_with_the_numeric_split():
    rng = np.random.default_rng(73)
    ps = np.linspace(-8.0, 8.0, 161)
    for _ in range(100):
        h = quadratic(rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        for g in (h, abs_shift(rng.uniform(-5.0, 5.0))):
            env = EnvelopePair(g)
            p_hat, h_min = numeric_argmin(g, 0.0, 0.0)
            want_plus, want_minus = _formula_envelopes(g, p_hat, h_min, ps)
            assert np.max(np.abs(env.split(0.0, 0.0, ps)[0] - want_plus)) <= 1e-9
            assert np.max(np.abs(env.h_minus(0.0, 0.0, ps) - want_minus)) <= 1e-9


def test_catalog_constructors_skip_the_convexity_probe(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("probe ran")

    monkeypatch.setattr("hjj.hamiltonian.check_convexity", refuse)
    quadratic(1.0, 0.5, -1.0)
    abs_shift(0.3)
    eikonal()
    with pytest.raises(ConfigError, match="^quadratic a: expected a positive finite number"):
        quadratic(0.0, 0.0, 0.0)


@pytest.mark.parametrize("p_span", [-1.0, 0.0, math.inf, math.nan])
def test_quadratic_refuses_a_p_span_that_is_not_positive_and_finite(p_span):
    with pytest.raises(ConfigError, match="^p_span: expected a positive finite number"):
        quadratic(1.0, 0.0, -1.0, p_span=p_span)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0, 0.0],
                         ids=["nan", "inf", "negative", "zero"])
@pytest.mark.parametrize("validate", [True, False])
def test_hamiltonian_refuses_a_coercivity_radius_that_is_not_positive_and_finite(radius,
                                                                                validate):
    with pytest.raises(ConfigError, match="^coercivity_radius: expected a positive finite"):
        Hamiltonian(lambda t, x, p: np.abs(p) - 1.0, lipschitz_p=1.0,
                    coercivity_radius=radius, validate=validate)


@pytest.mark.parametrize("a", [
    0.0, -1.0, math.nan, math.inf,
    TimeSignal(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0])),
], ids=["zero", "negative", "nan", "inf", "signal"])
def test_quadratic_refuses_an_a_that_is_not_positive_and_finite(a):
    with pytest.raises(ConfigError, match="^quadratic a: expected a positive finite number"):
        quadratic(a, 0.0, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_quadratic_and_abs_shift_refuse_a_b_or_c_that_is_not_finite(bad):
    """Each refusal names the coefficient; a TimeSignal b or c is built as before."""
    for build, name in ((lambda: quadratic(1.0, bad, 0.0), "quadratic b"),
                        (lambda: quadratic(1.0, 0.0, bad), "quadratic c"),
                        (lambda: abs_shift(bad), "abs_shift c")):
        with pytest.raises(ConfigError) as err:
            build()
        assert str(err.value) == f"{name}: expected a finite number, got {bad!r}"
    step = TimeSignal(np.array([0.0, 0.5, 1.0]), np.array([-1.0, 2.0]))
    assert quadratic(1.0, step, step).coefficients["b"] is step
    assert abs_shift(step).coefficients["c"] is step


def _clip_split(form: ClosedForm, values: tuple, p: np.ndarray) -> tuple:
    """The catalog split as form.h(max(p, p_hat)), form.h(min(p, p_hat)): the reference."""
    p_hat = form.freeze(*values)[0]
    return form.h(np.maximum(p, p_hat), *values), form.h(np.minimum(p, p_hat), *values)


def _assert_same_bytes(got, want) -> None:
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_a_frozen_catalog_split_equals_the_clip_formula_byte_for_byte():
    """Floats and (rows, 1) columns, c = -0.0, and slopes equal to p_hat or -0.0."""
    rng = np.random.default_rng(83)
    rows = 3

    def column(lo, hi, zero=False):
        col = rng.uniform(lo, hi, (rows, 1))
        if zero:
            col[rng.integers(rows)] = -0.0
        return col

    for _ in range(200):
        a, b, c = rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)
        cases = [
            ("quadratic", (a, b, c)),
            ("quadratic", (a, b, -0.0)),
            ("quadratic", (column(0.1, 5.0), column(-3.0, 3.0), column(-5.0, 5.0, zero=True))),
            ("abs_shift", (c,)),
            ("abs_shift", (-0.0,)),
            ("abs_shift", (column(-5.0, 5.0, zero=True),)),
        ]
        for name, values in cases:
            form = CATALOG[name]
            h = quadratic(1.0, 0.0, 0.0) if name == "quadratic" else abs_shift(0.0)
            pair = EnvelopePair(h, values=values)
            p = rng.uniform(-8.0, 8.0, (rows, 40))
            p[:, ::4] = form.freeze(*values)[0]
            p[:, 1::8] = -0.0
            want = _clip_split(form, values, p)
            _assert_same_bytes(pair.split(0.0, 0.0, p), want)
            _assert_same_bytes((pair.split(0.7, 1.0, p)[0], pair.h_minus(0.7, 1.0, p)), want)
            _assert_same_bytes((pair.h_min(0.0, 0.0),), (form.h(form.freeze(*values)[0], *values),))


def test_a_lazy_catalog_pair_is_the_pair_frozen_at_t(monkeypatch):
    """EnvelopePair(h) of a time-dependent quadratic splits as the pair frozen at t."""
    rng = np.random.default_rng(89)
    form = CATALOG["quadratic"]
    lookups = []
    values_at = ClosedForm.values_at
    monkeypatch.setattr(ClosedForm, "values_at",
                        lambda self, coeffs, t: lookups.append(t) or values_at(self, coeffs, t))
    for k in range(100):
        c = -0.0 if k % 4 == 0 else _random_step_signal(rng, -5.0, 5.0)
        h = quadratic(_random_step_signal(rng, 0.1, 5.0), _random_step_signal(rng, -3.0, 3.0), c)
        t = float(rng.uniform(0.0, 1.0))
        values = values_at(form, h.coefficients, t)
        frozen = EnvelopePair(h, values=values)
        p = np.append(rng.uniform(-8.0, 8.0, 40), [values[1], -0.0])
        env = EnvelopePair(h)
        lookups.clear()
        got = (env.split(t, 0.3, p)[0], env.h_minus(t, 0.3, p))
        assert lookups == [t, t]  # once per call
        _assert_same_bytes(got, frozen.split(t, 0.3, p))
        _assert_same_bytes(got, _clip_split(form, values, p))
        assert env.p_hat(t, 0.0) == frozen.p_hat(0.0, 0.0)
        _assert_same_bytes((env.h_min(t, 0.0),), (frozen.h_min(0.0, 0.0),))


def _random_black_box(rng: np.random.Generator, on_x: bool, on_t: bool) -> Hamiltonian:
    """a (p - b)^2 + c |p| + d with a, b and d moving in x, in t, or in both."""
    a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    c, d = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0)
    kx, kt = rng.uniform(0.5, 3.0, 2)

    def evaluator(t, x, p):
        s = (kx * np.asarray(x, dtype=float) if on_x else 0.0) + (kt * t if on_t else 0.0)
        p = np.asarray(p, dtype=float)
        return a * (1.0 + 0.5 * np.sin(s) ** 2) * (p - b * np.cos(s)) ** 2 + c * np.abs(p) + d * s

    time_data = {"t": TimeSignal(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0]))} if on_t else {}
    return Hamiltonian(evaluator, lipschitz_p=10.0, coercivity_radius=2.0, time_data=time_data,
                       x_independent=not on_x, validate=False)


@pytest.mark.parametrize("on_x, on_t", [(True, False), (False, True), (True, True)],
                         ids=["x", "t", "x-and-t"])
def test_a_black_box_freezes_at_each_node_as_numeric_argmin_finds_it(on_x, on_t):
    """h.freeze(h.values_at(t, ys)) and argmin_p give numeric_argmin's pair bit for bit.

    The frozen box looks every node of ys up, one float or the whole array,
    and evaluates H at the queried (t, x).
    """
    rng = np.random.default_rng(113)
    ys = np.linspace(0.0, 1.5, 7)
    p = np.linspace(-3.0, 3.0, 13)
    for _ in range(10):
        h = _random_black_box(rng, on_x, on_t)
        t = float(rng.uniform(0.0, 1.0))
        at = h.freeze(h.values_at(t, ys))
        want = [numeric_argmin(h, t, y) for y in ys.tolist()]
        for y, (p_hat, h_min) in zip(ys.tolist(), want):
            got_p, got_min, H = at(t, y)
            assert (float(got_p), float(got_min)) == (p_hat, h_min)
            assert argmin_p(h, t, y) == (p_hat, h_min)
            assert H(p).tobytes() == h.eval_p(t, y, p).tobytes()
        if on_x:
            got_p, got_min, H = at(t, ys)
            assert got_p.tolist() == [w[0] for w in want]
            assert got_min.tolist() == [w[1] for w in want]
            grid_p = np.broadcast_to(p[:, None], (len(p), len(ys)))
            assert H(grid_p).tobytes() == h.eval_p(t, ys, grid_p).tobytes()


def test_a_black_box_that_ignores_t_and_x_is_searched_once(monkeypatch):
    """EnvelopePair(h) freezes such a box once, at values_at(0, 0); its reads search nothing."""
    calls = []
    monkeypatch.setattr("hjj.hamiltonian.numeric_argmin",
                        lambda h, t, x: calls.append((t, x)) or numeric_argmin(h, t, x))
    h = _flat_bottom()
    assert h.values_at(0.7, 0.3)[0] == 0.0 and h.values_at(0.7, 0.3)[1].tolist() == [0.0]
    env = EnvelopePair(h)
    assert calls == [(0.0, 0.0)]
    ps = np.linspace(-3.0, 3.0, 25)
    env.split(0.4, 0.0, ps)
    env.split(0.9, 0.0, ps)
    assert (env.p_hat(0.2, 0.0), env.h_min(0.2, 0.0)) == numeric_argmin(h, 0.0, 0.0)
    assert len(calls) == 1
