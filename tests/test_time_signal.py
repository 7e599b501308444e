from __future__ import annotations

import numpy as np
import pytest

from hjj import TimeSignal, constant, l1_distance, union_mesh
from hjj.errors import EmptyWindow, HorizonMismatch, OutOfHorizon


def _overlap_integral(breakpoints, values, a: float, b: float) -> float:
    """Plain-loop reference for the integral of a step function over [a, b]."""
    total = 0.0
    for k in range(len(values)):
        lo = max(a, breakpoints[k])
        hi = min(b, breakpoints[k + 1])
        if hi > lo:
            total += values[k] * (hi - lo)
    return total


def _random_signal(rng: np.random.Generator, horizon: float = 2.0) -> TimeSignal:
    m = int(rng.integers(1, 9))
    interior = np.sort(rng.uniform(0.05, horizon - 0.05, size=m - 1))
    bp = np.concatenate(([0.0], interior, [horizon]))
    return TimeSignal(bp, rng.uniform(-3.0, 3.0, size=m))


def _step() -> TimeSignal:
    return TimeSignal(np.array([0.0, 0.5, 1.0]), np.array([0.0, -1.0]))


def test_step_signal_pointwise_values():
    sig = TimeSignal(np.array([0.0, 1.0, 2.0]), np.array([2.0, 0.0]))
    assert sig(0.5) == 2.0
    assert sig(1.0) == 0.0  # right-continuous at the jump
    assert sig(2.0) == 0.0  # left-continuous at the horizon


def test_eval_outside_horizon_raises():
    sig = _step()
    with pytest.raises(OutOfHorizon):
        sig(1.5)
    with pytest.raises(OutOfHorizon):
        sig(-0.1)


def test_average_of_step_over_straddling_window():
    sig = TimeSignal(np.array([0.0, 1.0, 2.0]), np.array([2.0, 0.0]))
    assert sig.average(0.5, 1.5) == pytest.approx(1.0, abs=1e-15)
    assert sig.average(0.0, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert sig.average(1.25, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_average_of_constant_is_the_constant():
    sig = constant(3.7, 2.0)
    assert sig.average(0.3, 1.9) == pytest.approx(3.7, rel=1e-15)
    assert sig.integrate(0.3, 1.9) == pytest.approx(3.7 * 1.6, rel=1e-14)


def test_integrate_matches_plain_loop_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        sig = _random_signal(rng)
        a, b = np.sort(rng.uniform(0.0, 2.0, size=2))
        if b - a < 1e-6:
            continue
        want = _overlap_integral(sig.breakpoints, sig.values, a, b)
        assert sig.integrate(a, b) == pytest.approx(want, abs=1e-12)


def test_empty_and_out_of_range_windows_raise():
    sig = _step()
    with pytest.raises(EmptyWindow):
        sig.integrate(0.5, 0.5)
    with pytest.raises(EmptyWindow):
        sig.average(0.7, 0.6)
    with pytest.raises(OutOfHorizon):
        sig.integrate(0.5, 1.5)
    with pytest.raises(OutOfHorizon):
        sig.integrate(-0.5, 0.5)


def test_mollify_constant_is_a_fixed_point():
    sig = constant(1.3, 1.0)
    assert l1_distance(sig, sig.mollify(0.2)) <= 1e-15


def test_mollify_contracts_the_essential_range():
    rng = np.random.default_rng(7)
    for _ in range(20):
        sig = _random_signal(rng)
        mol = sig.mollify(0.3)
        assert mol.min() >= sig.min() - 1e-12
        assert mol.max() <= sig.max() + 1e-12


def test_mollify_step_error_ladder():
    """For a unit jump the L1 mollification error is about eps/2 and shrinks with eps."""
    sig = _step()
    errors = [l1_distance(sig, sig.mollify(eps)) for eps in (0.4, 0.2, 0.1, 0.05)]
    for eps, err in zip((0.4, 0.2, 0.1, 0.05), errors):
        assert err <= eps * 1.0 + 1e-12
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[2] == pytest.approx(0.05, abs=1e-12)


@pytest.mark.parametrize("eps", [0.0, -0.1, np.nan])
def test_mollify_refuses_a_width_that_is_not_positive(eps):
    with pytest.raises(ValueError, match="^mollification width: expected a positive number"):
        _step().mollify(eps)


def test_mollify_preserves_integral_away_from_ends():
    # box averaging is mass preserving up to the horizon truncation
    rng = np.random.default_rng(23)
    for _ in range(10):
        sig = _random_signal(rng)
        mol = sig.mollify(0.2)
        variation = float(np.sum(np.abs(np.diff(sig.values))))
        assert mol.integrate(0.3, 1.7) == pytest.approx(sig.integrate(0.3, 1.7), abs=0.2 * variation + 1e-12)


def test_l1_distance_examples():
    assert l1_distance(constant(2.0, 3.0), constant(-1.0, 3.0)) == pytest.approx(9.0, rel=1e-15)
    rect = TimeSignal(np.array([0.0, 0.5, 1.5, 2.0]), np.array([0.0, 1.0, 0.0]))
    assert l1_distance(rect, constant(0.0, 2.0)) == pytest.approx(1.0, rel=1e-15)
    assert l1_distance(rect, rect) == 0.0


def test_l1_distance_is_a_metric_on_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(25):
        s1, s2, s3 = (_random_signal(rng) for _ in range(3))
        d12 = l1_distance(s1, s2)
        d21 = l1_distance(s2, s1)
        assert d12 >= 0.0
        assert d12 == pytest.approx(d21, abs=1e-13)
        assert d12 <= l1_distance(s1, s3) + l1_distance(s3, s2) + 1e-12


def test_average_is_monotone_in_the_signal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        low = _random_signal(rng)
        bump = rng.uniform(0.0, 2.0, size=len(low.values))
        high = TimeSignal(low.breakpoints, low.values + bump)
        a, b = np.sort(rng.uniform(0.0, 2.0, size=2))
        if b - a < 1e-6:
            continue
        assert low.average(a, b) <= high.average(a, b) + 1e-12


def test_union_mesh_contains_every_breakpoint():
    rng = np.random.default_rng(9)
    sigs = [_random_signal(rng) for _ in range(3)]
    mesh = union_mesh(sigs)
    assert mesh[0] == 0.0 and mesh[-1] == 2.0
    assert np.all(np.diff(mesh) > 0)
    for sig in sigs:
        for b in sig.breakpoints:
            assert np.min(np.abs(mesh - b)) < 1e-12


def test_union_mesh_keeps_the_first_of_each_run_of_nearly_equal_breakpoints():
    """Shared, nearly shared (within 1e-12 T) and distinct breakpoints: the mesh is
    the sorted distinct breakpoints with each near-duplicate after the first dropped."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        base = np.sort(rng.uniform(0.05, 1.95, 4))
        sigs = [TimeSignal(np.concatenate(([0.0], np.sort(pick), [2.0])), np.ones(len(pick) + 1))
                for pick in (base[:3], base[1:] + rng.choice([0.0, 1e-13], 3), base[::2])]
        merged = np.unique(np.concatenate([sig.breakpoints for sig in sigs]))
        want = merged[np.concatenate(([True], np.diff(merged) > 2e-12))]
        assert np.array_equal(union_mesh(sigs), want)


def test_dict_round_trip_is_exact():
    sig = _random_signal(np.random.default_rng(2))
    back = TimeSignal.from_dict(sig.to_dict())
    assert np.array_equal(back.breakpoints, sig.breakpoints)
    assert np.array_equal(back.values, sig.values)


def test_horizon_mismatch_raises():
    with pytest.raises(HorizonMismatch):
        l1_distance(constant(1.0, 1.0), constant(1.0, 2.0))


def test_constructor_rejects_malformed_input():
    with pytest.raises(ValueError):
        TimeSignal(np.array([0.0, 2.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        TimeSignal(np.array([0.5, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        TimeSignal(np.array([0.0, 1.0]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("end", [np.inf, np.nan])
def test_constructor_rejects_breakpoints_that_are_not_finite(end):
    with pytest.raises(ValueError, match="^breakpoints must be finite"):
        TimeSignal(np.array([0.0, 0.5, end]), np.array([1.0, 2.0]))


def test_shift_values_applies_cellwise():
    sig = _step()
    shifted = sig.shift_values(lambda v: v + 2.0)
    assert np.array_equal(shifted.values, sig.values + 2.0)
    assert np.array_equal(shifted.breakpoints, sig.breakpoints)


def test_window_averages_equal_scalar_averages_bit_for_bit():
    rng = np.random.default_rng(61)
    for _ in range(40):
        sig = _random_signal(rng)
        T = sig.horizon
        # a uniform march grid, one that lands on every breakpoint, and one
        # whose last window ends exactly on the horizon
        uniform = np.linspace(0.0, T, int(rng.integers(2, 60)))
        on_breaks = np.unique(np.concatenate((uniform, sig.breakpoints)))
        ragged = np.concatenate((np.sort(rng.uniform(0.0, T, 20)), [T]))
        ragged[0] = 0.0
        for times in (uniform, on_breaks, np.unique(ragged)):
            got = sig.window_averages(times)
            want = np.array([sig.average(a, b) for a, b in zip(times[:-1], times[1:])])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_window_integrals_equal_scalar_integrals_bit_for_bit():
    rng = np.random.default_rng(67)
    for _ in range(40):
        sig = _random_signal(rng)
        T = sig.horizon
        uniform = np.linspace(0.0, T, int(rng.integers(2, 60)))
        on_breaks = np.unique(np.concatenate((uniform, sig.breakpoints)))
        for times in (uniform, on_breaks):
            got = sig.window_integrals(times)
            want = np.array([sig.integrate(a, b) for a, b in zip(times[:-1], times[1:])])
            assert got.tobytes() == want.tobytes()


def test_window_averages_reject_empty_and_out_of_range_windows():
    sig = _step()
    with pytest.raises(EmptyWindow):
        sig.window_averages(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(OutOfHorizon):
        sig.window_averages(np.array([0.0, 0.5, 1.5]))


def test_running_integrals_equal_scalar_integrals_bit_for_bit():
    rng = np.random.default_rng(71)
    for _ in range(40):
        sig = _random_signal(rng)
        T = sig.horizon
        uniform = np.linspace(0.0, T, int(rng.integers(2, 60)))
        on_breaks = np.unique(np.concatenate((uniform, sig.breakpoints)))
        ragged = np.unique(np.concatenate(([0.0], rng.uniform(0.0, T, 20), [T])))
        for times in (uniform, on_breaks, ragged):
            got = sig.running_integrals(times)
            want = np.array([sig.integrate(0.0, t) if t > 0 else 0.0 for t in times])
            assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        _step().running_integrals(np.array([0.1, 0.5]))


def test_pointwise_values_match_the_clamped_lookup_bit_for_bit():
    rng = np.random.default_rng(73)
    for _ in range(20):
        sig = _random_signal(rng)
        T = sig.horizon
        slack = 0.5e-12 * T
        ts = np.concatenate((rng.uniform(0.0, T, 30), sig.breakpoints, [-slack, T + slack]))
        for t in ts:
            c = min(max(t, 0.0), T)
            k = min(int(np.searchsorted(sig.breakpoints, c, side="right")) - 1,
                    sig.values.size - 1)
            assert sig(float(t)) == float(sig.values[k])
            assert sig(np.float64(t)) == float(sig.values[k])


def test_pointwise_values_reject_nan_and_out_of_horizon_times():
    sig = _step()
    for t in (float("nan"), -0.01, 1.01, float("inf"), -float("inf")):
        with pytest.raises(OutOfHorizon):
            sig(t)


def test_array_lookup_is_bit_equal_to_one_call_per_time():
    rng = np.random.default_rng(79)
    for _ in range(20):
        sig = _random_signal(rng)
        smooth = sig.mollify(0.3)
        mesh = union_mesh([sig, smooth])
        ts = np.concatenate(([0.0], sig.breakpoints, smooth.breakpoints,
                             0.5 * (mesh[:-1] + mesh[1:]), [sig.horizon]))
        for s in (sig, smooth):
            assert isinstance(s(float(ts[1])), float)
            assert s(ts).tobytes() == np.array([s(float(t)) for t in ts]).tobytes()


def test_array_lookup_rejects_a_time_outside_the_horizon():
    sig = _step()
    assert sig(np.array([-0.5e-12, 1.0 + 0.5e-12])).tolist() == [0.0, -1.0]
    for bad in ([0.5, 1.0 + 1e-9], [-1e-9, 0.5], [0.5, float("nan")]):
        with pytest.raises(OutOfHorizon):
            sig(np.array(bad))
