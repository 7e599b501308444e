from __future__ import annotations

import numpy as np
import pytest

from hjj import (
    Edge,
    JunctionProblem,
    TimeSignal,
    constant,
    eikonal,
    envelopes,
    from_line,
    grid_for,
    induced_problem,
    junction_hamiltonian,
    problem_from_config,
    quadratic,
    validate,
)
from hjj.errors import ConfigError, FluxLimiterBelowFloor

from conftest import build_model_system, zero_datum


def _line_eikonal(a_value: float, horizon: float = 1.0) -> JunctionProblem:
    return from_line(eikonal(), eikonal(), constant(a_value, horizon),
                     zero_datum, 0.0, horizon)


def _star(n_edges: int, a_value: float, horizon: float = 1.0) -> JunctionProblem:
    return JunctionProblem(
        edges=[Edge(eikonal()) for _ in range(n_edges)],
        flux_limiter=constant(a_value, horizon),
        initial_data=[zero_datum] * n_edges,
        lipschitz_u0=0.0,
        horizon=horizon,
    )


def test_junction_value_examples():
    prob = _line_eikonal(-1.0)
    assert junction_hamiltonian(prob, 0.2, (0.0, 0.0)) == pytest.approx(-1.0, abs=1e-12)
    assert junction_hamiltonian(prob, 0.2, (-2.0, 2.0)) == pytest.approx(1.0, abs=1e-12)
    prob0 = _line_eikonal(0.0)
    assert junction_hamiltonian(prob0, 0.2, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_junction_value_monotone_in_limiter_and_slopes():
    rng = np.random.default_rng(13)
    prob_lo = _line_eikonal(-1.0)
    prob_hi = _line_eikonal(-0.25)
    for _ in range(200):
        p_right, p_left = rng.uniform(-3.0, 3.0, size=2)
        lo = junction_hamiltonian(prob_lo, 0.0, (p_right, p_left))
        hi = junction_hamiltonian(prob_hi, 0.0, (p_right, p_left))
        assert lo <= hi + 1e-12

        # nonincreasing in the right slope, nondecreasing in the left one
        d = rng.uniform(0.0, 1.0)
        assert junction_hamiltonian(prob_lo, 0.0, (p_right + d, p_left)) \
            <= lo + 1e-10
        assert junction_hamiltonian(prob_lo, 0.0, (p_right, p_left + d)) \
            >= lo - 1e-10


def test_line_round_trip_preserves_junction_values():
    rng = np.random.default_rng(19)
    prob = from_line(quadratic(1.0, 0.5, -1.0), quadratic(2.0, -0.3, 0.0),
                     constant(-0.5, 1.0), zero_datum, 0.0, 1.0)
    h_right, h_left = prob.to_line()
    rebuilt = from_line(h_right, h_left, prob.flux_limiter, zero_datum, 0.0, 1.0)
    for _ in range(50):
        slopes = rng.uniform(-3.0, 3.0, size=2)
        assert junction_hamiltonian(rebuilt, 0.0, slopes) == pytest.approx(
            junction_hamiltonian(prob, 0.0, slopes), abs=1e-12)


def test_reflected_left_edge_sees_mirrored_slopes():
    h_left = quadratic(1.0, 1.0, 0.0)
    prob = from_line(eikonal(), h_left, constant(-2.0, 1.0), zero_datum, 0.0, 1.0)
    mirrored = prob.edges[1].hamiltonian
    ps = np.linspace(-3.0, 3.0, 25)
    assert np.max(np.abs(mirrored.eval_p(0.0, 0.0, ps)
                         - h_left.eval_p(0.0, 0.0, -ps))) <= 1e-12


def test_three_edge_star_junction_value():
    prob = _star(3, -0.5)
    assert junction_hamiltonian(prob, 0.0, (0.0, 0.0, 0.0)) == pytest.approx(-0.5, abs=1e-12)
    assert junction_hamiltonian(prob, 0.0, (-2.0, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_validate_passes_the_model_problem():
    cs = build_model_system(0.0)
    prob = induced_problem(cs, zero_datum, 0.0, 1.0)
    report = validate(prob)
    assert report.ok
    names = [item.name for item in report.items]
    assert "flux_limiter_floor" in names
    assert "initial_datum_lipschitz" in names


def test_validate_rejects_flux_limiter_below_floor():
    prob = _line_eikonal(-2.0)
    with pytest.raises(FluxLimiterBelowFloor) as err:
        validate(prob)
    assert err.value.deficit == pytest.approx(1.0, abs=1e-6)
    assert 0.0 <= err.value.time <= 1.0


def test_validate_flags_understated_datum_lipschitz():
    prob = from_line(eikonal(), eikonal(), constant(-1.0, 1.0),
                     lambda x: abs(x), lipschitz_u0=0.5, horizon=1.0)
    report = validate(prob)
    assert not report.ok
    failed = [item for item in report.items if not item.passed]
    assert [item.name for item in failed] == ["initial_datum_lipschitz"]


def test_initial_data_must_agree_at_the_junction():
    with pytest.raises((ValueError, ConfigError)):
        JunctionProblem(
            edges=[Edge(eikonal()), Edge(eikonal())],
            flux_limiter=constant(-1.0, 1.0),
            initial_data=[lambda y: 0.0, lambda y: 1.0],
            lipschitz_u0=0.0,
            horizon=1.0,
        )


def test_at_least_two_edges_required():
    with pytest.raises((ValueError, ConfigError)):
        JunctionProblem(
            edges=[Edge(eikonal())],
            flux_limiter=constant(-1.0, 1.0),
            initial_data=[zero_datum],
            lipschitz_u0=0.0,
            horizon=1.0,
        )


def test_problem_from_config_with_explicit_edges():
    prob, cs = problem_from_config({
        "T": 1.0,
        "u0": {"form": "zero"},
        "orientation": "line",
        "flux_limiter": {"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, -1.0]},
        "edges": [{"hamiltonian": {"form": "eikonal"}}] * 2,
    })
    assert cs is None
    assert prob.n_edges == 2
    assert prob.flux_limiter(0.25) == 0.0
    assert prob.flux_limiter(0.75) == -1.0
    assert prob.floor(0.3) == pytest.approx(-1.0, abs=1e-12)
    assert prob.c2_max() == pytest.approx(1.0)


def test_from_line_keeps_the_declared_p_span_on_both_quadratic_edges():
    quad = {"form": "quadratic", "a": 1.0, "b": 0.5, "c": -1.0, "p_span": 1}
    prob, _ = problem_from_config({
        "T": 1.0,
        "u0": {"form": "zero"},
        "orientation": "line",
        "flux_limiter": 0.0,
        "edges": [{"hamiltonian": quad}] * 2,
    })
    # 2 a (p_span + |b|) on the right edge and on the reflected left edge
    assert [e.hamiltonian.lipschitz_p for e in prob.edges] == [3.0, 3.0]
    assert prob.edges[1].hamiltonian.coefficients["b"] == -0.5
    assert prob.c2_max() == 3.0
    # dt = cfl_safety * dx / C2 = 0.5 * 0.01 / 3, so 600 steps reach T = 1
    assert grid_for(prob, 0.01, 1.0).steps == 600

    b = TimeSignal(np.array([0.0, 0.4, 1.0]), np.array([0.25, -0.5]))
    h = quadratic(2.0, b, -1.0, p_span=3.0)
    left = from_line(h, h, constant(0.0, 1.0), zero_datum, 0.0, 1.0).edges[1].hamiltonian
    assert left.lipschitz_p == h.lipschitz_p == 2.0 * 2.0 * (3.0 + 0.5)
    assert np.array_equal(left.coefficients["b"].values, [-0.25, 0.5])


def test_problem_from_config_scalar_flux_limiter():
    prob, _ = problem_from_config({
        "T": 2.0,
        "u0": {"form": "abs"},
        "orientation": "line",
        "flux_limiter": -0.5,
        "edges": [{"hamiltonian": {"form": "eikonal"}}] * 2,
    })
    assert prob.flux_limiter(1.0) == -0.5
    assert prob.horizon == 2.0
    assert prob.u0_line(-2.0) == 2.0


def test_problem_from_config_builds_control_system():
    prob, cs = problem_from_config({
        "T": 1.0,
        "u0": {"form": "zero"},
        "control_system": {
            "orientation": "line", "delta": 1.0,
            "junction": {"A0": -1.0, "l0": 0.0},
            "edges": [{"f": {"c1": 1.0}, "l": {"c0": 1.0},
                       "controls": {"min": -1.0, "max": 1.0, "n": 21}}] * 2,
        },
    })
    assert cs is not None
    assert prob.flux_limiter(0.5) == 0.0
    ps = np.linspace(-3.0, 3.0, 13)
    assert np.max(np.abs(prob.edges[0].hamiltonian.eval_p(0.0, 0.0, ps)
                         - (np.abs(ps) - 1.0))) <= 1e-9


def test_problem_from_config_errors():
    base = {
        "T": 1.0, "u0": {"form": "zero"}, "orientation": "line",
        "flux_limiter": -1.0,
        "edges": [{"hamiltonian": {"form": "eikonal"}}] * 2,
    }
    for breakage in (
        lambda d: d.pop("T"),
        lambda d: d.pop("flux_limiter"),
        lambda d: d.pop("edges"),
        lambda d: d.update(T=0.0),
        lambda d: d.update(u0={"form": "mystery"}),
        lambda d: d.update(edges=[{"hamiltonian": {"form": "mystery"}}] * 2),
        lambda d: d.update(flux_limiter={"breakpoints": [0.0, 2.0], "values": [0.0]}),
    ):
        broken = {k: (v.copy() if isinstance(v, dict) else v) for k, v in base.items()}
        breakage(broken)
        with pytest.raises(ConfigError):
            problem_from_config(broken)


def test_coefficient_signals_share_the_horizon():
    prob = _line_eikonal(-1.0, horizon=1.5)
    sigs = prob.coefficient_signals()
    assert len(sigs) >= 1
    assert all(abs(s.horizon - 1.5) < 1e-12 for s in sigs)


def test_induced_problem_matches_manual_line_construction():
    cs = build_model_system(1.0)
    prob = induced_problem(cs, zero_datum, 0.0, 1.0)
    manual = _line_eikonal(-1.0)
    rng = np.random.default_rng(23)
    for _ in range(40):
        t = rng.uniform(0.0, 1.0)
        slopes = rng.uniform(-2.0, 2.0, size=2)
        assert junction_hamiltonian(prob, t, slopes) == pytest.approx(
            junction_hamiltonian(manual, t, slopes), abs=1e-9)
