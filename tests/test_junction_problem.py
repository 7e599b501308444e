from __future__ import annotations

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hjj import (
    ControlForm,
    ControlSystem,
    Edge,
    Hamiltonian,
    JunctionProblem,
    TimeSignal,
    abs_shift,
    argmin_p,
    check_convexity,
    compute_kn,
    constant,
    control_edge,
    edge_hamiltonian,
    eikonal,
    enumerate_trajectories,
    from_line,
    grid_for,
    induced_problem,
    problem_from_config,
    quadratic,
    reflected,
    validate,
)
from hjj.errors import ConfigError, FluxLimiterBelowFloor
from hjj.junction_problem import _validation_times, check_floor
from hjj.time_signal import union_mesh

from conftest import build_model_system, junction_operator, random_tdq_problem, zero_datum


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
    assert junction_operator(prob, 0.2, (0.0, 0.0)) == pytest.approx(-1.0, abs=1e-12)
    assert junction_operator(prob, 0.2, (-2.0, 2.0)) == pytest.approx(1.0, abs=1e-12)
    prob0 = _line_eikonal(0.0)
    assert junction_operator(prob0, 0.2, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_junction_value_monotone_in_limiter_and_slopes():
    rng = np.random.default_rng(13)
    prob_lo = _line_eikonal(-1.0)
    prob_hi = _line_eikonal(-0.25)
    for _ in range(200):
        p_right, p_left = rng.uniform(-3.0, 3.0, size=2)
        lo = junction_operator(prob_lo, 0.0, (p_right, p_left))
        hi = junction_operator(prob_hi, 0.0, (p_right, p_left))
        assert lo <= hi + 1e-12

        # nonincreasing in the right slope, nondecreasing in the left one
        d = rng.uniform(0.0, 1.0)
        assert junction_operator(prob_lo, 0.0, (p_right + d, p_left)) \
            <= lo + 1e-10
        assert junction_operator(prob_lo, 0.0, (p_right, p_left + d)) \
            >= lo - 1e-10


def test_line_round_trip_preserves_junction_values():
    rng = np.random.default_rng(19)
    prob = from_line(quadratic(1.0, 0.5, -1.0), quadratic(2.0, -0.3, 0.0),
                     constant(-0.5, 1.0), zero_datum, 0.0, 1.0)
    h_right, h_left = prob.edges[0].hamiltonian, reflected(prob.edges[1].hamiltonian)
    rebuilt = from_line(h_right, h_left, prob.flux_limiter, zero_datum, 0.0, 1.0)
    for _ in range(50):
        slopes = rng.uniform(-3.0, 3.0, size=2)
        assert junction_operator(rebuilt, 0.0, slopes) == pytest.approx(
            junction_operator(prob, 0.0, slopes), abs=1e-12)


def test_reflected_left_edge_sees_mirrored_slopes():
    h_left = quadratic(1.0, 1.0, 0.0)
    prob = from_line(eikonal(), h_left, constant(-2.0, 1.0), zero_datum, 0.0, 1.0)
    mirrored = prob.edges[1].hamiltonian
    ps = np.linspace(-3.0, 3.0, 25)
    assert np.max(np.abs(mirrored.eval_p(0.0, 0.0, ps)
                         - h_left.eval_p(0.0, 0.0, -ps))) <= 1e-12


def test_three_edge_star_junction_value():
    prob = _star(3, -0.5)
    assert junction_operator(prob, 0.0, (0.0, 0.0, 0.0)) == pytest.approx(-0.5, abs=1e-12)
    assert junction_operator(prob, 0.0, (-2.0, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)


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


def _floor(problem: JunctionProblem, t: float) -> float:
    """The junction floor max_i min_p H_i(t, 0, p), by argmin_p."""
    return max(argmin_p(e.hamiltonian, t, 0.0)[1] for e in problem.edges)


def _floor_loop(problem: JunctionProblem) -> tuple:
    """(t, deficit) of the worst floor(t) - A(t) > 0 at the validation times, one time
    at a time with argmin_p, or (None, 0.0)."""
    worst_t, worst = None, 0.0
    for t in _validation_times(problem):
        deficit = _floor(problem, float(t)) - problem.flux_limiter(float(t))
        if deficit > worst:
            worst_t, worst = float(t), float(deficit)
    return worst_t, worst


def test_check_floor_equals_the_per_time_floor_and_freezes_no_time_independent_edge(
        monkeypatch):
    """check_floor's deficit, and the time and deficit of its refusal, are the per-time
    loop's bit for bit, on constant, step and time-dependent data above and below the
    floor; on the model problem it freezes nothing, reading each minimum off its pair,
    and on tdq it freezes its time-dependent closed form once, at all times.
    A callable control edge reads its cost at t, so it is not time-independent: its
    floor t - 1 passes A = -0.5 at t = 0 and must still be refused later. A callable
    edge's form parts are its time data: a dip of its cost on (0.30, 0.31), which no
    uniform validation time sees, lifts its floor to 2 there, and A = 0 is refused at
    t = 0.305 with deficit 2, as on the same data with a form f."""
    step = TimeSignal(np.array([0.0, 0.3, 0.7, 1.0]), np.array([-0.5, -1.7, -1.0]))
    problems = [induced_problem(build_model_system(0.0), zero_datum, 0.0, 1.0),
                _line_eikonal(-2.0), _line_eikonal(-1.0),
                from_line(eikonal(), quadratic(1.0, 0.0, -1.5), step, zero_datum, 0.0, 1.0)]
    problems += [random_tdq_problem(seed) for seed in range(1, 9)]
    rising = TimeSignal(np.array([0.0, 0.4, 1.0]), np.array([-1.5, -0.5]))
    problems += [from_line(eikonal(), quadratic(2.0, 0.1, rising), constant(a, 1.0),
                           zero_datum, 0.0, 1.0) for a in (-0.8, -0.2)]
    table = edge_hamiltonian(control_edge(ControlForm(c1=1.0),
                                          lambda t, x, a: (1.0 - t) + 0.0 * a, -1.0, 1.0))
    assert not table.time_independent
    problems.append(from_line(table, quadratic(1.0, 0.0, -2.0), constant(-0.5, 1.0),
                              zero_datum, 0.0, 1.0))
    dip = ControlForm(c0=TimeSignal(np.array([0.0, 0.30, 0.31, 1.0]), np.array([1.0, -2.0, 1.0])))
    model_edge = build_model_system(0.0).edges[1]
    dips = [induced_problem(ControlSystem([control_edge(f, dip, -1.0, 1.0), model_edge],
                                          l0=constant(0.0, 1.0), A0=-1.0, delta=1.0),
                            zero_datum, 0.0, 1.0)
            for f in (lambda t, x, a: a, ControlForm(c1=1.0))]
    problems.append(dips[0])
    for prob in dips:
        with pytest.raises(FluxLimiterBelowFloor) as err:
            check_floor(prob)
        assert (err.value.time, err.value.deficit) == (0.5 * (0.30 + 0.31), 2.0)
    refused = 0
    for prob in problems:
        worst_t, worst = _floor_loop(prob)
        if worst > 1e-9:
            refused += 1
            with pytest.raises(FluxLimiterBelowFloor) as err:
                check_floor(prob)
            assert (err.value.time, err.value.deficit) == (worst_t, worst)
        else:
            assert repr(check_floor(prob)) == repr(worst)
    assert refused == 5
    model = problems[0]
    calls = []
    freeze = Hamiltonian.freeze
    monkeypatch.setattr(Hamiltonian, "freeze", lambda h, v: calls.append(v) or freeze(h, v))
    assert check_floor(model) == 0.0 and calls == []
    tdq = random_tdq_problem(1)
    del calls[:]
    assert check_floor(tdq) == 0.0 and len(calls) == 1  # its quadratic, at every time at once


def test_validation_times_are_np_uniques_without_importing_numpy_ma():
    """The knots are np.unique's, bit for bit, and check_floor, which every command
    that marches runs, leaves numpy.ma unimported (np.unique's first call imports it)."""
    for prob in [_line_eikonal(-1.0)] + [random_tdq_problem(seed) for seed in range(1, 6)]:
        knots = np.unique(np.concatenate([union_mesh(prob.coefficient_signals()),
                                          np.linspace(0.0, prob.horizon, 33)]))
        assert _validation_times(prob).tobytes() == (0.5 * (knots[:-1] + knots[1:])).tobytes()
    script = ("import sys; from hjj import constant, eikonal, from_line; "
              "from hjj.junction_problem import check_floor; "
              "check_floor(from_line(eikonal(), eikonal(), constant(0.0, 1.0), abs, 1.0, 1.0)); "
              "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.strip() == "False"


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


@pytest.mark.parametrize("lip", [-1.0, -1e-300, np.inf, np.nan])
def test_a_negative_or_non_finite_lipschitz_u0_is_refused(lip):
    with pytest.raises(ConfigError, match="^lipschitz_u0: expected a non-negative finite number"):
        from_line(eikonal(), eikonal(), constant(0.0, 1.0), zero_datum, lip, 1.0)
    assert _star(2, 0.0).lipschitz_u0 == 0.0


@pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf])
def test_a_horizon_that_is_not_positive_and_finite_is_refused(horizon):
    with pytest.raises(ConfigError, match="^horizon: expected a positive finite number"):
        JunctionProblem(
            edges=[Edge(eikonal()), Edge(eikonal())],
            flux_limiter=constant(-1.0, 1.0),
            initial_data=[zero_datum, zero_datum],
            lipschitz_u0=0.0,
            horizon=horizon,
        )


@pytest.mark.parametrize("length", [0.0, -1.0, np.nan])
def test_an_edge_refuses_a_length_that_is_not_positive(length):
    with pytest.raises(ConfigError, match="^edge length: expected a positive number"):
        Edge(eikonal(), length)
    assert Edge(eikonal(), np.inf).length == np.inf


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
    assert _floor(prob, 0.3) == pytest.approx(-1.0, abs=1e-12)
    assert prob.cfl_speed()[0] == pytest.approx(1.0)


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
    assert prob.cfl_speed()[0] == 3.0
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
    assert prob.initial_data[1](2.0) == 2.0  # u0(x) = |x| read at x = -2


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


def _quadratic_line(T=1.0, length=1.5, p_span=1, n=None) -> dict:
    quad = {"form": "quadratic", "a": 1.0, "b": 0.5, "c": -1.0, "p_span": p_span}
    return {"T": T, "u0": {"form": "zero"}, "flux_limiter": -1.0,
            "edges": [{"hamiltonian": {"form": "eikonal"}, "length": length},
                      {"hamiltonian": quad}]}


def test_null_means_none_and_numeric_strings_convert_as_float_does():
    none, _ = problem_from_config(_quadratic_line(length=None, p_span=None))
    assert none.edges[0].length == np.inf
    assert none.edges[1].hamiltonian.lipschitz_p == np.inf  # the slope box, not a p_span
    absent = _quadratic_line()
    del absent["edges"][0]["length"], absent["edges"][1]["hamiltonian"]["p_span"]
    assert none.cfl_speed() == problem_from_config(absent)[0].cfl_speed()

    text, _ = problem_from_config(_quadratic_line(T="1", length="1.5", p_span="1"))
    assert text.horizon == 1.0 and text.edges[0].length == 1.5
    assert text.edges[1].hamiltonian.lipschitz_p == 3.0  # 2 a (p_span + |b|)
    assert text.cfl_speed() == problem_from_config(_quadratic_line())[0].cfl_speed()

    model = {"T": 1.0, "control_system": {
        "junction": {"A0": "-1", "l0": 0.0},
        "edges": [{"f": {"c1": 1.0}, "l": {"c0": 1.0},
                   "controls": {"min": "-1", "max": 1.0, "n": "21"}}] * 2}}
    _, cs = problem_from_config(model)
    assert cs.A0 == -1.0
    assert [len(e.controls) for e in cs.edges] == [21, 21]
    assert cs.edges[0].controls[0] == -1.0


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
        assert junction_operator(prob, t, slopes) == pytest.approx(
            junction_operator(manual, t, slopes), abs=1e-9)


def test_validate_reports_c2_and_its_source():
    quad = from_line(eikonal(), quadratic(1.0, 0.0, -1.0), constant(0.0, 1.0), zero_datum,
                     0.0, 1.0)
    model = induced_problem(build_model_system(), zero_datum, 0.0, 1.0)
    # M = |H(0)| = 1, so the box is p^2 - 1 <= 1 and C2 = 2 sqrt(2)
    want = {quad: "C2 = 2.82843 from slope box [-1.41, 1.41] of {H <= 1} on edge 1",
            model: "C2 = 1 from max|f| over 21 controls on edge 0"}
    for prob, detail in want.items():
        item = validate(prob).items[-1]
        assert (item.name, item.passed, item.detail) == ("cfl_speed", True, detail)


def _black_box(**bounds) -> Hamiltonian:
    """|p| - 1 declared as a black box with no finite lipschitz_p."""
    return Hamiltonian(lambda t, x, p: np.abs(p) - 1.0, lipschitz_p=np.inf,
                       x_independent=True, **bounds)


@pytest.mark.parametrize("edge", [0, 1])
def test_a_declared_speed_bound_gives_the_same_c2_on_either_half_line(edge):
    box = _black_box(speed_bound=lambda M, ys: (3.0, "declared 3"))
    hams = [eikonal(), eikonal()]
    hams[edge] = box
    prob = from_line(*hams, constant(0.0, 1.0), zero_datum, 0.0, 1.0)
    assert prob.cfl_speed() == (3.0, f"declared 3 on edge {edge}")


def test_an_edge_without_a_finite_speed_bound_is_refused_by_name():
    prob = from_line(eikonal(), _black_box(), constant(0.0, 1.0), zero_datum, 0.0, 1.0)
    msg = "edge 1 has no finite speed bound for C2: declared lipschitz_p inf"
    with pytest.raises(ConfigError, match=f"^{msg}$"):
        prob.cfl_speed()
    with pytest.raises(ConfigError, match=f"^{msg}$"):
        grid_for(prob, 0.1, 1.0)
    item = validate(prob).items[-1]
    assert (item.name, item.passed, item.detail) == ("cfl_speed", True, msg)


@pytest.mark.parametrize("declared", [False, True])
def test_an_edge_without_a_finite_value_bound_is_refused_by_name(declared):
    """A black box with lipschitz_p inf and no value_bound, beside a quadratic.

    At L = 1 its bound on |H| is inf: C2 names the black box (its speed
    bound, or, when it declares one, its value bound) and not the quadratic,
    whose slope box that inf would blow up. At L = 0 the bound is |H(0)|.
    """
    box = _black_box(**({"speed_bound": lambda M, ys: (3.0, "declared 3")} if declared else {}))
    prob = from_line(quadratic(1.0, 0.0, -1.0), box, constant(0.0, 1.0), abs, 1.0, 1.0)
    msg = ("edge 1 has no finite bound on |H| for C2: got inf" if declared
           else "edge 1 has no finite speed bound for C2: declared lipschitz_p inf")
    with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
        prob.cfl_speed()
    assert box.value_bound(0.0) == 1.0
    flat = from_line(quadratic(1.0, 0.0, -1.0), box, constant(0.0, 1.0), zero_datum, 0.0, 1.0)
    if declared:
        assert flat.cfl_speed() == (3.0, "declared 3 on edge 1")
    else:
        with pytest.raises(ConfigError, match="^edge 1 has no finite speed bound"):
            flat.cfl_speed()


def _step_or_float(rng: np.random.Generator, lo: float, hi: float):
    if rng.random() < 0.3:
        return float(rng.uniform(lo, hi))
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, 3)), [1.0]))
    return TimeSignal(bp, rng.uniform(lo, hi, 4))


def test_c2_bounds_the_slope_speed_on_the_slope_box():
    """sup |dH_i/dp| over a dense sample of {q: H_i(t, q) <= M for some t}, under
    each cell's values, is <= C2(t) of that cell, whose sup is C2; M is sampled
    from its definition."""
    rng = np.random.default_rng(83)
    wide = np.linspace(-15.0, 15.0, 15001)
    for _ in range(40):
        hams = [quadratic(_step_or_float(rng, 0.2, 3.0), _step_or_float(rng, -1.0, 1.0),
                          _step_or_float(rng, -2.0, 1.0))
                if rng.random() < 0.7 else abs_shift(_step_or_float(rng, -2.0, 1.0))
                for _side in range(2)]
        limiter = TimeSignal(np.array([0.0, rng.uniform(0.1, 0.9), 1.0]),
                             rng.uniform(-1.0, 1.0, 2))
        lip = float(rng.uniform(0.0, 2.0))
        prob = from_line(hams[0], hams[1], limiter, lambda x: lip * x, lip, 1.0)
        c2, _ = prob.cfl_speed()
        c2_t = prob.speed_signal()
        assert c2_t.max() == c2
        mesh = union_mesh(prob.coefficient_signals())
        cells = 0.5 * (mesh[:-1] + mesh[1:])
        hs = [e.hamiltonian for e in prob.edges]
        qs = np.linspace(-lip, lip, 201)
        big_m = max([abs(limiter(t)) for t in cells]
                    + [float(np.max(np.abs(h.eval_p(t, 0.0, qs)))) for h in hs for t in cells])
        for h in hs:
            inside = np.zeros(wide.shape, dtype=bool)
            for t in cells:
                inside |= h.eval_p(t, 0.0, wide) <= big_m
            box = wide[inside]
            for t in cells:
                speed = np.abs(h.eval_p(t, 0.0, box + 1e-6) - h.eval_p(t, 0.0, box - 1e-6)) / 2e-6
                assert float(np.max(speed)) <= c2_t(t) * (1.0 + 1e-6) + 1e-6


@pytest.mark.parametrize("name, keyword", [
    ("validate", "refine"), ("validate", "u0_samples"), ("compute_kn", "n_p"),
    ("compute_kn", "n_x"), ("enumerate_trajectories", "budget"),
    ("enumerate_trajectories", "arrival_tol"), ("check_convexity", "tol")])
def test_the_fixed_sampling_settings_are_no_keywords(name, keyword):
    """validate, compute_kn, enumerate_trajectories and check_convexity read their
    sampling densities, budget and tolerances from module constants: no keyword sets them."""
    problem, cs = _line_eikonal(-1.0), build_model_system()
    call = {"validate": lambda **kw: validate(problem, **kw),
            "compute_kn": lambda **kw: compute_kn(problem, problem, K=1.0, R=1.0, **kw),
            "enumerate_trajectories":
                lambda **kw: enumerate_trajectories(cs, (0.5, 0.0), (0.0, 1.0), 1, **kw),
            "check_convexity": lambda **kw: check_convexity(eikonal(), **kw)}[name]
    call()  # the call itself runs
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        call(**{keyword: 1})
