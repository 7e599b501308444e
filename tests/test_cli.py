from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hjj.cli
import hjj.dpp_oracle as dpp_oracle_module
import hjj.fd_scheme as fd_scheme_module
import hjj.hamiltonian as hamiltonian_module
from hjj import (ConfigError, ControlEdge, ControlSystem, NoAdmissibleControl,
                 NumericalFailure, SolutionField, grid_for, oracle_grid, problem_from_config,
                 smoothing_ladder, value_function)
from hjj.cli import main

from conftest import bench_tdq_config, count_updates


def _model_config(**extra) -> dict:
    cfg = {
        "schema": "hjj/1",
        "T": 1.0,
        "u0": {"form": "zero"},
        "control_system": {
            "orientation": "line",
            "delta": 1.0,
            "junction": {"A0": -1.0, "l0": 0.0},
            "edges": [{"f": {"c1": 1.0}, "l": {"c0": 1.0},
                       "controls": {"min": -1.0, "max": 1.0, "n": 21}}] * 2,
        },
    }
    cfg.update(extra)
    return cfg


def _step_config(**extra) -> dict:
    cfg = {
        "schema": "hjj/1",
        "T": 1.0,
        "u0": {"form": "zero"},
        "orientation": "line",
        "flux_limiter": {"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, -1.0]},
        "edges": [{"hamiltonian": {"form": "eikonal"}}] * 2,
    }
    cfg.update(extra)
    return cfg


def _write(tmp_path: Path, cfg: dict, name: str = "problem.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _read_field(path: Path) -> dict:
    table = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            table[(float(row["t"]), float(row["x"]))] = float(row["u"])
    return table


def test_solve_writes_field_and_snapshots(tmp_path: Path):
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem, "--dx", "0.05",
               "--out", str(out), "--report-times", "0.5,1.0"])
    assert rc == 0
    field = out / "field.csv"
    assert field.exists()
    raw = field.read_bytes()
    assert raw.startswith(b"t,x,u\n")
    assert b"\r" not in raw
    snaps = sorted(p.name for p in out.glob("snapshot_*.tsv"))
    assert snaps == ["snapshot_0.tsv", "snapshot_1.tsv"]
    first = (out / "snapshot_0.tsv").read_text().splitlines()
    assert first[0].startswith("# t_requested=0.5")
    assert first[1] == "x\tu"
    # A = 0 pins the junction at zero
    table = _read_field(field)
    assert abs(table[(1.0, 0.0)]) <= 0.05


def test_solve_output_is_byte_identical_across_runs(tmp_path: Path):
    problem = _write(tmp_path, _model_config())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--problem", problem, "--dx", "0.1",
                     "--out", str(out), "--report-times", "1.0"]) == 0
        outs.append(out)
    for fname in ("field.csv", "snapshot_0.tsv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_value_subcommand_runs_the_dp_solver(tmp_path: Path):
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    rc = main(["value", "--problem", problem, "--dx", "0.05", "--out", str(out)])
    assert rc == 0
    table = _read_field(out / "field.csv")
    assert abs(table[(1.0, 0.0)]) <= 0.05
    assert abs(table[(1.0, 1.5)] - 1.0) <= 0.05


def test_value_requires_a_control_system(tmp_path: Path, capsys):
    problem = _write(tmp_path, _step_config())
    out = tmp_path / "out"
    rc = main(["value", "--problem", problem, "--dx", "0.1", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "control_system" in capsys.readouterr().err


def test_compare_reports_solver_agreement(tmp_path: Path):
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    rc = main(["compare", "--problem", problem, "--dx", "0.05",
               "--out", str(out), "--report-times", "0.5,1.0"])
    assert rc == 0
    doc = json.loads((out / "compare.json").read_text())
    assert doc["sup_gap"] <= 1e-6
    assert set(doc["gaps_at_report_times"]) == {"0.5", "1"}
    for entry in doc["gaps_at_report_times"].values():
        assert entry["linf"] <= 1e-6
        assert entry["l1"] <= 1e-6
    text = (out / "compare.json").read_text()
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_approx_subcommand_reports_the_width_ladder(tmp_path: Path):
    problem = _write(tmp_path, _step_config())
    out = tmp_path / "out"
    rc = main(["approx", "--problem", problem, "--dx", "0.05",
               "--widths", "0.2,0.1", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "approx.json").read_text())
    widths = doc["widths"]
    assert [w["eps"] for w in widths] == [0.2, 0.1]
    assert widths[0]["kn_l1"] > widths[1]["kn_l1"]
    assert all("solution_gap" in w for w in widths)


def test_approx_reports_the_steps_of_one_grid_for_every_width(tmp_path: Path):
    """tdq seed 41 at dx 0.04: the shared grid follows the largest speed of the base
    problem and of its four smoothed versions, 321 steps (300 for the base problem
    alone, 435 at uniform steps); dt is the largest of them."""
    cfg = bench_tdq_config(41)
    out = tmp_path / "out"
    assert main(["approx", "--problem", _write(tmp_path, cfg), "--dx", "0.04",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "approx.json").read_text())
    problem, _ = problem_from_config(cfg)
    ladder = smoothing_ladder(problem, [0.2, 0.1, 0.05, 0.025])
    grid = grid_for([problem, *ladder.values()], 0.04, 2.0)
    assert (doc["steps"], doc["dt"]) == (grid.steps, grid.dt) == (321, max(np.diff(grid.times)))
    assert grid_for(problem, 0.04, 2.0).steps == 300


def test_validate_subcommand_passes_and_fails(tmp_path: Path):
    good = _write(tmp_path, _step_config(), "good.json")
    out = tmp_path / "out"
    assert main(["validate", "--problem", good, "--out", str(out)]) == 0
    doc = json.loads((out / "validate.json").read_text())
    assert doc["ok"] is True
    assert {item["name"] for item in doc["items"]} >= {"flux_limiter_floor",
                                                       "initial_datum_lipschitz"}

    bad = _write(tmp_path, _step_config(flux_limiter=-5.0), "bad.json")
    out2 = tmp_path / "out2"
    rc = main(["validate", "--problem", bad, "--out", str(out2)])
    assert rc == 2
    assert not out2.exists()


# hjj validate's printed lines on the checked problem files: the model file and
# tdq seed 41 of perfbench/problems.py, and TDC of tools/artifact_digests.py
_VALIDATE_LINES = {
    "model": "C2 = 1 from max|f| over 21 controls on edge 0",
    "tdq41": "C2 = 8.69824 from slope box [-1.95, 1.92] of {H <= 1} on edge 1",
    "tdc": "C2 = 1.6 from max|f| over 21 controls on edge 0",
}


@pytest.mark.parametrize("stem", list(_VALIDATE_LINES))
def test_validate_prints_its_five_lines_on_the_checked_problem_files(tmp_path: Path, capsys,
                                                                     monkeypatch, stem):
    """Every edge a file describes is convex by construction, so both convexity items
    pass with no detail and no probe runs; a datum with slope 0.5 (TDC's |x| / 2)
    measures 0.5."""
    probes = []
    monkeypatch.setattr("hjj.junction_problem.check_convexity", lambda *a, **kw: probes.append(a))
    tool = _digest_tool()
    config = {"model": tool._problems().model_problem, "tdq41": lambda: bench_tdq_config(41),
              "tdc": lambda: tool.TDC}[stem]()
    assert main(["validate", "--problem", _write(tmp_path, config)]) == 0
    lip = "0.5" if stem == "tdc" else "0"
    assert capsys.readouterr().out.splitlines() == [
        "pass  flux_limiter_floor  (worst deficit 0.00e+00)",
        f"pass  initial_datum_lipschitz  (measured {lip} vs declared {lip})",
        "pass  edge0_convexity",
        "pass  edge1_convexity",
        f"pass  cfl_speed  ({_VALIDATE_LINES[stem]})",
    ]
    assert probes == []


def _star_config(**extra) -> dict:
    cfg = {
        "schema": "hjj/1",
        "T": 0.5,
        "orientation": "star",
        "R_domain": 1.0,
        "flux_limiter": {"breakpoints": [0.0, 0.25, 0.5], "values": [0.0, -0.25]},
        "edges": [{"hamiltonian": {"form": "eikonal"}},
                  {"hamiltonian": {"form": "quadratic", "a": 0.5, "b": 0.0, "c": -1.0}},
                  {"hamiltonian": {"form": "abs_shift", "c": -0.5}, "length": 0.6}],
        "u0": [{"form": "abs", "scale": 0.5}, {"form": "affine", "slope": 1.0},
               {"form": "zero"}],
    }
    cfg.update(extra)
    return cfg


def test_a_star_problem_file_takes_one_initial_datum_per_edge(tmp_path: Path, capsys):
    """Three catalog edges, the third 0.6 long, with a datum each: solve writes
    "<i>:<y>" labels, 1 + 20 + 20 + 12 nodes per level at dx 0.05 and R_domain 1,
    validate passes, and a list one datum short exits 1 with nothing written."""
    problem = _write(tmp_path, _star_config())
    out = tmp_path / "out"
    assert main(["solve", "--problem", problem, "--dx", "0.05", "--out", str(out)]) == 0
    with open(out / "field.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    start = {row["x"]: float(row["u"]) for row in rows if float(row["t"]) == 0.0}
    labels = list(start)
    assert labels[0] == "0:0"
    edges = [[x for x in labels if x.startswith(f"{i}:")] for i in (1, 2, 3)]
    assert [len(e) for e in edges] == [20, 20, 12]
    assert len(rows) == len(labels) * len({row["t"] for row in rows})
    assert [start[e[-1]] for e in edges] == [0.5, 1.0, 0.0]  # each edge's datum at its end
    checked = tmp_path / "checked"
    assert main(["validate", "--problem", problem, "--out", str(checked)]) == 0
    assert json.loads((checked / "validate.json").read_text())["ok"] is True

    assert problem_from_config(_star_config())[0].lipschitz_u0 == 1.0  # the largest slope
    shared = problem_from_config(_star_config(u0={"form": "abs", "scale": 0.5}))[0]
    assert len(shared.initial_data) == 3 and shared.lipschitz_u0 == 0.5

    short = _write(tmp_path, _star_config(u0=_star_config()["u0"][:2]), "short.json")
    capsys.readouterr()
    rc = main(["solve", "--problem", short, "--dx", "0.05", "--out", str(tmp_path / "short")])
    assert rc == 1
    assert capsys.readouterr().err.strip() == ("configuration error: one initial datum "
                                               "per edge required")
    assert not (tmp_path / "short").exists()


def test_missing_problem_file_is_a_config_error(tmp_path: Path, capsys):
    rc = main(["solve", "--problem", str(tmp_path / "nope.json"),
               "--dx", "0.1", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err.strip() != ""


def test_invalid_json_reports_line_and_column(tmp_path: Path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "hjj/1",, }')
    rc = main(["solve", "--problem", str(path), "--dx", "0.1",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_unsupported_schema_is_rejected(tmp_path: Path, capsys):
    problem = _write(tmp_path, _model_config(schema="hjj/9"))
    rc = main(["solve", "--problem", problem, "--dx", "0.1",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "hjj/9" in capsys.readouterr().err


def test_zero_horizon_is_rejected(tmp_path: Path):
    problem = _write(tmp_path, _step_config(T=0.0))
    rc = main(["solve", "--problem", problem, "--dx", "0.1",
               "--out", str(tmp_path / "out")])
    assert rc == 1


def test_report_times_must_lie_inside_the_horizon(tmp_path: Path, capsys):
    problem = _write(tmp_path, _model_config())
    rc = main(["solve", "--problem", problem, "--dx", "0.1",
               "--out", str(tmp_path / "out"), "--report-times", "0.5,1.5"])
    assert rc == 1
    assert "1.5" in capsys.readouterr().err


def test_malformed_report_times_are_an_argument_error(tmp_path: Path):
    problem = _write(tmp_path, _model_config())
    with pytest.raises(SystemExit) as err:
        main(["solve", "--problem", problem, "--dx", "0.1",
              "--out", "out", "--report-times", "0.5;1.0"])
    assert err.value.code == 1


def test_cfl_violation_exits_3_without_artifacts(tmp_path: Path, capsys):
    """A declared p_span of 0.1 sets C2 = 0.2 on edge 0, where the datum's slope 2
    gives |dH/dp| = 4: the first step's slope check refuses the grid."""
    quad = {"form": "quadratic", "a": 1.0, "b": 0.0, "c": -1.0, "p_span": 0.1}
    problem = _write(tmp_path, _step_config(
        u0={"form": "abs", "scale": 2.0}, lipschitz_u0=2.0, flux_limiter=0.0,
        edges=[{"hamiltonian": quad}, {"hamiltonian": {"form": "eikonal"}}]))
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem, "--dx", "0.05", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("numerical failure: dt |dH/dp| / dx = 2 > 1")


def test_a_failed_run_removes_its_artifacts_and_the_out_it_created(tmp_path: Path, capsys):
    """A directory in the way of snapshot_0.tsv fails the run after field.csv is in place:
    field.csv goes again, and the --out that was there before stays. A march that fails
    under a new --out two levels deep leaves neither level."""
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "ow"
    (out / "snapshot_0.tsv").mkdir(parents=True)
    rc = main(["solve", "--problem", problem, "--dx", "0.05", "--report-times", "0.5",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("io error: [Errno 21] Is a directory")
    assert [p.name for p in out.iterdir()] == ["snapshot_0.tsv"]

    quad = {"form": "quadratic", "a": 1.0, "b": 0.0, "c": -1.0, "p_span": 0.1}
    steep = _write(tmp_path, _step_config(
        u0={"form": "abs", "scale": 2.0}, lipschitz_u0=2.0, flux_limiter=0.0,
        edges=[{"hamiltonian": quad}, {"hamiltonian": {"form": "eikonal"}}]), "steep.json")
    rc = main(["solve", "--problem", steep, "--dx", "0.05", "--out",
               str(tmp_path / "new" / "deeper")])
    assert rc == 3 and capsys.readouterr().out == ""
    assert not (tmp_path / "new").exists()


def test_flux_limiter_below_floor_exits_2(tmp_path: Path):
    problem = _write(tmp_path, _step_config(flux_limiter=-5.0))
    out = tmp_path / "out"
    rc = main(["validate", "--problem", problem, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_every_command_that_marches_refuses_a_limiter_below_the_floor(tmp_path: Path, capsys):
    """The model with l0 = 2 and A0 = -3 parks at A = -3 below the floor -2, and a
    limiter of -5 lies below eikonal's -1: each command exits 2 with validate's one
    line before it builds a grid, and writes nothing."""
    below = {"model": (_model_config(control_system={**_model_config()["control_system"],
                                                     "junction": {"l0": 2.0, "A0": -3.0}}),
                       ("solve", "value", "compare", "approx")),
             "step": (_step_config(flux_limiter=-5.0), ("solve", "approx"))}
    for name, (config, commands) in below.items():
        problem = _write(tmp_path, config, f"{name}.json")
        assert main(["validate", "--problem", problem]) == 2
        (message,) = capsys.readouterr().err.splitlines()
        assert message.startswith("validation failure: flux limiter below junction floor at t=")
        for command in commands:
            out = tmp_path / f"{name}-{command}"
            rc = main([command, "--problem", problem, "--dx", "0.05", "--out", str(out)])
            assert rc == 2, (name, command)
            assert capsys.readouterr().err.splitlines() == [message]
            assert not out.exists()


def test_validate_writes_no_report_when_a_soft_check_fails(tmp_path: Path, capsys):
    """A datum of slope 2 declared 0.5-Lipschitz fails softly: exit 2, every item
    printed, and no validate.json, as no command that exits nonzero writes one."""
    config = _step_config(u0={"form": "abs", "scale": 2.0}, lipschitz_u0=0.5)
    problem = _write(tmp_path, config)
    out = tmp_path / "out"
    assert main(["validate", "--problem", problem, "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL  initial_datum_lipschitz  (measured 2 vs declared 0.5)" in lines
    assert lines[0].startswith("pass  flux_limiter_floor") and len(lines) == 5
    assert not out.exists()


def test_r_domain_from_config_controls_the_grid(tmp_path: Path):
    problem = _write(tmp_path, _model_config(R_domain=1.0))
    out = tmp_path / "out"
    assert main(["solve", "--problem", problem, "--dx", "0.25",
                 "--out", str(out)]) == 0
    xs = {x for (_, x) in _read_field(out / "field.csv")}
    assert max(xs) == 1.0 and min(xs) == -1.0


def _digest_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_problem_file_needs_the_numeric_argmin(tmp_path: Path, monkeypatch):
    """Every Hamiltonian a file describes has a closed form, so no command searches.

    The model problem (constant control forms) and the digest tool's
    time-dependent control problem, through solve, compare, approx and
    validate; a black box shows that the counter sees a search.
    """
    calls = []
    real = hamiltonian_module.numeric_argmin
    monkeypatch.setattr(hamiltonian_module, "numeric_argmin",
                        lambda h, t, x: calls.append((t, x)) or real(h, t, x))
    tool = _digest_tool()
    for name, cfg in (("model", tool._problems().model_problem()), ("tdc", tool.TDC)):
        problem = _write(tmp_path, cfg, f"{name}.json")
        for command in ("solve", "compare", "approx", "validate"):
            argv = [command, "--problem", problem, "--out", str(tmp_path / name / command)]
            assert main(argv + ([] if command == "validate" else ["--dx", "0.05"])) == 0
    assert calls == []
    box = hamiltonian_module.Hamiltonian(lambda t, x, p: np.abs(p) - 1.0, lipschitz_p=1.0,
                                         x_independent=True)
    hamiltonian_module.argmin_p(box, 0.0, 0.0)
    assert calls == [(0.0, 0.0)]


def test_seed_option_is_refused_by_validate(tmp_path: Path, capsys):
    """validate's convexity probe runs at the library's fixed seed; --seed is a usage
    error."""
    problem = _write(tmp_path, _step_config())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["validate", "--problem", problem, "--seed", "3", "--out", str(out)])
    assert err.value.code == 1
    assert capsys.readouterr().err.startswith("usage: hjj")
    assert not out.exists()


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--help"])
    assert err.value.code == 0


def test_value_bound_breach_exits_3_without_artifacts(tmp_path: Path, capsys,
                                                      monkeypatch):
    # a Bellman update that overshoots by 1e3 breaks the a priori sup bound
    real = dpp_oracle_module._bellman
    monkeypatch.setattr(dpp_oracle_module, "_bellman", lambda *args: real(*args) + 1e3)
    problem = _write(tmp_path, _model_config())
    for command in ("value", "compare"):
        out = tmp_path / command
        rc = main([command, "--problem", problem, "--dx", "0.1", "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: value function breaks its a priori bound")


def test_value_on_an_edge_faster_than_its_probed_bound_exits_3(tmp_path: Path, capsys,
                                                               monkeypatch):
    """Speeds a (1 + 3 min(|y|, 0.1) / 0.1) for t > 0 reach 4 where the bound at t = 0 sees 1."""
    real = hjj.cli.problem_from_config

    def x_dependent(cfg):
        problem, cs = real(cfg)
        drift = lambda t, y, a: a * (1.0 + 3.0 * (t > 0.0) * min(abs(y), 0.1) / 0.1)
        edges = [ControlEdge(drift, e.l, e.controls) for e in cs.edges]
        return problem, ControlSystem(edges, cs.l0, cs.A0, cs.delta, cs.orientation)

    monkeypatch.setattr(hjj.cli, "problem_from_config", x_dependent)
    problem = _write(tmp_path, _model_config(T=0.05, R_domain=0.3))
    out = tmp_path / "out"
    rc = main(["value", "--problem", problem, "--dx", "0.01", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("numerical failure: dt=0.005 exceeds dx/|f|")


def test_grid_for_common_grid_and_oracle_grid_agree_on_the_model_problem():
    problem, cs = problem_from_config(_model_config())
    grids = [grid_for(problem, 0.01, 2.0), oracle_grid(cs, 0.01, 1.0, 2.0)]
    assert {(g.dt, g.steps, g.n_nodes) for g in grids} == {(0.005, 200, 401)}


def _time_dependent_control_config() -> dict:
    """The model with edge 0's speed a, then 2a from t = 0.4 on, and the datum 0.5 x + 0.2."""
    cfg = _edit(_model_config(), _CS_EDGE + ("f",),
                {"c1": {"breakpoints": [0.0, 0.4, 1.0], "values": [1.0, 2.0]}})
    return _edit(cfg, ("u0",), {"form": "affine", "slope": 0.5, "offset": 0.2})


@pytest.mark.parametrize("config", [_model_config, _time_dependent_control_config])
def test_value_writes_the_value_function_on_the_oracle_grid(tmp_path: Path, config):
    """value's grid_for grid and the problem's initial_data give what oracle_grid gives."""
    cfg = config()
    out = tmp_path / "out"
    assert main(["value", "--problem", _write(tmp_path, cfg), "--dx", "0.05",
                 "--out", str(out)]) == 0
    problem, cs = problem_from_config(cfg)
    want = value_function(cs, problem.initial_data, oracle_grid(cs, 0.05, 1.0, 2.0))
    assert (out / "field.csv").read_bytes() == want.to_csv().encode()


def _quadratic_cost_config(n: int) -> dict:
    """The model with running cost 0.5 + a^2, whose values depend on the sample count n."""
    cfg = _model_config()
    edge = {"f": {"c1": 1.0}, "l": {"c0": 0.5, "c2": 1.0},
            "controls": {"min": -1.0, "max": 1.0, "n": n}}
    return {**cfg, "control_system": {**cfg["control_system"], "edges": [edge, edge]}}


@pytest.mark.parametrize("command,artifact", [("compare", "compare.json"),
                                              ("solve", "field.csv"),
                                              ("value", "field.csv")])
def test_controls_flag_resamples_both_routes(tmp_path: Path, command, artifact):
    """The file's n samples both routes: n = 41 writes other values than n = 5."""
    got = {}
    for n in (41, 5):
        out = tmp_path / str(n)
        assert main([command, "--problem", _write(tmp_path, _quadratic_cost_config(n)),
                     "--dx", "0.05", "--out", str(out)]) == 0
        got[n] = (out / artifact).read_bytes()
    assert got[41] != got[5]
    if command == "compare":
        assert json.loads(got[41])["sup_gap"] <= 1e-12


def _dx(command: str) -> list:
    """--dx 0.1 for the commands that march; validate has no grid options."""
    return [] if command == "validate" else ["--dx", "0.1"]


@pytest.mark.parametrize("command", ["solve", "value", "compare", "approx", "validate"])
def test_too_few_controls_exit_1_without_artifacts(tmp_path: Path, capsys, command):
    problem = _write(tmp_path, _edit(_model_config(), _CS_EDGE + ("controls", "n"), 2))
    out = tmp_path / "out"
    rc = main([command, "--problem", problem, *_dx(command), "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "at least 3 control samples" in capsys.readouterr().err


_SIGNAL_FAULTS = {
    "malformed_signal": {"breakpoints": [0.0, 1.0]},
    "not_a_number": "fast",
    "wrong_horizon": {"breakpoints": [0.0, 2.0], "values": [1.0]},
    "boolean": True,
    "boolean_in_a_signal": {"breakpoints": [0.0, 1.0], "values": [False]},
}


def _fault_at(site: str, value) -> tuple[dict, str]:
    """A problem file with value at one scalar-or-signal entry, and the entry's name."""
    if site == "hamiltonian":
        edges = [{"hamiltonian": {"form": "abs_shift", "c": value}},
                 {"hamiltonian": {"form": "eikonal"}}]
        return _step_config(edges=edges), "coefficient 'c'"
    if site == "flux_limiter":
        return _step_config(flux_limiter=value), "flux_limiter"
    cfg = _model_config()
    block = dict(cfg["control_system"])
    if site == "control_form":
        edge = dict(block["edges"][0])
        edge["f"] = {"c1": value}
        block["edges"] = [edge, block["edges"][1]]
        name = "edge 0 f c1"
    else:
        block["junction"] = {"A0": -1.0, "l0": value}
        name = "junction l0"
    return {**cfg, "control_system": block}, name


@pytest.mark.parametrize("fault", sorted(_SIGNAL_FAULTS))
@pytest.mark.parametrize("site", ["hamiltonian", "flux_limiter", "control_form", "junction_l0"])
def test_bad_scalar_or_signal_entries_exit_1_naming_the_entry(tmp_path: Path, capsys,
                                                               site, fault):
    cfg, name = _fault_at(site, _SIGNAL_FAULTS[fault])
    problem = _write(tmp_path, cfg)
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem, "--dx", "0.1", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {name}: ")


def _edit(cfg: dict, path: tuple, value) -> dict:
    """A deep copy of cfg with the entry at path (keys and list indices) set to value."""
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


_CS_EDGE = ("control_system", "edges", 0)

# (problem file, path, bad value, the name the message starts with)
_BAD_ENTRIES = {
    "T_null": (_step_config, ("T",), None, "T"),
    "T_text": (_step_config, ("T",), "x", "T"),
    "edges_of_numbers": (_step_config, ("edges",), [1, 2], "edge 0"),
    "edges_text": (_step_config, ("edges",), "two", "edges"),
    "length_text": (_step_config, ("edges", 0, "length"), "x", "edge 0 length"),
    "hamiltonian_number": (_step_config, ("edges", 0, "hamiltonian"), 1, "edge 0 hamiltonian"),
    "hamiltonian_form": (_step_config, ("edges", 0, "hamiltonian", "form"), "mystery",
                         "edge 0 hamiltonian form"),
    "p_span_text": (_step_config, ("edges", 1, "hamiltonian"),
                    {"form": "quadratic", "a": 1.0, "b": 0.0, "c": -1.0, "p_span": "x"},
                    "edge 1 hamiltonian p_span"),
    "p_span_negative": (_step_config, ("edges", 1, "hamiltonian"),
                        {"form": "quadratic", "a": 1.0, "b": 0.0, "c": -1.0, "p_span": -1},
                        "edge 1 hamiltonian p_span: expected a positive finite number"),
    "p_span_zero": (_step_config, ("edges", 0, "hamiltonian"),
                    {"form": "quadratic", "a": 1.0, "b": 0.0, "c": -1.0, "p_span": 0},
                    "edge 0 hamiltonian p_span: expected a positive finite number"),
    "orientation_ring": (_step_config, ("orientation",), "ring", "orientation"),
    "lipschitz_u0_text": (_step_config, ("lipschitz_u0",), "x", "lipschitz_u0"),
    "lipschitz_u0_negative": (_step_config, ("lipschitz_u0",), -1,
                              "lipschitz_u0: expected a non-negative finite number"),
    "cs_lipschitz_u0_negative": (_model_config, ("lipschitz_u0",), -0.5,
                                 "lipschitz_u0: expected a non-negative finite number"),
    "T_infinite": (_step_config, ("T",), "inf", "T"),
    "T_negative": (_step_config, ("T",), -1.0, "T"),
    "T_zero": (_step_config, ("T",), 0.0, "T"),
    "R_domain_text": (_step_config, ("R_domain",), "x", "R_domain"),
    "R_domain_nan": (_step_config, ("R_domain",), "nan", "R_domain"),
    "R_domain_negative": (_step_config, ("R_domain",), -1.0, "R_domain"),
    "R_domain_zero": (_step_config, ("R_domain",), 0.0, "R_domain"),
    "u0_number": (_step_config, ("u0",), 3, "u0"),
    "u0_constant_null": (_step_config, ("u0",), {"form": "constant", "c": None}, "u0 constant c"),
    "u0_scale_text": (_step_config, ("u0",), {"form": "abs", "scale": "x"}, "u0 abs scale"),
    "control_system_number": (_model_config, ("control_system",), 5, "control_system"),
    "cs_edges_of_numbers": (_model_config, ("control_system", "edges"), [1, 2], "edge 0"),
    "cs_orientation_ring": (_model_config, ("control_system", "orientation"), "ring",
                            "control_system orientation"),
    "delta_text": (_model_config, ("control_system", "delta"), "x", "control_system delta"),
    "junction_number": (_model_config, ("control_system", "junction"), 0,
                        "control_system junction"),
    "A0_null": (_model_config, ("control_system", "junction", "A0"), None, "junction A0"),
    "controls_number": (_model_config, _CS_EDGE + ("controls",), 5, "edge 0 controls"),
    "controls_n_text": (_model_config, _CS_EDGE + ("controls", "n"), "x", "edge 0 controls n"),
    "controls_min_null": (_model_config, _CS_EDGE + ("controls", "min"), None,
                          "edge 0 controls min"),
    "f_number": (_model_config, _CS_EDGE + ("f",), 3, "edge 0 f"),
    "edges_beside_control_system": (_model_config, ("edges",), _step_config()["edges"],
                                    "edges and control_system"),
    "flux_limiter_beside_control_system": (_model_config, ("flux_limiter",), 0.0,
                                           "flux_limiter and control_system"),
    "orientation_against_control_system": (_model_config, ("orientation",), "star",
                                           "orientation 'star' and control_system "
                                           "orientation 'line'"),
    # float(True) is 1.0, but a JSON boolean is not a number (coefficients: _SIGNAL_FAULTS)
    "T_true": (_step_config, ("T",), True, "T: expected a finite number, got True"),
    "R_domain_false": (_step_config, ("R_domain",), False,
                       "R_domain: expected a finite number, got False"),
    "lipschitz_u0_true": (_step_config, ("lipschitz_u0",), True,
                          "lipschitz_u0: expected a finite number, got True"),
    "A0_false": (_model_config, ("control_system", "junction", "A0"), False,
                 "junction A0: expected a finite number, got False"),
    "controls_n_true": (_model_config, _CS_EDGE + ("controls", "n"), True,
                        "edge 0 controls n: expected an integer, got True"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ENTRIES))
def test_bad_entries_exit_1_with_one_line_naming_the_entry(tmp_path: Path, capsys, case):
    config, path, value, name = _BAD_ENTRIES[case]
    problem = _write(tmp_path, _edit(config(), path, value))
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem, "--dx", "0.1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert not out.exists()
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"configuration error: {name}")


# --T, --R-domain and --controls: the problem file alone sets T, R_domain and the
# control counts; --dt and --cfl-safety: the time steps come from C2 alone
@pytest.mark.parametrize("argv", [["--dx", "abc"], ["--report-times", "a"], ["--bogus"],
                                  ["--seed", "3"], ["--T", "0.5"], ["--R-domain", "1"],
                                  ["--controls", "41"], ["--dt", "0.1"], ["--cfl-safety", "1"]])
def test_usage_errors_exit_1_without_artifacts(tmp_path: Path, capsys, argv):
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["solve", "--problem", problem, "--out", str(out), *argv])
    assert err.value.code == 1
    assert capsys.readouterr().err.startswith("usage: hjj")
    assert not out.exists()


# Each subcommand's options, in order (18 slots); the problem itself (T, R_domain,
# the control counts) comes from the file alone, the time steps from its C2, and an
# option joins only on purpose.
OPTIONS = {
    "solve": ["--problem", "--out", "--dx", "--report-times"],
    "value": ["--problem", "--out", "--dx", "--report-times"],
    "compare": ["--problem", "--out", "--dx", "--report-times"],
    "approx": ["--problem", "--out", "--dx", "--widths"],
    "validate": ["--problem", "--out"],
}


def test_each_subcommand_offers_exactly_its_options():
    ap = hjj.cli.build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: [a.option_strings[0] for a in p._actions
                  if a.option_strings and a.dest != "help"]
           for name, p in sub.choices.items()}
    assert got == OPTIONS
    assert sum(map(len, got.values())) == 18


@pytest.mark.parametrize("option,value", [("--dx", "nan"), ("--dx", "inf")])
def test_non_finite_dx_or_dt_exits_1_naming_the_option(tmp_path: Path, capsys, recwarn,
                                                       option, value):
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem, option, value, "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert lines == [f"configuration error: {option[2:]}: expected a positive finite "
                     f"number, got {value}"]
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# (subcommand, option, refused value) for every numeric option; each also takes nan and inf
_NUMERIC_OPTIONS = [
    ("solve", "--dx", "0"),
    ("solve", "--report-times", "0.5,-0.5"),
    ("approx", "--widths", "0.1,0"),
]


@pytest.mark.parametrize("command,option,value",
                         [(c, o, v) for c, o, refused in _NUMERIC_OPTIONS
                          for v in ("nan", "inf", refused)])
def test_numeric_options_refuse_nan_inf_and_out_of_range_values(tmp_path: Path, capsys,
                                                                recwarn, command, option,
                                                                value):
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    try:
        rc = main([command, "--problem", problem, *_dx(command), option, value,
                   "--out", str(out)])
    except SystemExit as exc:  # a usage error
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert option[2:] in err.splitlines()[-1]
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command,option", [("solve", "--report-times"),
                                            ("value", "--report-times"),
                                            ("compare", "--report-times"),
                                            ("approx", "--widths")])
def test_a_list_option_with_no_number_exits_1_naming_the_option(tmp_path: Path, capsys,
                                                                command, option):
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    rc = main([command, "--problem", problem, *_dx(command), option, ",", "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert lines == [f"configuration error: {option[2:]}: expected at least one number"]
    assert not out.exists()


def test_a_grid_no_array_can_index_exits_1_naming_its_step_count_and_c2(tmp_path: Path,
                                                                         capsys):
    quad = {"hamiltonian": {"form": "quadratic", "a": 1e300, "b": 0.0, "c": -1.0}}
    problem = _write(tmp_path, _step_config(edges=[quad, quad]))
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem, "--dx", "0.05", "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1
    assert re.fullmatch(r"configuration error: the grid needs \S+ time steps at C2 = \S+, "
                        r"more than \d+ can be indexed", lines[0])
    assert not out.exists()


@pytest.mark.parametrize("option", ["--slope-box", "--radius"])
def test_slope_box_and_radius_are_refused_by_approx(tmp_path: Path, capsys, option):
    """approx measures its slope box K from the run and takes R from the grid, so
    neither is an option: each is a usage error, exit 1, nothing written."""
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["approx", "--problem", problem, "--dx", "0.1", option, "1", "--out", str(out)])
    assert err.value.code == 1
    assert capsys.readouterr().err.startswith("usage: hjj")
    assert not out.exists()


def test_a_dx_that_gives_more_nodes_than_can_be_indexed_exits_1_naming_dx(tmp_path: Path,
                                                                           capsys):
    problem = _write(tmp_path, bench_tdq_config(1))
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem, "--dx", "1e-300", "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert lines == ["configuration error: an edge needs 2e+300 nodes at dx = 1e-300, "
                     f"more than {np.iinfo(np.intp).max} can be indexed"]
    assert not out.exists()


def _argv(command: str, problem: str, out: Path) -> list:
    return [command, "--problem", problem, "--out", str(out)] + (
        [] if command == "validate" else ["--dx", "0.1"])


def test_approx_refuses_a_quadratic_a_whose_average_is_not_positive(tmp_path: Path, capsys,
                                                                     recwarn):
    """A cell of 1e30 in a makes the window averages beside it cancel to 0.0."""
    cfg = bench_tdq_config(41)
    cfg["edges"][1]["hamiltonian"]["a"]["values"][0] = 1e30
    out = tmp_path / "out"
    rc = main(_argv("approx", _write(tmp_path, cfg), out))
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: quadratic a: its average at smoothing width 0.2 is 0.0, "
        "expected a positive number"]
    assert not out.exists()
    assert not recwarn.list


@pytest.mark.parametrize("b", [1e308, -1e308, "cell"])
@pytest.mark.parametrize("command", ["validate", "solve", "approx"])
def test_a_quadratic_b_with_no_finite_bound_on_h_exits_1_naming_b(tmp_path: Path, capsys,
                                                                   recwarn, command, b):
    cfg = bench_tdq_config(41)
    quad = cfg["edges"][1]["hamiltonian"]
    if b == "cell":
        quad["b"]["values"][0] = 1e308
    else:
        quad["b"] = b
    out = tmp_path / "out"
    rc = main(_argv(command, _write(tmp_path, cfg), out))
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: quadratic b: a (p - b)^2 + c has no finite bound on |H| at "
        "max|b| = 1e+308"]
    assert not out.exists()
    assert not recwarn.list


def test_a_datum_slope_whose_square_overflows_has_no_bound_on_h(tmp_path: Path, capsys,
                                                                recwarn):
    """A quadratic's bound on |H| over |p| <= lipschitz_u0 squares past the largest float."""
    cfg = dict(bench_tdq_config(41), lipschitz_u0=1e300)
    out = tmp_path / "out"
    rc = main(_argv("solve", _write(tmp_path, cfg), out))
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: edge 1 has no finite bound on |H| for C2: got inf"]
    assert not out.exists()
    assert not recwarn.list


@pytest.mark.parametrize("command", ["validate", "solve", "compare", "approx"])
def test_a_horizon_at_the_breakpoint_tolerance_exits_1_naming_t(tmp_path: Path, capsys,
                                                                recwarn, command):
    out = tmp_path / "out"
    rc = main(_argv(command, _write(tmp_path, _model_config(T=1e-308)), out))
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: T: expected a number above the breakpoint tolerance 1e-12, "
        "got 1e-308"]
    assert not out.exists()
    assert not recwarn.list


# the sampled times' midpoints overflow to inf with a RuntimeWarning, which is still open
@pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
@pytest.mark.parametrize("command", ["validate", "solve", "compare", "approx"])
def test_a_horizon_whose_times_overflow_names_the_first_time_out_of_it(tmp_path: Path,
                                                                       capsys, command):
    out = tmp_path / "out"
    rc = main(_argv(command, _write(tmp_path, _model_config(T=1e308)), out))
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: t=inf outside [0, 1e+308]"]
    assert not out.exists()


@pytest.mark.parametrize("exc,shown", [
    (MemoryError("Unable to allocate 2.16 GiB for an array with shape (1, 3577710, 81) "
                 "and data type float64"),
     "Unable to allocate 2.16 GiB for an array with shape (1, 3577710, 81) and data type "
     "float64"),
    (MemoryError(), "allocation failed"),
], ids=["numpy", "bare"])
def test_running_out_of_memory_exits_1_with_one_line(tmp_path: Path, capsys, monkeypatch,
                                                     exc, shown):
    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr(hjj.cli, "fd_solve", refuse)
    problem = _write(tmp_path, _step_config())
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem, "--dx", "0.1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"out of memory: {shown} (a coarser --dx needs less)"]
    assert not out.exists()


def test_a_field_csv_render_that_fails_midway_leaves_no_artifacts(tmp_path: Path, capsys,
                                                                   monkeypatch):
    render = SolutionField.csv_chunks

    def fail_midway(field):
        chunks = render(field)
        for _ in range(3):
            yield next(chunks)
        raise MemoryError("render failed")

    monkeypatch.setattr(SolutionField, "csv_chunks", fail_midway)
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem, "--dx", "0.1", "--report-times", "0.5",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("out of memory: render failed")
    assert not out.exists()


def _traced_peak(argv: list, out: Path) -> int:
    """tracemalloc's peak in bytes over main(argv, --out out), after one untraced run."""
    assert main([*argv, "--out", str(out.with_name(out.name + "-warm"))]) == 0
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_holds_at_most_three_field_sizes(tmp_path: Path):
    """Its two fields, and no pass over them allocates a third (levels x nodes) array."""
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    peak = _traced_peak(["compare", "--problem", problem, "--dx", "0.01"], out)
    report = json.loads((out / "compare.json").read_text())
    field_bytes = (report["steps"] + 1) * report["nodes"] * 8
    assert peak <= 3 * field_bytes


def test_solve_holds_a_small_part_of_the_field_csv_it_writes(tmp_path: Path):
    """field.csv is written level by level, never held whole."""
    problem = _write(tmp_path, bench_tdq_config(1))
    out = tmp_path / "out"
    peak = _traced_peak(["solve", "--problem", problem, "--dx", "0.02"], out)
    assert peak < 0.25 * (out / "field.csv").stat().st_size


def test_compare_and_value_hold_less_than_one_field(tmp_path: Path):
    """Each route marches level by level into the report or field.csv, so neither command
    holds a (levels x nodes) field."""
    problem = _write(tmp_path, _model_config())
    peak = _traced_peak(["compare", "--problem", problem, "--dx", "0.01"], tmp_path / "compare")
    report = json.loads((tmp_path / "compare" / "compare.json").read_text())
    field_bytes = (report["steps"] + 1) * report["nodes"] * 8
    assert peak < field_bytes
    peak = _traced_peak(["value", "--problem", problem, "--dx", "0.01"], tmp_path / "value")
    with open(tmp_path / "value" / "field.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows * 8 == field_bytes and peak < field_bytes


@pytest.mark.parametrize("command", ["solve", "value", "compare", "approx"])
def test_each_command_marches_each_route_once(tmp_path: Path, monkeypatch, command):
    """field.csv, the snapshots and the report all come from one march per route, and
    approx marches the problem and its ladder as one batch on the batch's grid."""
    problem = _write(tmp_path, _model_config())
    base = problem_from_config(_model_config())[0]
    if command == "approx":
        batch = [base, *smoothing_ladder(base, [0.2, 0.1]).values()]
        options = ["--widths", "0.2,0.1"]
    else:
        batch, options = base, ["--report-times", "0,0.5,1"]
    steps = grid_for(batch, 0.1, 2.0).steps
    counts = count_updates(monkeypatch)
    assert main([command, "--problem", problem, "--dx", "0.1", *options,
                 "--out", str(tmp_path / "out")]) == 0
    want = {"solve": (steps, 0), "value": (0, steps), "compare": (steps, steps),
            "approx": (steps, 0)}[command]
    assert (counts["fd"], counts["dp"]) == want


@pytest.mark.parametrize("dp_fails", ["in-the-call", "at-its-first-update"])
def test_compare_reports_the_schemes_failure_when_both_routes_fail(tmp_path: Path, monkeypatch,
                                                                   capsys, dp_fails):
    """The scheme fails at its fifth update, the value function before that: in its
    call (a configuration error, exit 1 alone) or at its first update. compare reports
    the scheme's failure, as when the scheme marched first, and writes nothing."""
    problem = _write(tmp_path, _model_config())
    updates = []

    def fd_breaks(*args, real=fd_scheme_module._advance):
        updates.append(args)
        if len(updates) == 5:
            raise NumericalFailure("the scheme breaks at its fifth update")
        return real(*args)

    def dp_breaks(*args):
        raise (ConfigError if dp_fails == "in-the-call" else NoAdmissibleControl)("dp breaks")

    monkeypatch.setattr(fd_scheme_module, "_advance", fd_breaks)
    monkeypatch.setattr(dpp_oracle_module,
                        "_windows" if dp_fails == "in-the-call" else "_bellman", dp_breaks)
    out = tmp_path / "out"
    assert main(["compare", "--problem", problem, "--dx", "0.1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("numerical failure: the scheme breaks at its fifth "
                                       "update\n")
    assert len(updates) == 5 and not out.exists()
