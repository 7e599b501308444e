from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path

import pytest

import hjj.cli
from hjj import ControlEdge, ControlSystem, grid_for, oracle_grid, problem_from_config
from hjj.cli import _common_grid, main


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


def test_cfl_violation_exits_3_without_artifacts(tmp_path: Path):
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem, "--dx", "0.05",
               "--dt", "0.2", "--out", str(out)])
    assert rc == 3
    assert not out.exists()


def test_flux_limiter_below_floor_exits_2(tmp_path: Path):
    problem = _write(tmp_path, _step_config(flux_limiter=-5.0))
    out = tmp_path / "out"
    rc = main(["validate", "--problem", problem, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_r_domain_from_config_controls_the_grid(tmp_path: Path):
    problem = _write(tmp_path, _model_config(R_domain=1.0))
    out = tmp_path / "out"
    assert main(["solve", "--problem", problem, "--dx", "0.25",
                 "--out", str(out)]) == 0
    xs = {x for (_, x) in _read_field(out / "field.csv")}
    assert max(xs) == 1.0 and min(xs) == -1.0
    # an explicit flag overrides the file value
    out2 = tmp_path / "out2"
    assert main(["solve", "--problem", problem, "--dx", "0.25",
                 "--R-domain", "2.0", "--out", str(out2)]) == 0
    xs2 = {x for (_, x) in _read_field(out2 / "field.csv")}
    assert max(xs2) == 2.0


def test_seed_option_is_accepted_by_validate(tmp_path: Path):
    problem = _write(tmp_path, _step_config())
    out = tmp_path / "out"
    assert main(["validate", "--problem", problem, "--seed", "77",
                 "--out", str(out)]) == 0


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--help"])
    assert err.value.code == 0


def test_value_bound_breach_exits_3_without_artifacts(tmp_path: Path, capsys,
                                                      monkeypatch):
    # zero cost and limiter bounds make the a priori sup bound 0, which the
    # value function min(t, |x|) breaks
    monkeypatch.setattr("hjj.control_system.ControlSystem.cost_bound",
                        lambda self, dx=None, radii=None: 0.0)
    monkeypatch.setattr("hjj.control_system.ControlSystem.abar_bound", lambda self: 0.0)
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

    def x_dependent(cfg, controls=None):
        problem, cs = real(cfg, controls)
        drift = lambda t, y, a: a * (1.0 + 3.0 * (t > 0.0) * min(abs(y), 0.1) / 0.1)
        edges = [ControlEdge(drift, e.l, e.controls) for e in cs.edges]
        return problem, ControlSystem(edges, cs.l0, cs.A0, cs.delta, cs.orientation)

    monkeypatch.setattr(hjj.cli, "problem_from_config", x_dependent)
    problem = _write(tmp_path, _model_config(T=0.05))
    out = tmp_path / "out"
    rc = main(["value", "--problem", problem, "--dx", "0.01", "--cfl-safety", "1",
               "--R-domain", "0.3", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("numerical failure: dt=0.01 exceeds dx/|f|")


def test_grid_for_common_grid_and_oracle_grid_agree_on_the_model_problem():
    problem, cs = problem_from_config(_model_config())
    args = argparse.Namespace(dx=0.01, R_domain=2.0, dt=None, cfl_safety=0.5)
    grids = [grid_for(problem, 0.01, 2.0), _common_grid(problem, cs, args),
             oracle_grid(cs, 0.01, 1.0, 2.0)]
    assert {(g.dt, g.steps, g.n_nodes) for g in grids} == {(0.005, 200, 401)}


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
    """--controls 41 on a 5-control file writes what the file with n = 41 writes."""
    coarse = _write(tmp_path, _quadratic_cost_config(5), "coarse.json")
    fine = _write(tmp_path, _quadratic_cost_config(41), "fine.json")
    got = {}
    for name, problem, extra in (("flag", coarse, ["--controls", "41"]), ("file", fine, []),
                                 ("coarse", coarse, [])):
        out = tmp_path / name
        assert main([command, "--problem", problem, "--dx", "0.05",
                     "--out", str(out), *extra]) == 0
        got[name] = (out / artifact).read_bytes()
    assert got["flag"] == got["file"] != got["coarse"]
    if command == "compare":
        assert json.loads(got["flag"])["sup_gap"] <= 1e-12


@pytest.mark.parametrize("command", ["solve", "value", "compare", "approx", "validate"])
def test_too_few_controls_exit_1_without_artifacts(tmp_path: Path, capsys, command):
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    rc = main([command, "--problem", problem, "--dx", "0.1", "--controls", "2",
               "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "at least 3 control samples" in capsys.readouterr().err


_SIGNAL_FAULTS = {
    "malformed_signal": {"breakpoints": [0.0, 1.0]},
    "not_a_number": "fast",
    "wrong_horizon": {"breakpoints": [0.0, 2.0], "values": [1.0]},
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
    "orientation_ring": (_step_config, ("orientation",), "ring", "orientation"),
    "lipschitz_u0_text": (_step_config, ("lipschitz_u0",), "x", "lipschitz_u0"),
    "T_infinite": (_step_config, ("T",), "inf", "T"),
    "T_negative": (_step_config, ("T",), -1.0, "T"),
    "R_domain_text": (_step_config, ("R_domain",), "x", "R_domain"),
    "R_domain_nan": (_step_config, ("R_domain",), "nan", "R_domain"),
    "R_domain_negative": (_step_config, ("R_domain",), -1.0, "R_domain"),
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


def test_approx_honours_dt(tmp_path: Path):
    problem = _write(tmp_path, _step_config())
    common = ["approx", "--problem", problem, "--dx", "0.05", "--widths", "0.2,0.1"]
    assert main(common + ["--out", str(tmp_path / "default")]) == 0
    assert main(common + ["--dt", "0.01", "--out", str(tmp_path / "fine")]) == 0
    default = json.loads((tmp_path / "default" / "approx.json").read_text())
    fine = json.loads((tmp_path / "fine" / "approx.json").read_text())
    assert default["dt"] == 0.025
    assert fine["dt"] == 0.01
    # dx / C2 = 0.05 on eikonal edges
    out = tmp_path / "coarse"
    assert main(common + ["--dt", "0.06", "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--dx", "abc"], ["--controls", "many"], ["--bogus"]])
def test_usage_errors_exit_1_without_artifacts(tmp_path: Path, capsys, argv):
    problem = _write(tmp_path, _model_config())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["solve", "--problem", problem, "--out", str(out), *argv])
    assert err.value.code == 1
    assert capsys.readouterr().err.startswith("usage: hjj")
    assert not out.exists()


@pytest.mark.parametrize("option,value", [("--dx", "nan"), ("--dx", "inf"),
                                          ("--dt", "nan"), ("--dt", "inf")])
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
    ("solve", "--dt", "0"),
    ("solve", "--cfl-safety", "0"),
    ("solve", "--T", "0"),
    ("solve", "--R-domain", "0"),
    ("solve", "--report-times", "0.5,-0.5"),
    ("validate", "--seed", "-1"),
    ("value", "--controls", "0"),
    ("approx", "--widths", "0.1,0"),
    ("approx", "--slope-box", "0"),
    ("approx", "--radius", "0"),
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
        rc = main([command, "--problem", problem, "--dx", "0.1", option, value,
                   "--out", str(out)])
    except SystemExit as exc:  # a usage error
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert option[2:] in err.splitlines()[-1]
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
