"""Command-line front end.

Subcommands:
  solve      march the monotone difference scheme, write a t,x,u CSV
  value      dynamic-programming value function (control problems only)
  compare    run both routes on one grid, write a JSON gap report
  approx     smoothing-width ladder with the priced error signal, JSON
  validate   check standing assumptions, print one line per check

Every command reads a JSON problem file (--problem; the format is
junction_problem's, see problem_from_config) and writes its artifacts
into the --out directory; everything is computed before anything is written,
so a nonzero exit leaves no artifacts behind.
Exit codes: 0 ok, 1 configuration, 2 validation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .approximation import comparison_diagnostic
from .control_system import ControlSystem
from .dpp_oracle import oracle_grid, value_function
from .errors import (
    CflViolation,
    ConfigError,
    FluxLimiterBelowFloor,
    HjjError,
    NegativeKn,
    NoAdmissibleControl,
    NumericalFailure,
)
from .fd_scheme import grid_for, solve as fd_solve
from .grid import Grid, SolutionField, _positive_finite, atomic_write_text, fmt, make_grid
from .junction_problem import JunctionProblem, entry, problem_from_config, validate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

SCHEMA = "hjj/1"


def _load_config(args) -> dict:
    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"problem file is not valid JSON: {exc}") from exc
    entry(cfg, "schema", "", (SCHEMA,), SCHEMA)
    if args.T is not None:
        cfg = dict(cfg)
        cfg["T"] = args.T
    return cfg


def _load_problem(args) -> tuple[JunctionProblem, ControlSystem | None]:
    cfg = _load_config(args)
    problem, cs = problem_from_config(cfg, controls=args.controls)
    if args.R_domain is None:
        args.R_domain = _positive_finite("R_domain", entry(cfg, "R_domain", "", float, 2.0))
    if args.report_times:
        bad = [t for t in args.report_times
               if t > problem.horizon + 1e-9 * max(1.0, problem.horizon)]
        if bad:
            raise ConfigError(
                f"report times {bad} fall outside [0, {problem.horizon}]")
    return problem, cs


def _out_path(args, name: str) -> str:
    return os.path.join(args.out, name)


def _write_all(args, artifacts: list) -> int:
    """artifacts: (relative name, text). Rendered first, written last."""
    os.makedirs(args.out, exist_ok=True)
    for name, text in artifacts:
        path = _out_path(args, name)
        atomic_write_text(path, text)
        print(path)
    return EXIT_OK


def _field_artifacts(field: SolutionField, args) -> list:
    arts = [("field.csv", field.to_csv())]
    for k, t in enumerate(sorted(args.report_times or [])):
        arts.append((f"snapshot_{k}.tsv", field.to_snapshot_tsv(t)))
    return arts


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _require_control_system(cs: ControlSystem | None) -> ControlSystem:
    if cs is None:
        raise ConfigError(
            "this command needs a control_system block in the problem file")
    return cs


def _dp_datum(problem: JunctionProblem):
    if problem.line_convention and problem.u0_line is not None:
        return problem.u0_line
    return list(problem.initial_data)


def cmd_solve(args) -> int:
    problem, _ = _load_problem(args)
    grid = grid_for(problem, args.dx, args.R_domain,
                    dt=args.dt, cfl_safety=args.cfl_safety)
    field = fd_solve(problem, grid)
    return _write_all(args, _field_artifacts(field, args))


def cmd_value(args) -> int:
    problem, cs = _load_problem(args)
    cs = _require_control_system(cs)
    grid = oracle_grid(cs, args.dx, problem.horizon, args.R_domain,
                       dt=args.dt, cfl_safety=args.cfl_safety)
    field = value_function(cs, _dp_datum(problem), grid)
    return _write_all(args, _field_artifacts(field, args))


def _common_grid(problem: JunctionProblem, cs: ControlSystem, args) -> Grid:
    """A grid on which both routes run: C2 covers the problem and the control system."""
    radii = [min(e.length, args.R_domain) for e in problem.edges]
    c2 = max(problem.cfl_speed(args.dx, radii)[0], cs.max_speed(args.dx, radii))
    return make_grid(args.dx, problem.horizon, radii, c2=c2,
                     dt=args.dt, cfl_safety=args.cfl_safety)


def cmd_compare(args) -> int:
    problem, cs = _load_problem(args)
    cs = _require_control_system(cs)
    grid = _common_grid(problem, cs, args)
    fd = fd_solve(problem, grid)
    dp = value_function(cs, _dp_datum(problem), grid)

    def gaps(n: int) -> dict:
        d = np.abs(fd.level(n) - dp.level(n))
        return {"linf": float(np.max(d)), "l1": float(np.sum(d) * grid.dx)}

    report = {
        "dx": grid.dx,
        "dt": grid.dt,
        "steps": grid.steps,
        "nodes": grid.n_nodes,
        "sup_gap": fd.linf_gap(dp),
        "fd_sup_norm": fd.sup_norm(),
        "dp_sup_norm": dp.sup_norm(),
        "gaps_at_report_times": {
            fmt(t): gaps(grid.level_index(t))
            for t in sorted(args.report_times or [])
        },
    }
    return _write_all(args, [("compare.json", _dump_json(report))])


def cmd_approx(args) -> int:
    problem, _ = _load_problem(args)
    grid = grid_for(problem, args.dx, args.R_domain, dt=args.dt, cfl_safety=args.cfl_safety)
    study = comparison_diagnostic(problem, args.widths, grid, K=args.slope_box, R=args.radius)
    payload = study.to_dict()
    return _write_all(args, [("approx.json", _dump_json(payload))])


def cmd_validate(args) -> int:
    problem, _ = _load_problem(args)
    report = validate(problem, seed=args.seed)
    for line in report.lines():
        print(line)
    if args.out:
        payload = {
            "ok": report.ok,
            "items": [
                {"name": it.name, "passed": it.passed, "detail": it.detail}
                for it in report.items
            ],
        }
        _write_all(args, [("validate.json", _dump_json(payload))])
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _number(option: str, kind=float, zero_ok: bool = False, many: bool = False):
    """The argparse type of a numeric option: kind, finite and > 0 (>= 0 with zero_ok).

    With many, a comma-separated list of them. Text that kind cannot read
    is a usage error; a value that is not finite or out of range raises the
    ConfigError of grid's dx and dt checks, naming the option (without its
    dashes), which main reports as a configuration error.
    """
    def read(text: str):
        vals = [kind(tok) for tok in text.split(",") if tok.strip()] if many else [kind(text)]
        for v in vals:
            _positive_finite(option, v, zero_ok)
        return vals if many else vals[0]

    read.__name__ = kind.__name__  # argparse's "invalid float value" names it
    return read


def _add_common(p: argparse.ArgumentParser, need_out: bool) -> None:
    p.add_argument("--problem", required=True, help="JSON problem file")
    p.add_argument("--dx", type=_number("dx"), default=0.01, help="mesh width")
    p.add_argument("--dt", type=_number("dt"), default=None,
                   help="explicit time step (default: from the CFL bound)")
    p.add_argument("--cfl-safety", type=_number("cfl-safety"), default=0.5, dest="cfl_safety",
                   help="fraction of the CFL bound used when --dt is absent")
    p.add_argument("--T", type=_number("T"), default=None,
                   help="override the horizon from the problem file")
    p.add_argument("--R-domain", type=_number("R-domain"), default=None, dest="R_domain",
                   help="truncation radius per edge (default: problem file "
                        "R_domain, else 2)")
    p.add_argument("--out", required=need_out, default=None,
                   help="output directory" + ("" if need_out else " (optional)"))
    p.add_argument("--report-times", type=_number("report-times", zero_ok=True, many=True),
                   default=None,
                   dest="report_times", metavar="t1,t2,...",
                   help="comma-separated times; one snapshot each, snapped "
                        "to the nearest grid level")
    p.add_argument("--seed", type=_number("seed", int, zero_ok=True), default=20,
                   help="seed for randomized validation probes")
    p.add_argument("--controls", type=_number("controls", int), default=None,
                   help="resample each control set to this many points, "
                        "for both routes")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with the configuration code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hjj",
        description="Hamilton-Jacobi junction solver and verification tools")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="monotone difference scheme")
    _add_common(p, need_out=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("value", help="dynamic-programming value function")
    _add_common(p, need_out=True)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("compare", help="both routes on one grid, gap report")
    _add_common(p, need_out=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("approx", help="smoothing ladder with error signal")
    _add_common(p, need_out=True)
    p.add_argument("--widths", type=_number("widths", many=True),
                   default=[0.2, 0.1, 0.05, 0.025],
                   metavar="w1,w2,...",
                   help="comma-separated smoothing widths")
    p.add_argument("--slope-box", type=_number("slope-box"), default=None, dest="slope_box",
                   help="slope box half-width K (default: measured)")
    p.add_argument("--radius", type=_number("radius"), default=None,
                   help="spatial radius R for the edge comparison")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("validate", help="check the standing assumptions")
    _add_common(p, need_out=False)
    p.set_defaults(func=cmd_validate)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FluxLimiterBelowFloor as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CflViolation, NumericalFailure, NoAdmissibleControl,
            NegativeKn) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (HjjError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
