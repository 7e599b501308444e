"""Command-line front end.

Subcommands:
  solve      march the monotone difference scheme, write a t,x,u CSV
  value      dynamic-programming value function (control problems only)
  compare    run both routes on one grid, write a JSON gap report
  approx     smoothing-width ladder with the priced error signal, JSON
  validate   check standing assumptions, print one line per check

Every command reads a JSON problem file (--problem; the format is
junction_problem's, see problem_from_config), which describes one problem,
and writes its artifacts into the --out directory. The problem, with its
horizon T, truncation radius R_domain and control counts, comes from the
file alone; the options set only how to run it. A file whose flux limiter
dips below the junction floor is refused before anything is built, as
validate refuses it (exit 2). solve and value march while they write
field.csv: each level is rendered into a temp file as the march makes it,
and only the levels nearest the report times are kept, for the snapshots.
compare folds both marches level by level into its report; when both
routes fail, the scheme's failure is the one reported. Each command
marches each route once. Every artifact is renamed into place only once it
is complete, and a step that fails removes the artifacts the run already
put in place, with any --out directory it created, so a nonzero exit
leaves no artifact of its run.
The commands that march build their grid with grid_for, whose time steps
come from the integral of the problem's C2 (there is no step option), and
start from the problem's initial_data, on both routes.
Exit codes: 0 ok, 1 configuration (running out of memory too), 2 validation,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterator

import numpy as np

from .approximation import comparison_diagnostic, smoothing_ladder
from .control_system import ControlSystem
from .dpp_oracle import value_function
from .errors import (
    CflViolation,
    ConfigError,
    FluxLimiterBelowFloor,
    HjjError,
    NoAdmissibleControl,
    NumericalFailure,
)
from .fd_scheme import grid_for, solve as fd_solve
from .grid import SolutionField, _positive_finite, atomic_write_text, fmt
from .junction_problem import JunctionProblem, check_floor, entry, problem_from_config, validate

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
    return cfg


def _load_problem(args) -> tuple[JunctionProblem, ControlSystem | None, float]:
    """The file's problem, its control system (or None) and its R_domain (default 2).

    Report times past the horizon are a ConfigError. Then a flux limiter
    below the junction floor is refused before any grid is built
    (check_floor's FluxLimiterBelowFloor).
    """
    cfg = _load_config(args)
    problem, cs = problem_from_config(cfg)
    r_domain = _positive_finite("R_domain", entry(cfg, "R_domain", "", float, 2.0))
    if getattr(args, "report_times", None):
        bad = [t for t in args.report_times
               if t > problem.horizon + 1e-9 * max(1.0, problem.horizon)]
        if bad:
            raise ConfigError(
                f"report times {bad} fall outside [0, {problem.horizon}]")
    check_floor(problem)
    return problem, cs, r_domain


def _out_path(args, name: str) -> str:
    return os.path.join(args.out, name)


def _write_all(args, artifacts: list) -> int:
    """artifacts: (relative name, text or its chunks), each through atomic_write_text.

    Chunks are rendered while they are written, so a field that marches
    when read marches here. When a step fails, every artifact this call
    renamed into place is removed, and so is every directory of --out that
    it created; the paths are printed once all are written.
    """
    made, path = [], os.path.abspath(args.out)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(args.out, exist_ok=True)
    written = []
    try:
        for name, text in artifacts:
            atomic_write_text(_out_path(args, name), text)
            written.append(_out_path(args, name))
    except BaseException:
        # the run's own error is the one to report, so a removal that fails is passed over
        for path in written:
            with contextlib.suppress(OSError):
                os.unlink(path)
        for path in made:  # deepest first
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    for path in written:
        print(path)
    return EXIT_OK


def _field_artifacts(field: SolutionField, args) -> list:
    """field.csv as its per-level chunks, written first, then each snapshot's text.

    One read of field feeds them all: the stream that renders field.csv
    keeps the levels nearest the report times, and each snapshot is
    rendered from its kept level once field.csv is written.
    """
    times = sorted(args.report_times or [])
    kept = dict.fromkeys(field.grid.level_index(t) for t in times)

    def levels():
        for n, level in enumerate(field.levels()):
            if n in kept:
                kept[n] = level
            yield level

    def snapshot(t):
        yield field._snapshot_tsv(t, kept[field.grid.level_index(t)])

    arts = [("field.csv", SolutionField(field.grid, levels, field.line).csv_chunks())]
    return arts + [(f"snapshot_{k}.tsv", snapshot(t)) for k, t in enumerate(times)]


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _require_control_system(cs: ControlSystem | None) -> ControlSystem:
    if cs is None:
        raise ConfigError(
            "this command needs a control_system block in the problem file")
    return cs


def cmd_solve(args) -> int:
    problem, _, r_domain = _load_problem(args)
    grid = grid_for(problem, args.dx, r_domain)
    field = fd_solve(problem, grid)
    return _write_all(args, _field_artifacts(field, args))


def cmd_value(args) -> int:
    problem, cs, r_domain = _load_problem(args)
    cs = _require_control_system(cs)
    grid = grid_for(problem, args.dx, r_domain)
    field = value_function(cs, problem.initial_data, grid)
    return _write_all(args, _field_artifacts(field, args))


def _fd_first(fd: SolutionField, dp_route) -> Iterator[tuple]:
    """(fd level, dp level) pairs, marching both routes in step.

    dp_route() builds the value function's field. A failure of that call or
    of its march waits until fd's march has run to its end, so when both
    routes fail, fd's failure is the one raised, as when fd marched first.
    """
    fd_levels = fd.levels()
    try:
        dp_levels = dp_route().levels()
        for a in fd_levels:
            yield a, next(dp_levels)
    except Exception:
        for _ in fd_levels:
            pass
        raise


def cmd_compare(args) -> int:
    problem, cs, r_domain = _load_problem(args)
    cs = _require_control_system(cs)
    grid = grid_for(problem, args.dx, r_domain)
    fd = fd_solve(problem, grid)
    pairs = _fd_first(fd, lambda: value_function(cs, problem.initial_data, grid))
    # one pass over both marches: each level's largest |fd - dp|, |fd| and |dp|, and the
    # gaps at the report levels; the largest per-level maximum has the whole field's bits
    # (grid._max_abs), so sup_gap keeps linf_gap's
    wanted, peaks, gaps = {grid.level_index(t) for t in args.report_times or []}, [], {}
    for n, (a, b) in enumerate(pairs):
        d = np.abs(a - b)
        peaks.append((d.max(), np.abs(a).max(), np.abs(b).max()))
        if n in wanted:
            gaps[n] = {"linf": float(np.max(d)), "l1": float(np.sum(d) * grid.dx)}
    sup_gap, fd_sup, dp_sup = (float(np.max(col)) for col in zip(*peaks))
    report = {
        "dx": grid.dx,
        "dt": grid.dt,
        "steps": grid.steps,
        "nodes": grid.n_nodes,
        "sup_gap": sup_gap,
        "fd_sup_norm": fd_sup,
        "dp_sup_norm": dp_sup,
        "gaps_at_report_times": {
            fmt(t): gaps[grid.level_index(t)] for t in sorted(args.report_times or [])
        },
    }
    return _write_all(args, [("compare.json", _dump_json(report))])


def cmd_approx(args) -> int:
    problem, _, r_domain = _load_problem(args)
    ladder = smoothing_ladder(problem, args.widths)
    grid = grid_for([problem, *ladder.values()], args.dx, r_domain)
    study = comparison_diagnostic(problem, ladder, grid, K=args.slope_box, R=args.radius)
    payload = study.to_dict()
    return _write_all(args, [("approx.json", _dump_json(payload))])


def cmd_validate(args) -> int:
    problem, _, _ = _load_problem(args)
    report = validate(problem)
    for line in report.lines():
        print(line)
    if args.out and report.ok:
        payload = {
            "ok": report.ok,
            "items": [
                {"name": it.name, "passed": it.passed, "detail": it.detail}
                for it in report.items
            ],
        }
        _write_all(args, [("validate.json", _dump_json(payload))])
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _number(option: str, zero_ok: bool = False, many: bool = False):
    """The argparse type of a numeric option: a float, finite and > 0 (>= 0 with zero_ok).

    With many, a comma-separated list of at least one of them; empty items
    are skipped. Text that float cannot read is a usage error; a value that
    is not finite or out of range raises the ConfigError of grid's dx
    check, and a list with no number a ConfigError, each naming the option
    (without its dashes), which main reports as a configuration error.
    """
    def read(text: str):
        vals = [float(tok) for tok in text.split(",") if tok.strip()] if many else [float(text)]
        if not vals:
            raise ConfigError(f"{option}: expected at least one number")
        for v in vals:
            _positive_finite(option, v, zero_ok)
        return vals if many else vals[0]

    read.__name__ = "float"  # argparse's "invalid float value" names it
    return read


def _add_common(p: argparse.ArgumentParser, need_out: bool) -> None:
    """The options of every command: the problem file and the output directory.

    The problem itself (T, R_domain, the control counts) comes from the file alone.
    """
    p.add_argument("--problem", required=True, help="JSON problem file")
    p.add_argument("--out", required=need_out, default=None,
                   help="output directory" + ("" if need_out else " (optional)"))


def _add_march(p: argparse.ArgumentParser) -> None:
    """The grid options of the commands that march."""
    p.add_argument("--dx", type=_number("dx"), default=0.01,
                   help="mesh width; the time steps follow from it and C2")


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

    for name, func, text in (("solve", cmd_solve, "monotone difference scheme"),
                             ("value", cmd_value, "dynamic-programming value function"),
                             ("compare", cmd_compare, "both routes on one grid, gap report")):
        p = sub.add_parser(name, help=text)
        _add_common(p, need_out=True)
        _add_march(p)
        p.add_argument("--report-times", type=_number("report-times", zero_ok=True, many=True),
                       default=None, dest="report_times", metavar="t1,t2,...",
                       help="comma-separated times; one snapshot each, snapped "
                            "to the nearest grid level")
        p.set_defaults(func=func)

    p = sub.add_parser("approx", help="smoothing ladder with error signal")
    _add_common(p, need_out=True)
    _add_march(p)
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
    except (CflViolation, NumericalFailure, NoAdmissibleControl) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (HjjError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'} (a coarser --dx needs less)",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
