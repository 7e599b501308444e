"""Run one hjj CLI invocation inside this process, traced or keeping its fields.

    python3 perfbench/inproc.py --result R.json [--trace --spans S.json --run-id ID]
        [--closed-form] -- <hjj command line>

--trace installs tracer.Tracer before the command runs and stores its
summary in R.json and its spans in S.json. --closed-form keeps every field
returned by fd_scheme.solve and dpp_oracle.value_function and stores their
sup error against min(t, |x|), the value function of criterion 1's model
problem. hjj is imported from PYTHONPATH.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def _keep_results(package, name: str, kept: list) -> None:
    """Wrap a callable at every name hjj binds it to, keeping its results."""
    mod_name, attr = name.split(".")
    mod = getattr(package, mod_name)
    fn = getattr(mod, attr)

    def keep(*args, **kwargs):
        result = fn(*args, **kwargs)
        kept.append(result)
        return result

    for m in [package] + [v for v in vars(package).values() if type(v) is type(sys)]:
        for key, value in list(vars(m).items()):
            if value is fn:
                setattr(m, key, keep)


def closed_form_error(field) -> dict:
    import numpy as np  # here, so that its import falls inside the cli.import span

    grid = field.grid
    exact = np.minimum(grid.times[:, None], np.abs(grid.line_x())[None, :])
    err = np.abs(field.values[:, grid.line_flat_indices()] - exact)
    return {"dx": float(grid.dx), "err": float(np.max(err))}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--run-id", default="0")
    ap.add_argument("--closed-form", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    tracer = Tracer() if opts.trace else None
    if tracer:
        span = tracer.begin("cli.import")
    import hjj
    import hjj.cli
    if tracer:
        tracer.end(span)
        tracer.install(hjj)
    fd_fields, dp_fields = [], []
    if opts.closed_form:
        _keep_results(hjj, "fd_scheme.solve", fd_fields)
        _keep_results(hjj, "dpp_oracle.value_function", dp_fields)

    if tracer:
        span = tracer.begin("cli.main")
    try:
        rc = hjj.cli.main(argv)
    finally:
        if tracer:
            tracer.end(span)
    wall = time.perf_counter() - T0

    t_post = time.perf_counter()
    result = {"rc": rc, "wall_s": wall, "hjj_file": hjj.__file__}
    if tracer:
        result["summary"] = tracer.summary(wall)
        if opts.spans:
            tracer.write_spans(opts.spans, opts.run_id)
    if opts.closed_form:
        result["closed_form"] = {
            "fd": [closed_form_error(f) for f in fd_fields],
            "dp": [closed_form_error(f) for f in dp_fields],
        }
    result["post_s"] = time.perf_counter() - t_post
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
