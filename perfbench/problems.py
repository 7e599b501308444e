"""Problem files for the benchmark workloads, drawn from the workload seed.

tdq: a two-edge line problem with zero datum. The right edge is eikonal;
the reflected left edge is a time-dependent quadratic a(t) (p - b(t))^2 - 1
with the default p_span, and the flux limiter A(t) is a step signal. The
seed draws breakpoints and values on a fixed number of cells; the extremes
max a = 2 and max |b| = 0.25 are pinned, so C2 = 2 * 2 * (10 + 0.25) = 41
and with it the step and node counts do not depend on the seed.

model: criterion 1's control system (f = a, l = 1, A = 0, zero datum,
21 controls per edge), whose value function is min(t, |x|). It takes no
seed.
"""

from __future__ import annotations

import numpy as np

HORIZON = 1.0
R_DOMAIN = 2.0
CELLS = 8
MIN_CELL = 0.02
A_RANGE = (0.5, 2.0)
B_MAX = 0.25
LIMITER_RANGE = (-1.0, 0.5)


def _breakpoints(rng: np.random.Generator) -> list:
    widths = MIN_CELL + (HORIZON - CELLS * MIN_CELL) * rng.dirichlet(np.ones(CELLS))
    bp = np.concatenate(([0.0], np.cumsum(widths)))
    bp[-1] = HORIZON
    return [float(t) for t in bp]


def _signal(rng: np.random.Generator, lo: float, hi: float,
            pin: float | None = None) -> dict:
    values = rng.uniform(lo, hi, CELLS)
    if pin is not None:
        values[rng.integers(CELLS)] = pin
    return {"breakpoints": _breakpoints(rng), "values": [float(v) for v in values]}


def tdq_problem(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    b_pin = B_MAX if rng.integers(2) else -B_MAX
    quadratic = {
        "form": "quadratic",
        "a": _signal(rng, *A_RANGE, pin=A_RANGE[1]),
        "b": _signal(rng, -B_MAX, B_MAX, pin=b_pin),
        "c": -1.0,
    }
    return {
        "schema": "hjj/1",
        "T": HORIZON,
        "R_domain": R_DOMAIN,
        "edges": [
            {"hamiltonian": {"form": "eikonal"}},
            {"hamiltonian": quadratic},
        ],
        "flux_limiter": _signal(rng, *LIMITER_RANGE),
        "u0": {"form": "zero"},
    }


def model_problem() -> dict:
    edge = {"f": {"c1": 1.0}, "l": {"c0": 1.0},
            "controls": {"min": -1.0, "max": 1.0, "n": 21}}
    return {
        "schema": "hjj/1",
        "T": HORIZON,
        "R_domain": R_DOMAIN,
        "control_system": {
            "edges": [edge, edge],
            "junction": {"l0": 0.0, "A0": -1.0},
            "delta": 1.0,
        },
        "u0": {"form": "zero"},
    }


def tdq_sup_bound(cfg: dict) -> float:
    """T * max(sup|A|, sup_i sup_t |H_i(t, 0)|), over-estimated for a tdq problem.

    +-C t are a super- and a subsolution of the scheme when C bounds |A|
    and |H_i(t, 0)|, so the discrete solution from zero data stays below
    this in absolute value. The quadratic's |a b^2 + c| is maximised over
    every pair of cell values, which can only raise the bound.
    """
    quad = cfg["edges"][1]["hamiltonian"]
    h0 = [1.0]  # eikonal: |H(0)| = 1
    h0 += [abs(a * b * b + quad["c"])
           for a in quad["a"]["values"] for b in quad["b"]["values"]]
    sup_a = max(abs(v) for v in cfg["flux_limiter"]["values"])
    return cfg["T"] * max(sup_a, max(h0))
