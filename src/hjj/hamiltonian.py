"""Convex coercive Hamiltonians and their monotone envelope splitting.

A Hamiltonian here is a function H(t, x, p), convex and coercive in the
gradient variable p, with time dependence allowed only through declared
piecewise-constant coefficient signals. The envelope splitting

    h_plus(p)  = min H          for p <= p_hat,  H(p) otherwise
    h_minus(p) = H(p)           for p <= p_hat,  min H otherwise

(with p_hat a minimizer of H(t, x, .)) yields the nondecreasing and
nonincreasing parts used by the Godunov flux and the junction operator.
Catalog forms know their minimiser, minimum and envelopes in closed form
(CATALOG); any other Hamiltonian is minimised numerically.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import BracketFailure, ConvexityError, NonSeparableTimeDependence
from .time_signal import (
    TimeSignal,
    coeff_average,
    coeff_bounds,
    coeff_eval,
    coeff_signals,
)

__all__ = [
    "CATALOG",
    "Hamiltonian",
    "EnvelopePair",
    "argmin_p",
    "numeric_argmin",
    "envelopes",
    "a0_floor",
    "abs_shift",
    "eikonal",
    "quadratic",
    "hamiltonian_from_config",
    "reflected",
    "check_convexity",
]

_ARGMIN_TOL = 1e-10
_FLAT_TOL = 1e-9
_MAX_DOUBLINGS = 60
_MAX_TERNARY = 200


class Hamiltonian:
    """Convex-in-p Hamiltonian with declared regularity metadata.

    evaluator        callable (t, x, p) -> value; must broadcast over numpy
                     arrays in p for the fast paths
    lipschitz_p      declared bound on |dH/dp| over the working slope range
    coercivity_radius  callable (t, x) -> initial bracket radius P with
                     H(t, x, +-P) > H(t, x, 0); doubling extends it if needed
    form             catalog form name (closed forms in CATALOG), or None
    coefficients     named coefficients (floats or TimeSignals) for catalog
                     forms; drives exact window averaging and mollification
    time_data        the TimeSignal coefficients; empty means the Hamiltonian
                     is declared time-independent
    x_independent    True when H ignores x (one split point serves all nodes)
    """

    def __init__(
        self,
        evaluator: Callable,
        lipschitz_p: float,
        coercivity_radius=1.0,
        form: str | None = None,
        coefficients: dict | None = None,
        time_data: dict | None = None,
        x_independent: bool = False,
        rebuild: Callable | None = None,
        reflect: Callable | None = None,
        validate: bool = True,
    ):
        self.evaluator = evaluator
        self.lipschitz_p = float(lipschitz_p)
        if not callable(coercivity_radius):
            r = float(coercivity_radius)
            coercivity_radius = lambda t, x: r  # noqa: E731
        self.coercivity_radius = coercivity_radius
        self.form = form
        self.coefficients = dict(coefficients) if coefficients else {}
        if time_data is None:
            time_data = coeff_signals(self.coefficients)
        self.time_data = dict(time_data)
        self.x_independent = bool(x_independent)
        self._rebuild = rebuild
        self._reflector = reflect
        if validate:
            check_convexity(self)

    def __call__(self, t: float, x: float, p):
        return self.evaluator(t, x, p)

    @property
    def time_independent(self) -> bool:
        return not self.time_data

    def eval_p(self, t: float, x: float, p: np.ndarray) -> np.ndarray:
        """Evaluate at an array of slopes, falling back to a scalar loop.

        The evaluator sees at most one dimension: a 2-D or larger p is
        raveled for the call and the values reshaped back.
        """
        p = np.asarray(p, dtype=float)
        flat = p.ravel() if p.ndim > 1 else p
        try:
            out = np.asarray(self.evaluator(t, x, flat), dtype=float)
            if out.shape == flat.shape:
                return out.reshape(p.shape)
        except (TypeError, ValueError):
            pass
        return np.array([float(self.evaluator(t, x, q)) for q in p.ravel()],
                        dtype=float).reshape(p.shape)

    def with_coefficients(self, coefficients: dict) -> "Hamiltonian":
        if self._rebuild is None:
            raise NonSeparableTimeDependence(
                "black-box Hamiltonian has no coefficients to average or rebuild from")
        return self._rebuild(coefficients)

    def frozen(self, a: float, b: float) -> "Hamiltonian":
        """Time-independent Hamiltonian with coefficients averaged over [a, b].

        Exact for declared TimeSignal coefficients; a declared-measurable
        black box has no coefficient structure to average and is rejected.
        """
        if self.time_independent:
            return self
        return self.with_coefficients(
            {k: coeff_average(v, a, b) for k, v in self.coefficients.items()})


def check_convexity(
    h: Hamiltonian,
    n_checks: int = 1000,
    seed: int = 20,
    tol: float = 1e-9,
) -> None:
    """Randomized midpoint convexity probe; raises ConvexityError on failure.

    Sampling is necessarily incomplete: it covers random (t, x) probes and
    slopes within four bracket radii.
    """
    rng = np.random.default_rng(seed)
    times = [0.0]
    for sig in h.time_data.values():
        times.extend(np.asarray(sig.breakpoints[:-1]))
        times.extend(0.5 * (sig.breakpoints[:-1] + sig.breakpoints[1:]))
    times = np.asarray(times)
    xs = np.array([0.0]) if h.x_independent else np.array([-1.0, 0.0, 1.0])
    t_idx = rng.integers(0, len(times), n_checks)
    x_idx = rng.integers(0, len(xs), n_checks)
    keys = t_idx * len(xs) + x_idx
    for key in np.unique(keys):
        count = int(np.sum(keys == key))
        t = float(times[key // len(xs)])
        x = float(xs[key % len(xs)])
        span = 4.0 * float(h.coercivity_radius(t, x))
        p = rng.uniform(-span, span, count)
        q = rng.uniform(-span, span, count)
        mid = h.eval_p(t, x, 0.5 * (p + q))
        avg = 0.5 * (h.eval_p(t, x, p) + h.eval_p(t, x, q))
        bad = np.flatnonzero(mid > avg + tol)
        if bad.size:
            j = int(bad[0])
            raise ConvexityError(
                f"midpoint convexity violated at t={t}, x={x}, p={p[j]}, "
                f"q={q[j]} (excess {float(mid[j] - avg[j]):.3e})")


def argmin_p(h: Hamiltonian, t: float, x: float) -> tuple[float, float]:
    """Minimizer and minimum of p -> H(t, x, p).

    Closed form for catalog forms, numeric_argmin for every other Hamiltonian.
    """
    form = CATALOG.get(h.form)
    if form is None:
        return numeric_argmin(h, t, x)
    p_hat, h_min = form.argmin(*form.values_at(h.coefficients, t))
    return float(p_hat), float(h_min)


def numeric_argmin(h: Hamiltonian, t: float, x: float) -> tuple[float, float]:
    """Minimizer and minimum of p -> H(t, x, p) from evaluations of H alone.

    Brackets by radius doubling (coercivity), then ternary search; for flat
    minima the midpoint of the detected argmin interval is returned, so the
    result is stable under reparameterizations of the flat region.
    """

    def H(p: float) -> float:
        return float(h.evaluator(t, x, p))

    radius = float(h.coercivity_radius(t, x))
    if radius <= 0.0:
        radius = 1.0
    h0 = H(0.0)
    for _ in range(_MAX_DOUBLINGS):
        if H(-radius) > h0 and H(radius) > h0:
            break
        radius *= 2.0
    else:
        raise BracketFailure(
            f"no coercive bracket within radius {radius:.3e} at (t={t}, x={x})")

    lo, hi = -radius, radius
    tol = _ARGMIN_TOL * max(1.0, radius)
    for _ in range(_MAX_TERNARY):
        if hi - lo <= tol:
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1, f2 = H(m1), H(m2)
        if f1 < f2:
            hi = m2
        elif f1 > f2:
            lo = m1
        else:
            lo, hi = m1, m2
    p_star = 0.5 * (lo + hi)
    h_min = H(p_star)

    # Flat-bottom handling: locate the sublevel interval {H <= h_min + tol}
    # inside the bracket and return its midpoint.
    thr = h_min + _FLAT_TOL
    left = _bisect_edge(H, -radius, p_star, thr, descending=True)
    right = _bisect_edge(H, p_star, radius, thr, descending=False)
    p_hat = 0.5 * (left + right)
    return p_hat, min(h_min, H(p_hat))


def _bisect_edge(H, a: float, b: float, thr: float, descending: bool) -> float:
    # descending=True: find the smallest p in [a, b] with H(p) <= thr
    # (H decreases into the sublevel set); otherwise the largest such p.
    inside, outside = (b, a) if descending else (a, b)
    if H(outside) <= thr:
        return outside
    for _ in range(100):
        mid = 0.5 * (inside + outside)
        if H(mid) <= thr:
            inside = mid
        else:
            outside = mid
        if abs(inside - outside) <= 1e-13 * max(1.0, abs(inside)):
            break
    return inside


class EnvelopePair:
    """Monotone envelope splitting of one Hamiltonian at argmin(t, x).

    argmin defaults to argmin_p at each probe, except that a non-catalog
    Hamiltonian declared independent of both t and x is minimised once, here.
    """

    def __init__(self, h: Hamiltonian, argmin: Callable | None = None):
        self.h = h
        self._closed = h.form in CATALOG
        if argmin is None:
            if not self._closed and h.time_independent and h.x_independent:
                fixed = argmin_p(h, 0.0, 0.0)
                argmin = lambda t, x: fixed  # noqa: E731
            else:
                argmin = lambda t, x: argmin_p(h, t, x)  # noqa: E731
        self.argmin = argmin

    def p_hat(self, t: float, x: float) -> float:
        return self.argmin(t, x)[0]

    def h_min(self, t: float, x: float) -> float:
        return self.argmin(t, x)[1]

    def h_plus(self, t: float, x: float, p):
        """Nondecreasing part: constant h_min left of p_hat, H beyond."""
        return self._split(t, x, p, plus=True)

    def h_minus(self, t: float, x: float, p):
        """Nonincreasing part: H left of p_hat, constant h_min beyond."""
        return self._split(t, x, p, plus=False)

    def split(self, t: float, x: float, p):
        """(h_plus, h_minus) at an array of slopes; H is evaluated once unless catalog."""
        if self._closed:
            return self.h_plus(t, x, p), self.h_minus(t, x, p)
        arr = np.asarray(p, dtype=float)
        p_hat, h_min = self.argmin(t, x)
        vals = self.h.eval_p(t, x, arr)
        below = arr <= p_hat
        return np.where(below, h_min, vals), np.where(below, vals, h_min)

    def _split(self, t: float, x: float, p, plus: bool):
        arr = np.asarray(p, dtype=float)
        if self._closed:  # H(p_hat) is the minimum exactly
            clip = np.maximum if plus else np.minimum
            vals = self.h.eval_p(t, x, clip(arr, self.p_hat(t, x)))
        else:
            vals = self.split(t, x, arr)[0 if plus else 1]
        return float(vals) if arr.ndim == 0 else vals


def envelopes(h: Hamiltonian) -> EnvelopePair:
    return EnvelopePair(h)


def a0_floor(hamiltonians, t: float) -> float:
    """Largest of the per-edge minima at the junction: max_i min_p H_i(t, 0, p).

    Any admissible flux limiter must dominate this floor.
    """
    return max(argmin_p(h, t, 0.0)[1] for h in hamiltonians)


# ---------------------------------------------------------------------------
# catalog forms

class ClosedForm(NamedTuple):
    """A catalog form: H and its minimiser as functions of coefficient values.

    h(p_hat) is the minimum exactly, so h(max(p, p_hat)), h(min(p, p_hat)) split H.
    """

    names: tuple
    h: Callable       # (p, *values) -> H(p)
    argmin: Callable  # (*values) -> (p_hat, min H)

    def values_at(self, coefficients: dict, t: float) -> tuple:
        return tuple(coeff_eval(coefficients[k], t) for k in self.names)


class FixedEnvelopes(NamedTuple):
    """Envelopes of a catalog form at fixed (say window-averaged) coefficients.

    Duck-types EnvelopePair for the flux; t and x are ignored.
    """

    form: ClosedForm
    values: tuple

    def h_plus(self, t: float, x: float, p):
        return self.form.h(np.maximum(p, self.form.argmin(*self.values)[0]), *self.values)

    def h_minus(self, t: float, x: float, p):
        return self.form.h(np.minimum(p, self.form.argmin(*self.values)[0]), *self.values)

    def split(self, t: float, x: float, p):
        return self.h_plus(t, x, p), self.h_minus(t, x, p)


def _quadratic(p, a, b, c):
    d = np.asarray(p, dtype=float) - b
    return a * d * d + c


CATALOG = {
    "quadratic": ClosedForm(("a", "b", "c"), _quadratic, lambda a, b, c: (b, c)),
    "abs_shift": ClosedForm(("c",), lambda p, c: np.abs(p) + c, lambda c: (0.0, c)),
}


def _catalog(form: str, coefficients: dict, rebuild: Callable,
             **metadata) -> Hamiltonian:
    # Convex by construction, so the randomized convexity probe is skipped.
    closed = CATALOG[form]

    def evaluator(t, x, p):
        return closed.h(p, *closed.values_at(coefficients, t))

    return Hamiltonian(evaluator, form=form, coefficients=coefficients,
                       x_independent=True, rebuild=rebuild, validate=False,
                       **metadata)


def abs_shift(c, horizon: float | None = None) -> Hamiltonian:
    """H(p) = |p| + c, with c a float or TimeSignal."""
    return _catalog("abs_shift", {"c": c},
                    rebuild=lambda coeffs: abs_shift(coeffs["c"]),
                    reflect=lambda: abs_shift(c),
                    lipschitz_p=1.0, coercivity_radius=1.0)


def eikonal() -> Hamiltonian:
    """H(p) = |p| - 1."""
    return abs_shift(-1.0)


def quadratic(a, b, c, p_span: float = 10.0) -> Hamiltonian:
    """H(p) = a (p - b)^2 + c with a > 0; coefficients float or TimeSignal.

    A parabola is only locally Lipschitz in p; the declared constant covers
    slopes within p_span of the origin.
    """
    a_lo, a_hi = coeff_bounds(a)
    b_lo, b_hi = coeff_bounds(b)
    if a_lo <= 0.0:
        raise ValueError("quadratic needs a > 0")
    b_abs = max(abs(b_lo), abs(b_hi))
    neg_b = b.shift_values(np.negative) if isinstance(b, TimeSignal) else -b
    return _catalog(
        "quadratic", {"a": a, "b": b, "c": c},
        rebuild=lambda coeffs: quadratic(coeffs["a"], coeffs["b"], coeffs["c"],
                                         p_span=p_span),
        reflect=lambda: quadratic(a, neg_b, c, p_span=p_span),
        lipschitz_p=2.0 * a_hi * (p_span + b_abs),
        coercivity_radius=2.0 * b_abs + 1.0,
    )


def hamiltonian_from_config(d: dict, horizon: float) -> Hamiltonian:
    """Build a catalog Hamiltonian from a JSON-style dict."""
    from .errors import ConfigError

    if not isinstance(d, dict) or "form" not in d:
        raise ConfigError("hamiltonian config needs a 'form' key")
    form = d["form"]

    def coeff(name, default=None):
        if name not in d:
            if default is None:
                raise ConfigError(f"hamiltonian form {form!r} needs {name!r}")
            return default
        v = d[name]
        if isinstance(v, dict):
            sig = TimeSignal.from_dict(v)
            if abs(sig.horizon - horizon) > 1e-12 * max(1.0, horizon):
                raise ConfigError(
                    f"coefficient {name!r} horizon {sig.horizon} != {horizon}")
            return sig
        return float(v)

    if form == "eikonal":
        return eikonal()
    if form == "abs_shift":
        return abs_shift(coeff("c"))
    if form == "quadratic":
        return quadratic(coeff("a"), coeff("b"), coeff("c"),
                         p_span=float(d.get("p_span", 10.0)))
    if form == "control_induced":
        raise ConfigError(
            "control_induced Hamiltonians are built from the control_system "
            "block, not from an edge entry")
    raise ConfigError(f"unknown hamiltonian form {form!r}")


def reflected(h: Hamiltonian) -> Hamiltonian:
    """The Hamiltonian seen through x -> -x (slopes negate).

    Used to carry one half-line of a two-edge problem into edge-local
    coordinates. Catalog forms map to catalog forms, so coefficient averaging
    and mollification survive the reflection.
    """
    if h._reflector is not None:
        return h._reflector()

    def evaluator(t, y, q, _h=h):
        return _h.evaluator(t, -np.asarray(y, dtype=float) if not _h.x_independent else y,
                            -np.asarray(q, dtype=float))

    return Hamiltonian(
        evaluator,
        lipschitz_p=h.lipschitz_p,
        coercivity_radius=lambda t, y: h.coercivity_radius(t, -y),
        form=None,
        coefficients=None,
        time_data=dict(h.time_data),
        x_independent=h.x_independent,
        validate=False,
    )
