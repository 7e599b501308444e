"""Convex coercive Hamiltonians and their monotone envelope splitting.

A Hamiltonian here is a function H(t, x, p), convex and coercive in the
gradient variable p, with time dependence allowed only through declared
piecewise-constant coefficient signals. The envelope splitting

    h_plus(p)  = min H          for p <= p_hat,  H(p) otherwise
    h_minus(p) = H(p)           for p <= p_hat,  min H otherwise

(with p_hat a minimizer of H(t, x, .)) yields the nondecreasing and
nonincreasing parts used by the Godunov flux and the junction operator.

Every Hamiltonian is split by one protocol: values_at(t, x) gives the
values that fix H at (t, x), and freeze(values) gives H frozen there,
with its minimiser and minimum (Hamiltonian.freeze). EnvelopePair is the
one splitting, cut from one evaluation of H: frozen once at fixed values,
or frozen again at values_at(t, x) on each call. The values are:
- for a Hamiltonian whose form is known (a ClosedForm), its coefficient
  values. These are the catalog forms (CATALOG), which also give the
  bounds on |H| and |dH/dp| that set the scheme's C2, and the induced
  Hamiltonian of every control edge of coefficient forms
  (control_system); freeze is exact;
- for a control edge with a callable f or l, its table of lines on the
  nodes (control_system.TableHamiltonian), minimised exactly node by node;
- for a black box, a time and positions (t, xs), minimised numerically
  (numeric_argmin) once per position: the only numeric search.
Problem files reach the catalog through
junction_problem.hamiltonian_from_config.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import BracketFailure, ConvexityError, NonSeparableTimeDependence
from .grid import _finite, _positive_finite
from .time_signal import (
    TimeSignal,
    coeff_bounds,
    coeff_eval,
    coeff_signals,
)

__all__ = [
    "Hamiltonian",
    "EnvelopePair",
    "argmin_p",
    "abs_shift",
    "eikonal",
    "quadratic",
    "reflected",
    "check_convexity",
]

_ARGMIN_TOL = 1e-10
_FLAT_TOL = 1e-9
_CONVEXITY_TOL = 1e-9  # the excess H(mid) - mean(H) that check_convexity forgives
_MAX_DOUBLINGS = 60
_MAX_TERNARY = 200


class Hamiltonian:
    """Convex-in-p Hamiltonian with declared regularity metadata.

    evaluator        callable (t, x, p) -> value. p may arrive as a 1-D array,
                     and x as one float or as an array elementwise with p;
                     an evaluator that cannot take arrays raises TypeError
                     or ValueError and is then called one position (and if
                     need be one slope) at a time (see elementwise)
    lipschitz_p      declared bound on |dH/dp| over the working slope range
                     (inf for a quadratic without a declared p_span)
    coercivity_radius  initial bracket radius P, a positive finite float, with
                     H(t, x, +-P) > H(t, x, 0) at every (t, x); doubling
                     extends it where needed
    form             the ClosedForm of H in its coefficients, or None
    coefficients     named coefficients (floats or TimeSignals) of the form;
                     drives exact window averaging and mollification
    time_data        the TimeSignals of H, by name: every reader of a
                     problem's coefficient mesh sees their breakpoints.
                     Empty means H is declared time-independent, except for
                     a callable control edge (TableHamiltonian), which may
                     read t and never is
    x_independent    True when H ignores x (one split point serves all nodes)
    speed_bound      callable (M, ys) -> (C2, source): a bound on |dH/dp| over
                     the slopes with H <= M at the edge nodes ys (None before a
                     grid exists), and what it rests on; C2 is a float, or a
                     TimeSignal bounding each coefficient cell; by default the
                     declared lipschitz_p
    value_bound      callable (L, ys) -> a bound on |H| over |p| <= L; by
                     default |H(0, 0, 0)| + lipschitz_p L, a probe at the origin
                     (|H(0, 0, 0)| alone at L = 0, also for lipschitz_p inf)
    """

    def __init__(
        self,
        evaluator: Callable,
        lipschitz_p: float,
        coercivity_radius: float = 1.0,
        form: ClosedForm | None = None,
        coefficients: dict | None = None,
        time_data: dict | None = None,
        x_independent: bool = False,
        rebuild: Callable | None = None,
        reflect: Callable | None = None,
        validate: bool = True,
        speed_bound: Callable | None = None,
        value_bound: Callable | None = None,
    ):
        self.evaluator = evaluator
        self.lipschitz_p = float(lipschitz_p)
        self.coercivity_radius = _positive_finite("coercivity_radius", coercivity_radius)
        self.form = form
        self.coefficients = dict(coefficients) if coefficients else {}
        if time_data is None:
            time_data = coeff_signals(self.coefficients)
        self.time_data = dict(time_data)
        self.x_independent = bool(x_independent)
        self._rebuild = rebuild
        self._reflector = reflect
        self._speed_bound = speed_bound
        self._value_bound = value_bound
        if validate:
            check_convexity(self)

    def __call__(self, t: float, x: float, p):
        return self.evaluator(t, x, p)

    @property
    def time_independent(self) -> bool:
        return not self.time_data

    def speed_bound(self, M: float, ys=None) -> tuple:
        """(C2, source): a bound on |dH/dp| where H <= M, at the edge nodes ys.

        C2 is a float, or a TimeSignal when the bound varies with the
        coefficients (a quadratic with a time-dependent a).
        """
        if self._speed_bound is None:
            return self.lipschitz_p, f"declared lipschitz_p {self.lipschitz_p:.6g}"
        return self._speed_bound(M, ys)

    def value_bound(self, L: float, ys=None) -> float:
        """A bound on |H| over the slopes |p| <= L, at the edge nodes ys."""
        if self._value_bound is None:
            return abs(float(self.evaluator(0.0, 0.0, 0.0))) + (self.lipschitz_p * L if L else 0.0)
        return self._value_bound(L, ys)

    def values_at(self, t: float, x) -> tuple:
        """The values at which freeze fixes H at (t, x), one float x or an array of positions.

        A closed form's are its coefficient values at t. A black box's are
        (t, xs): t = 0 when it ignores t, and xs the positions x, or [0]
        when it ignores x.
        """
        if self.form is not None:
            return self.form.values_at(self.coefficients, t)
        return (0.0 if self.time_independent else t,
                np.zeros(1) if self.x_independent else np.array(x, dtype=float, ndmin=1))

    def freeze(self, values: tuple) -> Callable:
        """at(t, x) -> (p_hat, h_min, p -> H(p)): h frozen at values (see values_at).

        A closed form is frozen exactly, ignoring t and x; h_min is H(p_hat)
        as the form computes it. A black box is minimised by numeric_argmin
        once per position of its values, and at(t, x) looks x up among
        them (an array x entry by entry) and evaluates H at (t, x). A
        Hamiltonian whose values are a table of lines per node
        (control_system.TableHamiltonian) overrides this, and looks its
        nodes up the same way.
        """
        if self.form is not None:
            p_hat, H = self.form.freeze(*values)
            frozen = p_hat, H(p_hat), H
            return lambda t, x: frozen
        t0, xs = values
        p_hat, h_min = np.array([numeric_argmin(self, t0, y) for y in xs.tolist()]).T

        def at(t, x):
            j = 0 if self.x_independent else np.searchsorted(xs, x)
            return p_hat[j], h_min[j], lambda p: self.eval_p(t, x, p)
        return at

    def eval_p(self, t: float, x, p: np.ndarray) -> np.ndarray:
        """Evaluate at an array of slopes, x one float or one position per entry of p's last axis."""
        return elementwise(self.evaluator, t, x, p)

    def with_coefficients(self, coefficients: dict) -> "Hamiltonian":
        if self._rebuild is None:
            raise NonSeparableTimeDependence(
                "no coefficients to rebuild from: H is a black box or a control edge with a "
                "callable f or l")
        return self._rebuild(coefficients)


def elementwise(fn: Callable, t: float, x, a) -> np.ndarray:
    """fn(t, x, a) elementwise, with x one float or one position per entry of a's last axis.

    fn sees at most one dimension: a, and x broadcast to it, are raveled
    for one call and the values reshaped back. When fn raises TypeError or
    ValueError on those arrays, or returns another shape, it is called once
    per position on that position's entries of a (each such call falling
    back the same way), and for one float x once per entry.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel() if a.ndim > 1 else a
    one = isinstance(x, float) or np.ndim(x) == 0
    xs = x if one else np.broadcast_to(x, a.shape).reshape(flat.shape)
    try:
        out = np.asarray(fn(t, xs, flat), dtype=float)
        if out.shape == flat.shape:
            return out if flat is a else out.reshape(a.shape)
    except (TypeError, ValueError):
        pass
    if one:
        return np.array([float(fn(t, x, v)) for v in a.ravel()], dtype=float).reshape(a.shape)
    out = np.empty(a.shape)
    for j, xj in enumerate(np.asarray(x, dtype=float).tolist()):
        out[..., j] = elementwise(fn, t, xj, a[..., j])
    return out


def check_convexity(h: Hamiltonian, n_checks: int = 1000, seed: int = 20) -> None:
    """Randomized midpoint convexity probe; raises ConvexityError on failure.

    A midpoint value that exceeds the mean of its two ends by more than
    _CONVEXITY_TOL fails. Sampling is necessarily incomplete: it covers
    random (t, x) probes and slopes within four bracket radii.
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
        span = 4.0 * h.coercivity_radius
        p = rng.uniform(-span, span, count)
        q = rng.uniform(-span, span, count)
        mid = h.eval_p(t, x, 0.5 * (p + q))
        avg = 0.5 * (h.eval_p(t, x, p) + h.eval_p(t, x, q))
        bad = np.flatnonzero(mid > avg + _CONVEXITY_TOL)
        if bad.size:
            j = int(bad[0])
            raise ConvexityError(
                f"midpoint convexity violated at t={t}, x={x}, p={p[j]}, "
                f"q={q[j]} (excess {float(mid[j] - avg[j]):.3e})")


def argmin_p(h: Hamiltonian, t: float, x: float) -> tuple[float, float]:
    """Minimizer and minimum of p -> H(t, x, p): h frozen at (t, x) (Hamiltonian.freeze)."""
    return tuple(float(v) for v in h.freeze(h.values_at(t, x))(t, x)[:2])


def numeric_argmin(h: Hamiltonian, t: float, x: float) -> tuple[float, float]:
    """Minimizer and minimum of p -> H(t, x, p) from evaluations of H alone.

    Brackets by radius doubling (coercivity), then ternary search; for flat
    minima the midpoint of the detected argmin interval is returned, so the
    result is stable under reparameterizations of the flat region.
    """

    def H(p: float) -> float:
        return float(h.evaluator(t, x, p))

    radius = h.coercivity_radius
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
    """Monotone envelope splitting of one Hamiltonian at a minimiser p_hat.

    Every pair splits one evaluation vals = H(p) the same way:

        h_plus  = where(p <= p_hat, h_min, vals)
        h_minus = where(p <= p_hat, vals, h_min)

    with (p_hat, h_min, H) from h frozen (Hamiltonian.freeze). A pair has
    two modes. EnvelopePair(h, values) is frozen once, here, at values:
    coefficient values of a closed form (floats, or (rows, 1) columns with
    one row per problem of a batch), a table of lines on nodes, or a black
    box's time and positions. EnvelopePair(h) is frozen the same way at
    values_at(0, 0) when h ignores both t and x, and otherwise frozen again
    at values_at(t, x) on each call. A closed form takes h_min = H(p_hat),
    the minimum as H computes it, so a catalog split equals
    (form.h(max(p, p_hat)), form.h(min(p, p_hat))) bit for bit.

    speed     p -> |dH/dp| at the frozen values, for a form whose C2 holds
              only on a slope box (ClosedForm.speed); None otherwise
    per_node  True when H depends on x: a scheme then reads h_plus and
              h_minus at different nodes, an array x entry by entry
    values    the frozen values, or None when the pair is frozen per call
    """

    def __init__(self, h: Hamiltonian, values: tuple | None = None):
        self.h = h
        self.per_node = not h.x_independent
        if values is None and h.time_independent and h.x_independent:
            values = h.values_at(0.0, 0.0)
        self.values = values
        self.speed = None
        if values is None:
            self._at = lambda t, x: h.freeze(h.values_at(t, x))(t, x)
            return
        self._at = h.freeze(values)
        form = h.form
        if form is not None and form.speed is not None:
            self.speed = lambda p: form.speed(p, *values)

    def p_hat(self, t: float, x: float) -> float:
        return self._at(t, x)[0]

    def h_min(self, t: float, x: float) -> float:
        return self._at(t, x)[1]

    def h_minus(self, t: float, x: float, p):
        """Nonincreasing part: H left of p_hat, constant h_min beyond."""
        minus = self.split(t, x, p)[1]
        return float(minus) if minus.ndim == 0 else minus

    def split(self, t: float, x, p):
        """(h_plus, h_minus) at an array of slopes, from one evaluation of H.

        x may be one position per entry of p's last axis when the pair is
        frozen at positions that include them.
        """
        p = np.asarray(p, dtype=float)
        p_hat, h_min, H = self._at(t, x)
        vals = H(p)
        below = p <= p_hat
        return np.where(below, h_min, vals), np.where(below, vals, h_min)


# ---------------------------------------------------------------------------
# closed forms

class ClosedForm(NamedTuple):
    """H and its minimiser as functions of the coefficient values.

    freeze does the work of fixed values once: it gives the exact
    minimiser p_hat and the H that a frozen EnvelopePair keeps, whose
    H(p_hat) is the minimum that argmin_p and EnvelopePair take as h_min.
    value_bound takes each coefficient's (lo, hi) range over time,
    slope_box the coefficients themselves (floats or TimeSignals); a form
    without them leaves its bounds to its Hamiltonian.
    """

    names: tuple
    h: Callable            # (p, *values) -> H(p)
    freeze: Callable       # (*values) -> (p_hat, p -> H(p))
    value_bound: Callable | None = None  # (L, *ranges) -> sup |H| over |p| <= L
    slope_box: Callable | None = None    # (M, *coefficients) -> (C2, source) where H <= M
    speed: Callable | None = None  # (p, *values) -> |dH/dp|, where C2 holds only on a box

    def values_at(self, coefficients: dict, t: float) -> tuple:
        return tuple(coeff_eval(coefficients[k], t) for k in self.names)


def _quadratic(p, a, b, c):
    d = np.asarray(p, dtype=float) - b
    return a * d * d + c


def _quadratic_value_bound(L, a, b, c):
    # a (p - b)^2 + c lies in [c_lo, a_hi (L + max|b|)^2 + c_hi] for |p| <= L
    top = a[1] * (L + max(abs(b[0]), abs(b[1]))) ** 2 + c[1]
    return max(abs(c[0]), abs(top))


def _quadratic_speed(a, k: float):
    """2 a k: a bound on |dH/dp| = 2 a |p - b| where |p - b| <= k, per cell of a."""
    return a.shift_values(lambda v: 2.0 * v * k) if isinstance(a, TimeSignal) else 2.0 * a * k


def _quadratic_slope_box(M, a, b, c):
    # {a (p - b)^2 + c <= M} is |p - b| <= sqrt((M - c) / a) <= r for every
    # coefficient value, so the union lies in [b_lo - r, b_hi + r]; there
    # |dH/dp| = 2 a |p - b| <= 2 a (b_hi - b_lo + r), at each time's a.
    (a_lo, _), (b_lo, b_hi), (c_lo, _) = (coeff_bounds(v) for v in (a, b, c))
    r = (max(M - c_lo, 0.0) / a_lo) ** 0.5
    return (_quadratic_speed(a, b_hi - b_lo + r),
            f"slope box [{b_lo - r:.3g}, {b_hi + r:.3g}] of {{H <= {M:.3g}}}")


CATALOG = {
    "quadratic": ClosedForm(("a", "b", "c"), _quadratic,
                            lambda a, b, c: (b, lambda p: _quadratic(p, a, b, c)),
                            _quadratic_value_bound, _quadratic_slope_box,
                            lambda p, a, b, c: 2.0 * a * np.abs(p - b)),
    "abs_shift": ClosedForm(("c",), lambda p, c: np.abs(p) + c,
                            lambda c: (0.0, lambda p: np.abs(p) + c),
                            lambda L, c: max(abs(c[0]), abs(L + c[1])),
                            lambda M, c: (1.0, "|dH/dp| = 1")),
}


def closed_hamiltonian(closed: ClosedForm, coefficients: dict, rebuild: Callable,
                       **metadata) -> Hamiltonian:
    """The x-independent Hamiltonian of a closed form at named coefficients.

    Convex by construction, so the randomized convexity probe is skipped.
    Its speed and value bounds are the form's unless metadata gives them.
    """
    def evaluator(t, x, p):
        return closed.h(p, *closed.values_at(coefficients, t))

    metadata.setdefault("speed_bound", lambda M, ys: closed.slope_box(
        M, *(coefficients[k] for k in closed.names)))
    metadata.setdefault("value_bound", lambda L, ys: closed.value_bound(
        L, *(coeff_bounds(coefficients[k]) for k in closed.names)))
    return Hamiltonian(evaluator, form=closed, coefficients=coefficients,
                       x_independent=True, rebuild=rebuild, validate=False, **metadata)


def abs_shift(c) -> Hamiltonian:
    """H(p) = |p| + c, with c a float or TimeSignal; a c that is not finite raises ConfigError."""
    _finite("abs_shift c", c)
    return closed_hamiltonian(CATALOG["abs_shift"], {"c": c},
                              rebuild=lambda coeffs: abs_shift(coeffs["c"]),
                              reflect=lambda: abs_shift(c),
                              lipschitz_p=1.0, coercivity_radius=1.0)


def eikonal() -> Hamiltonian:
    """H(p) = |p| - 1."""
    return abs_shift(-1.0)


def quadratic(a, b, c, p_span: float | None = None) -> Hamiltonian:
    """H(p) = a (p - b)^2 + c with a > 0; coefficients float or TimeSignal.

    A parabola is only locally Lipschitz in p, so the scheme's C2 bounds
    |dH/dp| on the slopes that the solution reaches: by default the slope box
    {H <= M} of the problem's time-derivative bound M (see
    JunctionProblem.cfl_speed), which fd_scheme checks against the slopes
    of every step. A declared p_span overrides the box with
    2 a (p_span + |b|), which covers slopes within p_span of the origin.
    Either bound follows a(t) cell by cell; its sup takes a_hi. An a whose
    bounds, or a p_span, are not positive and finite raises ConfigError, and
    so does a b or c that is not finite.
    """
    a_lo, a_hi = coeff_bounds(a)
    b_lo, b_hi = coeff_bounds(b)
    for bound in (a_lo, a_hi):
        _positive_finite("quadratic a", bound)
    for name, v in (("b", b), ("c", c)):
        _finite(f"quadratic {name}", v)
    if p_span is not None:
        p_span = _positive_finite("p_span", p_span)
    b_abs = max(abs(b_lo), abs(b_hi))
    neg_b = b.shift_values(np.negative) if isinstance(b, TimeSignal) else -b
    declared = {}
    if p_span is not None:
        lip = 2.0 * a_hi * (p_span + b_abs)
        declared = {"speed_bound": lambda M, ys: (_quadratic_speed(a, p_span + b_abs),
                                                  f"declared p_span {p_span:g}")}
    return closed_hamiltonian(
        CATALOG["quadratic"], {"a": a, "b": b, "c": c},
        rebuild=lambda coeffs: quadratic(coeffs["a"], coeffs["b"], coeffs["c"],
                                         p_span=p_span),
        reflect=lambda: quadratic(a, neg_b, c, p_span=p_span),
        lipschitz_p=np.inf if p_span is None else lip,
        coercivity_radius=2.0 * b_abs + 1.0,
        **declared,
    )


def reflected(h: Hamiltonian) -> Hamiltonian:
    """The Hamiltonian seen through x -> -x (slopes negate).

    Used to carry one half-line of a two-edge problem into edge-local
    coordinates. Closed forms map to closed forms, so coefficient averaging
    and mollification survive the reflection. Any other Hamiltonian keeps its
    declared speed and value bounds, read at the reflected nodes -ys when it
    depends on x.
    """
    if h._reflector is not None:
        return h._reflector()

    def evaluator(t, y, q, _h=h):
        return _h.evaluator(t, -np.asarray(y, dtype=float) if not _h.x_independent else y,
                            -np.asarray(q, dtype=float))

    def at_reflected_nodes(bound):
        if bound is None or h.x_independent:
            return bound
        return lambda m, ys: bound(m, None if ys is None else -np.asarray(ys, dtype=float))

    return Hamiltonian(
        evaluator,
        lipschitz_p=h.lipschitz_p,
        coercivity_radius=h.coercivity_radius,
        form=None,
        coefficients=None,
        time_data=dict(h.time_data),
        x_independent=h.x_independent,
        validate=False,
        speed_bound=at_reflected_nodes(h._speed_bound),
        value_bound=at_reflected_nodes(h._value_bound),
    )
