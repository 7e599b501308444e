"""Piecewise-constant time signals on [0, horizon].

Signals model merely-measurable time data (flux limiters, running-cost
coefficients). The stored representative is right-continuous, left-continuous
at the final time. Every consumer in the package integrates signals over
windows, or reads them at the midpoints of cells on which they are constant
(union_mesh), so results do not depend on the representative. A problem
file writes a signal in to_dict's form, which
junction_problem.coeff_from_config reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EmptyWindow, HorizonMismatch, OutOfHorizon

__all__ = ["TimeSignal", "constant", "union_mesh"]

# Relative slack for horizon-boundary comparisons.
_EDGE_TOL = 1e-12


def _off_horizon(h: float, horizon: float) -> bool:
    """True when h is not horizon to _EDGE_TOL max(1, horizon): the one horizon-match test."""
    return abs(h - horizon) > _EDGE_TOL * max(1.0, horizon)


@dataclass(frozen=True)
class TimeSignal:
    """Right-continuous step function: values[k] on [breakpoints[k], breakpoints[k+1])."""

    breakpoints: np.ndarray  # shape (m+1,), breakpoints[0] == 0.0
    values: np.ndarray  # shape (m,)
    _cumint: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size + 1:
            raise ValueError("need m+1 breakpoints for m values")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if not np.all(np.diff(bp) > 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        cum = np.concatenate(([0.0], np.cumsum(vals * np.diff(bp))))
        object.__setattr__(self, "_cumint", cum)

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])

    def _clamp(self, t):
        T = self.horizon
        tol = _EDGE_TOL * max(1.0, T)
        ts = np.asarray(t, dtype=float)
        if not np.all(inside := (ts >= -tol) & (ts <= T + tol)):  # NaN fails too
            raise OutOfHorizon(f"t={float(ts[~inside].flat[0])!r} outside [0, {T!r}]")
        return np.minimum(np.maximum(ts, 0.0), T)

    def __call__(self, t):
        """The value at t: a float for one time, an array for an array of times.

        One searchsorted serves both, so an array holds exactly the floats
        that one call per time returns; the final time reads the last value.
        """
        k = np.searchsorted(self.breakpoints, self._clamp(t), side="right") - 1
        vals = self.values[np.minimum(k, self.values.size - 1)]
        return float(vals) if vals.ndim == 0 else vals

    def _antiderivative(self, t):
        # F(t) = integral of the signal over [0, t], exact, at clamped times.
        k = np.clip(np.searchsorted(self.breakpoints, t, side="right") - 1,
                    0, self.values.size - 1)
        inside = self._cumint[k] + self.values[k] * (t - self.breakpoints[k])
        return np.where(t >= self.horizon, self._cumint[-1], inside)

    def _integrals(self, a, b):
        # Exact integrals over the clamped windows [a, b], and their widths.
        a, b = self._clamp(a), self._clamp(b)
        if np.any(b <= a):
            raise EmptyWindow(f"window [{a!r}, {b!r}] is empty")
        return self._antiderivative(b) - self._antiderivative(a), b - a

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over [a, b] (window clipped to the horizon)."""
        return float(self._integrals(a, b)[0])

    def average(self, a: float, b: float) -> float:
        return float(np.divide(*self._integrals(a, b)))

    def window_averages(self, times) -> np.ndarray:
        """Averages over the windows [times[n], times[n+1]], each bit-equal to average()."""
        t = np.asarray(times, dtype=float)
        return np.divide(*self._integrals(t[:-1], t[1:]))

    def running_integrals(self, times) -> np.ndarray:
        """integrate(0, t) at each t of times, bit for bit; times[0] must be 0 and gives 0."""
        t = np.asarray(times, dtype=float)
        if t[0] != 0.0:
            raise ValueError("running integrals start at t = 0")
        return np.concatenate(([0.0], self._integrals(np.zeros(t.size - 1), t[1:])[0]))

    def window_integrals(self, times) -> np.ndarray:
        """Integrals over the windows [times[n], times[n+1]], each bit-equal to integrate()."""
        t = np.asarray(times, dtype=float)
        return self._integrals(t[:-1], t[1:])[0]

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def mollify(self, eps: float) -> "TimeSignal":
        """Window-average approximant, sampled on a mesh of width <= eps/4.

        Each output cell carries the exact average of the signal over the
        window [mid - eps, mid + eps] (clipped to [0, horizon]) around the
        cell midpoint. Sampling a sliding average cannot increase total
        variation, and the L1 distance to the original vanishes as eps -> 0.
        """
        if not eps > 0.0:  # NaN fails too
            raise ValueError(f"mollification width: expected a positive number, got {eps!r}")
        T = self.horizon
        n = max(1, int(np.ceil(T / (eps / 4.0) - _EDGE_TOL)))
        mesh = np.linspace(0.0, T, n + 1)
        mids = 0.5 * (mesh[:-1] + mesh[1:])
        vals = np.divide(*self._integrals(np.maximum(mids - eps, 0.0),
                                          np.minimum(mids + eps, T)))
        return TimeSignal(*_coalesce(mesh, vals))

    def shift_values(self, fn) -> "TimeSignal":
        """New signal with values fn(values) on the same breakpoints."""
        return TimeSignal(self.breakpoints.copy(), fn(self.values))

    def to_dict(self) -> dict:
        return {
            "breakpoints": [float(t) for t in self.breakpoints],
            "values": [float(v) for v in self.values],
        }

    @staticmethod
    def from_dict(d: dict) -> "TimeSignal":
        return TimeSignal(np.asarray(d["breakpoints"], dtype=float),
                          np.asarray(d["values"], dtype=float))


def _coalesce(bp: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Merge adjacent cells with exactly equal values.
    keep = np.concatenate(([True], vals[1:] != vals[:-1]))
    new_vals = vals[keep]
    starts = bp[:-1][keep]
    new_bp = np.concatenate((starts, [bp[-1]]))
    return new_bp, new_vals


def constant(value: float, horizon: float) -> TimeSignal:
    return TimeSignal(np.array([0.0, float(horizon)]), np.array([float(value)]))


def on_horizon(v, horizon: float) -> TimeSignal:
    """A float as a constant signal on [0, horizon], a TimeSignal cut to [0, horizon].

    A signal that ends before horizon is returned as it is, so a consumer
    that needs all of [0, horizon] raises HorizonMismatch (union_mesh).
    """
    if not isinstance(v, TimeSignal):
        return constant(v, horizon)
    keep = v.breakpoints[:-1] < horizon - _EDGE_TOL * max(1.0, horizon)
    return TimeSignal(np.append(v.breakpoints[:-1][keep], min(horizon, v.horizon)), v.values[keep])


def union_mesh(signals: Sequence[TimeSignal]) -> np.ndarray:
    """Sorted union of the breakpoints of several signals (same horizon)."""
    if not signals:
        raise ValueError("need at least one signal")
    T = signals[0].horizon
    for s in signals[1:]:
        if _off_horizon(s.horizon, T):
            raise HorizonMismatch("signals have different horizons")
    # sort, not np.unique: its first call imports numpy submodules (about 14 ms);
    # the filter below drops exact duplicates and nearly-duplicate floats alike
    merged = np.sort(np.concatenate([s.breakpoints for s in signals]))
    keep = np.concatenate(([True], np.diff(merged) > _EDGE_TOL * max(1.0, T)))
    return merged[keep]


def upper_envelope(signals: Sequence[TimeSignal]) -> TimeSignal:
    """The pointwise maximum of several signals (same horizon), on their union mesh."""
    mesh = union_mesh(signals)
    mids = 0.5 * (mesh[:-1] + mesh[1:])
    return TimeSignal(*_coalesce(mesh, np.max([s(mids) for s in signals], axis=0)))


# Coefficients of named functional forms are either plain floats or
# TimeSignals. These helpers keep that union manageable.

def coeff_eval(v, t):
    """v at t, or at each time of an array t; a float coefficient is returned as a float."""
    return v(t) if isinstance(v, TimeSignal) else float(v)


def coeff_average(v, a: float, b: float) -> float:
    return v.average(a, b) if isinstance(v, TimeSignal) else float(v)


def coeff_window_averages(v, times) -> np.ndarray:
    """coeff_average over each window [times[n], times[n+1]], bit for bit."""
    return np.broadcast_to(v.window_averages(times) if isinstance(v, TimeSignal)
                           else float(v), len(times) - 1)


def coeff_bounds(v) -> tuple[float, float]:
    if isinstance(v, TimeSignal):
        return v.min(), v.max()
    return float(v), float(v)


def coeff_signals(coefficients: dict) -> dict:
    """The TimeSignal-valued entries of a coefficient dict."""
    return {k: v for k, v in coefficients.items() if isinstance(v, TimeSignal)}
