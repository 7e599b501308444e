"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "HjjError",
    "NoAdmissibleControl",
    "FluxLimiterBelowFloor",
    "CflViolation",
    "NumericalFailure",
    "BudgetExceeded",
    "ConfigError",
]


class HjjError(Exception):
    """Base class for all package-specific errors."""


class OutOfHorizon(HjjError):
    """A time signal was sampled outside [0, horizon]."""


class EmptyWindow(HjjError):
    """An averaging window [a, b] with b <= a was requested."""


class HorizonMismatch(HjjError):
    """Two time signals with different horizons were combined."""


class BracketFailure(HjjError):
    """Minimizer bracketing failed; the function looks non-coercive."""


class ConvexityError(HjjError):
    """A randomized midpoint probe found a convexity violation."""


class EmptyControlSet(HjjError):
    """An edge was given no control samples."""


class NoAdmissibleControl(HjjError):
    """No control is admissible where one is needed.

    Raised when a sign-restricted control subset is empty at the probed
    point, and by a Bellman update when no transition of any control
    reaches a node, naming the node and the window.
    """


class FluxLimiterBelowFloor(HjjError):
    """The flux limiter dips below the junction floor A0(t).

    Carries the offending time and the deficit (floor - A) so callers
    can report where admissibility fails.
    """

    def __init__(self, time: float, deficit: float):
        self.time = float(time)
        self.deficit = float(deficit)
        super().__init__(
            f"flux limiter below junction floor at t={time!r} (deficit {deficit:.3e})"
        )


class CflViolation(HjjError):
    """A time step breaks the monotonicity (CFL) condition dt C2 <= dx.

    Raised by every CFL check of a supplied grid: a window's integral of
    C2, the slopes a step reaches, and the speeds of a dynamic-programming
    window.
    """


class NumericalFailure(HjjError):
    """A march produced a level it cannot trust.

    Raised at the first level that holds a non-finite value, and by the
    value function at the first level that breaks its a-priori sup bound.
    """


class NonSeparableTimeDependence(HjjError):
    """A black-box Hamiltonian declared time dependence that cannot be
    mollified coefficient-wise."""


class NegativeKn(HjjError):
    """A mismatch signal came out negative beyond round-off."""


class BudgetExceeded(HjjError):
    """Exhaustive trajectory enumeration would exceed its node budget."""


class ConfigError(HjjError):
    """Malformed run configuration (CLI exit code 1)."""
