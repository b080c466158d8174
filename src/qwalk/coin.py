"""Coin matrices and walk parameters for the 2-state walk on the line.

The walk is driven by a one-parameter family of real reflection coins

    U(theta) = [[cos(theta), sin(theta)], [sin(theta), -cos(theta)]],

split into an upper part ``P`` (moves amplitude left) and a lower part
``Q`` (moves amplitude right).  A second coin ``H = U(theta1)`` of the
same family may replace ``U`` at selected steps; which steps is decided
by a :class:`Schedule`.

Angles where ``cos(theta)`` or ``sin(theta)`` vanish are rejected: the
walk degenerates there and the closed-form limit expressions carry
``1/cos(theta)**6``-type prefactors.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExcludedAngleError",
    "NormalizationError",
    "WalkParams",
    "Schedule",
    "ScheduleKind",
    "parity_offset",
]

#: Rejection tolerance (radians) around the excluded angles
#: {0, pi/2, pi, 3*pi/2}.
EXCLUDED_ANGLE_TOL = 1e-9

#: Tolerance on | ||(alpha, beta)|| - 1 | below which the initial spinor
#: is renormalized instead of rejected.
SPINOR_NORM_TOL = 1e-9


class ExcludedAngleError(ValueError):
    """Coin angle too close to a multiple of pi/2 (degenerate coin)."""


class NormalizationError(ValueError):
    """Initial spinor is not normalized to within tolerance."""


def _distance_to_quarter_turn(theta: float) -> float:
    """Angular distance from ``theta`` to the nearest multiple of pi/2."""
    r = math.fmod(theta, math.pi / 2)
    if r < 0:
        r += math.pi / 2
    return min(r, math.pi / 2 - r)


def _integer(value, name: str) -> int:
    """``value`` as an int: Python and numpy integers pass, a bool, float or str is refused.

    The one integer rule of the package: every time, tau, grid size and
    site that a public function takes goes through it.
    """
    if type(value) is int:
        return value
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class WalkParams:
    """Complete description of one walk instance.

    Parameters
    ----------
    theta:
        Angle of the main coin ``U`` (radians, finite).  Must stay at least
        :data:`EXCLUDED_ANGLE_TOL` away from {0, pi/2, pi, 3*pi/2} (mod 2*pi).
    theta1:
        Angle of the swap coin ``H`` (radians, any finite value).
    tau:
        Half-time: the step index at which a half-time schedule applies
        ``H`` instead of ``U``.  Non-negative integer.
    alpha, beta:
        Initial spinor at the origin, finite.  ``|alpha|**2 + |beta|**2`` must be
        1 within ``SPINOR_NORM_TOL`` of unit norm; if so the pair is
        renormalized exactly, otherwise :class:`NormalizationError` is
        raised (silent renormalization of grossly wrong input would mask
        caller bugs).
    """

    theta: float
    theta1: float
    tau: int
    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", _integer(self.tau, "tau"))
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")
        for name, kind in (("theta", numbers.Real), ("theta1", numbers.Real),
                           ("alpha", numbers.Complex), ("beta", numbers.Complex)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not np.isfinite(value)):
                raise ValueError(f"{name} must be finite and {kind.__name__.lower()}, "
                                 f"got {value!r}")
        if _distance_to_quarter_turn(float(self.theta)) < EXCLUDED_ANGLE_TOL:
            raise ExcludedAngleError(
                f"theta={self.theta!r} is within {EXCLUDED_ANGLE_TOL} rad of an "
                "excluded angle (multiple of pi/2)"
            )
        norm = math.hypot(abs(self.alpha), abs(self.beta))
        if abs(norm - 1.0) > SPINOR_NORM_TOL:
            raise NormalizationError(
                f"|alpha|^2 + |beta|^2 = {norm**2!r}; initial spinor must be "
                f"unit norm within {SPINOR_NORM_TOL}"
            )
        object.__setattr__(self, "alpha", complex(self.alpha) / norm)
        object.__setattr__(self, "beta", complex(self.beta) / norm)

    # cos/sin shorthands used throughout the closed-form expressions
    @property
    def c(self) -> float:
        return math.cos(self.theta)

    @property
    def s(self) -> float:
        return math.sin(self.theta)

    @property
    def c1(self) -> float:
        return math.cos(self.theta1)

    @property
    def s1(self) -> float:
        return math.sin(self.theta1)

    @property
    def spinor(self) -> np.ndarray:
        """Initial coin state as a length-2 complex array."""
        return np.array([self.alpha, self.beta], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class CoinSet:
    """Coins ``U`` and ``H`` as 2x2 arrays, kept only for ``perfbench`` (:func:`build_coins`)."""

    u: np.ndarray
    h: np.ndarray


def _reflection(c: float, s: float) -> np.ndarray:
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


def build_coins(params: WalkParams) -> CoinSet:
    """Build the read-only coins ``U = U(theta)`` and ``H = U(theta1)``.

    The split parts ``P`` (top row of ``U``) and ``Q`` (bottom row) are
    notation only: the stepping code applies the rows directly.  Not
    public API: kept only because ``perfbench`` imports it, until ROADMAP
    item 1(a) gives the benchmark its own references.
    """
    mats = CoinSet(_reflection(params.c, params.s), _reflection(params.c1, params.s1))
    for mat in (mats.u, mats.h):
        mat.flags.writeable = False
    return mats


def fourier_coin(coin: np.ndarray, k: float) -> np.ndarray:
    """Fourier-space coin at wavenumber ``k``: ``R(k) @ coin``.

    ``R(k) = diag(e^{ik}, e^{-ik})`` is the momentum-space shift.  One
    application advances the transformed state by one time step, so the
    momentum-space evolution is a pointwise 2x2 multiplication.  Unitary
    whenever ``coin`` is.  Not public API: kept only because ``perfbench``
    imports it, until ROADMAP item 1(a) gives the benchmark its own
    references.
    """
    shift = np.diag([np.exp(1j * k), np.exp(-1j * k)])
    return shift @ np.asarray(coin, dtype=np.complex128)


class ScheduleKind(enum.Enum):
    """Which steps use the swap coin ``H``."""

    USUAL = "usual"
    HALF_TIME = "half-time"
    MULTI = "multi"


@dataclass(frozen=True)
class Schedule:
    """Decides, per transition ``t -> t+1``, whether ``H`` replaces ``U``.

    ``HALF_TIME`` is the single-swap model: ``H`` acts exactly on the
    transition from time ``tau`` (so at time ``2*tau + 1`` the walk has
    seen ``U^tau H U^tau``).  ``MULTI`` generalizes to an arbitrary step
    set; no limit law is implemented for it.
    """

    kind: ScheduleKind = ScheduleKind.HALF_TIME
    steps: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.kind is not ScheduleKind.MULTI and self.steps:
            raise ValueError("explicit step sets are only valid for MULTI schedules")
        if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool)
                   and t >= 0 for t in self.steps):
            raise ValueError(f"swap steps must be non-negative integers, "
                             f"got {set(self.steps)}")
        object.__setattr__(self, "steps", frozenset(int(t) for t in self.steps))

    @classmethod
    def usual(cls) -> "Schedule":
        """Homogeneous walk: ``H`` never applied."""
        return cls(kind=ScheduleKind.USUAL)

    @classmethod
    def half_time(cls) -> "Schedule":
        """Single swap at step ``tau`` (taken from the walk parameters)."""
        return cls(kind=ScheduleKind.HALF_TIME)

    @classmethod
    def multi(cls, steps) -> "Schedule":
        """Swap at every step in the collection ``steps``."""
        try:
            steps = frozenset(steps)
        except TypeError:
            raise ValueError(f"swap steps must be a collection, got {steps!r}") from None
        return cls(kind=ScheduleKind.MULTI, steps=steps)

    def swaps_before(self, t: int, tau: int) -> list[int]:
        """Sorted steps below ``t`` whose transition uses ``H``, split as ``(P1, Q1)``.

        The one swap query: the stepping loop and the propagator both read it.
        """
        if self.kind is ScheduleKind.USUAL:
            return []
        if self.kind is ScheduleKind.HALF_TIME:
            return [tau] if tau < t else []
        return sorted(step for step in self.steps if step < t)


def parity_offset(parity: str) -> int:
    """Measurement time ``t = 2*tau + offset`` of a parity track: 1 odd, 2 even.

    The walk at time ``t`` holds mass only where ``x % 2 == offset % 2``.
    """
    if parity == "odd":
        return 1
    if parity == "even":
        return 2
    raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
