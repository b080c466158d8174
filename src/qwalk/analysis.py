"""Convergence diagnostics connecting simulation to the limit laws.

Everything here is exact arithmetic on exact distributions: traces of a
point probability across growing half-times, the Kolmogorov distance
between the rescaled walk and its weak limit, and moments of ``X_t/t``
against the limit moments.  No sampling is involved anywhere.

Traces over tau run through :func:`tau_sweep`, which jumps to each
measurement time with the closed-form momentum-space propagator instead
of re-stepping the walk from ``t = 0`` for every tau, on the grid of
:func:`qwalk.spectral.grid_size`.  Each state it yields carries its own
time, so :meth:`qwalk.spectral.FourierState.mass`, :func:`fourier_moment`
and the read-back :meth:`qwalk.spectral.FourierState.sublattice` take no
``t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .coin import Schedule, WalkParams, parity_offset
from .dynamics import Distribution, check_time
from .limits import LimitDensity
from .spectral import FourierState, Propagator, grid_size

__all__ = [
    "ConvergenceTrace",
    "mass_trace",
    "tau_sweep",
    "fourier_moment",
    "check_measurement_time",
    "check_moment_order",
    "rescaled_cdf_distance",
    "moment",
    "localized_mass",
]


@dataclass(frozen=True)
class ConvergenceTrace:
    """Observable values along a strictly increasing half-time grid."""

    taus: tuple[int, ...]
    observable: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.taus) != len(self.values):
            raise ValueError("taus and values must have equal length")
        _check_increasing(self.taus)


def _check_increasing(taus: tuple[int, ...]) -> None:
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("taus must be strictly increasing")


def tau_sweep(
    params: WalkParams,
    schedule: Schedule,
    parity: str,
    taus: Iterable[int],
) -> Iterator[FourierState]:
    """Transformed state at ``t = 2*tau + 1`` or ``2*tau + 2``, per tau.

    ``params.tau`` is replaced by each entry of ``taus``, in the given
    order (repeats allowed), and each state carries its own ``time``.  One
    :class:`qwalk.spectral.Propagator`, whose grid is sized for the largest
    ``t``, serves every tau, and each state comes straight from it, so an
    extra tau costs O(n) on that grid.  The arguments are checked at once;
    the states are computed one at a time as they are iterated, so memory
    stays O(n).

    Raises
    ------
    ValueError
        For an unknown parity, a negative tau, or a largest ``t`` that
        :func:`qwalk.dynamics.check_time` rejects.
    """
    offset = parity_offset(parity)
    taus = [int(tau) for tau in taus]
    if any(tau < 0 for tau in taus):
        raise ValueError(f"taus must be non-negative, got {min(taus)}")
    t_max = 2 * max(taus) + offset if taus else 0
    check_time(t_max)
    propagator = Propagator(params, grid_size(t_max))
    return (propagator.state(schedule, 2 * tau + offset, tau) for tau in taus)


def check_measurement_time(tau: int, t: int) -> None:
    """Refuse a time ``t`` other than ``2*tau + 1`` or ``2*tau + 2``."""
    if t not in (2 * tau + 1, 2 * tau + 2):
        raise ValueError(f"t must be 2*tau+1 or 2*tau+2 for tau={tau}, got {t}")


def check_moment_order(r: int) -> None:
    """Refuse a negative moment order."""
    if r < 0:
        raise ValueError(f"moment order must be non-negative, got {r}")


def _moment(xs: np.ndarray, ps: np.ndarray, t: int, r: int) -> float:
    """r-th moment of ``X_t/t`` for masses ``ps`` at positions ``xs``."""
    check_moment_order(r)
    if t == 0:
        return 1.0 if r == 0 else 0.0
    return float(np.sum((xs / t) ** r * ps))


def fourier_moment(state: FourierState, r: int) -> float:
    """r-th moment of ``X_t/t`` at the state's time, by one inverse FFT.

    Only the sublattice is read; the other parity holds exact zeros.
    """
    t = state.time
    sq = np.abs(state.sublattice().sites) ** 2
    return _moment(np.arange(-t, t + 1, 2), sq[:, 0] + sq[:, 1], t, r)


def mass_trace(
    params: WalkParams,
    x: int,
    parity: str,
    taus: Iterable[int],
) -> ConvergenceTrace:
    """Simulated ``P(X_t = x)`` at ``t = 2*tau + 1`` or ``2*tau + 2`` per tau.

    ``params.tau`` serves as a template and is replaced by each entry of
    ``taus``; the values approach the stationary point mass as tau grows.
    Each value is read off the closed-form momentum-space state of
    :func:`tau_sweep` (half-time schedule), not stepped with ``evolve``.
    ``taus`` must be strictly increasing; that is checked before any
    state is propagated.
    """
    taus = tuple(int(tau) for tau in taus)
    _check_increasing(taus)
    states = tau_sweep(params, Schedule.half_time(), parity, taus)
    values = [state.mass(x) for state in states]
    return ConvergenceTrace(
        taus=taus,
        observable=f"mass(x={x}, {parity})",
        values=tuple(values),
    )


def rescaled_cdf_distance(params: WalkParams, dist: Distribution) -> float:
    """Kolmogorov distance between the law of ``X_t/t`` and its weak limit.

    ``dist`` is the half-time walk of ``params`` at ``t = 2*tau + 1`` or
    ``2*tau + 2``; only its time is checked against ``params.tau``.

    The limit law has an atom at 0, and the walk's localized counterpart
    is mass at fixed positions on *both* sides of the origin; at the
    lattice point just left of 0 the raw distribution functions then
    differ by half the atom forever, so the plain supremum distance does
    not vanish.  The walk mass on the window of :func:`localized_mass`
    (which captures exactly the localized part in the limit) is therefore
    collapsed to an atom at 0 before comparing.  The collapsed lattice
    distribution function is a step function and the limit one is
    nondecreasing, so on each step their difference is monotone and its
    supremum sits at an end: the left and right limits at the jump points
    give the exact supremum.
    """
    t = dist.time
    check_measurement_time(params.tau, t)
    xs, ps = dist.as_arrays()
    inside = _window(dist)
    points = np.append(xs[~inside] / t, 0.0)
    masses = np.append(ps[~inside], np.sum(ps[inside]))
    order = np.argsort(points)
    points, masses = points[order], masses[order]
    lattice_right = np.cumsum(masses)
    lattice_left = lattice_right - masses
    dens = LimitDensity.from_params(params)
    limit_right = dens.cdf(points)
    limit_left = limit_right - dens.delta * (points == 0.0)
    return max(
        float(np.max(np.abs(limit_right - lattice_right))),
        float(np.max(np.abs(limit_left - lattice_left))),
    )


def moment(dist: Distribution, r: int) -> float:
    """r-th moment of the rescaled position ``X_t/t``."""
    xs, ps = dist.as_arrays()
    return _moment(xs, ps, dist.time, r)


def _window(dist: Distribution) -> np.ndarray:
    """Mask of the sublinear window ``|x| <= sqrt(t)`` over ``-t..t``."""
    xs, _ = dist.as_arrays()
    return np.abs(xs) <= dist.time ** 0.5


def localized_mass(dist: Distribution) -> float:
    """Walk mass on the sublinear window ``|x| <= sqrt(t)``.

    On the rescaled axis the window shrinks to the point 0, so this
    converges to the atom of the weak limit while the spread part
    contributes o(1); it is the simulation-side estimate of delta.
    """
    return float(np.sum(dist.values[_window(dist)]))
