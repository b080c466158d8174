"""Convergence diagnostics connecting simulation to the limit laws.

Everything here is exact arithmetic on exact distributions: traces of a
point probability across growing half-times, the Kolmogorov distance
between the rescaled walk and its weak limit, and moments of ``X_t/t``
against the limit moments.  No sampling is involved anywhere.

Traces over tau run on one closed-form momentum-space propagator, which
jumps to each measurement time instead of re-stepping the walk from ``t =
0`` for every tau, on the grid of :func:`qwalk.spectral.grid_size`, by
one carried-phase sweep whatever the schedule.  :func:`tau_sweep` yields
one state per tau, each carrying its own time, so
:meth:`qwalk.spectral.FourierState.mass` and the read-back
:meth:`qwalk.spectral.FourierState.sublattice` take no ``t``.  The trace
readers :func:`trace_masses` and :func:`trace_moments` read a trace a
block of taus at a time (:meth:`qwalk.spectral.Propagator.sweep_masses`
and :meth:`~qwalk.spectral.Propagator.sweep_probabilities`), with no
state per tau.  A moment is ``sum (x/t)^r P(x)`` of one helper, whether
it reads a :class:`~qwalk.dynamics.Distribution` (:func:`moment`) or a
block.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .coin import Schedule, WalkParams, _integer, parity_offset
from .dynamics import Distribution, check_time
from .limits import LimitDensity
from .spectral import FourierState, Propagator, grid_size

__all__ = [
    "tau_sweep",
    "trace_masses",
    "trace_moments",
    "check_measurement_time",
    "check_moment_order",
    "rescaled_cdf_distance",
    "moment",
    "localized_mass",
]


class ConvergenceTrace(NamedTuple):
    """Values of :func:`mass_trace` at its half-times.

    Not public API: kept only because ``perfbench`` traces
    :func:`mass_trace`, until ROADMAP item 1(a) retargets its tracer.
    """

    taus: tuple[int, ...]
    values: tuple[float, ...]


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
    ``t`` (so a tau's last digits can depend on it), serves every tau at
    O(n) each, by :meth:`~qwalk.spectral.Propagator.sweep` on every
    schedule.  The arguments are checked at once; the states are computed
    one at a time as they are iterated, so memory stays O(n).

    Raises
    ------
    ValueError
        For an unknown parity, a tau that is not a non-negative integer
        (a bool, float or str is refused, not truncated), or a largest
        ``t`` that :func:`qwalk.dynamics.check_time` rejects.
    """
    _, taus, propagator = _trace_propagator(params, parity, taus)
    return propagator.sweep(schedule, parity, taus)


def trace_masses(params: WalkParams, schedule: Schedule, parity: str,
                 taus: Iterable[int], xs: Sequence[int]) -> np.ndarray:
    """``P(X_t = x)`` at ``t = 2*tau + 1`` or ``2*tau + 2``: one row per tau, one column per x.

    The taus and the grid are those of :func:`tau_sweep`, checked the same
    way.  The masses are read a block of taus at a time, with no state
    formed (:meth:`qwalk.spectral.Propagator.sweep_masses`), so a value's
    bits depend on its tau, x and the grid alone, and ``taus`` may come in
    any order and repeat.  A wrong-parity ``x``, or one beyond the light
    cone, reads exactly 0.0.
    """
    offset, taus, propagator = _trace_propagator(params, parity, taus)
    blocks = propagator.sweep_masses(schedule, parity, sorted(set(taus)), xs)
    return _per_tau(taus, offset, blocks, (0, len(xs)))


def trace_moments(params: WalkParams, schedule: Schedule, parity: str,
                  taus: Iterable[int], r: int) -> np.ndarray:
    """r-th moment of ``X_t/t`` at ``t = 2*tau + 1`` or ``2*tau + 2``, per tau.

    The taus and the grid are those of :func:`tau_sweep`, checked the same
    way, after the order ``r``.  The distributions come a block of taus at
    a time, each block from one inverse FFT
    (:meth:`qwalk.spectral.Propagator.sweep_probabilities`), and the
    moment is one weighted row sum over the block's DFT slots.  A value's
    bits depend on its tau, r and the grid alone.
    """
    check_moment_order(r)
    offset, taus, propagator = _trace_propagator(params, parity, taus)
    blocks = ((times, _moment_sum(xs, times[:, None], ps, r)) for times, xs, ps
              in propagator.sweep_probabilities(schedule, parity, sorted(set(taus))))
    return _per_tau(taus, offset, blocks, (0,))


def _trace_propagator(params: WalkParams, parity: str,
                      taus: Iterable[int]) -> tuple[int, list[int], Propagator]:
    """The parity offset, the checked taus and the propagator of a trace."""
    offset = parity_offset(parity)
    taus = [_integer(tau, "tau") for tau in taus]
    if any(tau < 0 for tau in taus):
        raise ValueError(f"taus must be non-negative, got {min(taus)}")
    t_max = 2 * max(taus) + offset if taus else 0
    check_time(t_max)
    return offset, taus, Propagator(params, grid_size(t_max))


def _per_tau(taus: list[int], offset: int, blocks, empty: tuple[int, ...]) -> np.ndarray:
    """Each tau's row of the ``(times, values)`` blocks, which cover the taus in order of time."""
    times, values = list(zip(*blocks)) or ((np.empty(0, int),), (np.empty(empty),))
    at = np.searchsorted(np.concatenate(times), 2 * np.array(taus, dtype=np.int64) + offset)
    return np.concatenate(values)[at]


def check_measurement_time(tau: int, t: int) -> None:
    """Refuse a time ``t`` other than ``2*tau + 1`` or ``2*tau + 2``."""
    if t not in (2 * tau + 1, 2 * tau + 2):
        raise ValueError(f"t must be 2*tau+1 or 2*tau+2 for tau={tau}, got {t}")


def check_moment_order(r: int) -> None:
    """Refuse a negative moment order."""
    if r < 0:
        raise ValueError(f"moment order must be non-negative, got {r}")


def mass_trace(params: WalkParams, x: int, parity: str,
               taus: Iterable[int]) -> ConvergenceTrace:
    """Simulated ``P(X_t = x)`` at ``t = 2*tau + 1`` or ``2*tau + 2`` per tau.

    Each value is the half-time :func:`trace_masses` of ``x``, so ``taus``
    may come in any order and repeat.  Not public API: kept only because
    ``perfbench`` traces it, until ROADMAP item 1(a) retargets its tracer.
    """
    taus = tuple(_integer(tau, "tau") for tau in taus)
    masses = trace_masses(params, Schedule.half_time(), parity, taus, (x,))
    return ConvergenceTrace(taus, tuple(masses[:, 0].tolist()))


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
    check_measurement_time(params.tau, dist.time)
    return _limit_distance(LimitDensity.from_params(params), dist)


def _limit_distance(dens: LimitDensity, dist: Distribution) -> float:
    """The distance of :func:`rescaled_cdf_distance` to the limit law ``dens``, built by the caller."""
    t = dist.time
    xs, ps = dist.as_arrays()
    inside = _window(dist)
    # the sites are sorted, so the atom goes between the two outer runs
    points = np.concatenate((xs[:inside.start] / t, [0.0], xs[inside.stop:] / t))
    masses = np.concatenate((ps[:inside.start], [np.sum(ps[inside])], ps[inside.stop:]))
    lattice_right = np.cumsum(masses)
    lattice_left = lattice_right - masses
    limit_right = dens.cdf(points)
    limit_left = limit_right - dens.delta * (points == 0.0)
    return max(
        float(np.max(np.abs(limit_right - lattice_right))),
        float(np.max(np.abs(limit_left - lattice_left))),
    )


def moment(dist: Distribution, r: int) -> float:
    """r-th moment of the rescaled position ``X_t/t``."""
    check_moment_order(r)
    t = dist.time
    if t == 0:
        return 1.0 if r == 0 else 0.0
    xs, ps = dist.as_arrays()
    return float(_moment_sum(xs, t, ps, r))


def _moment_sum(xs: np.ndarray, t, ps: np.ndarray, r: int):
    """``sum (x/t)^r P(x)`` over the last axis: the one moment formula.

    ``t`` may be a column of times, one per row of ``ps``; a site with no
    mass, beyond a row's light cone, adds exactly 0.  The power is taken
    of ``|x/t|`` clipped to 1, and an odd ``r`` puts the sign back: numpy's
    ``pow`` is many times slower on a negative base, and beyond the cone,
    where ``|x/t|`` exceeds 1, a high order would overflow to ``inf * 0``.
    Inside the cone ``|x| <= t``, so the clip changes nothing there, and
    ``r <= 2`` gives the bits of ``(x/t)**r``.
    """
    scaled = np.minimum(np.abs(xs / t), 1.0) ** r
    if r % 2:
        np.copysign(scaled, xs, out=scaled)
    return np.sum(scaled * ps, axis=-1)


def _window(dist: Distribution) -> slice:
    """The sublinear window ``|x| <= sqrt(t)``, a slice of the occupied sites."""
    t, half = dist.time, math.isqrt(dist.time)
    # site j sits at x = 2j - t, so -half <= x <= half is this range of j
    return slice((t - half + 1) // 2, (t + half) // 2 + 1)


def localized_mass(dist: Distribution) -> float:
    """Walk mass on the sublinear window ``|x| <= sqrt(t)``.

    On the rescaled axis the window shrinks to the point 0, so this
    converges to the atom of the weak limit while the spread part
    contributes o(1); it is the simulation-side estimate of delta.
    """
    return float(np.sum(dist.values[_window(dist)]))
