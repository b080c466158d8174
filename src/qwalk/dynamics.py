"""Exact position-space evolution of the walk.

One step maps

    psi_{t+1}(x) = P psi_t(x+1) + Q psi_t(x-1)

(with ``P1, Q1`` instead on swap steps).  The walker moves one site per
step, so at time ``t`` only the sites ``x = -t, -t+2, ..., t`` can hold
amplitude.  The stepping core works on that sublattice alone, indexed by
``j = (x + t)/2``: the left-moving component ``L`` keeps its ``j`` from
one step to the next, and the right-moving component ``R`` moves to
``j + 1``.  Both live in contiguous buffers sized once for the largest
requested time ``T``, with ``L[j]`` in slot ``j`` and ``R[j]`` in slot
``T - t + j``, so that one step updates both in place:

    L[j] <- a L[j] + b R[j],    R[j+1] <- c L[j] + d R[j]

The coin entries ``a, b, c, d`` are real, so these are six in-place
scalar multiplies and adds on the ``float64`` views of the buffers.  A
:class:`StateVector` holds the same ``t + 1`` sites and a
:class:`Distribution` their masses.  The CLI prints its rows ``-t..t``
from these too, with the sites where ``x + t`` is odd as constant zeros;
the dense ``(2t+1, 2)`` window is built only when ``.amps`` is read, by
the tests and the benchmark.  Everything is deterministic: the
probabilities are squared amplitude norms, never sampled.

Stepping costs O(t^2) to reach time ``t``, so this module is the
reference route, not the production one: the ``qwalk`` commands evolve a
walk with :func:`qwalk.spectral.spectral_evolve` (closed-form momentum
space, O(t log t)).  :func:`evolve` is what ``spectral-check``, the
cross-route tests and the acceptance criteria compare that route against, and
:func:`snapshots` serves the spacetime figures, which need every time up
to 100.  The state containers and :func:`check_time`, the one time cap,
are shared by both routes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .coin import Schedule, WalkParams

__all__ = [
    "StateVector",
    "Distribution",
    "initial_state",
    "step",
    "evolve",
    "snapshots",
    "check_time",
    "distribution",
    "DEFAULT_MAX_T",
    "max_time_cap",
]

#: Hard cap on requested evolution times; override with the QWALK_MAX_T
#: environment variable.
DEFAULT_MAX_T = 10**6


def max_time_cap() -> int:
    """Active evolution-time cap: ``QWALK_MAX_T`` if set, else the default."""
    raw = os.environ.get("QWALK_MAX_T")
    return int(raw) if raw else DEFAULT_MAX_T


@dataclass(frozen=True, eq=False)
class StateVector:
    """Walker amplitudes at a fixed time, on the sites it can occupy.

    ``sites[j]`` is the 2-component amplitude at ``x = 2*j - time``: the
    ``time + 1`` sites ``-time, -time+2, ..., time`` (the walker moves
    one site per step, so ``x + time`` is even).  Instances are read-only.
    """

    time: int
    sites: np.ndarray

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("time must be non-negative")
        if self.sites.shape != (self.time + 1, 2):
            raise ValueError(f"sites shape {self.sites.shape} is not "
                             f"({self.time + 1}, 2), one spinor per occupied site")
        self.sites.flags.writeable = False

    @property
    def amps(self) -> np.ndarray:
        """The dense window: ``amps[i]`` is the amplitude at ``x = i - time``.

        It spans ``-time .. time``, with exact zeros at the sites where
        ``x + time`` is odd.  This is the one place the window is built,
        anew and read-only on every read.  Only the tests and the
        benchmark's output checks and tracer read it: the CLI prints its
        rows from :attr:`sites`.
        """
        amps = np.zeros((2 * self.time + 1, 2), dtype=np.complex128)
        amps[::2] = self.sites
        amps.flags.writeable = False
        return amps

    def norm_sq(self) -> float:
        """Total probability; 1 up to roundoff for any valid state."""
        return float(np.sum(np.abs(self.sites) ** 2))


@dataclass(frozen=True, eq=False)
class Distribution:
    """Exact position distribution at a fixed time, on the occupied sites.

    ``values[j]`` is ``P(X_t = 2*j - time)``, the layout of
    :attr:`StateVector.sites`: every other site has probability exactly 0.
    The array is read-only.
    """

    time: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("time must be non-negative")
        if self.values.shape != (self.time + 1,):
            raise ValueError(f"values shape {self.values.shape} is not "
                             f"({self.time + 1},), one mass per occupied site")
        self.values.flags.writeable = False

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupied positions ``-t, -t+2, ..., t`` and their probabilities."""
        return np.arange(-self.time, self.time + 1, 2), self.values


def initial_state(params: WalkParams) -> StateVector:
    """State at ``t = 0``: the spinor ``(alpha, beta)`` at the origin."""
    return StateVector(0, params.spinor[np.newaxis])


def check_time(t: int) -> None:
    """Reject an evolution time that is negative or above :func:`max_time_cap`."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    cap = max_time_cap()
    if t > cap:
        raise ValueError(f"t={t} exceeds the configured cap {cap}")


def _stepper(start: StateVector, params: WalkParams, schedule: Schedule,
             want: list[int]) -> Iterator[StateVector]:
    """States at the sorted, checked ``want`` (all at or after ``start``).

    The one stepping loop; see the module docstring for the layout.
    """
    t, t_max = start.time, want[-1]
    left = np.zeros(t_max + 1, dtype=np.complex128)
    right = np.zeros(t_max + 1, dtype=np.complex128)
    left[:t + 1] = start.sites[:, 0]
    right[t_max - t:] = start.sites[:, 1]
    lf, rf = left.view(np.float64), right.view(np.float64)
    scratch_b, scratch_c = np.empty_like(lf), np.empty_like(lf)
    # Rows of the coin, plain and swapped: the top row feeds the
    # left-moving component, the bottom row the right-moving one.
    coins = ((params.c, params.s, params.s, -params.c),
             (params.c1, params.s1, params.s1, -params.c1))
    swaps = set(schedule.swaps_before(t_max, params.tau))
    for target in want:
        for s in range(t, target):
            a, b, c, d = coins[s in swaps]
            n = 2 * s + 2  # floats in the s + 1 occupied slots
            lv, rv = lf[:n], rf[2 * (t_max - s):]
            bv, cv = scratch_b[:n], scratch_c[:n]
            np.multiply(rv, b, out=bv)
            np.multiply(lv, c, out=cv)
            lv *= a
            lv += bv
            rv *= d
            rv += cv
        t = target
        yield StateVector(t, np.stack((left[:t + 1], right[t_max - t:]), axis=1))


def step(state: StateVector, params: WalkParams, schedule: Schedule) -> StateVector:
    """Advance one time step; the walk reaches one more site."""
    return next(_stepper(state, params, schedule, [state.time + 1]))


def snapshots(params: WalkParams, schedule: Schedule,
              times: Iterable[int]) -> Iterator[StateVector]:
    """States at each of ``times``, in increasing order, from one stepping loop.

    Repeated times yield once.  Every time is checked by :func:`check_time`
    before any buffer is allocated or the first state is yielded.
    """
    want = sorted(set(times))
    if want:
        check_time(want[0])
        check_time(want[-1])
        yield from _stepper(initial_state(params), params, schedule, want)


def evolve(params: WalkParams, schedule: Schedule, t_final: int) -> StateVector:
    """Evolve from the initial state to time ``t_final``.

    Raises
    ------
    ValueError
        If ``t_final`` is negative or exceeds the resource cap
        (``QWALK_MAX_T``, else 10**6).
    """
    return next(snapshots(params, schedule, (t_final,)))


def distribution(state: StateVector) -> Distribution:
    """Squared amplitude norms on the occupied sites ``-t, -t+2, ..., t``."""
    sq = np.abs(state.sites) ** 2
    # two columns: a plain add is bit-identical to np.sum(axis=1), and faster
    return Distribution(time=state.time, values=sq[:, 0] + sq[:, 1])
