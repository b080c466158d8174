"""Momentum-space machinery: eigen-decomposition, DFT evolution, limits.

This module holds the production evolution and the conventions of the
Fourier route.  A state is ``sum_x e^{-ikx} psi(x)`` on the half circle
``k_m = -pi + pi m / n``, ``m < n``.  The other half is redundant: every
occupied site has ``x = t (mod 2)``, so ``psi(k + pi) = (-1)^t psi(k)``.
The walk has bounded support ``|x| <= t``, so on a grid of at least
``t + 1`` points the inverse transform is an *exact* finite DFT rather
than an approximate quadrature (Grimmett, Janson and Scudo, Phys. Rev. E
69 (2004) 026119); :func:`grid_size` picks the smallest 5-smooth such
``n``, which keeps numpy's FFT off Bluestein's algorithm.
:class:`Propagator` reaches the transformed state at any time in closed
form, as a :class:`FourierState` that carries that time, and
:meth:`FourierState.sublattice`, the one read-back, brings it back to
positions with one inverse FFT, in O(t log t) where stepping costs O(t^2);
:meth:`FourierState.mass` reads one site off a DFT row ``e^{ikx}``.
Every phase is a signed entry of one row ``T_m = e^{i k_m}`` (the
read-back's ``e^{-i k_m t}`` is ``conj(T)^(t mod 2)`` and a shift by ``t //
2`` slots), so no product like ``t * k``, off by about ``t * eps``, is
rounded.  The route's accuracy is that of ``U(k)^t`` itself, a
relative error of about ``t * eps`` in k-space (~1e-13 per site at
``t = 10**6``), which position-space stepping shares.
:func:`spectral_evolve` is that route for one walk and time, which
``qwalk simulate``, ``compare`` and figures 1a-3b run on; ``trace`` reads
every tau off one propagator (:func:`qwalk.analysis.tau_sweep`).
Position-space stepping (:mod:`qwalk.dynamics`) is the independent
reference this route must reproduce to roundoff; any disagreement is a
bug in one of the two routes.

The evolution in ``k`` is :class:`Propagator`, which jumps to any time in
closed form.  ``V(k) = -i U(k)`` has determinant 1 and trace ``2x`` with
``x = c sin k``, so Cayley-Hamilton gives

    U(k)^m = i^m [T_m(x) I + U_{m-1}(x) (V(k) - x I)]

with ``T_j`` and ``U_j`` the Chebyshev polynomials of the first and second
kind; no eigenvectors and no branch choice are involved.  ``V - x I`` is
applied from its entries ``-i c cos k`` and ``-i s e^{+-ik}``: where the
eigenvalues nearly meet, ``U_{m-1}`` grows to about ``m``, and ``U_{m-1} V
- U_{m-2} I`` would subtract two terms that large.  As ``sin k <= 0`` on
the half circle, ``sgn(x)^m`` joins ``i^m``, and the polynomials at ``|x|``
are ``T_m = Re e^{imw}`` and ``U_{m-1} = Im e^{imw} / sin w``, one row for
:meth:`Propagator.state` and :meth:`Propagator.sweep` alike, with ``sin w =
hypot(s, c cos k)`` and ``w = atan2(sin w, |x|)`` kept as ``w - pi/2``
above ``pi/4``, so that the rounded phase is at most ``m pi/4``.  Both
choices matter near the excluded angles: ``sqrt(1 - x^2)`` cancels when
``|x|`` is close to 1 (theta near 0 or pi), and an unfolded ``w = acos(x)``
near pi carries an absolute rounding error that the ratio ``sin(m w) / sin
w`` magnifies.

A half-time state splits exactly into a stationary part, the same for
every tau of a parity track, whose DFT rows are the Theorem 1 amplitudes,
and a dispersive part (:meth:`Propagator.split`) whose phase ``e^{iMw}``,
``M = t - 1``, a sweep turns by ``e^{2iw}`` from tau to tau, one complex
multiply each, from an anchor every 16 taus.  The phases of a block of
taus are written as the rows of one ``(B, n)`` array, and the sweep's
states (:meth:`Propagator.sweep`) and its two block readers, the masses
at fixed sites (:meth:`Propagator.sweep_masses`, a matrix product with
row products formed once) and the position distributions
(:meth:`Propagator.sweep_probabilities`, one inverse FFT a block), all
read those rows.

It also evaluates the large-time amplitude limits at fixed positions,
with their phase (:func:`asymptotic_amplitude`): the DFT rows of the
stationary part, and, squared, a second, independent route to the
stationary point masses of :func:`qwalk.limits.theorem1_limit`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .coin import Schedule, WalkParams, parity_offset
from .dynamics import StateVector, check_time, max_time_cap

__all__ = [
    "SpectralPair",
    "FourierState",
    "eigensystem",
    "grid_size",
    "wavenumber_grid",
    "spectral_evolve",
    "Propagator",
]

@dataclass(frozen=True, eq=False)
class SpectralPair:
    """Eigenvalues and eigenvectors of the momentum-space coin at each k.

    ``lambda1`` and ``lambda2`` have the shape of ``k``; ``v1`` and ``v2``
    add a last axis of length 2.  The eigenvalues lie on the unit circle
    and satisfy ``lambda1 * lambda2 == -1``; at each ``k`` the
    eigenvectors are orthonormal.  All arrays are read-only.
    """

    k: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("k", "lambda1", "lambda2", "v1", "v2"):
            value = np.asarray(getattr(self, name))
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def _eigenvector(c: float, s: float, cos_k: np.ndarray, sin_k: np.ndarray,
                 r_a: np.ndarray, sign: float) -> np.ndarray:
    """Unit eigenvectors for the branch with eigenvalue ``sign*rA + ic sin k``.

    The co-factor form is ``(s e^{ik}, sign*rA - c cos k)``.  Its real
    entry cancels when ``sign*c cos k`` approaches ``rA``; there it is
    taken from the product identity ``(rA - c cos k)(rA + c cos k) =
    s**2`` as ``s**2 / (rA + |c cos k|)``, so no difference is formed.
    The first entry has modulus ``|s| > 0`` at every ``k``.
    """
    proj = sign * c * cos_k
    big = r_a + np.abs(proj)
    w = np.where(proj > 0, s * s / big, big)
    v = np.stack([s * (cos_k + 1j * sin_k), sign * w], axis=-1)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def eigensystem(params: WalkParams, k) -> SpectralPair:
    """Closed-form eigen-decomposition of the momentum-space coin.

    ``k`` is a scalar or an array of wavenumbers.  The eigenvalues are
    ``+-sqrt(1 - c^2 sin^2 k) + i c sin k``; their product is exactly -1.
    """
    k = np.array(k, dtype=float)  # a copy: the pair's arrays are read-only
    c, s = params.c, params.s
    cos_k, sin_k = np.cos(k), np.sin(k)
    x = c * sin_k
    r_a = np.hypot(s, c * cos_k)  # sqrt(1 - x^2) cancels near |x| = 1
    return SpectralPair(
        k=k,
        lambda1=r_a + 1j * x,
        lambda2=-r_a + 1j * x,
        v1=_eigenvector(c, s, cos_k, sin_k, r_a, +1.0),
        v2=_eigenvector(c, s, cos_k, sin_k, r_a, -1.0),
    )


@dataclass(frozen=True, eq=False)
class FourierState:
    """Transformed amplitudes at time ``time`` on a half-circle wavenumber grid.

    ``values[m]`` is the spinor at ``k_m = -pi + pi m / n``, ``m < n``, and
    ``eik`` the row ``e^{i k_m}`` that every read-back phase comes from.  An
    ``n``-point grid holds the times ``0 <= time < n``; any other time is
    refused here, the one place that rule is checked.  ``dft_rows`` keeps
    the last ``_KEPT_DFT_ROWS`` rows that :meth:`mass` read, by ``x``; the
    states of one :class:`Propagator` share it and ``eik``, so a sweep
    builds each row once and frees it with its states.
    """

    time: int
    values: np.ndarray
    eik: np.ndarray
    dft_rows: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        n = len(self.values)
        if self.values.shape != (n, 2) or self.eik.shape != (n,):
            raise ValueError("values must be one 2-spinor per entry of eik")
        _check_grid_time(self.time, n)
        self.values.flags.writeable = False
        self.eik.flags.writeable = False

    def norm_sq(self) -> float:
        """Grid average of the squared spinor norm (Plancherel mass)."""
        return float(np.mean(np.sum(np.abs(self.values) ** 2, axis=1)))

    def sublattice(self) -> StateVector:
        """The position-space state at :attr:`time`, by one inverse FFT.

        Site ``x = 2j - t`` has ``e^{i k_m x} = e^{2 pi i j m / n} e^{-i k_m t}``
        and ``e^{-i k_m t} = conj(T_m)^e e^{-2 pi i q m / n}`` for ``t = 2q + e``,
        so slot ``j - q`` (mod n) of ``ifft_n(conj(T)^e values)`` is its
        amplitude; the ``t + 1 <= n`` slots are distinct, which makes this exact.
        """
        t, n = self.time, len(self.values)
        q, odd = divmod(t, 2)
        values = self.values * np.conjugate(self.eik)[:, None] if odd else self.values
        full = np.fft.ifft(values, axis=0)
        return StateVector(t, np.concatenate((full[n - q:], full[:q + odd + 1])))

    def mass(self, x: int) -> float:
        """``P(X_t = x)`` at :attr:`time`: one DFT row ``mean(e^{ikx} values)``, O(n)."""
        t, n = self.time, len(self.values)
        if abs(x) > t or (x + t) % 2:
            return 0.0
        row = self.dft_rows.pop(x, None)
        if row is None:
            if len(self.dft_rows) == _KEPT_DFT_ROWS:
                del self.dft_rows[next(iter(self.dft_rows))]  # the least recently used
            row = _dft_row(self.eik, x)
            row.flags.writeable = False
        self.dft_rows[x] = row
        a0, a1 = np.abs(row @ self.values / n).tolist()
        return a0 * a0 + a1 * a1

def _dft_row(eik: np.ndarray, x: int) -> np.ndarray:
    """The DFT row ``e^{i k_m x}`` of site ``x`` on the grid of the row ``eik = T``, new."""
    # e^{i k_m x} = e^{i pi (m - n) x / n}: with (m - n) x = d n + r,
    # 0 <= r < n, that is (-1)^d e^{i pi r / n} = -(-1)^d T_r, exactly
    d, r = np.divmod(np.arange(-len(eik), 0) * x, len(eik))
    row = eik[r]
    return np.negative(row, out=row, where=d % 2 == 0)


def _check_grid_time(t: int, n: int) -> None:
    """Refuse a time ``t`` outside ``0..n-1``, the times an ``n``-point grid holds."""
    if not 0 <= t < n:
        raise ValueError(f"t={t} is outside 0..{n - 1} of a {n}-point grid")


def _integer(value, name: str) -> int:
    """``value`` as an int: Python and numpy integers pass, a bool, float or str is refused."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def grid_size(t: int) -> int:
    """Points of the smallest half-circle grid that holds time ``t`` exactly.

    The ``t + 1`` occupied sites need distinct slots of the DFT; of the
    sizes ``n >= t + 1`` this is the smallest ``2^a 3^b 5^c``, whose FFT
    numpy does in O(n log n) without Bluestein's algorithm.  This is the
    one place the Fourier route's grid size is written down.  ``t`` may
    be a Python or numpy integer; a bool, float or str is refused.
    """
    target = _integer(t, "t") + 1
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^a >= target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def wavenumber_grid(n: int) -> np.ndarray:
    """The ``n`` equispaced wavenumbers ``-pi + 2 pi j / n`` on ``[-pi, pi)``."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def spectral_evolve(
    params: WalkParams,
    schedule: Schedule,
    t_final: int,
    n_grid: int | None = None,
) -> StateVector:
    """Evolve in momentum space and inverse-DFT back to positions.

    This is ``Propagator(params, n_grid).state(schedule, t_final,
    params.tau).sublattice()``: on a half-circle grid of ``n_grid >=
    t_final + 1`` points (default :func:`grid_size`) the read-back recovers the position
    amplitudes exactly (to roundoff).  ``t_final`` is checked by
    :func:`qwalk.dynamics.check_time`, and the grid against the same cap;
    a numpy integer ``t_final`` is accepted and a bool refused.
    """
    t_final = _integer(t_final, "t_final")
    check_time(t_final)
    n = grid_size(t_final) if n_grid is None else n_grid
    return Propagator(params, n).state(schedule, t_final, params.tau).sublattice()


#: ``i**m`` by ``m % 4``, exact.
_I_POWERS = (1.0, 1j, -1.0, -1j)

#: Taus per anchor block of a half-time sweep: ``e^{iMw}`` is built afresh
#: at a block's first tau and turned by ``e^{2iw}`` for each later one, at
#: most 15 multiplies, each off by about ``eps``.
_PHASE_BLOCK = 16

#: Bytes a sweep block's ``(B, 2, n)`` complex state array may take: ``B =
#: min(_PHASE_BLOCK, _BLOCK_BYTES // (32 n))`` taus, at least 1, so a
#: block of the figures' 512-point grid holds a whole anchor block and a
#: large grid is read one tau at a time, in O(n) memory.
_BLOCK_BYTES = 256 * 1024

#: DFT rows the states of one :class:`Propagator` keep for
#: :meth:`FourierState.mass`: a usual or multi trace reads one ``x`` per
#: tau.
_KEPT_DFT_ROWS = 2


class Propagator:
    """Closed-form momentum-space evolution for one walk on one grid.

    Each constant-coin stretch of a schedule is one closed-form power of
    ``U(k)`` (see the module docstring) and each swap step one
    application of the swap coin, so a :meth:`state` costs
    ``O(n * (#swaps + 1))`` on the ``n``-point grid, whatever its time.
    Computed once here and shared by every state: the row ``T = e^{ik}``,
    ``-i c cos k``, ``sin w`` and the folded ``w``; and, from the first
    :meth:`state` on, the ``(V - x I) psi0`` that starts every first
    stretch.  A :meth:`state` builds the Chebyshev rows of each stretch
    and keeps only its last stretch's, so the two equal stretches of an
    odd half-time state share theirs.  A half-time sweep (:meth:`sweep`)
    skips the stretches: it builds the track's :meth:`split` once and
    carries the phase ``e^{iMw}``, which a ``sin`` and ``cos`` row starts
    afresh every ``_PHASE_BLOCK`` taus, so an extra state costs one
    complex multiply, one divide and three multiply-adds.  The phases of
    a block of up to ``B`` taus (``_BLOCK_BYTES``) are the rows of one
    array, which :meth:`sweep_masses` and :meth:`sweep_probabilities`
    read with a few array calls a block, forming no state.  The states
    share ``T`` and one ``dft_rows`` dict, so :meth:`FourierState.mass`
    builds the row of an ``x`` once per sweep.  The kept arrays are
    read-only, and a state or a block is the same, bit for bit, whichever
    came before it.

    The grid is the half circle ``k_m = -pi + pi m / n_grid``, ``m <
    n_grid``, so it holds every time ``t < n_grid`` exactly.  ``T`` is one
    ``exp`` of an angle of at most ``pi/2``: ``T_m = -e^{i pi m / n_grid}``
    below ``m = ceil(n_grid / 2)``, ``e^{i pi (m - n_grid) / n_grid}`` from
    there, so the values are at ``k_m = fl(pi / n_grid * m) - pi`` and
    ``fl(pi / n_grid * (m - n_grid))``.  A grid above ``grid_size(cap)``
    points, more than any time that :func:`qwalk.dynamics.check_time`
    accepts needs, is refused before anything is allocated.
    """

    def __init__(self, params: WalkParams, n_grid: int) -> None:
        if n_grid < 1:
            raise ValueError(f"the grid needs at least 1 point, got {n_grid}")
        cap = max_time_cap()
        if n_grid > grid_size(cap):
            raise ValueError(f"n_grid={n_grid} exceeds grid_size(cap) = {grid_size(cap)} "
                             f"for the configured cap {cap}")
        self.params = params
        half = (n_grid + 1) // 2
        m = np.arange(n_grid)
        m[half:] -= n_grid
        self._eik = np.exp(1j * (np.pi / n_grid * m))
        np.negative(self._eik[:half], out=self._eik[:half])
        c_cos = params.c * self._eik.real
        self._sin_w = np.hypot(params.s, c_cos)
        self._sign = -1 if params.c > 0 else 1  # of x = c sin k, as sin k <= 0 here
        self._d = np.multiply(-1j * self._sign, c_cos)
        x = np.abs(np.multiply(params.c, self._eik.imag, out=c_cos), out=c_cos)
        self._folded = self._sin_w > x  # w > pi/4: w is kept as w - pi/2
        self._w = np.arctan2(np.minimum(self._sin_w, x), np.maximum(self._sin_w, x))
        np.negative(self._w, out=self._w, where=self._folded)
        self._mass_rows: dict[int, np.ndarray] = {}  # x -> e^{ikx}, shared by the states
        self._rows = max(1, min(_PHASE_BLOCK, _BLOCK_BYTES // (32 * n_grid)))  # B
        self._first_traceless = None  # (V - x I) psi0, built by the first state()
        for kept in (self._eik, self._sin_w, self._d, self._folded, self._w):
            kept.flags.writeable = False

    def _initial(self):
        # the initial spinor at every grid point, as rows of a new (2, n) array
        g = np.empty((2, self._eik.shape[0]), dtype=np.complex128)
        g[0], g[1] = self.params.alpha, self.params.beta
        return g

    def _coin(self, g, a, b):
        # rows (a, b) and (b, -a), then the shift e^{+-ik}, into a new array
        g0, g1 = g
        u = np.empty_like(g)
        u0, u1 = u
        tmp = b * g1
        np.multiply(a, g0, out=u0)
        u0 += tmp
        np.multiply(self._eik, u0, out=u0)
        np.multiply(b, g0, out=u1)
        np.multiply(a, g1, out=tmp)
        u1 -= tmp
        np.multiply(np.conjugate(self._eik, out=tmp), u1, out=u1)
        return u

    def _traceless(self, g):
        # sgn(x) (V - x I) g = sgn(x) [[d, -i s e^{ik}], [-i s e^{-ik}, -d]] g
        # with d = -i c cos k (kept times sgn(x)), from the entries, into a new array
        off = -1j * self._sign * self.params.s
        u = self._d * g
        u0, u1 = u
        np.negative(u1, out=u1)
        tmp = np.multiply(self._eik, g[1])
        tmp *= off
        u0 += tmp
        np.multiply(np.conjugate(self._eik, out=tmp), g[0], out=tmp)
        tmp *= off
        u1 += tmp
        return u

    def _phase(self, j, out=None):
        # e^{ijw} as one complex row, into ``out`` or a new array; where w is
        # kept as w - pi/2, e^{ijw} = i^j e^{ij(w - pi/2)}, exactly
        angle = np.multiply(j, self._w)
        z = np.empty(angle.shape, dtype=np.complex128) if out is None else out
        t, u = z.real, z.imag
        np.cos(angle, out=t)
        np.sin(angle, out=u)
        folded, q = self._folded, j % 4
        if q % 2:  # i^j (cos + i sin) is -sin + i cos for q = 1, sin - i cos for 3
            np.copyto(angle, u)
            np.copyto(u, t, where=folded)
            np.copyto(t, angle, where=folded)
            flip = t if q == 1 else u
            np.negative(flip, out=flip, where=folded)
        elif q:
            np.negative(z, out=z, where=folded)
        return z

    def _power(self, g, m, rows, vg=None):
        # U^m g / (i sgn(x))^m = U_{m-1}(|x|) sgn(x) (V - x I) g + T_m(|x|) g,
        # written over g.  ``rows`` is the state's {m: T_m + i U_{m-1}} of its
        # last stretch, dropped before a new one is built.  ``vg`` is a kept
        # sgn(x) (V - x I) g, never written; without it a scratch one is made
        # after the rows, for the peak memory.
        if m:
            z = rows.get(m)
            if z is None:
                rows.clear()
                rows[m] = z = self._phase(m)
                np.divide(z.imag, self._sin_w, out=z.imag)
            if vg is None:
                first = self._traceless(g)
                first *= z.imag
            else:
                first = z.imag * vg
            g *= z.real
            g += first
        return g

    def state(self, schedule: Schedule, t_final: int, tau: int) -> FourierState:
        """Transformed state at ``t_final``, with ``tau`` placing a half-time swap.

        The values are ``sum_x e^{-ikx} psi(x)`` for the state that
        :func:`qwalk.dynamics.evolve` steps to, and the state's ``time`` is
        ``t_final``; :meth:`FourierState.sublattice` recovers ``psi``
        exactly (to roundoff).  :class:`FourierState` refuses a
        ``t_final`` outside ``0..n-1`` of the ``n``-point grid, and so does
        this method, by the same rule, before anything is allocated, as it
        does a negative ``tau``.  The spinor components are the rows of one
        ``(2, n)`` array, updated in place, whose transpose is the returned
        values.
        """
        _check_grid_time(t_final, len(self._eik))
        if tau < 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        p = self.params
        if self._first_traceless is None:
            self._first_traceless = self._traceless(self._initial())
            self._first_traceless.flags.writeable = False
        g, vg, rows = self._initial(), self._first_traceless, {}
        done = swaps = 0
        for swap in schedule.swaps_before(t_final, tau):
            g = self._coin(self._power(g, swap - done, rows, vg), p.c1, p.s1)
            vg, done, swaps = None, swap + 1, swaps + 1
        g = self._power(g, t_final - done, rows, vg)
        phase = self._sign * (t_final - swaps) % 4  # all the powers' (i sgn(x))^m
        if phase:
            g *= _I_POWERS[phase]
        return FourierState(t_final, g.T, self._eik, self._mass_rows)

    def split(self, parity: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``S``, ``X / 2`` and ``Y / 2`` of a half-time track, as read-only ``(2, n)`` rows.

        ``W = sgn(x) (V - x I)`` squares to ``-sin^2 w I``, so with ``J = W /
        sin w`` a stretch of ``m`` steps is ``(i sgn x)^m e^{m w J}``, and
        the state at ``t = 2 tau + e`` is ``(i sgn x)^M e^{(tau + e - 1) w J}
        C e^{tau w J} g0``, ``M = t - 1``, for the swap coin ``C`` and the
        initial spinor ``g0``.  The half of ``C`` that commutes with ``J``,
        ``(C - JCJ) / 2``, joins the two powers into ``e^{M w J}``; the half
        that anticommutes, ``(C + JCJ) / 2``, leaves ``e^{(1 - e) w J}``,
        whatever tau is.  So the state is

            (i sgn x)^M [S_e + T_M(|x|) X / 2 + U_{M-1}(|x|) Y / 2]

        with ``S_1 = (C + WCW / sin^2 w) g0 / 2``, ``S_2 = |x| S_1 + (WC -
        CW) g0 / 2``, ``X = (C - WCW / sin^2 w) g0`` and ``Y = (CW + WC)
        g0``: no eigenvectors and no branch choice, and ``W / sin w`` is
        bounded.  ``S_e`` is the stationary part: its DFT rows are the
        Theorem 1 amplitudes and its grid mean of ``|S|^2`` is the
        localized mass.
        """
        offset = parity_offset(parity)
        p = self.params
        coin_g = self._coin(self._initial(), p.c1, p.s1)
        coin_w = self._coin(self._traceless(self._initial()), p.c1, p.s1)
        y_half = self._traceless(coin_g)
        x_half = self._traceless(coin_w)
        x_half /= np.square(self._sin_w)
        stationary = coin_g + x_half
        np.subtract(coin_g, x_half, out=x_half)
        if offset == 2:
            stationary *= np.abs(p.c * self._eik.imag)  # |x| = T_1(|x|)
            stationary += y_half
            stationary -= coin_w
        y_half += coin_w
        for half in (stationary, x_half, y_half):
            half *= 0.5
            half.flags.writeable = False
        return stationary, x_half, y_half

    def _block_start(self, tau):
        # the first tau of the block that holds tau (an int or an array):
        # blocks of B taus, from each anchor tau - tau % _PHASE_BLOCK
        anchor = tau - tau % _PHASE_BLOCK
        return anchor + (tau - anchor) // self._rows * self._rows

    def _phase_block(self, offset, start, turn, prev=None):
        # z[j] = e^{iMw} at tau = start + j, M = 2 tau + offset - 1, for the
        # block from ``start``: row 0 is turned on from the anchor's e^{iMw},
        # or from the last row of ``prev``, the block made before as (start,
        # z), when that ends earlier in the same anchor block; each later row
        # is the one before times ``turn``.  The same multiplies in the same
        # order, whichever blocks came before.  ``prev``'s array is written
        # over when it has the rows.
        anchor = start - start % _PHASE_BLOCK
        rows = min(self._rows, anchor + _PHASE_BLOCK - start)
        if prev is not None and anchor <= prev[0] < start:
            done, last = prev[0] + len(prev[1]), prev[1][-1]
            z = prev[1] if len(prev[1]) == rows else np.empty((rows, len(self._eik)), complex)
            np.multiply(last, turn, out=z[0])
        else:
            done, z = anchor, np.empty((rows, len(self._eik)), complex)
            self._phase(2 * anchor + offset - 1, out=z[0])
        for _ in range(start - done):
            z[0] *= turn
        for j in range(1, rows):
            np.multiply(z[j - 1], turn, out=z[j])
        return z

    def _phase_blocks(self, offset, taus):
        # (start, z) of each block that holds one of the sorted taus, in turn
        turn = self._phase(2)  # e^{2iw}: -e^{2i(w - pi/2)} where w is kept folded
        block = None
        starts = self._block_start(np.asarray(taus, dtype=np.int64))  # sorted, as the taus
        for start in starts[np.diff(starts, prepend=-1) != 0].tolist():
            block = start, self._phase_block(offset, start, turn, block)
            yield block

    def sweep(self, parity: str, taus: Iterable[int]) -> Iterator[FourierState]:
        """Half-time states at ``t = 2*tau + 1`` or ``2*tau + 2``, per tau, off one :meth:`split`.

        The split is built when the first state is asked for.  Each state
        forms ``S + T_M X/2 + U_{M-1} Y/2`` times ``(i sgn x)^M``, ``M = t -
        1``, reading the Chebyshev rows off one complex row ``z = e^{iMw}``
        as ``T_M = Re z`` and ``U_{M-1} = Im z / sin w``.  ``M`` grows by 2
        per tau, so ``z`` turns by one multiply by ``e^{2iw}`` a step.  It
        starts afresh, from one ``sin`` and ``cos`` row, at the anchor ``tau
        - tau % _PHASE_BLOCK``, and the rows of a block of up to ``B`` taus
        from there are written as one ``(B, n)`` array, made again only
        when a tau leaves it; so a state's bits depend on its tau and the
        grid alone, not on the taus before it.  This agrees with
        :meth:`state` to about ``t * eps``, not bit for bit.  A negative tau
        is refused when its state is asked for.
        """
        offset = parity_offset(parity)
        stationary, x_half, y_half = self.split(parity)
        turn = self._phase(2)  # e^{2iw}: -e^{2i(w - pi/2)} where w is kept folded
        block = None  # (start, z) of the block that holds the last tau
        for tau in taus:
            if tau < 0:
                raise ValueError(f"tau must be non-negative, got {tau}")
            start = self._block_start(tau)
            if block is None or block[0] != start:
                block = start, self._phase_block(offset, start, turn, block)
            z, m = block[1][tau - start], 2 * tau + offset - 1
            u_row = z.imag / self._sin_w
            g = x_half * z.real
            for g_part, y_part in zip(g, y_half):  # a (2, n) product peaks 48 B/point higher
                g_part += y_part * u_row
            g += stationary
            phase = self._sign * m % 4
            if phase:
                g *= _I_POWERS[phase]
            yield FourierState(m + 1, g.T, self._eik, self._mass_rows)

    def sweep_masses(self, parity: str, taus: Sequence[int],
                     xs: Sequence[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``P(X_t = x)`` of the half-time states, per block of taus and per ``x`` of ``xs``.

        ``taus`` are sorted, distinct and non-negative.  Yields ``(times,
        masses)`` for each block of :meth:`sweep` that holds one of them:
        the times ``t = 2*tau + 1`` or ``2*tau + 2`` of all its rows, and
        their masses, one column per ``x``.  No state is formed: with the
        DFT row ``r = e^{ikx}``, the amplitude is ``r.S/n + Re Z (r X/2)/n
        + Im Z (r Y/2 / sin w)/n`` for the block's phase rows ``Z``, one
        matrix product, after the row products are formed once; the
        global phase ``(i sgn x)^M`` drops out of the mass.  A wrong-parity
        ``x`` or one beyond a row's light cone reads exactly 0.0.  The
        split is freed once the row products are made, so the memory
        stays O(n) for a few ``xs``.
        """
        offset = parity_offset(parity)
        n = len(self._eik)
        stationary, x_half, y_half = self.split(parity)
        t_last = 2 * taus[-1] + offset if len(taus) else -1
        reads = []  # (column, x, S row, (2n, 4) products) of each x some state holds
        for column, x in enumerate(xs):
            if (x + offset) % 2 or abs(x) > t_last:
                continue
            row = _dft_row(self._eik, x)
            row /= n
            # rows 2m and 2m + 1 multiply Re z_m and Im z_m; the columns are
            # the real and imaginary parts of the two spinor entries
            products = np.empty((n, 2, 2), dtype=np.complex128)
            np.multiply(x_half, row, out=products[:, 0].T)
            base = stationary @ row
            row /= self._sin_w
            np.multiply(y_half, row, out=products[:, 1].T)
            reads.append((column, x, base.view(np.float64),
                          products.view(np.float64).reshape(2 * n, 4)))
        del stationary, x_half, y_half
        for start, z in self._phase_blocks(offset, taus):
            times = 2 * (start + np.arange(len(z))) + offset
            masses = np.zeros((len(z), len(xs)))
            for column, x, base, products in reads:
                amps = z.view(np.float64) @ products
                amps += base
                np.square(amps, out=amps)
                masses[:, column] = np.where(abs(x) <= times, amps.sum(axis=1), 0.0)
            yield times, masses

    def sweep_probabilities(self, parity: str, taus: Sequence[int]
                            ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Position distributions of the half-time states, one block of taus at a time.

        ``taus`` are sorted, distinct and non-negative.  Yields ``(times,
        xs, ps)`` for each block of :meth:`sweep` that holds one of them:
        the times of all its rows, the site ``xs[s]`` of each DFT slot
        ``s``, and ``ps[j, s] = P(X_t = xs[s])`` at ``times[j]``.  The
        block's ``S + T_M X/2 + U_{M-1} Y/2`` is formed as one ``(B, 2, n)``
        array and read back by one inverse FFT, as
        :meth:`FourierState.sublattice` reads one state: slot ``s`` holds
        ``x = 2s - (t mod 2)``, taken into ``[-n, n)``, for every tau of a
        track.  The global phase ``(i sgn x)^M`` drops out of the masses.
        A slot beyond a row's light cone, ``|x| > t``, reads exactly 0.0.
        """
        offset = parity_offset(parity)
        n, odd = len(self._eik), offset % 2
        stationary, x_half, y_half = self.split(parity)
        xs = (2 * np.arange(n) - odd + n) % (2 * n) - n
        for start, z in self._phase_blocks(offset, taus):
            times = 2 * (start + np.arange(len(z))) + offset
            u_rows = z.imag / self._sin_w
            g = np.empty((len(z), 2, n), dtype=np.complex128)
            for g_part, x_part, y_part in zip(g.transpose(1, 0, 2), x_half, y_half):
                np.multiply(x_part, z.real, out=g_part)
                g_part += y_part * u_rows
            g += stationary
            if odd:
                g *= np.conjugate(self._eik)
            np.fft.ifft(g, axis=-1, out=g)
            sq = np.abs(g)
            sq *= sq
            ps = sq[:, 0] + sq[:, 1]
            del u_rows, g, sq  # before the caller weighs ps: the peak of a large grid
            ps[np.abs(xs) > times[:, None]] = 0.0
            yield times, xs, ps


def asymptotic_amplitude(params: WalkParams, x: int, parity: str) -> np.ndarray:
    """The stationary amplitude ``S_x`` at position ``x``, phase and all.

    ``parity`` selects the measurement subsequence: ``"odd"`` for times
    ``2*tau + 1`` and ``"even"`` for ``2*tau + 2``.  The returned spinor
    is the DFT row ``x`` of the stationary part ``S_e`` of
    :meth:`Propagator.split`, in closed form, with no grid: the
    tau-independent part of the half-time state at ``x`` once the global
    phase ``(i sgn x)^M``, ``M = t - 1``, is taken out.  That is the
    branch formulas below times ``phi = 1`` on the odd track and ``i
    sgn(c)`` on the even track, a factor of ``g``.  Its squared norm is the
    stationary point mass at ``x``.  ``1 - |s|`` is taken as ``m = c^2
    p`` with ``p = 1/(1 + |s|)``, and the geometric factor as powers of
    ``q = |c| p``, so nothing cancels or divides by ``c`` near ``theta =
    pi/2``.  Not in ``__all__``.
    """
    offset = parity_offset(parity)
    c, s = params.c, params.s
    c1, s1 = params.c1, params.s1
    alpha, beta = params.alpha, params.beta
    g = c1 * s - s1 * c
    if offset == 2:
        g *= 1j * math.copysign(1.0, c)  # phi, a factor of every branch below
    sa = abs(s)
    p = 1.0 / (1.0 + sa)
    q = abs(c) * p
    m = c * c * p
    if x % 2 != offset % 2:
        return np.zeros(2, dtype=np.complex128)
    if offset == 2:
        if x == 0:
            return g * sa * p * np.array([-beta, alpha])
        if x == 2:
            return g * np.array([-p * p * (c * s * alpha - sa * m * beta),
                                 p * alpha + c * s * p * p * beta])
        if x == -2:
            return g * np.array([c * s * p * p * alpha - p * beta,
                                 -p * p * (sa * m * alpha + c * s * beta)])
        if x >= 4:
            spinor = [c * s * alpha - sa * m * beta, sa * (1 + sa) * alpha - c * s * beta]
        else:
            spinor = [-c * s * alpha - sa * (1 + sa) * beta, sa * m * alpha + c * s * beta]
        return g * _I_POWERS[abs(x) % 4] * p * p * q ** (abs(x) - 2) * np.array(spinor)
    if x == 1:
        return g * p * np.array([s * alpha - sa * c * p * beta, -(c * alpha + s * beta)])
    if x == -1:
        return g * p * np.array([s * alpha - c * beta, -sa * c * p * alpha - s * beta])
    sign_c = math.copysign(1.0, c)
    if x >= 3:
        spinor = [q * (sa * c * p * beta - s * alpha),
                  sign_c * (s * c * p * beta - sa * alpha)]
    else:
        spinor = [-sign_c * (s * c * p * alpha + sa * beta),
                  q * (sa * c * p * alpha + s * beta)]
    return g * _I_POWERS[(abs(x) + 1) % 4] * p * q ** (abs(x) - 2) * np.array(spinor)
