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
are ``cos(m w)`` and ``sin(m w) / sin w``, with ``sin w = hypot(s, c cos
k)`` and ``w = atan2(sin w, |x|)`` kept as ``w - pi/2`` above ``pi/4``, so
that the rounded phase is at most ``m pi/4``.  Both choices matter near
the excluded angles: ``sqrt(1 - x^2)`` cancels when ``|x|`` is close to 1
(theta near 0 or pi), and an unfolded ``w = acos(x)`` near pi carries an
absolute rounding error that the ratio ``sin(m w) / sin w`` magnifies.

It also evaluates the large-time amplitude limits at fixed positions,
whose squared norms are a second, independent route to the stationary
point masses of :func:`qwalk.limits.theorem1_limit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        if not 0 <= self.time < n:
            raise ValueError(f"t={self.time} is outside 0..{n - 1} of a {n}-point grid")
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
        row = _kept(self.dft_rows, x, _KEPT_DFT_ROWS, self._phase_row)
        amps = row @ self.values / n
        return float(np.sum(np.abs(amps) ** 2))

    def _phase_row(self, x: int) -> np.ndarray:
        # e^{i k_m x} = e^{i pi (m - n) x / n}: with (m - n) x = d n + r,
        # 0 <= r < n, that is (-1)^d e^{i pi r / n} = -(-1)^d T_r, exactly
        d, r = np.divmod(np.arange(-len(self.values), 0) * x, len(self.values))
        row = self.eik[r]
        return np.negative(row, out=row, where=d % 2 == 0)


def _kept(cache: dict, key, limit: int, build) -> np.ndarray:
    """``cache[key]``, built read-only on a miss; the ``limit`` last used keys stay."""
    value = cache.pop(key, None)
    if value is None:
        if len(cache) == limit:
            del cache[next(iter(cache))]  # the least recently used
        value = build(key)
        value.flags.writeable = False
    cache[key] = value
    return value


def grid_size(t: int) -> int:
    """Points of the smallest half-circle grid that holds time ``t`` exactly.

    The ``t + 1`` occupied sites need distinct slots of the DFT; of the
    sizes ``n >= t + 1`` this is the smallest ``2^a 3^b 5^c``, whose FFT
    numpy does in O(n log n) without Bluestein's algorithm.  This is the
    one place the Fourier route's grid size is written down.
    """
    target = t + 1
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
    :func:`qwalk.dynamics.check_time`, and the grid against the same cap.
    """
    check_time(t_final)
    n = grid_size(t_final) if n_grid is None else n_grid
    return Propagator(params, n).state(schedule, t_final, params.tau).sublattice()


#: ``i**m`` by ``m % 4``, exact.
_I_POWERS = (1.0, 1j, -1.0, -1j)

#: Chebyshev row pairs a :class:`Propagator` keeps: a sweep in increasing
#: tau reuses at most the last two ``j`` (``tau`` and ``tau + 1``).
_KEPT_ROWS = 2

#: DFT rows the states of one :class:`Propagator` keep for
#: :meth:`FourierState.mass`: a trace reads one ``x`` per tau, figures 5a
#: and 5c two.
_KEPT_DFT_ROWS = 2


class Propagator:
    """Closed-form momentum-space evolution for one walk on one grid.

    Each constant-coin stretch of a schedule is one closed-form power of
    ``U(k)`` (see the module docstring) and each swap step one
    application of the swap coin, so a state costs
    ``O(n * (#swaps + 1))`` on the ``n``-point grid, whatever its time.
    Computed once here and shared by every :meth:`state` call: the row
    ``T = e^{ik}``, ``-i c cos k``, ``sin w`` and the folded ``w``; the ``(V
    - x I) psi0`` that starts every first stretch; and the rows ``U_{j-1}``
    and ``T_j`` of the last two ``j`` used.  A sweep of increasing tau
    needs the rows of ``tau`` and ``tau + 1``, so an extra state costs one
    new ``sin`` and ``cos`` row and two coin applications.  Its states share
    ``T`` and one ``dft_rows`` dict, so :meth:`FourierState.mass` builds the
    row of an ``x`` once per sweep.  The kept arrays are read-only, and a
    state is the same, bit for bit, whichever states came before it.

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
        self._rows: dict[int, np.ndarray] = {}  # j -> Chebyshev rows, least recently used first
        self._mass_rows: dict[int, np.ndarray] = {}  # x -> e^{ikx}, shared by the states
        self._first_traceless = self._traceless(self._initial())
        for kept in (self._eik, self._sin_w, self._d, self._folded, self._w,
                     self._first_traceless):
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

    def _chebyshev_rows(self, j):
        # U_{j-1}(|x|) = sin(j w) / sin w and T_j(|x|) = cos(j w); where w is
        # kept as w - pi/2, e^{ijw} = i^j e^{ij(w - pi/2)}, exactly
        angle = np.multiply(j, self._w)
        rows = np.empty((2, angle.shape[0]))
        u, t = rows
        np.sin(angle, out=u)
        np.cos(angle, out=t)
        folded, q = self._folded, j % 4
        if q % 2:  # i^j (cos + i sin) is -sin + i cos for q = 1, sin - i cos for 3
            np.copyto(angle, u)
            np.copyto(u, t, where=folded)
            np.copyto(t, angle, where=folded)
            flip = t if q == 1 else u
            np.negative(flip, out=flip, where=folded)
        elif q:
            np.negative(rows, out=rows, where=folded)
        u /= self._sin_w
        return rows

    def _power(self, g, m, vg=None):
        # U^m g / (i sgn(x))^m = U_{m-1}(|x|) sgn(x) (V - x I) g + T_m(|x|) g,
        # written over g.  ``vg`` is a kept sgn(x) (V - x I) g, never written;
        # without it a scratch one is made after the rows, for the peak memory.
        if m:
            u_row, t_row = _kept(self._rows, m, _KEPT_ROWS, self._chebyshev_rows)
            if vg is None:
                first = self._traceless(g)
                first *= u_row
            else:
                first = u_row * vg
            g *= t_row
            g += first
        return g

    def state(self, schedule: Schedule, t_final: int, tau: int) -> FourierState:
        """Transformed state at ``t_final``, with ``tau`` placing a half-time swap.

        The values are ``sum_x e^{-ikx} psi(x)`` for the state that
        :func:`qwalk.dynamics.evolve` steps to, and the state's ``time`` is
        ``t_final``; :meth:`FourierState.sublattice` recovers ``psi``
        exactly (to roundoff).  :class:`FourierState` refuses a
        ``t_final`` outside ``0..n-1`` of the ``n``-point grid.  The spinor
        components are the rows of one ``(2, n)`` array, updated in place,
        whose transpose is the returned values.
        """
        p = self.params
        g, vg = self._initial(), self._first_traceless
        done = swaps = 0
        for swap in schedule.swaps_before(t_final, tau):
            g = self._coin(self._power(g, swap - done, vg), p.c1, p.s1)
            vg, done, swaps = None, swap + 1, swaps + 1
        g = self._power(g, t_final - done, vg)
        phase = self._sign * (t_final - swaps) % 4  # all the powers' (i sgn(x))^m
        if phase:
            g *= _I_POWERS[phase]
        return FourierState(t_final, g.T, self._eik, self._mass_rows)


def asymptotic_amplitude(params: WalkParams, x: int, parity: str) -> np.ndarray:
    """Large-time amplitude limit at position ``x``, up to a global phase.

    ``parity`` selects the measurement subsequence: ``"odd"`` for times
    ``2*tau + 1`` and ``"even"`` for ``2*tau + 2``.  The returned spinor
    is the tau-independent representative (an alternating global sign is
    dropped), so only its squared norm is meaningful; that squared norm
    equals the stationary point mass at ``x``.  ``1 - |s|`` is taken as
    ``m = c^2 p`` with ``p = 1/(1 + |s|)``, and the geometric factor as
    powers of ``q = |c| p``, so nothing cancels or divides by ``c`` near
    ``theta = pi/2``.  Not public API: kept only because ``perfbench``
    imports it, until ROADMAP item 1(a) gives the benchmark its own
    references.
    """
    offset = parity_offset(parity)
    c, s = params.c, params.s
    c1, s1 = params.c1, params.s1
    alpha, beta = params.alpha, params.beta
    g = c1 * s - s1 * c
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
