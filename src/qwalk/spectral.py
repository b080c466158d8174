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
:meth:`FourierState.mass` reads one site off a DFT row ``e^{ikx}``.  Both
reduce ``k x / pi`` in integers before taking a phase: a product like
``t * k`` in floating point would carry an absolute error of about
``t * eps``.  The route's accuracy is that of ``U(k)^t`` itself, a
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

    U(k)^m = i^m [U_{m-1}(x) V(k) - U_{m-2}(x) I]

with ``U_j`` the Chebyshev polynomials of the second kind; no
eigenvectors and no branch choice are involved.  They are evaluated as
``U_{m-1}(x) = sgn(x)^{m-1} sin(m w) / sin w`` with
``sin w = hypot(s, c cos k)`` and ``w = atan2(sin w, |x|)`` in
``[0, pi/2]``.  Both choices matter near the excluded angles:
``sqrt(1 - x^2)`` cancels when ``|x|`` is close to 1 (theta near 0 or
pi), and an unfolded ``w = acos(x)`` near pi carries an absolute
rounding error that the ratio ``sin(m w) / sin w`` magnifies.

It also evaluates the large-time amplitude limits at fixed positions,
whose squared norms are a second, independent route to the stationary
point masses of :func:`qwalk.limits.theorem1_limit`.
"""

from __future__ import annotations

import functools
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
    "asymptotic_amplitude",
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

    ``grid`` is ``k_m = -pi + pi m / n`` for ``m < n``, and an ``n``-point
    grid holds the times ``0 <= time < n``; any other time is refused here,
    the one place that rule is checked.  ``dft_rows`` keeps the last
    ``_KEPT_DFT_ROWS`` rows that :meth:`mass` read, by ``x``; the states of
    one :class:`Propagator` share it, so a sweep builds each row once and
    frees it with its states.
    """

    time: int
    grid: np.ndarray
    values: np.ndarray
    dft_rows: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        n = self.grid.shape[0]
        if self.values.shape != (n, 2):
            raise ValueError("values must be one 2-spinor per grid point")
        if not 0 <= self.time < n:
            raise ValueError(f"t={self.time} is outside 0..{n - 1} of a {n}-point grid")
        self.grid.flags.writeable = False
        self.values.flags.writeable = False

    def norm_sq(self) -> float:
        """Grid average of the squared spinor norm (Plancherel mass)."""
        return float(np.mean(np.sum(np.abs(self.values) ** 2, axis=1)))

    def sublattice(self) -> StateVector:
        """The position-space state at :attr:`time`, by one inverse FFT.

        Site ``x = 2j - t`` has ``e^{-i k_m x} = e^{i k_m t} e^{-2 pi i j m / n}``
        on the grid, so slot ``j`` of ``ifft_n(e^{-i k_m t} values)`` is its
        amplitude; the ``t + 1 <= n`` slots are distinct, which makes this
        exact.
        """
        t = self.time
        full = np.fft.ifft(_dft_row(self.grid.shape[0], -t)[:, None] * self.values, axis=0)
        return StateVector(t, full[:t + 1])

    def mass(self, x: int) -> float:
        """``P(X_t = x)`` at :attr:`time`: one DFT row ``mean(e^{ikx} values)``, O(n)."""
        t, n = self.time, self.grid.shape[0]
        if abs(x) > t or (x + t) % 2:
            return 0.0
        row = _kept(self.dft_rows, x, _KEPT_DFT_ROWS, functools.partial(_dft_row, n))
        amps = row @ self.values / n
        return float(np.sum(np.abs(amps) ** 2))


@functools.lru_cache(maxsize=1)
def _roots_of_unity(n: int) -> np.ndarray:
    """``e^{i pi r / n}`` for ``r < 2n``, read-only.

    Every read-back on an ``n``-point grid indexes this one table, so a
    sweep builds it once; only the last grid's table is kept.
    """
    roots = np.exp(1j * np.pi / n * np.arange(2 * n))
    roots.flags.writeable = False
    return roots


def _dft_row(n: int, x: int) -> np.ndarray:
    """``e^{i k_m x}`` on the ``n``-point half circle, ``k_m x / pi`` reduced in integers.

    ``k_m x = pi (m - n) x / n``; the exponent is taken mod ``2n`` before
    any rounding, so the phase is good to ``eps`` at any ``x``.
    """
    return _roots_of_unity(n)[np.arange(-n, 0) * x % (2 * n)]


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

#: Chebyshev rows a :class:`Propagator` keeps: a sweep in increasing tau
#: reuses at most the last three ``j`` (``tau - 1``, ``tau``, ``tau + 1``).
_KEPT_ROWS = 3

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
    Computed once here and shared by every :meth:`state` call: the grid,
    ``e^{ik}``, ``sin w``, ``w`` and ``sgn(x)``; the coin ``V psi0`` that
    starts every first stretch; and the real Chebyshev row ``U_{j-1}(x)``
    of each ``j``, of which the last three used are kept.  A half-time
    state at ``t = 2*tau + 1`` needs the rows ``tau - 1`` and ``tau``, one
    at ``2*tau + 2`` also ``tau + 1``, so in a sweep of increasing tau an
    extra state costs one new ``sin`` row over the grid and two coin
    applications.  Its states share one ``dft_rows`` dict, so
    :meth:`FourierState.mass` builds the row of an ``x`` once per sweep, not
    once per state.  The kept arrays are read-only, and a state is the same,
    bit for bit, whichever states were asked for before it.

    The grid is the half circle ``k_m = -pi + pi m / n_grid``, ``m <
    n_grid`` (see the module docstring), so it holds every time ``t <
    n_grid`` exactly.  A grid above ``grid_size(cap)`` points, more than
    any time that :func:`qwalk.dynamics.check_time` accepts needs, is
    refused before anything is allocated.
    """

    def __init__(self, params: WalkParams, n_grid: int) -> None:
        if n_grid < 1:
            raise ValueError(f"the grid needs at least 1 point, got {n_grid}")
        cap = max_time_cap()
        if n_grid > grid_size(cap):
            raise ValueError(f"n_grid={n_grid} exceeds grid_size(cap) = {grid_size(cap)} "
                             f"for the configured cap {cap}")
        self.params = params
        self.grid = -np.pi + np.pi * np.arange(n_grid) / n_grid
        self._eik = np.exp(1j * self.grid)
        x = params.c * np.sin(self.grid)
        self._sin_w = np.hypot(params.s, params.c * np.cos(self.grid))
        self._w = np.arctan2(self._sin_w, np.abs(x))
        self._sign = np.where(x < 0, -1.0, 1.0)
        self._rows: dict[int, np.ndarray] = {}  # j -> U_{j-1}(x), least recently used first
        self._dft_rows: dict[int, np.ndarray] = {}  # x -> e^{ikx}, shared by the states
        self._first_coin = self._coin(self._initial(), params.c, params.s)
        for kept in (self.grid, self._eik, self._sin_w, self._w, self._sign, self._first_coin):
            kept.flags.writeable = False

    def _initial(self):
        # the initial spinor at every grid point, as rows of a new (2, n) array
        g = np.empty((2, self.grid.shape[0]), dtype=np.complex128)
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

    def _chebyshev_row(self, j):
        # U_{j-1}(x) = sgn(x)^{j-1} sin(j w) / sin w
        row = np.multiply(j, self._w)
        np.sin(row, out=row)
        row /= self._sin_w
        if (j - 1) % 2:
            row *= self._sign
        return row

    def _chebyshev(self, j, phase):
        # i^phase U_{j-1}(x); the real row is kept for the last _KEPT_ROWS j
        return _I_POWERS[phase % 4] * _kept(self._rows, j, _KEPT_ROWS, self._chebyshev_row)

    def _power(self, g, m, vg=None, out=None):
        # U^m g = i^(m-1) U_{m-1}(x) (V g) - i^m U_{m-2}(x) g, written to
        # ``out``; g is overwritten.  ``vg`` is a kept V g, which is never
        # written; without it V g is computed into a scratch array.  The
        # default ``out`` is the transpose of a new (n, 2) array, allocated
        # last to keep the peak memory low.
        if m == 0:
            first, second = g, 0.0
        else:
            scratch = vg is None
            if scratch:
                vg = self._coin(g, self.params.c, self.params.s)
            first = np.multiply(self._chebyshev(m, m - 1), vg, out=vg if scratch else None)
            second = np.multiply(self._chebyshev(m - 1, m), g, out=g)
        if out is None:
            out = np.empty(g.shape[::-1], dtype=np.complex128).T
        return np.subtract(first, second, out=out)

    def state(self, schedule: Schedule, t_final: int, tau: int) -> FourierState:
        """Transformed state at ``t_final``, with ``tau`` placing a half-time swap.

        The values are ``sum_x e^{-ikx} psi(x)`` for the state that
        :func:`qwalk.dynamics.evolve` steps to, and the state's ``time`` is
        ``t_final``; :meth:`FourierState.sublattice` recovers ``psi``
        exactly (to roundoff).  :class:`FourierState` refuses a
        ``t_final`` outside ``0..n-1`` of the ``n``-point grid.  The spinor
        components are the rows of one ``(2, n)`` array, updated in place,
        and the last power writes straight into the returned values.
        """
        p = self.params
        g, vg = self._initial(), self._first_coin
        done = 0
        for swap in schedule.swaps_before(t_final, tau):
            g = self._coin(self._power(g, swap - done, vg, out=g), p.c1, p.s1)
            vg, done = None, swap + 1
        return FourierState(t_final, self.grid, self._power(g, t_final - done, vg).T,
                            self._dft_rows)


def asymptotic_amplitude(params: WalkParams, x: int, parity: str) -> np.ndarray:
    """Large-time amplitude limit at position ``x``, up to a global phase.

    ``parity`` selects the measurement subsequence: ``"odd"`` for times
    ``2*tau + 1`` and ``"even"`` for ``2*tau + 2``.  The returned spinor
    is the tau-independent representative (an alternating global sign is
    dropped), so only its squared norm is meaningful; that squared norm
    equals the stationary point mass at ``x``.  ``1 - |s|`` is taken as
    ``m = c^2 p`` with ``p = 1/(1 + |s|)``, and the geometric factor as
    powers of ``q = |c| p``, so nothing cancels or divides by ``c`` near
    ``theta = pi/2``.
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
