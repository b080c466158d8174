"""Closed-form stationary measures of the coin-swapped walk.

Two limit laws are evaluated here.  At fixed positions the measurement
probabilities at times ``2*tau + 1`` and ``2*tau + 2`` converge, as tau
grows, to point masses that decay geometrically in ``|x|``; their total
is the localized mass ``Delta = (c1*s - s1*c)**2 / (1 + |s|)``, which is
strictly less than 1, so the pointwise limits do not form a probability
measure.  The remaining mass appears in the weak limit of ``X_t/t``: an
atom ``Delta`` at the origin plus an absolutely continuous density on
``(-|c|, |c|)`` that reduces to the familiar arcsine-type law of the
unswapped walk when ``theta1 == theta``.

Near ``theta = pi/2`` the difference ``1 - |s|`` cancels, so it is
written as ``c**2 / (1 + |s|)`` throughout: each point mass is a sum of
squares in ``p = 1/(1 + |s|)`` and ``q = |c| p < 1``, with no power of
``c`` in a denominator.  Negative positions swap ``(alpha, beta)``.

The density's quartic numerator ``a2 x^4 + a1 x^2 + c^2`` has
``c^2 + a1 + a2 = 0`` identically, so it factors as
``(1 - x^2)(c^2 - a2 x^2)`` and the density has a single ``1 - x^2`` pole
outside the support.  With ``x = |c| sin u`` every antiderivative is
elementary (``u``, ``cos u``, ``atan2(|s| sin u, cos u)`` and
``atan(|c| cos u / |s|)``): the distribution function and the moments
are evaluated in closed form, with no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .coin import WalkParams, parity_offset

__all__ = [
    "LimitDensity",
    "delta_mass",
    "theorem1_limit",
]

#: Highest moment order :meth:`LimitDensity.moment` evaluates.  The
#: closed form loses about a factor 1.5 per order where ``|s|`` is close
#: to 1: against a 60-digit reference over 250 random parameter sets its
#: relative error stays below 7e-14 up to this order, reaches 4e-13 at
#: order 48 and passes 1e-12 from order 49 on.
MAX_MOMENT_ORDER = 40

#: :func:`theorem1_limit` writes 0.0 for the tail factor ``q**e`` where
#: ``e log2 q < -_UNDERFLOW_BITS``.  The true value is then far below half
#: the least subnormal, ``2**-1075``, so ``pow`` rounds it to 0.0 as well;
#: the 25 bits of margin absorb the rounding of ``log2 q`` and of the cut.
_UNDERFLOW_BITS = 1100

#: Taylor coefficients of ``(z - atan z) / z**3`` in ``z**2``, highest first;
#: eight terms reach roundoff for ``z < 0.1``.
_ATAN_SERIES = [(-1) ** k / (2 * k + 3) for k in reversed(range(8))]


def _cross(alpha: complex, beta: complex) -> float:
    """The real combination alpha*conj(beta) + conj(alpha)*beta."""
    return 2.0 * (alpha * beta.conjugate()).real


def _coupling(params: WalkParams) -> float:
    """Coin mismatch factor c1*s - s1*c; zero iff theta1 == theta mod pi."""
    return params.c1 * params.s - params.s1 * params.c


def delta_mass(params: WalkParams) -> float:
    """Total localized probability (c1*s - s1*c)**2 / (1 + |s|)."""
    g = _coupling(params)
    return g * g / (1.0 + abs(params.s))


def theorem1_limit(params: WalkParams, x, parity: str):
    """Stationary point masses at the integer position(s) ``x`` on one track.

    ``parity`` selects the subsequence: ``"odd"`` for measurement times
    ``2*tau + 1``, ``"even"`` for ``2*tau + 2``.  Positions of the wrong
    parity carry no mass and give 0.  The values are nonnegative and,
    for ``theta1 == theta``, identically zero (no localization).  A
    scalar ``x`` gives a float, an array an array of its shape; both are
    the same elementwise expression.  From ``|x| = 3`` on, the masses
    follow ``q**(2|x| - 4)`` with ``q = |c|/(1 + |s|) < 1``, a positive
    base; where that power underflows past ``2**-1100`` it is written as
    the 0.0 that ``pow`` would return, without calling ``pow``, which is
    many times slower there.
    """
    offset = parity_offset(parity)
    # a scalar runs as a 1-element array, through the same ufunc loops
    xs = np.atleast_1d(x)
    if xs.dtype.kind not in "iu":
        raise ValueError(f"positions must be integers, got {x!r}")
    c, s = params.c, params.s
    sa = abs(s)
    p = 1.0 / (1.0 + sa)
    g2 = _coupling(params) ** 2
    ax, sgn = np.abs(xs), np.sign(xs)
    a = np.where(xs > 0, params.alpha, params.beta)
    b = np.where(xs > 0, params.beta, params.alpha)
    # |x| >= 3 on either track: one geometric law in q**2.  The kept
    # exponents go through one unmasked pow: numpy may run a masked pow
    # (where=) through another loop, with other last bits.
    q, e = abs(c) * p, 2 * ax - 4
    kept = e < _UNDERFLOW_BITS / -math.log2(q)
    tail = np.zeros(e.shape)
    tail[kept] = q ** e[kept]
    far = (2.0 * g2 * s * s * p ** 3 * tail
           * np.abs(a - sgn * math.copysign(1.0, s) * c * p * b) ** 2)
    if offset == 1:
        near = g2 * p * p * (np.abs(a + sgn * c * s * p * b) ** 2 + s * s * np.abs(b) ** 2)
        val = np.where(ax == 1, near, far)
    else:
        mixed = (1.0 + s * s) * a + 2.0 * sgn * s * c * p * b
        near = 0.5 * g2 * p ** 3 * (np.abs(mixed) ** 2 + (c * (1.0 + sa) * np.abs(a)) ** 2)
        val = np.where(ax == 0, g2 * s * s * p * p, np.where(ax == 2, near, far))
    val = np.where(ax % 2 == offset % 2, val, 0.0)
    return float(val[0]) if np.ndim(x) == 0 else val


def limit_mass_total(params: WalkParams, parity: str) -> float:
    """Sum of the stationary point masses over all positions.

    Beyond the special rows near the origin the masses at ``x`` and
    ``x + 2`` share the fixed ratio ``q**4 < 1``, so the tail is a
    geometric series and the sum has a closed form, with
    ``1 - q**2 = 2|s|/(1 + |s|)`` taken exactly.  The result equals
    :func:`delta_mass` for every parameter set.  Not public API: kept
    only because ``perfbench`` imports it, until ROADMAP item 1(a) gives
    the benchmark its own references.
    """
    sa = abs(params.s)
    q2 = (abs(params.c) / (1.0 + sa)) ** 2
    tail = (1.0 + sa) / (2.0 * sa * (1.0 + q2))
    xs = [1, -1, 3, -3] if parity_offset(parity) == 1 else [0, 2, -2, 4, -4]
    t = theorem1_limit(params, np.array(xs), parity)
    return float(np.sum(t[:-2]) + (t[-2] + t[-1]) * tail)


def limit_masses(params: WalkParams, parity: str, xmax: int) -> np.ndarray:
    """Read-only point masses at the positions ``-xmax..xmax``, in order.

    Not public API: kept only because ``perfbench`` traces it, until
    ROADMAP item 1(a) retargets its tracer.
    """
    if xmax < 0:
        raise ValueError(f"xmax must be non-negative, got {xmax}")
    masses = theorem1_limit(params, np.arange(-xmax, xmax + 1), parity)
    masses.flags.writeable = False
    return masses


def _atan_excess(z: np.ndarray, atan_z: np.ndarray) -> np.ndarray:
    """``z - atan_z`` for ``z >= 0``, from its series where the difference cancels."""
    excess = z - atan_z
    small = z < 0.1
    zs = z[small]
    z2 = zs * zs
    excess[small] = zs * z2 * np.polyval(_ATAN_SERIES, z2)
    return excess


@dataclass(frozen=True)
class LimitDensity:
    """Weak limit of ``X_t/t``: atom at 0 plus a density on ``(-|c|, |c|)``.

    The density is ``|s| (1 - weight x)(c^2 - a2 x^2) / (pi c^2 (1 - x^2)
    sqrt(c^2 - x^2))`` with ``a2 = g^2`` for the coupling
    ``g = c1*s - s1*c``.  ``a2`` and the atom ``delta`` depend only on
    the two coin angles; the initial spinor enters through the linear
    ``weight`` factor alone.  ``delta`` is stored as :func:`delta_mass`
    computes it, ``g * g / (1 + |s|)``.  When ``theta1 == theta``,
    ``a2 == 0`` and ``delta == 0``, leaving the bare arcsine-type density
    of the unswapped walk.
    """

    delta: float
    weight: float
    a2: float
    c: float
    s: float

    @classmethod
    def from_params(cls, params: WalkParams) -> "LimitDensity":
        weight = (abs(params.alpha) ** 2 - abs(params.beta) ** 2
                  + _cross(params.alpha, params.beta) * params.s / params.c)
        return cls(
            delta=delta_mass(params),
            weight=weight,
            a2=_coupling(params) ** 2,
            c=params.c,
            s=params.s,
        )

    @property
    def support(self) -> tuple[float, float]:
        return (-abs(self.c), abs(self.c))

    def density(self, x):
        """Absolutely continuous part at ``x`` (scalar or array).

        Zero outside the open support; the endpoints ``+-|c|`` are
        rejected because the density has an integrable singularity
        there and no pointwise value.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        cabs = abs(self.c)
        if np.any(np.abs(xs) == cabs):
            raise ValueError(f"density is undefined exactly at +-|c| = +-{cabs}")
        out = np.zeros_like(xs)
        inside = np.abs(xs) < cabs
        xi = xs[inside]
        c2 = self.c ** 2
        konno = abs(self.s) / (np.pi * (1.0 - xi ** 2) * np.sqrt(c2 - xi ** 2))
        rational = (c2 - self.a2 * xi ** 2) / c2
        out[inside] = konno * (1.0 - self.weight * xi) * rational
        return float(out[0]) if np.ndim(x) == 0 else out

    def ac_mass(self) -> float:
        """Integral of the density over its support; equals 1 - delta."""
        return self._even_moment(0)

    def cdf(self, x):
        """Right-continuous distribution function (scalar or array).

        With ``x = |c| sin U`` the absolutely continuous part is

            [phi + pi/2 - g^2 D / c^2 + weight ((1 - g^2) atan z
             + g^2 (s/c)^2 (z - atan z))] / pi,

        ``phi = atan2(|s| sin U, cos U)``, ``z = |c| cos U / |s|`` and
        ``D = phi + pi/2 - |s| (U + pi/2)``.  ``cos U`` comes from a square
        root, so every term vanishes exactly at ``U = -pi/2``; ``D``, which
        cancels near ``theta = pi/2``, is taken as the angle between
        ``e^{i phi}`` and ``e^{i U}`` plus ``(1 - |s|)(U + pi/2)``.
        """
        xs = np.asarray(x, dtype=float)
        cabs, sa = abs(self.c), abs(self.s)
        c2, g2 = self.c ** 2, self.a2
        # The law is 0 at and below -|c| and exactly 1 at and above |c|:
        # the closed form runs only on the points inside (and NaN).
        above = xs >= cabs
        inside = ~(above | (xs <= -cabs))
        xc = xs[inside]
        sin_u = xc / cabs
        cos_u = np.sqrt((cabs - xc) * (cabs + xc)) / cabs
        u = np.arctan2(sin_u, cos_u) + 0.5 * np.pi
        phi = np.arctan2(sa * sin_u, cos_u) + 0.5 * np.pi
        turn = np.arctan2(-c2 / (1.0 + sa) * sin_u * cos_u, cos_u ** 2 + sa * sin_u ** 2)
        d_over_c2 = turn / c2 + u / (1.0 + sa)
        z = cabs * cos_u / sa
        atan_z = np.arctan(z)
        odd = (1.0 - g2) * atan_z + g2 * (self.s / self.c) ** 2 * _atan_excess(z, atan_z)
        ac_in = (phi - g2 * d_over_c2 + self.weight * odd) / np.pi
        ac = np.zeros(xs.shape)
        ac[inside] = ac_in
        vals = np.where(above, 1.0, ac + self.delta * (xs >= 0.0))
        return float(vals) if vals.ndim == 0 else vals

    def _even_moment(self, n: int) -> float:
        """``integral of x^(2n) f(x) dx`` over the support, for the ac part.

        In ``x = |c| sin u`` the density splits into a Wallis term and a
        pole term, ``|s| c^(2n) w_n + (c^2 - g^2) m^n p R_(n+1)(|s|)`` with
        ``w_n = (2n-1)!!/(2n)!!``, ``p = 1/(1 + |s|)`` and ``m = c^2 p``.
        The pole integrals are ``int sin^(2k) u / (1 - c^2 sin^2 u) du =
        pi p^k R_k(|s|)/|s|``, where ``R_1 = 1`` and ``R_(k+1)(t) =
        [R_k(t) - w_k t (1 + t)^k] / (1 - t)``; that division is exact
        and leaves positive coefficients, so no difference cancels.
        """
        sa, c2 = abs(self.s), self.c ** 2
        p = 1.0 / (1.0 + sa)
        wallis, poly = 1.0, np.array([1.0])
        for k in range(1, n + 1):
            wallis *= (2 * k - 1) / (2 * k)
            numerator = (np.append(poly, [0.0, 0.0])
                         - wallis * np.append(0.0, P.polypow([1.0, 1.0], k)))
            poly = np.cumsum(numerator)[:-1]
        return (sa * c2 ** n * wallis
                + (c2 - self.a2) * (c2 * p) ** n * p * float(P.polyval(sa, poly)))

    def moment(self, r: int) -> float:
        """r-th moment of the full limit law; the atom contributes at r=0.

        The odd part of the density is ``-weight x`` times the even part,
        so moment ``2n - 1`` is ``-weight`` times moment ``2n``.  Orders
        above :data:`MAX_MOMENT_ORDER`, where the closed form is no longer
        accurate, are rejected.
        """
        if not 0 <= r <= MAX_MOMENT_ORDER:
            raise ValueError(f"moment order must be in 0..{MAX_MOMENT_ORDER}, got {r}")
        val = self._even_moment((r + 1) // 2) * (-self.weight) ** (r % 2)
        return val + (self.delta if r == 0 else 0.0)

