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

The point-mass formulas pass the possibly negative position straight
into the ``K`` helpers (its sign flips the cross terms) and swap
``(alpha, beta)`` for negative positions; both conventions were checked
against direct simulation before being frozen here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coin import WalkParams, parity_offset

__all__ = [
    "LimitMass",
    "LimitDensity",
    "delta_mass",
    "theorem1_limit",
    "limit_mass_total",
    "limit_masses",
    "theorem2_density",
    "limit_cdf",
]

#: Fixed Gauss-Legendre rule; with the singularity-removing substitution
#: the integrands are analytic, so 256 nodes reach ~1e-13 accuracy.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(256)

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


def _k1(c: float, s: float, x: int, a: complex, b: complex) -> float:
    m = 1.0 - abs(s)
    sgn = math.copysign(1.0, x)
    return (c * c * abs(a) ** 2 + 2.0 * s * s * m * abs(b) ** 2
            + sgn * c * s * m * _cross(a, b))


def _k2(c: float, s: float, x: int, a: complex, b: complex) -> float:
    m = 1.0 - abs(s)
    sgn = math.copysign(1.0, x)
    return (c * c * s * abs(a) ** 2 + s * m * m * abs(b) ** 2
            - sgn * c * abs(s) * m * _cross(a, b))


def _k3(c: float, s: float, x: int, a: complex, b: complex) -> float:
    m = 1.0 - abs(s)
    sgn = math.copysign(1.0, x)
    return (c * c * (1.0 - s * s * abs(s) * (2.0 - abs(s))) * abs(a) ** 2
            + 2.0 * s * s * m ** 3 * abs(b) ** 2
            + sgn * c * s * (1.0 + s * s) * m * m * _cross(a, b))


def _k4(c: float, s: float, x: int, a: complex, b: complex) -> float:
    sgn = math.copysign(1.0, x)
    return (s * s * (abs(a) ** 2 - abs(b) ** 2)
            - sgn * c * s * _cross(a, b) + abs(s))


def theorem1_limit(params: WalkParams, x: int, parity: str) -> float:
    """Stationary point mass at position ``x`` on one time-parity track.

    ``parity`` selects the subsequence: ``"odd"`` for measurement times
    ``2*tau + 1``, ``"even"`` for ``2*tau + 2``.  Positions of the wrong
    parity carry no mass and return 0.  The value is nonnegative and,
    for ``theta1 == theta``, identically zero (no localization).
    """
    c, s = params.c, params.s
    alpha, beta = params.alpha, params.beta
    m = 1.0 - abs(s)
    g = _coupling(params)
    if parity_offset(parity) == 1:
        if x % 2 == 0:
            return 0.0
        if x == 1:
            return g * g * m * m / c ** 6 * _k1(c, s, 1, alpha, beta)
        if x == -1:
            return g * g * m * m / c ** 6 * _k1(c, s, -1, beta, alpha)
        pref = 2.0 * g * g * s / (c ** 4 * m) * (m * m / (c * c)) ** abs(x)
        if x > 0:
            return pref * _k2(c, s, x, alpha, beta)
        return pref * _k2(c, s, x, beta, alpha)
    if x % 2 == 1:
        return 0.0
    if x == 0:
        return g * g * s * s * m * m / c ** 4
    if x == 2:
        return g * g * m * m / c ** 8 * _k3(c, s, 2, alpha, beta)
    if x == -2:
        return g * g * m * m / c ** 8 * _k3(c, s, -2, beta, alpha)
    pref = 2.0 * g * g * abs(s) / c ** 4 * (m * m / (c * c)) ** abs(x)
    if x > 0:
        return pref * _k4(c, s, x, alpha, beta)
    return pref * _k4(c, s, x, beta, alpha)


def limit_mass_total(params: WalkParams, parity: str) -> float:
    """Sum of the stationary point masses over all positions.

    Beyond the special rows near the origin the masses at ``x`` and
    ``x + 2`` share a fixed ratio ``((1 - |s|)/c)**4 < 1``, so the tail
    is a geometric series and the sum has a closed form.  The result
    equals :func:`delta_mass` for every parameter set.
    """
    m = 1.0 - abs(params.s)
    ratio = (m * m / (params.c * params.c)) ** 2
    tail = 1.0 / (1.0 - ratio)

    def t(x: int) -> float:
        return theorem1_limit(params, x, parity)

    if parity_offset(parity) == 1:
        return t(1) + t(-1) + (t(3) + t(-3)) * tail
    return t(0) + t(2) + t(-2) + (t(4) + t(-4)) * tail


@dataclass(frozen=True)
class LimitMass:
    """Stationary point mass at one position for one time parity."""

    position: int
    parity: str
    value: float

    def __post_init__(self) -> None:
        offset = parity_offset(self.parity)
        if self.value < 0.0:
            raise ValueError(f"point mass must be nonnegative, got {self.value}")
        wrong = self.position % 2 != offset % 2
        if wrong and self.value != 0.0:
            raise ValueError(
                f"x={self.position} has no mass on the {self.parity} track"
            )


def limit_masses(params: WalkParams, parity: str, xmax: int) -> list[LimitMass]:
    """Point masses for every position in ``[-xmax, xmax]``."""
    if xmax < 0:
        raise ValueError(f"xmax must be non-negative, got {xmax}")
    return [
        LimitMass(position=x, parity=parity,
                  value=theorem1_limit(params, x, parity))
        for x in range(-xmax, xmax + 1)
    ]


@dataclass(frozen=True)
class LimitDensity:
    """Weak limit of ``X_t/t``: atom at 0 plus a density on ``(-|c|, |c|)``.

    ``a0``, ``a1``, ``a2`` and ``delta`` depend only on the two coin
    angles; the initial spinor enters through the linear ``weight``
    factor alone.  When ``theta1 == theta`` the rational correction is
    identically 1 and ``delta == 0``, leaving the bare arcsine-type
    density of the unswapped walk.
    """

    delta: float
    weight: float
    a0: float
    a1: float
    a2: float
    c: float
    s: float

    @classmethod
    def from_params(cls, params: WalkParams) -> "LimitDensity":
        g = _coupling(params)
        weight = (abs(params.alpha) ** 2 - abs(params.beta) ** 2
                  + _cross(params.alpha, params.beta) * params.s / params.c)
        return cls(
            delta=delta_mass(params),
            weight=weight,
            a0=params.c ** 2,
            a1=2.0 * params.s1 * params.c * g - params.c1 ** 2,
            a2=g * g,
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
        konno = abs(self.s) / (np.pi * (1.0 - xi ** 2)
                               * np.sqrt(self.c ** 2 - xi ** 2))
        bracket = 1.0 - self.weight * xi
        rational = ((self.a2 * xi ** 4 + self.a1 * xi ** 2 + self.a0)
                    / (self.c ** 2 * (1.0 - xi ** 2)))
        out[inside] = konno * bracket * rational
        return float(out[0]) if np.ndim(x) == 0 else out

    def _integrand_u(self, xv: np.ndarray) -> np.ndarray:
        # density times the Jacobian of x = |c| sin(u); the inverse
        # square root cancels against the Jacobian, leaving an analytic
        # integrand on [-pi/2, pi/2].
        return (abs(self.s) * (1.0 - self.weight * xv)
                * (self.a2 * xv ** 4 + self.a1 * xv ** 2 + self.a0)
                / (np.pi * self.c ** 2 * (1.0 - xv ** 2) ** 2))

    def ac_mass(self) -> float:
        """Integral of the density over its support; equals 1 - delta."""
        u = 0.5 * np.pi * _GL_NODES
        xv = abs(self.c) * np.sin(u)
        return float(0.5 * np.pi * np.sum(_GL_WEIGHTS * self._integrand_u(xv)))

    def cdf(self, x):
        """Right-continuous distribution function (scalar or array)."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        upper = np.arcsin(np.clip(xs / abs(self.c), -1.0, 1.0))
        half = 0.5 * (upper + 0.5 * np.pi)
        u = -0.5 * np.pi + half[:, None] * (_GL_NODES[None, :] + 1.0)
        xv = abs(self.c) * np.sin(u)
        ac = half * (self._integrand_u(xv) @ _GL_WEIGHTS)
        vals = ac + self.delta * (xs >= 0.0)
        return float(vals[0]) if np.ndim(x) == 0 else vals

    def moment(self, r: int) -> float:
        """r-th moment of the full limit law; the atom contributes at r=0."""
        if r < 0:
            raise ValueError(f"moment order must be non-negative, got {r}")
        u = 0.5 * np.pi * _GL_NODES
        xv = abs(self.c) * np.sin(u)
        val = float(0.5 * np.pi
                    * np.sum(_GL_WEIGHTS * xv ** r * self._integrand_u(xv)))
        return val + (self.delta if r == 0 else 0.0)


def theorem2_density(params: WalkParams, x):
    """Density of the weak limit of ``X_t/t`` at ``x`` (ac part only)."""
    return LimitDensity.from_params(params).density(x)


def limit_cdf(params: WalkParams, x):
    """Distribution function of the weak limit of ``X_t/t`` at ``x``."""
    return LimitDensity.from_params(params).cdf(x)
