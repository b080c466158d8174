"""Independent reference implementations used to cross-check the package.

Nothing here reuses the package's stepping or spectral code paths; the
oracles share only the parameter containers, so agreement between an
oracle and the package is evidence against bugs in either route.
"""

import math

import mpmath as mp
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre

from qwalk import Schedule, WalkParams


#: Angles within 1e-6..1e-8 of the excluded multiples of pi/2, where the
#: closed forms in momentum space and in the limit laws are most delicate.
EDGE_THETAS = (1e-8, 1e-6, math.pi / 2 - 1e-6, math.pi / 2 + 1e-6,
               math.pi / 2 - 1e-8, math.pi - 1e-8, 3 * math.pi / 2 + 1e-8)


#: (parity, schedule) by test id, for the sweep tests that take every
#: schedule: the half-time ones under their parity alone.  The last multi
#: schedule has back-to-back swaps, and stretches that start inside a
#: 16-tau anchor block.
SWEPT = {(parity if name == "half-time" else f"{name}-{parity}"): (parity, schedule)
         for name, schedule in (("half-time", Schedule.half_time()), ("usual", Schedule.usual()),
                                ("multi", Schedule.multi({5, 17})),
                                ("multi-adjacent", Schedule.multi({5, 6, 40, 41, 200, 201})))
         for parity in ("odd", "even")}


def sample_params(seed, n, tau=0, margin=0.1):
    """Deterministic list of valid random parameter sets.

    Coin angles keep at least ``margin`` radians away from multiples of
    pi/2, where the walk degenerates and the closed forms blow up.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        quadrant = int(rng.integers(4))
        theta = quadrant * math.pi / 2 + rng.uniform(margin, math.pi / 2 - margin)
        theta1 = float(rng.uniform(0.0, 2.0 * math.pi))
        v = rng.normal(size=4)
        alpha = complex(v[0], v[1])
        beta = complex(v[2], v[3])
        norm = math.hypot(abs(alpha), abs(beta))
        out.append(WalkParams(theta=theta, theta1=theta1, tau=tau,
                              alpha=alpha / norm, beta=beta / norm))
    return out


def brute_force_amplitudes(params, t_final, swap_times=frozenset()):
    """Dictionary-based reference evolution.

    Scatters each site's coined spinor to its neighbours one position at
    a time (the transition from time t uses the swap coin iff t is in
    ``swap_times``), avoiding the package's dense-window arithmetic.
    Returns a dict position -> 2-component amplitude.
    """
    u = np.array([[params.c, params.s], [params.s, -params.c]], dtype=complex)
    h = np.array([[params.c1, params.s1], [params.s1, -params.c1]], dtype=complex)
    state = {0: params.spinor}
    for t in range(t_final):
        coin = h if t in swap_times else u
        new = {}
        for x, spinor in state.items():
            w = coin @ spinor
            new.setdefault(x - 1, np.zeros(2, dtype=complex))[0] += w[0]
            new.setdefault(x + 1, np.zeros(2, dtype=complex))[1] += w[1]
        state = new
    return state


def dense_window_amplitudes(params, t_final, swap_times=frozenset()):
    """The dense-window stepping loop that the sublattice kernel replaced.

    Steps the full ``(2t+1, 2)`` window, wrong-parity sites included, with
    a fresh array per step and complex arithmetic throughout (the
    transition from time t uses the swap coin iff t is in
    ``swap_times``).  Returns the window at ``t_final``; its bits pin the
    package's stepping kernel.
    """
    amps = np.zeros((1, 2), dtype=np.complex128)
    amps[0] = params.spinor
    for t in range(t_final):
        if t in swap_times:
            a, b, c, d = params.c1, params.s1, params.s1, -params.c1
        else:
            a, b, c, d = params.c, params.s, params.s, -params.c
        new = np.zeros((amps.shape[0] + 2, 2), dtype=np.complex128)
        new[:-2, 0] = a * amps[:, 0] + b * amps[:, 1]
        new[2:, 1] = c * amps[:, 0] + d * amps[:, 1]
        amps = new
    return amps


def brute_force_probability(params, t_final, x, swap_times=frozenset()):
    amps = brute_force_amplitudes(params, t_final, swap_times)
    spinor = amps.get(x)
    if spinor is None:
        return 0.0
    return float(np.sum(np.abs(spinor) ** 2))


def origin_mass_even_trace(params, tau_max):
    """``P(X_{2 tau + 2} = 0)`` for every tau in 0..tau_max at once.

    Momentum-space route: diagonalize the stepping matrix once on a grid
    large enough for an exact inverse DFT at the largest time, then per
    tau advance the eigenphases, apply the swap coin, and project back.
    Each tau costs O(grid), which makes thousand-point traces cheap.
    """
    t_max = 2 * tau_max + 2
    n = 2 * t_max + 2
    k = -np.pi + 2.0 * np.pi * np.arange(n) / n
    c, s, c1, s1 = params.c, params.s, params.c1, params.s1
    sk, ck = np.sin(k), np.cos(k)
    root = np.sqrt(1.0 - (c * sk) ** 2)
    lam1 = root + 1j * c * sk
    lam2 = -root + 1j * c * sk
    eik = np.exp(1j * k)

    def eigvec(sign):
        # Stable co-factor pairing: the small member of the pair is
        # recovered from (root - p)(root + p) = s**2.
        proj = sign * c * ck
        big = root + np.abs(proj)
        small = s * s / big
        w = np.where(proj > 0, small, big)
        v0 = s * eik
        v1 = sign * w
        norm = np.sqrt(np.abs(v0) ** 2 + v1 ** 2)
        return v0 / norm, v1 / norm

    v10, v11 = eigvec(+1.0)
    v20, v21 = eigvec(-1.0)
    a1 = np.conj(v10) * params.alpha + np.conj(v11) * params.beta
    a2 = np.conj(v20) * params.alpha + np.conj(v21) * params.beta
    pow1 = np.ones_like(lam1)
    pow2 = np.ones_like(lam2)
    out = np.empty(tau_max + 1)
    for tau in range(tau_max + 1):
        # state after tau plain steps
        psi0 = pow1 * a1 * v10 + pow2 * a2 * v20
        psi1 = pow1 * a1 * v11 + pow2 * a2 * v21
        # one swap step, then tau + 1 more plain steps to reach 2 tau + 2
        sw0 = eik * (c1 * psi0 + s1 * psi1)
        sw1 = np.conj(eik) * (s1 * psi0 - c1 * psi1)
        b1 = np.conj(v10) * sw0 + np.conj(v11) * sw1
        b2 = np.conj(v20) * sw0 + np.conj(v21) * sw1
        f1 = pow1 * lam1
        f2 = pow2 * lam2
        amp0 = np.mean(f1 * b1 * v10 + f2 * b2 * v20)
        amp1 = np.mean(f1 * b1 * v11 + f2 * b2 * v21)
        out[tau] = abs(amp0) ** 2 + abs(amp1) ** 2
        pow1 *= lam1
        pow2 *= lam2
    return out


def limit_law_reference(theta, theta1, alpha, beta, points=(), orders=(), dps=40):
    """The Theorem 2 limit law of ``X_t/t`` in ``dps``-digit arithmetic.

    Built from the angles themselves, not from ``cos(theta)`` rounded to a
    float: near ``theta = 0`` the law is ill-conditioned in ``c``.  The
    density is integrated in its unfactored form, with the quartic
    numerator ``a2 x^4 + a1 x^2 + a0`` over ``(1 - x^2)^2``, in
    ``x = |c| sin u``, where it is analytic.  A 48-node Gauss-Legendre rule
    runs on each panel of ``[-pi/2, pi/2]``; the panels are split at the
    requested points and graded by factors of 8 toward ``u = +-pi/2``,
    where the ``1 - x^2`` peak of width ``|s|/|c|`` sits.  Returns a dict
    of floats: ``delta``, ``cdf`` at ``points``, ``total`` (atom plus
    integral) and ``moments`` of the given ``orders``.
    """
    with mp.workdps(dps):
        c, s = mp.cos(mp.mpf(theta)), mp.sin(mp.mpf(theta))
        c1, s1 = mp.cos(mp.mpf(theta1)), mp.sin(mp.mpf(theta1))
        a, b = mp.mpc(alpha), mp.mpc(beta)
        g = c1 * s - s1 * c
        a0, a1, a2 = c ** 2, 2 * s1 * c * g - c1 ** 2, g ** 2
        w = abs(a) ** 2 - abs(b) ** 2 + 2 * mp.re(a * mp.conj(b)) * s / c
        cabs, sabs = abs(c), abs(s)
        delta = a2 / (1 + sabs)

        half = mp.pi / 2
        edges = {-half, mp.mpf(0), half}
        step = sabs / cabs
        while step < 1:
            edges |= {-half + step, half - step}
            step *= 8
        uq = [mp.asin(min(1, max(-1, mp.mpf(x) / cabs))) for x in points]
        edges = sorted(edges | set(uq))
        nodes = GaussLegendre(mp.mp).calc_nodes(5, mp.mp.prec)
        below = {edges[0]: mp.mpf(0)}
        moments = [mp.mpf(0)] * len(orders)
        for lo, hi in zip(edges, edges[1:]):
            mid, rad = (hi + lo) / 2, (hi - lo) / 2
            piece = mp.mpf(0)
            for node, weight in nodes:
                x = cabs * mp.sin(mid + rad * node)
                f = (rad * weight * sabs * (1 - w * x) * (a2 * x ** 4 + a1 * x ** 2 + a0)
                     / (mp.pi * c ** 2 * (1 - x ** 2) ** 2))
                piece += f
                moments = [m + x ** r * f for m, r in zip(moments, orders)]
            below[hi] = below[lo] + piece
        cdf = [below[u] + (delta if x >= 0 else 0) for u, x in zip(uq, points)]
        moments = [m + (delta if r == 0 else 0) for m, r in zip(moments, orders)]
        return {"delta": float(delta), "cdf": [float(v) for v in cdf],
                "total": float(below[half] + delta), "moments": [float(v) for v in moments]}


def exact_fourier_amplitudes(params, t, k, swap_sets, dps=40):
    """Transformed states at one wavenumber ``k`` by ``dps``-digit matrix powers.

    ``U(k) = R(k) U`` and ``H(k) = R(k) H`` with ``R(k) = diag(e^{ik},
    e^{-ik})``.  ``k`` and the spinor are taken exactly.  The coin entries
    are the package's doubles divided, in ``dps`` digits, by ``hypot(c,
    s)`` (and ``hypot(c1, s1)``), so both coins are exactly unitary.  The
    package's closed form powers ``V(k) = -i U(k)`` as a matrix of
    determinant 1, which only the normalized coin is, so that is the
    matrix it actually powers.  For each collection of
    swap steps ``s_1 < ... < s_r`` (those below ``t`` count) the state is
    ``U(k)^(t - 1 - s_r) H(k) ... H(k) U(k)^(s_1) psi0``.  Each power of
    ``U(k)`` is a product of its repeated squares, shared by all the
    collections, which shares nothing with the package's closed form.
    Returns one pair of complex components per collection.
    """
    def apply(m, v):
        return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])

    def square(m):
        return tuple(tuple(m[i][0] * m[0][j] + m[i][1] * m[1][j] for j in range(2))
                     for i in range(2))

    def power(m, v):
        for i, sq in enumerate(squares):
            if m >> i & 1:
                v = apply(sq, v)
        return v

    with mp.workdps(dps):
        e = mp.expj(mp.mpf(k))

        def coin(c, s):
            r = mp.hypot(c, s)
            c, s = mp.mpf(c) / r, mp.mpf(s) / r
            return (e * c, e * s), (s / e, -c / e)
        u, h = coin(params.c, params.s), coin(params.c1, params.s1)
        squares = [u]
        for _ in range(t.bit_length() - 1):
            squares.append(square(squares[-1]))
        out = []
        for steps in swap_sets:
            v, done = (mp.mpc(params.alpha), mp.mpc(params.beta)), 0
            for step in sorted(s for s in steps if s < t):
                v, done = apply(h, power(step - done, v)), step + 1
            v = power(t - done, v)
            out.append((complex(v[0]), complex(v[1])))
        return out


def dft_rows(state, xs):
    """The amplitudes at ``xs`` by direct DFT rows ``mean_m e^{i k_m x} values``.

    ``state`` is a transformed state on the half circle ``k_m = -pi + pi m
    / n``; ``k_m x = pi (m - n) x / n`` is reduced mod ``2 pi`` in
    integers, so a row keeps its accuracy at large ``|x|``.  One row per
    ``x``, O(n) each, and no FFT.
    """
    n = len(state.values)
    return np.array([np.exp(1j * np.pi / n * (np.arange(-n, 0) * x % (2 * n)))
                     @ state.values / n for x in xs])
