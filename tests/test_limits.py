import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import EDGE_THETAS, limit_law_reference, sample_params
from qwalk import (
    LimitDensity,
    WalkParams,
    delta_mass,
    theorem1_limit,
)
from qwalk.limits import MAX_MOMENT_ORDER, limit_mass_total, limit_masses
from qwalk.spectral import asymptotic_amplitude

ROOT2 = math.sqrt(2.0)


def konno_density(params, xs):
    """Bare usual-walk limit density, written out independently."""
    c, s = params.c, params.s
    w = (abs(params.alpha) ** 2 - abs(params.beta) ** 2
         + 2.0 * (params.alpha * params.beta.conjugate()).real * s / c)
    return (abs(s) / (np.pi * (1.0 - xs ** 2) * np.sqrt(c ** 2 - xs ** 2))
            * (1.0 - w * xs))


def test_point_mass_showcase_values(example_params):
    assert abs(theorem1_limit(example_params, 1, "odd") - (13 - 9 * ROOT2) / 2) < 1e-12
    assert abs(theorem1_limit(example_params, -1, "odd") - (13 - 9 * ROOT2) / 2) < 1e-12
    assert abs(theorem1_limit(example_params, 0, "even") - (3 - 2 * ROOT2) / 2) < 1e-12
    assert abs(theorem1_limit(example_params, 2, "even") - (139 - 98 * ROOT2) / 4) < 1e-12
    assert abs(theorem1_limit(example_params, -2, "even") - (139 - 98 * ROOT2) / 4) < 1e-12


def test_wrong_parity_mass_is_zero(example_params):
    for x in (-4, -2, 0, 2, 4):
        assert theorem1_limit(example_params, x, "odd") == 0.0
    for x in (-3, -1, 1, 3):
        assert theorem1_limit(example_params, x, "even") == 0.0
    with pytest.raises(ValueError):
        theorem1_limit(example_params, 0, "half")


def test_matching_angles_leave_no_point_mass():
    for theta in (0.4, math.pi / 4, 2.2):
        p = WalkParams(theta=theta, theta1=theta, tau=0, alpha=0.6, beta=0.8j)
        for x in range(-6, 7):
            assert theorem1_limit(p, x, "odd") == 0.0
            assert theorem1_limit(p, x, "even") == 0.0
        assert delta_mass(p) == 0.0


def test_mass_sum_matches_delta_for_random_params():
    for params in sample_params(seed=41, n=100):
        expected = delta_mass(params)
        assert abs(limit_mass_total(params, "odd") - expected) < 1e-10
        assert abs(limit_mass_total(params, "even") - expected) < 1e-10


def test_delta_showcase_values(example_params):
    expected = 1.0 / (2.0 + ROOT2)
    assert abs(delta_mass(example_params) - expected) < 1e-15
    assert abs(limit_mass_total(example_params, "odd") - expected) < 1e-12
    assert abs(limit_mass_total(example_params, "even") - expected) < 1e-12
    perp = dataclasses.replace(example_params, theta1=math.pi / 2)
    assert abs(delta_mass(perp) - 0.5 / (1.0 + 1.0 / ROOT2)) < 1e-15


def test_point_masses_decay_geometrically():
    for params in sample_params(seed=42, n=10):
        ratio = ((1.0 - abs(params.s)) ** 2 / params.c ** 2) ** 2
        for parity, start in (("odd", 3), ("even", 4)):
            for sign in (1, -1):
                xs = [sign * (start + 2 * i) for i in range(6)]
                values = [theorem1_limit(params, x, parity) for x in xs]
                for a, b in zip(values, values[1:]):
                    assert b <= a + 1e-300
                    if a > 1e-250:
                        assert abs(b - ratio * a) <= 1e-12 * a


def test_dark_tail_has_no_cancellation():
    # alpha = sign(s) c beta / (1 + |s|) makes the amplitude of every mass at
    # x >= 3 vanish; the masses must come out near 0, not as a difference
    for theta in (0.3, 2.2, math.pi / 2 - 1e-6):
        c, s = math.cos(theta), math.sin(theta)
        ratio = math.copysign(1.0, s) * c / (1.0 + abs(s))
        beta = complex(0.6, 0.8) / math.hypot(1.0, ratio)
        p = WalkParams(theta=theta, theta1=1.1, tau=0, alpha=ratio * beta, beta=beta)
        masses = theorem1_limit(p, np.arange(3, 40, 2), "odd")
        assert np.all((masses >= 0.0) & (masses <= 1e-28 * theorem1_limit(p, 1, "odd")))


def test_limit_masses_table(example_params):
    table = limit_masses(example_params, "even", 6)
    assert table.shape == (13,) and not table.flags.writeable
    for x, value in zip(range(-6, 7), table):
        assert value == theorem1_limit(example_params, x, "even")
    assert limit_masses(example_params, "odd", 0).tolist() == [0.0]
    with pytest.raises(ValueError):
        limit_masses(example_params, "even", -1)
    with pytest.raises(ValueError):
        theorem1_limit(example_params, 1.0, "odd")


def test_density_showcase_at_origin(hadamard_params):
    density = LimitDensity.from_params(hadamard_params).density(0.0)
    assert abs(density - 1.0 / math.pi) < 1e-15


def test_density_vanishes_outside_support(example_params):
    dens = LimitDensity.from_params(example_params)
    lo, hi = dens.support
    assert hi == abs(example_params.c) and lo == -hi
    assert dens.density(0.9) == 0.0
    assert dens.density(-3.0) == 0.0
    values = dens.density(np.array([-0.9, 0.0, 0.9]))
    assert values[0] == 0.0 and values[2] == 0.0 and values[1] > 0.0


def test_density_rejects_exact_endpoints(example_params):
    dens = LimitDensity.from_params(example_params)
    with pytest.raises(ValueError):
        dens.density(abs(example_params.c))
    with pytest.raises(ValueError):
        dens.density(np.array([0.0, -abs(example_params.c)]))


def test_total_mass_is_one():
    for params in sample_params(seed=43, n=25):
        dens = LimitDensity.from_params(params)
        assert abs(dens.delta + dens.ac_mass() - 1.0) < 1e-12


def test_matching_angles_reduce_to_bare_density():
    rng = np.random.default_rng(44)
    for params in sample_params(seed=45, n=10):
        p = dataclasses.replace(params, theta1=params.theta)
        dens = LimitDensity.from_params(p)
        assert dens.delta == 0.0
        cabs = abs(p.c)
        xs = rng.uniform(-cabs * 0.999, cabs * 0.999, size=1000)
        assert float(np.max(np.abs(dens.density(xs) - konno_density(p, xs)))) < 1e-13


def test_density_nonnegative_on_fine_grid():
    for params in sample_params(seed=46, n=25):
        dens = LimitDensity.from_params(params)
        cabs = abs(params.c)
        xs = np.linspace(-cabs, cabs, 10_002)[1:-1]
        assert float(np.min(dens.density(xs))) >= -1e-15


def test_density_coefficients():
    for params in sample_params(seed=47, n=10):
        dens = LimitDensity.from_params(params)
        g = params.c1 * params.s - params.s1 * params.c
        assert dens.c == params.c
        assert dens.a2 == g * g
        assert dens.delta == delta_mass(params)
        # the quartic numerator a2 x^4 + a1 x^2 + a0 with a0 = c^2 has
        # a0 + a1 + a2 = 0, so it factors as (1 - x^2)(a0 - a2 x^2)
        a0 = dens.c ** 2
        a1 = 2.0 * params.s1 * params.c * g - params.c1 ** 2
        assert abs(a0 + a1 + dens.a2) < 1e-15
        xs = np.linspace(-1.0, 1.0, 9)
        factored = (1.0 - xs ** 2) * (a0 - dens.a2 * xs ** 2)
        assert np.allclose(dens.a2 * xs ** 4 + a1 * xs ** 2 + a0, factored,
                           rtol=0.0, atol=1e-15)


def test_cdf_support_bounds(example_params):
    dens = LimitDensity.from_params(example_params)
    assert dens.cdf(-1.0) == 0.0
    assert abs(dens.cdf(1.0) - 1.0) < 1e-8
    assert abs(dens.cdf(abs(example_params.c)) - 1.0) < 1e-8
    for params in sample_params(seed=47, n=8):
        dens = LimitDensity.from_params(params)
        cabs = abs(params.c)
        below = dens.cdf(np.array([-2.0, -1.0, np.nextafter(-cabs, -2.0), -cabs]))
        above = dens.cdf(np.array([cabs, np.nextafter(cabs, 2.0), 1.0, 2.0, np.inf]))
        assert np.all(below == 0.0) and np.all(above == 1.0)
        assert np.isnan(dens.cdf(np.nan)) and np.isnan(dens.cdf(np.array([np.nan, 0.1]))[0])


def test_cdf_is_exactly_one_from_abs_c_on():
    # the atom and the ac part at |c| do not add to 1 in floats for about
    # one walk in ten; the law is 1 there by definition, not by rounding
    rng = np.random.default_rng(46)
    for _ in range(2000):
        theta, theta1 = rng.uniform(0.0, 2.0 * math.pi, 2)
        v = rng.normal(size=4)
        norm = float(np.linalg.norm(v))
        params = WalkParams(theta=theta, theta1=theta1, tau=0,
                            alpha=complex(v[0], v[1]) / norm, beta=complex(v[2], v[3]) / norm)
        dens = LimitDensity.from_params(params)
        cabs = abs(params.c)
        assert np.all(dens.cdf(np.array([cabs, np.nextafter(cabs, 2.0), 1.0])) == 1.0)
        assert dens.cdf(cabs) == 1.0 and dens.cdf(np.nextafter(cabs, 0.0)) <= 1.0


def test_cdf_jump_at_origin_is_delta():
    for params in sample_params(seed=48, n=8):
        dens = LimitDensity.from_params(params)
        jump = dens.cdf(0.0) - dens.cdf(-1e-14)
        assert abs(jump - dens.delta) < 1e-10


def test_cdf_splits_evenly_for_symmetric_weight(example_params):
    dens = LimitDensity.from_params(example_params)
    assert abs(dens.cdf(-1e-14) - (1.0 - dens.delta) / 2.0) < 1e-10
    assert abs(dens.cdf(0.0) - (1.0 + dens.delta) / 2.0) < 1e-10


def test_cdf_monotone_and_vectorized():
    for params in sample_params(seed=49, n=6):
        dens = LimitDensity.from_params(params)
        xs = np.linspace(-1.0, 1.0, 201)
        values = dens.cdf(xs)
        assert values.shape == xs.shape
        assert float(np.min(np.diff(values))) > -1e-12
        assert np.all(values >= -1e-12) and np.all(values <= 1.0 + 1e-12)
        # a scalar is evaluated as a one-point array
        assert values[50] == dens.cdf(float(xs[50]))


def test_moments(example_params):
    dens = LimitDensity.from_params(example_params)
    assert abs(dens.moment(0) - 1.0) < 1e-10
    assert abs(dens.moment(1)) < 1e-14
    assert abs(dens.moment(2) - 0.17677669529663695) < 1e-12
    with pytest.raises(ValueError):
        dens.moment(-1)


def check_limit_laws(params):
    """Both limit laws of ``params`` against mpmath and the amplitude route."""
    dens = LimitDensity.from_params(params)
    cabs = abs(params.c)
    points = [f * cabs for f in (-0.999, -0.5, -1e-3, 0.0, 0.3, 0.97)]
    ref = limit_law_reference(params.theta, params.theta1, params.alpha, params.beta,
                              points=points, orders=range(5))
    assert np.max(np.abs(dens.cdf(np.array(points)) - ref["cdf"])) <= 1e-8
    assert abs(dens.ac_mass() + dens.delta - ref["total"]) <= 1e-8
    for r, want in enumerate(ref["moments"]):
        # tighter than the CDF: odd moments carry the weight, up to 1/|c|
        assert abs(dens.moment(r) - want) <= 1e-12

    xs = np.arange(-12, 13)
    q = cabs / (1.0 + abs(params.s))
    for parity, offset in (("odd", 1), ("even", 0)):
        table = limit_masses(params, parity, 400)
        assert np.all(np.isfinite(table)) and np.all(table >= 0.0)
        assert not np.any(table[np.arange(-400, 401) % 2 != offset])
        total = math.fsum(table)
        assert total <= ref["delta"] + 1e-10
        if q ** 800 < 1e-13:  # the tail beyond |x| = 400 is negligible
            assert abs(total - ref["delta"]) <= 1e-10
        assert abs(limit_mass_total(params, parity) - ref["delta"]) <= 1e-10

        masses = theorem1_limit(params, xs, parity)
        scalars = np.array([theorem1_limit(params, int(x), parity) for x in xs])
        assert np.array_equal(masses.view(np.int64), scalars.view(np.int64))
        amp_sq = np.array([np.sum(np.abs(asymptotic_amplitude(params, int(x), parity)) ** 2)
                           for x in xs])
        assert np.all(np.abs(amp_sq - masses) <= 1e-9 * masses + 1e-280)


@pytest.mark.parametrize("theta", EDGE_THETAS)
def test_limit_laws_at_edge_angles(theta):
    check_limit_laws(WalkParams(theta=theta, theta1=0.9, tau=0, alpha=0.6, beta=0.8))


@settings(max_examples=25, deadline=None)
@given(quarter=st.integers(-1, 4), side=st.sampled_from((-1.0, 1.0)),
       exponent=st.floats(-8.99, -0.5), theta1=st.floats(0.0, 2 * math.pi),
       chi=st.floats(0.0, math.pi / 2), phase=st.floats(0.0, 2 * math.pi))
def test_limit_laws_near_excluded_angles(quarter, side, exponent, theta1, chi, phase):
    # theta down to EXCLUDED_ANGLE_TOL = 1e-9 from a multiple of pi/2, either side
    theta = quarter * math.pi / 2 + side * 10.0 ** exponent
    params = WalkParams(theta=theta, theta1=theta1, tau=0, alpha=math.cos(chi),
                        beta=math.sin(chi) * complex(math.cos(phase), math.sin(phase)))
    check_limit_laws(params)


#: Edge angles plus angles where ``|s|`` is near 1, where the moment closed
#: form loses accuracy fastest with the order.  The spinors give odd moments
#: a nonzero weight, so every order is checked to a relative tolerance.
MOMENT_CASES = ([(theta, 0.9, 0.6, 0.8) for theta in EDGE_THETAS]
                + [(theta, 0.2, 0.6, 0.8) for theta in (0.7, 1.5, math.pi - 1.5)]
                + [(4.7242494452844594, 3.162729072530436, 0.7738398261787137,
                    0.18337400198411372 + 0.6062556381725684j)])


@pytest.mark.parametrize("theta, theta1, alpha, beta", MOMENT_CASES)
def test_every_accepted_moment_order_matches_reference(theta, theta1, alpha, beta):
    params = WalkParams(theta=theta, theta1=theta1, tau=0, alpha=alpha, beta=beta)
    dens = LimitDensity.from_params(params)
    orders = range(MAX_MOMENT_ORDER + 1)
    ref = limit_law_reference(theta, theta1, params.alpha, params.beta,
                              orders=orders, dps=60)["moments"]
    for r, want in zip(orders, ref):
        # near theta = pi/2 the high moments underflow, on both sides
        assert abs(dens.moment(r) - want) <= 1e-12 * abs(want) + 1e-300, r
    for r in (-1, MAX_MOMENT_ORDER + 1, 1100):
        with pytest.raises(ValueError, match="moment order"):
            dens.moment(r)
