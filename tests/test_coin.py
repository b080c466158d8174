import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sample_params
from qwalk import (
    ExcludedAngleError,
    NormalizationError,
    Schedule,
    ScheduleKind,
    WalkParams,
)
from qwalk.coin import build_coins, fourier_coin


def make_params(theta, theta1=0.0, tau=0, alpha=1.0 + 0.0j, beta=0.0j, **kw):
    return WalkParams(theta=theta, theta1=theta1, tau=tau,
                      alpha=alpha, beta=beta, **kw)


def test_hadamard_coin():
    coins = build_coins(make_params(math.pi / 4))
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(coins.u, [[r, r], [r, -r]], atol=1e-15)


def test_zero_angle_swap_coin_is_reflection():
    coins = build_coins(make_params(math.pi / 4, theta1=0.0))
    assert np.array_equal(coins.h, [[1.0, 0.0], [0.0, -1.0]])


def test_coin_is_an_orthogonal_reflection():
    for params in sample_params(seed=12, n=10):
        u = build_coins(params).u
        assert np.allclose(u @ u, np.eye(2), atol=1e-15)
        assert abs(np.linalg.det(u) + 1.0) < 1e-12


def test_coin_matrices_are_read_only():
    coins = build_coins(make_params(0.7))
    with pytest.raises(ValueError):
        coins.u[0, 0] = 2.0


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 3 * math.pi / 2,
                                   2 * math.pi, -math.pi / 2, math.pi / 2 + 4e-10])
def test_excluded_angles_rejected(theta):
    with pytest.raises(ExcludedAngleError):
        make_params(theta)


@pytest.mark.parametrize("field", ["theta", "theta1", "alpha", "beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(field, value):
    args = {"theta": 0.7, "theta1": 0.0, "tau": 0, "alpha": 1.0, "beta": 0.0j}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        WalkParams(**{**args, field: value})


@pytest.mark.parametrize("field", ["theta", "theta1", "alpha", "beta"])
@pytest.mark.parametrize("value", [True, "0.3", None])
def test_non_numeric_values_rejected(field, value):
    args = {"theta": 0.7, "theta1": 0.0, "tau": 0, "alpha": 1.0, "beta": 0.0j}
    with pytest.raises(ValueError, match=f"{field} must be finite and (real|complex)"):
        WalkParams(**{**args, field: value})
    WalkParams(**{**args, "theta": 1, "theta1": np.float64(0.5)})


def test_swap_angle_unrestricted():
    # theta1 may sit on the excluded set; only theta is constrained
    make_params(0.7, theta1=math.pi / 2)


def test_spinor_normalization():
    p = make_params(0.7, alpha=0.6, beta=0.8j)
    assert p.alpha == 0.6 and p.beta == 0.8j
    with pytest.raises(NormalizationError):
        make_params(0.7, alpha=1.0, beta=1.0)
    # near-unit input is renormalized instead of rejected
    scale = 1.0 + 5e-10
    p = make_params(0.7, alpha=scale * 0.6, beta=scale * 0.8j)
    assert abs(abs(p.alpha) ** 2 + abs(p.beta) ** 2 - 1.0) < 1e-15


def test_tau_validation():
    with pytest.raises(ValueError):
        make_params(0.7, tau=-1)
    with pytest.raises(ValueError):
        make_params(0.7, tau=1.5)
    with pytest.raises(ValueError):
        make_params(0.7, tau=True)
    p = make_params(0.7, tau=np.int64(3))
    assert isinstance(p.tau, int) and p.tau == 3


def test_params_are_frozen():
    p = make_params(0.7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.theta = 1.0


def test_fourier_coin_of_identity_is_the_shift():
    # R(k) = diag(e^{ik}, e^{-ik}), read off as the Fourier coin of the identity
    assert np.array_equal(fourier_coin(np.eye(2), 0.0), np.eye(2))
    r = fourier_coin(np.eye(2), 0.3)
    assert r[0, 1] == 0 and r[1, 0] == 0
    assert r[0, 0] == np.exp(0.3j) and r[1, 1] == np.exp(-0.3j)
    assert np.allclose(r @ r.conj().T, np.eye(2), atol=1e-15)


def test_fourier_coin_at_zero_wavenumber():
    u = build_coins(make_params(1.1)).u
    assert np.array_equal(fourier_coin(u, 0.0), u)


def test_fourier_coin_quarter_wavenumber():
    u = build_coins(make_params(math.pi / 4)).u
    r = 1.0 / math.sqrt(2.0)
    expected = np.array([[1j * r, 1j * r], [-1j * r, 1j * r]])
    assert np.allclose(fourier_coin(u, math.pi / 2), expected, atol=1e-15)


def test_fourier_coin_unitary_on_dense_grid():
    ks = -np.pi + 2.0 * np.pi * np.arange(1000) / 1000
    for theta in (math.pi / 4, 0.3, 2.0):
        u = build_coins(make_params(theta)).u
        worst = max(
            float(np.max(np.abs(fourier_coin(u, float(k)) @ fourier_coin(u, float(k)).conj().T
                                - np.eye(2))))
            for k in ks
        )
        assert worst < 1e-13


def test_fourier_coin_angle_periodicity():
    for theta in (0.4, 1.2, 3.5):
        u_a = build_coins(make_params(theta)).u
        u_b = build_coins(make_params(theta + 2 * math.pi)).u
        for k in (0.0, 0.9, -2.2):
            assert np.allclose(fourier_coin(u_a, k), fourier_coin(u_b, k), atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(quadrant=st.integers(0, 3), frac=st.floats(0.05, 0.95),
       k=st.floats(-math.pi, math.pi))
def test_fourier_coin_preserves_norm(quadrant, frac, k):
    theta = (quadrant + frac) * math.pi / 2
    u = build_coins(make_params(theta)).u
    v = np.array([0.3 - 0.1j, 0.7 + 0.4j])
    assert abs(np.linalg.norm(fourier_coin(u, k) @ v) - np.linalg.norm(v)) < 1e-13


def test_schedule_swap_steps():
    # step s uses H exactly when s is the newest entry of swaps_before(s + 1)
    usual = Schedule.usual()
    half = Schedule.half_time()
    multi = Schedule.multi([3, 5])
    for t in range(10):
        assert t not in usual.swaps_before(t + 1, tau=4)
        assert (t in half.swaps_before(t + 1, tau=4)) == (t == 4)
        assert (t in multi.swaps_before(t + 1, tau=4)) == (t in (3, 5))


def test_schedule_swaps_before_lists_swaps_at():
    # the swap steps below t, written out by hand
    usual = Schedule.usual()
    half = Schedule.half_time()
    multi = Schedule.multi([7, 0, 3])
    for t in range(10):
        for tau in (0, 3, 8):
            assert usual.swaps_before(t, tau) == []
        assert half.swaps_before(t, tau=4) == ([4] if t >= 5 else [])
    assert half.swaps_before(9, tau=0) == [0]
    assert half.swaps_before(0, tau=0) == []
    assert [multi.swaps_before(t, tau=3) for t in (0, 1, 3, 4, 7, 8, 100)] == [
        [], [0], [0], [0, 3], [0, 3], [0, 3, 7], [0, 3, 7]]
    assert Schedule.multi({5}).swaps_before(6, tau=1) == [5]


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(kind=ScheduleKind.USUAL, steps=frozenset({3}))
    with pytest.raises(ValueError):
        Schedule.multi([-1])
    assert Schedule.multi([np.int64(2)]).steps == frozenset({2})
    for steps in (5, [1.5], [True], ["3"], [[2]]):
        with pytest.raises(ValueError, match="swap steps"):
            Schedule.multi(steps)
