import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk.dynamics
from oracles import EDGE_THETAS, brute_force_amplitudes, dense_window_amplitudes, sample_params
from qwalk import (Distribution, Schedule, StateVector, WalkParams, distribution, evolve,
                   initial_state, step)
from qwalk.dynamics import DEFAULT_MAX_T, max_time_cap, snapshots

#: Times the kernel is pinned at: the first steps, and both parities past 300.
PINNED_TIMES = (0, 1, 2, 301, 302)

#: (schedule, tau, swap steps).  The half-time swap falls on step 0 for
#: tau = 0 (t = 1, 2 are 2 tau + 1 and 2 tau + 2) and on step 150 for
#: tau = 150 (t = 301, 302); the multi set swaps on step 0 and on step
#: t - 1 for every pinned t > 0.
PINNED_SCHEDULES = (
    (Schedule.usual(), 0, frozenset()),
    (Schedule.half_time(), 0, frozenset({0})),
    (Schedule.half_time(), 150, frozenset({150})),
    (Schedule.multi({0, 1, 300, 301}), 0, frozenset({0, 1, 300, 301})),
)


def assert_same_bits(got, ref):
    """``got`` equals ``ref`` bit for bit, on the float64 views.

    The sign of an exact zero is the one bit not compared.  In the dense
    reference it comes from numpy's complex multiply by ``(a + 0j)``: the
    ``0 * y`` cross terms set it, and numpy's strided and contiguous
    complex loops do not agree on it.  It reaches no probability and no
    CLI output.
    """
    g, r = got.view(np.float64), ref.view(np.float64)
    assert np.array_equal(g, r)
    nonzero = r != 0
    assert np.array_equal(np.signbit(g[nonzero]), np.signbit(r[nonzero]))


@pytest.mark.parametrize("theta", (*EDGE_THETAS, 0.3))
@pytest.mark.parametrize("schedule,tau,swap_steps", PINNED_SCHEDULES)
def test_kernel_matches_dense_window_bit_for_bit(theta, schedule, tau, swap_steps):
    for alpha, beta in ((0.6, 0.8j), (1.0, 0.0)):
        p = WalkParams(theta=theta, theta1=1.9, tau=tau, alpha=alpha, beta=beta)
        refs = {t: dense_window_amplitudes(p, t, swap_steps) for t in PINNED_TIMES}
        for t, ref in refs.items():
            assert_same_bits(evolve(p, schedule, t).amps, ref)
            if t > 0:
                prev = refs[t - 1] if t - 1 in refs else dense_window_amplitudes(
                    p, t - 1, swap_steps)
                before = StateVector(t - 1, prev[0::2])
                assert_same_bits(step(before, p, schedule).amps, ref)
        # unsorted and repeated times: one state per distinct time, in order
        states = list(snapshots(p, schedule, (302, 2, 0, 301, 2, 1, 302)))
        assert [s.time for s in states] == sorted(PINNED_TIMES)
        for state in states:
            assert_same_bits(state.amps, refs[state.time])


def test_evolve_memory_is_linear_in_the_window(example_params):
    # The sublattice buffers and the two scratch buffers take 64 bytes per
    # occupied site and the returned state 32 bytes more, about 48 bytes
    # per window site; an O(t^2) trap (a kept copy per step) would need
    # ~t/2 times that.
    t = 4000
    tracemalloc.start()
    try:
        evolve(example_params, Schedule.half_time(), t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 80 * (2 * t + 1)


def test_snapshots_check_times_before_allocating(example_params, monkeypatch):
    class NoAllocation:
        def __getattr__(self, name):
            if name.startswith(("zeros", "empty")):
                raise AssertionError(f"np.{name} called before the time check")
            return getattr(np, name)

    monkeypatch.setenv("QWALK_MAX_T", "10")
    monkeypatch.setattr(qwalk.dynamics, "np", NoAllocation())
    with pytest.raises(ValueError, match="exceeds the configured cap 10"):
        next(snapshots(example_params, Schedule.usual(), (3, 11)))
    with pytest.raises(ValueError, match="exceeds the configured cap 10"):
        evolve(example_params, Schedule.usual(), 11)


def test_initial_state_places_spinor_at_origin():
    p = WalkParams(theta=0.7, theta1=0.2, tau=0, alpha=1.0 + 0.0j, beta=0.0j)
    state = initial_state(p)
    assert state.time == 0
    assert np.array_equal(state.sites, [[1.0, 0.0]])
    assert np.array_equal(state.amps, [[1.0, 0.0]])
    assert state.norm_sq() == 1.0


def test_single_step_splits_amplitude():
    p = WalkParams(theta=0.7, theta1=0.2, tau=5, alpha=1.0 + 0.0j, beta=0.0j)
    state = step(initial_state(p), p, Schedule.half_time())
    assert np.array_equal(state.sites, [[p.c, 0.0], [0.0, p.s]])
    assert np.array_equal(state.amps, [[p.c, 0.0], [0.0, 0.0], [0.0, p.s]])
    d = distribution(state)
    assert d.values.tolist() == [p.c ** 2, p.s ** 2]


def test_two_hadamard_steps(hadamard_params):
    p = dataclasses.replace(hadamard_params, alpha=1.0 + 0.0j, beta=0.0j)
    d = distribution(evolve(p, Schedule.usual(), 2))
    assert np.allclose(d.values, [0.25, 0.5, 0.25], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("schedule,swap_times", [
    (Schedule.usual(), frozenset()),
    (Schedule.half_time(), None),  # None: swap at params.tau
])
def test_matches_brute_force_oracle(schedule, swap_times):
    for i, params in enumerate(sample_params(seed=21, n=8, tau=0)):
        params = dataclasses.replace(params, tau=i % 5)
        t = 10 + 4 * i
        times = {params.tau} if swap_times is None else swap_times
        reference = brute_force_amplitudes(params, t, times)
        amps = evolve(params, schedule, t).amps
        worst = max(
            float(np.max(np.abs(amps[x + t] - spinor)))
            for x, spinor in reference.items()
        )
        assert worst < 1e-13


def test_swap_step_uses_other_coin():
    p = WalkParams(theta=0.7, theta1=1.9, tau=0, alpha=0.6, beta=0.8j)
    swapped = step(initial_state(p), p, Schedule.half_time())
    assert np.allclose(swapped.sites[0],
                       [p.c1 * 0.6 + p.s1 * 0.8j, 0.0], atol=1e-15)
    plain = step(initial_state(p), p, Schedule.usual())
    assert np.allclose(plain.sites[0],
                       [p.c * 0.6 + p.s * 0.8j, 0.0], atol=1e-15)


def test_matching_angles_make_schedules_identical():
    p = WalkParams(theta=1.1, theta1=1.1, tau=6, alpha=0.6, beta=0.8j)
    a = evolve(p, Schedule.half_time(), 25)
    b = evolve(p, Schedule.usual(), 25)
    assert np.array_equal(a.amps, b.amps)


def test_symmetric_spinor_gives_symmetric_distribution(example_params, hadamard_params):
    for params, schedule, t in (
        (dataclasses.replace(example_params, tau=24), Schedule.half_time(), 101),
        (dataclasses.replace(example_params, tau=24), Schedule.half_time(), 102),
        (hadamard_params, Schedule.usual(), 101),
    ):
        xs, ps = distribution(evolve(params, schedule, t)).as_arrays()
        assert np.allclose(ps, ps[::-1], atol=1e-12)


def test_usual_walk_has_no_origin_spike(hadamard_params):
    d = distribution(evolve(hadamard_params, Schedule.usual(), 500))
    near_origin = float(np.max(d.values[(d.time - 10) // 2:(d.time + 10) // 2 + 1]))
    assert near_origin < 0.01


def test_swapped_walk_keeps_an_origin_spike(example_params):
    p = dataclasses.replace(example_params, tau=249)
    d = distribution(evolve(p, Schedule.half_time(), 499))
    at_1, at_minus_1, at_21 = d.values[(d.time + np.array([1, -1, 21])) // 2]
    assert at_1 > 0.1 and at_minus_1 > 0.1
    assert at_1 > 10 * at_21


def test_norm_conserved_for_random_params():
    for i, params in enumerate(sample_params(seed=22, n=6, tau=7)):
        state = evolve(params, Schedule.half_time(), 100 + 80 * i)
        assert abs(state.norm_sq() - 1.0) < 1e-12
        assert abs(np.sum(distribution(state).values) - 1.0) < 1e-12


def test_wrong_parity_sites_hold_exact_zeros(example_params):
    p = dataclasses.replace(example_params, tau=9)
    state = initial_state(p)
    for _ in range(40):
        state = step(state, p, Schedule.half_time())
        # window index i holds x = i - t, so odd i is the wrong parity
        assert np.all(state.amps[1::2] == 0)


@settings(max_examples=25, deadline=None)
@given(quadrant=st.integers(0, 3), frac=st.floats(0.05, 0.95),
       t=st.integers(0, 50), tau=st.integers(0, 20))
def test_norm_and_parity_properties(quadrant, frac, t, tau):
    theta = (quadrant + frac) * math.pi / 2
    p = WalkParams(theta=theta, theta1=0.4, tau=tau, alpha=0.6, beta=0.8j)
    state = evolve(p, Schedule.half_time(), t)
    assert abs(state.norm_sq() - 1.0) < 1e-12
    assert np.all(state.amps[1::2] == 0)


def test_evolve_time_zero_returns_initial_state(example_params):
    assert np.array_equal(evolve(example_params, Schedule.usual(), 0).amps,
                          initial_state(example_params).amps)


def test_evolve_rejects_bad_times(example_params, monkeypatch):
    with pytest.raises(ValueError):
        evolve(example_params, Schedule.usual(), -1)
    monkeypatch.setenv("QWALK_MAX_T", "100")
    with pytest.raises(ValueError):
        evolve(example_params, Schedule.usual(), 101)
    evolve(example_params, Schedule.usual(), 100)


def test_time_cap_env_override(example_params, monkeypatch):
    monkeypatch.setenv("QWALK_MAX_T", "50")
    assert max_time_cap() == 50
    with pytest.raises(ValueError):
        evolve(example_params, Schedule.usual(), 60)
    monkeypatch.delenv("QWALK_MAX_T")
    assert max_time_cap() == DEFAULT_MAX_T


def test_state_vector_validation():
    StateVector(1, np.zeros((2, 2), dtype=complex))
    for shape in ((3, 2), (1, 2), (2,), (2, 3), (2, 2, 1)):
        with pytest.raises(ValueError, match="sites shape"):
            StateVector(1, np.zeros(shape, dtype=complex))
    with pytest.raises(ValueError, match="non-negative"):
        StateVector(-1, np.zeros((0, 2), dtype=complex))


def test_state_amplitudes_are_read_only(example_params):
    state = evolve(example_params, Schedule.usual(), 3)
    with pytest.raises(ValueError):
        state.sites[0, 0] = 1.0
    with pytest.raises(ValueError):
        state.amps[0, 0] = 1.0
    assert state.amps.shape == (7, 2)
    assert np.array_equal(state.amps[0::2], state.sites)
    assert not state.amps[1::2].any()


def test_distribution_arrays_sorted(example_params):
    xs, ps = distribution(evolve(example_params, Schedule.usual(), 6)).as_arrays()
    assert np.all(np.diff(xs) == 2)
    assert xs[0] == -6 and xs[-1] == 6


def test_distribution_window_and_read_only(example_params):
    with pytest.raises(ValueError):
        Distribution(time=2, values=np.zeros(5))  # the dense window
    with pytest.raises(ValueError):
        Distribution(time=1, values=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Distribution(time=-1, values=np.zeros(0))
    d = distribution(evolve(example_params, Schedule.half_time(), 5))
    xs, ps = d.as_arrays()
    assert xs.tolist() == [-5, -3, -1, 1, 3, 5] and ps is d.values
    with pytest.raises(ValueError):
        ps[0] = 1.0
