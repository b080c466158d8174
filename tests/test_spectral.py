import bisect
import dataclasses
import gc
import math
import tracemalloc
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import EDGE_THETAS, SWEPT, dft_rows, exact_fourier_amplitudes, sample_params
from qwalk import (
    Schedule,
    WalkParams,
    delta_mass,
    distribution,
    eigensystem,
    evolve,
    Propagator,
    initial_state,
    spectral_evolve,
    tau_sweep,
    theorem1_limit,
)
from qwalk.coin import build_coins, fourier_coin, parity_offset
import qwalk.spectral
from qwalk.spectral import FourierState, asymptotic_amplitude, grid_size

SCHEDULES = (Schedule.usual(), Schedule.half_time(), Schedule.multi({2, 9}))
#: At k = 0 and +-pi one branch's eigenvector entry sign*rA - c cos k
#: would cancel (the code takes it as s**2/(rA + |c cos k|)); at
#: k = +-pi/2 the two eigenvalues are closest.
DELICATE_KS = [0.0, math.pi / 2, -math.pi / 2, math.pi - 1e-9,
               math.pi / 2 + 1e-8, math.pi / 2 - 1e-8, -math.pi]


def stepping_matrix(params, k):
    return fourier_coin(build_coins(params).u, k)


def test_eigenvalues_at_zero_wavenumber(example_params):
    pair = eigensystem(example_params, 0.0)
    assert abs(pair.lambda1 - 1.0) < 1e-15
    assert abs(pair.lambda2 + 1.0) < 1e-15


def test_eigenvalue_at_quarter_wavenumber(example_params):
    pair = eigensystem(example_params, math.pi / 2)
    assert abs(pair.lambda1 - complex(math.cos(math.pi / 4), math.sin(math.pi / 4))) < 1e-15


def test_eigen_structure_on_dense_grid():
    ks = -np.pi + 2.0 * np.pi * np.arange(200) / 200
    for params in sample_params(seed=31, n=5):
        for k in ks:
            pair = eigensystem(params, float(k))
            assert abs(abs(pair.lambda1) - 1.0) < 1e-13
            assert abs(abs(pair.lambda2) - 1.0) < 1e-13
            assert abs(pair.lambda1 * pair.lambda2 + 1.0) < 1e-13
            assert abs(np.linalg.norm(pair.v1) - 1.0) < 1e-12
            assert abs(np.linalg.norm(pair.v2) - 1.0) < 1e-12
            assert abs(np.vdot(pair.v1, pair.v2)) < 1e-12


def test_eigenvector_residuals_near_branch_boundaries():
    # the conditioning-based branch choice must keep residuals tiny
    for params in sample_params(seed=32, n=5):
        for k in DELICATE_KS + list(np.linspace(-math.pi, math.pi, 101)):
            pair = eigensystem(params, k)
            m = stepping_matrix(params, k)
            assert np.linalg.norm(m @ pair.v1 - pair.lambda1 * pair.v1) < 1e-12
            assert np.linalg.norm(m @ pair.v2 - pair.lambda2 * pair.v2) < 1e-12


@settings(max_examples=40, deadline=None)
@given(k=st.floats(-math.pi, math.pi),
       re0=st.floats(-1, 1), im0=st.floats(-1, 1),
       re1=st.floats(-1, 1), im1=st.floats(-1, 1))
def test_eigenbasis_is_complete(k, re0, im0, re1, im1):
    params = WalkParams(theta=0.9, theta1=0.0, tau=0, alpha=1.0 + 0.0j, beta=0.0j)
    pair = eigensystem(params, k)
    phi = np.array([complex(re0, im0), complex(re1, im1)])
    expansion = abs(np.vdot(pair.v1, phi)) ** 2 + abs(np.vdot(pair.v2, phi)) ** 2
    assert abs(expansion - np.linalg.norm(phi) ** 2) < 1e-12


def test_spectral_pair_vectors_read_only(example_params):
    pair = eigensystem(example_params, 0.3)
    with pytest.raises(ValueError):
        pair.v1[0] = 1.0


def test_array_eigensystem_matches_scalar_calls():
    ks = np.array(DELICATE_KS + list(np.linspace(-math.pi, math.pi, 101)))
    edge = [WalkParams(theta=theta, theta1=0.3, tau=0, alpha=1.0, beta=0.0)
            for theta in EDGE_THETAS]
    for params in sample_params(seed=33, n=5) + edge:
        pair = eigensystem(params, ks)
        assert pair.lambda1.shape == pair.lambda2.shape == ks.shape
        assert pair.v1.shape == pair.v2.shape == ks.shape + (2,)
        for i, k in enumerate(ks):
            one = eigensystem(params, k)
            for name in ("k", "lambda1", "lambda2", "v1", "v2"):
                assert np.array_equal(getattr(one, name), getattr(pair, name)[i])
        grid = eigensystem(params, ks[:-3].reshape(15, 7))
        assert grid.v2.shape == (15, 7, 2)
        assert np.array_equal(grid.lambda2.ravel(), pair.lambda2[:-3])


def test_eigensystem_shapes_and_read_only_arrays(example_params):
    one = eigensystem(example_params, 0.3)
    assert one.k.shape == one.lambda1.shape == one.lambda2.shape == ()
    assert one.v1.shape == one.v2.shape == (2,)
    ks = np.linspace(-1.0, 1.0, 5)
    pair = eigensystem(example_params, ks)
    assert ks.flags.writeable
    ks[0] = 9.0
    assert pair.k[0] == -1.0
    for name in ("k", "lambda1", "lambda2", "v1", "v2"):
        with pytest.raises(ValueError):
            getattr(pair, name)[0] = 0.0


@pytest.mark.parametrize("theta", EDGE_THETAS)
def test_eigensystem_at_edge_angles_matches_mpmath(theta):
    # sqrt(1 - c^2 sin^2 k) cancels near theta = 0 and pi; hypot does not
    params = WalkParams(theta=theta, theta1=0.3, tau=0, alpha=1.0, beta=0.0)
    ks = np.array(DELICATE_KS + list(np.linspace(-math.pi, math.pi, 41)))
    pair = eigensystem(params, ks)
    with mp.workdps(40):
        c, s = mp.cos(mp.mpf(theta)), mp.sin(mp.mpf(theta))
        for i, k in enumerate(ks):
            k = mp.mpf(float(k))
            root, x, e = mp.sqrt(s ** 2 + (c * mp.cos(k)) ** 2), c * mp.sin(k), mp.expj(k)
            m = mp.matrix([[e * c, e * s], [s / e, -c / e]])
            for want, lam, v in ((root + 1j * x, pair.lambda1[i], pair.v1[i]),
                                 (-root + 1j * x, pair.lambda2[i], pair.v2[i])):
                assert abs(mp.mpc(lam) - want) <= 4e-16
                v = mp.matrix([mp.mpc(v[0]), mp.mpc(v[1])])
                assert mp.norm(m * v - want * v) <= 1e-15


def test_propagator_state_is_the_direct_sum(example_params):
    # values are sum_x e^{-ikx} psi(x) on the half circle -pi + pi j / n
    p = dataclasses.replace(example_params, tau=6)
    for t in (0, 7, 30):
        state = evolve(p, Schedule.half_time(), t)
        for n in (t + 1, t + 8):
            ks = -np.pi + np.pi * np.arange(n) / n
            direct = np.array([sum(np.exp(-1j * k * x) * amp
                                   for x, amp in zip(range(-t, t + 1, 2), state.sites))
                               for k in ks])
            transformed = Propagator(p, n).state(Schedule.half_time(), t, p.tau)
            assert np.allclose(transformed.eik, np.exp(1j * ks), rtol=0, atol=1e-15)
            assert float(np.max(np.abs(transformed.values - direct))) < 1e-12


def test_plancherel_identity(example_params):
    p = dataclasses.replace(example_params, tau=6)
    for t in (0, 7, 30):
        state = evolve(p, Schedule.half_time(), t)
        for n in (t + 1, t + 8):
            transformed = Propagator(p, n).state(Schedule.half_time(), t, p.tau)
            assert abs(transformed.norm_sq() - state.norm_sq()) < 1e-12


def test_one_grid_rule_and_one_range_check(example_params):
    assert [grid_size(t) for t in (0, 1, 10, 10**6)] == [1, 2, 12, 1012500]
    propagator = Propagator(example_params, 12)
    state = propagator.state(Schedule.half_time(), 11, 3)
    assert state.time == 11 and state.sublattice().sites.shape == (12, 2)
    # the state checks its time against its grid, however it was built
    for t in (12, -1):
        with pytest.raises(ValueError, match=f"t={t} is outside 0..11 of a 12-point grid"):
            propagator.state(Schedule.half_time(), t, 3)
    for t in (12, 13):
        with pytest.raises(ValueError, match=f"t={t} is outside 0..11 of a 12-point grid"):
            FourierState(t, state.values, state.eik)


def test_grid_size_is_the_smallest_5_smooth_size():
    smooth = sorted(2 ** a * 3 ** b * 5 ** c
                    for a in range(15) for b in range(10) for c in range(7))
    for t in range(10**4 + 1):
        assert grid_size(t) == smooth[bisect.bisect_left(smooth, t + 1)], t


def test_array_records_compare_and_hash_by_identity(example_params):
    # == and hash must not reach the arrays: equal contents are distinct records
    def records():
        propagator = Propagator(example_params, 8)
        return (evolve(example_params, Schedule.half_time(), 3),
                propagator.state(Schedule.half_time(), 3, 1),
                eigensystem(example_params, [0.0, 1.0]),
                build_coins(example_params))
    first, second = records(), records()
    for a, b in zip(first, second):
        assert a == a and a != b
        assert hash(a) == hash(a)
    assert len({*first, *first, *second}) == 8


def test_spectral_evolve_time_zero(example_params):
    state = spectral_evolve(example_params, Schedule.half_time(), 0)
    assert np.allclose(state.amps, initial_state(example_params).amps, atol=1e-15)


def test_cross_oracle_small_swapped_walk():
    p = WalkParams(theta=math.pi / 4, theta1=0.0, tau=4,
                   alpha=1.0 + 0.0j, beta=0.0j)
    direct = distribution(evolve(p, Schedule.half_time(), 9))
    fourier = distribution(spectral_evolve(p, Schedule.half_time(), 9))
    assert float(np.max(np.abs(direct.values - fourier.values))) < 1e-12


def test_cross_oracle_usual_walk_t100(hadamard_params):
    direct = evolve(hadamard_params, Schedule.usual(), 100)
    fourier = spectral_evolve(hadamard_params, Schedule.usual(), 100)
    assert float(np.max(np.abs(direct.amps - fourier.amps))) < 1e-10


def test_cross_oracle_random_params_both_schedules():
    for i, params in enumerate(sample_params(seed=33, n=10)):
        t = 20 * (i + 1)
        params = dataclasses.replace(params, tau=t // 3)
        for schedule in SCHEDULES:
            direct = evolve(params, schedule, t)
            fourier = spectral_evolve(params, schedule, t)
            assert float(np.max(np.abs(direct.amps - fourier.amps))) < 1e-10


def test_spectral_evolve_rejects_small_grid(example_params):
    with pytest.raises(ValueError):
        spectral_evolve(example_params, Schedule.usual(), 10, n_grid=10)
    spectral_evolve(example_params, Schedule.usual(), 10, n_grid=11)
    with pytest.raises(ValueError):
        spectral_evolve(example_params, Schedule.usual(), -1)


def test_spectral_evolve_respects_time_cap(example_params, monkeypatch):
    monkeypatch.setenv("QWALK_MAX_T", "10")
    with pytest.raises(ValueError, match="exceeds the configured cap"):
        spectral_evolve(example_params, Schedule.half_time(), 11)
    spectral_evolve(example_params, Schedule.half_time(), 10)
    # the grid is refused before it is allocated, whatever the time
    with pytest.raises(ValueError, match="cap"):
        spectral_evolve(example_params, Schedule.half_time(), 5, n_grid=13)
    spectral_evolve(example_params, Schedule.half_time(), 5, n_grid=12)
    with pytest.raises(ValueError, match="cap"):
        Propagator(example_params, 13)


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind.value)
def test_wrong_parity_sites_are_exact_zeros(schedule):
    # the walk moves one site per step: x + t odd holds nothing, exactly
    for params in sample_params(seed=38, n=3):
        p = dataclasses.replace(params, tau=7)
        for t in (0, 1, 2, 15, 16, 301):
            for n_grid in (t + 1, 2 * t + 3, 4 * t + 7):
                state = spectral_evolve(p, schedule, t, n_grid=n_grid)
                assert np.all(state.amps[1::2] == 0)
                assert float(np.max(np.abs(state.amps - evolve(p, schedule, t).amps))) < 1e-12


def test_sublattice_of_sweep_states(example_params):
    # a sweep's grid is sized for its largest time; smaller times read back alike
    taus = (40, 3, 0)
    for state, tau in zip(tau_sweep(example_params, Schedule.half_time(), "even", taus), taus):
        back = state.sublattice()
        assert back.time == state.time == 2 * tau + 2
        p = dataclasses.replace(example_params, tau=tau)
        direct = evolve(p, Schedule.half_time(), back.time).sites
        assert float(np.max(np.abs(back.sites - direct))) < 1e-13


def test_oversized_grid_changes_nothing(example_params):
    p = dataclasses.replace(example_params, tau=3)
    for schedule in SCHEDULES:
        direct = evolve(p, schedule, 8).amps
        exact = spectral_evolve(p, schedule, 8)
        larger = spectral_evolve(p, schedule, 8, n_grid=57)
        assert np.allclose(exact.amps, larger.amps, atol=1e-13)
        assert float(np.max(np.abs(larger.amps - direct))) < 1e-13


def test_wrong_parity_amplitude_is_zero(example_params):
    assert np.array_equal(asymptotic_amplitude(example_params, 0, "odd"),
                          np.zeros(2))
    assert np.array_equal(asymptotic_amplitude(example_params, 1, "even"),
                          np.zeros(2))
    with pytest.raises(ValueError):
        asymptotic_amplitude(example_params, 0, "both")


def test_origin_amplitude_norm_closed_form():
    for params in sample_params(seed=34, n=10):
        amp = asymptotic_amplitude(params, 0, "even")
        g = params.c1 * params.s - params.s1 * params.c
        m = 1.0 - abs(params.s)
        expected = g ** 2 * params.s ** 2 * m ** 2 / params.c ** 4
        assert abs(np.linalg.norm(amp) ** 2 - expected) < 1e-14


def test_example_amplitude_norms(example_params):
    for x in (2, -2):
        amp = asymptotic_amplitude(example_params, x, "even")
        assert abs(np.linalg.norm(amp) ** 2 - (139 - 98 * math.sqrt(2)) / 4) < 1e-12
    for x in (1, -1):
        amp = asymptotic_amplitude(example_params, x, "odd")
        assert abs(np.linalg.norm(amp) ** 2 - (13 - 9 * math.sqrt(2)) / 2) < 1e-12


def test_amplitude_norms_match_point_masses():
    for params in sample_params(seed=35, n=12):
        for parity in ("odd", "even"):
            for x in range(-7, 8):
                amp_sq = float(np.linalg.norm(asymptotic_amplitude(params, x, parity)) ** 2)
                assert abs(amp_sq - theorem1_limit(params, x, parity)) < 1e-12


def test_amplitude_norms_sum_to_delta():
    # the tail beyond |x| = 200 is below 1e-12 for these margins
    for params in sample_params(seed=36, n=6):
        expected = delta_mass(params)
        for parity in ("odd", "even"):
            total = sum(
                float(np.linalg.norm(asymptotic_amplitude(params, x, parity)) ** 2)
                for x in range(-200, 201)
            )
            assert abs(total - expected) < 1e-10


def test_stationary_part_is_theorem_1():
    # The split's S, read back as a state of its track, has the Theorem 1
    # amplitudes as its DFT rows and the localized mass as its Plancherel
    # norm.  S has a feature of width |s| at k = -pi/2, which a grid
    # resolves when n|s| >= 40; the edge angles within 1e-6 of 0 and pi
    # (|s| <= 1e-6) would need 4*10^7 points or more, so they are left out.
    near_edges = [WalkParams(theta=theta, theta1=2.1, tau=0, alpha=0.6, beta=0.8j)
                  for theta in (1e-3, 0.01, math.pi / 2 - 1e-3, math.pi - 0.01, *EDGE_THETAS)]
    for p in sample_params(seed=39, n=8) + [p for p in near_edges if abs(p.s) >= 1e-3]:
        n = grid_size(max(64, math.ceil(40 / abs(p.s))))
        propagator = Propagator(p, n)
        for parity in ("odd", "even"):
            split = propagator.split(parity)
            assert all(a.shape == (2, n) and not a.flags.writeable for a in split)
            # the track's largest time on the grid, so that every |x| <= 9 is read
            t = n - 1 - (n - 1 - parity_offset(parity)) % 2
            stationary = FourierState(t, split[0].T, propagator._eik)
            for x in range(-9, 10):
                assert abs(stationary.mass(x) - theorem1_limit(p, x, parity)) <= 1e-14, (p, x)
            assert abs(stationary.norm_sq() - delta_mass(p)) <= 1e-15, (p, parity)


def test_asymptotic_amplitude_is_the_stationary_dft_row():
    # S_x with its phase: the split's S read back as a state of its track,
    # componentwise, on grids with n|s| >= 40
    near_edges = [WalkParams(theta=theta, theta1=2.1, tau=0, alpha=0.6, beta=0.8j)
                  for theta in (1e-3, 0.01, math.pi / 2 - 1e-3, math.pi - 0.01)]
    for p in sample_params(seed=40, n=8) + near_edges:
        n = grid_size(max(64, math.ceil(40 / abs(p.s))))
        propagator = Propagator(p, n)
        for parity in ("odd", "even"):
            t = n - 1 - (n - 1 - parity_offset(parity)) % 2
            sites = FourierState(t, propagator.split(parity)[0].T, propagator._eik).sublattice()
            for x in range(-9, 10):
                want = sites.sites[(x + t) // 2] if (x + t) % 2 == 0 else np.zeros(2)
                got = asymptotic_amplitude(p, x, parity)
                assert np.max(np.abs(got - want)) <= 1e-14, (p, parity, x)


def positions_of(state):
    """The window ``-t..t`` of a transformed state, zeros at the other parity."""
    t = state.time
    amps = np.zeros((2 * t + 1, 2), dtype=np.complex128)
    amps[::2] = dft_rows(state, range(-t, t + 1, 2))
    return amps


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind.value)
def test_propagate_matches_evolve(schedule):
    for params in sample_params(seed=37, n=6):
        for tau in (0, 4, 23):
            p = dataclasses.replace(params, tau=tau)
            for t in (2 * tau + 1, 2 * tau + 2):
                direct = evolve(p, schedule, t).amps
                # the grid of t and the larger grid of a longer sweep
                for t_max in (t, t + 5):
                    got = positions_of(Propagator(p, grid_size(t_max)).state(schedule, t, tau))
                    assert float(np.max(np.abs(got - direct))) < 1e-12


@pytest.mark.parametrize("theta", EDGE_THETAS)
def test_propagate_at_edge_angles(theta):
    for schedule in SCHEDULES:
        p = WalkParams(theta=theta, theta1=0.9, tau=150, alpha=0.6, beta=0.8j)
        for t in (301, 302):
            direct = evolve(p, schedule, t).amps
            got = positions_of(Propagator(p, grid_size(t)).state(schedule, t, p.tau))
            assert float(np.max(np.abs(got - direct))) <= 1e-12


def test_propagate_time_zero_and_norm(example_params):
    state = Propagator(example_params, grid_size(3)).state(Schedule.half_time(), 0, 2)
    assert np.array_equal(state.values, np.tile(example_params.spinor, (4, 1)))
    state = Propagator(example_params, grid_size(900)).state(Schedule.half_time(), 900, 40)
    assert abs(state.norm_sq() - 1.0) < 1e-12


def test_propagator_grid_validation(example_params):
    with pytest.raises(ValueError):
        Propagator(example_params, 0)
    propagator = Propagator(example_params, 11)
    with pytest.raises(ValueError):
        propagator.state(Schedule.usual(), 11, 0)
    with pytest.raises(ValueError):
        propagator.state(Schedule.usual(), -1, 0)


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind.value)
def test_reused_propagator_matches_fresh_ones_bit_for_bit(schedule):
    # repeats, decreasing tau, t = 0 and tau >= t, in a scrambled order
    p = WalkParams(theta=0.7, theta1=2.1, tau=0, alpha=0.6, beta=0.8j)
    n = grid_size(61)
    pairs = [(2 * tau + offset, tau) for tau in (0, 1, 2, 9, 10, 30) for offset in (1, 2)]
    pairs += [(0, 0), (0, 4), (3, 3), (5, 9), (9, 4), (21, 10), (21, 10), (61, 0)]
    np.random.default_rng(15).shuffle(pairs)
    shared = Propagator(p, n)
    for t, tau in pairs + pairs[::-1]:
        got = shared.state(schedule, t, tau).values
        assert np.array_equal(got, Propagator(p, n).state(schedule, t, tau).values), (t, tau)


def held_arrays(obj):
    """The arrays among ``obj``'s attributes and in its dict attributes."""
    values = list(vars(obj).values())
    values += [v for held in values if isinstance(held, dict) for v in held.values()]
    return [value for value in values if isinstance(value, np.ndarray)]


def test_state_keeps_nothing(example_params):
    # what a state, a sweep or a trace block builds for itself, Chebyshev
    # rows, split, stretch parts and DFT rows among them, is not kept: the
    # propagator holds the read-only arrays it made at construction, no more
    propagator = Propagator(example_params, grid_size(202))
    kept = held_arrays(propagator)
    names = set(vars(propagator))
    for schedule in SCHEDULES:
        for tau in range(100):
            for offset in (1, 2):
                propagator.state(schedule, 2 * tau + offset, tau).mass(1)
        for parity in ("odd", "even"):
            for state in propagator.sweep(schedule, parity, range(0, 100, 7)):
                state.mass(2)
            list(propagator.sweep_masses(schedule, parity, [0, 5, 99], (0, 1)))
            list(propagator.sweep_probabilities(schedule, parity, [0, 5, 99]))
    assert set(vars(propagator)) == names
    assert [id(array) for array in held_arrays(propagator)] == [id(array) for array in kept]
    assert kept and not any(array.flags.writeable for array in kept)


def test_state_builds_the_rows_of_each_distinct_stretch_once(example_params, monkeypatch):
    # the two tau-long stretches of an odd half-time state share one row build
    built = []
    phase = Propagator._phase
    monkeypatch.setattr(Propagator, "_phase", lambda self, j: built.append(j) or phase(self, j))
    propagator = Propagator(example_params, grid_size(62))
    for schedule, t, tau, want in ((Schedule.half_time(), 61, 30, [30]),
                                   (Schedule.half_time(), 62, 30, [30, 31]),
                                   (Schedule.usual(), 61, 30, [61])):
        built.clear()
        propagator.state(schedule, t, tau)
        assert built == want, schedule.kind


def first_state_peak(params, n, schedule, t, tau):
    propagator = Propagator(params, n)
    tracemalloc.start()
    try:
        propagator.state(schedule, t, tau)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_many_stretches_hold_one_row_at_a_time():
    # A state holds one stretch's row at a time, so 201 stretches peak no
    # higher than the half-time state's two; the slack is the list of swaps
    # (2968 B measured at n = 20480, where one more row is 320 KB).
    p = WalkParams(theta=0.7, theta1=2.1, tau=0, alpha=0.6, beta=0.8j)
    steps = [g * (g + 3) // 2 - 1 for g in range(1, 201)]  # gaps 1..200 between swaps
    t = 20_401
    n = grid_size(t)
    multi = first_state_peak(p, n, Schedule.multi(steps), t, 0)
    half_time = first_state_peak(p, n, Schedule.half_time(), t, (t - 1) // 2)
    assert multi <= half_time + 64 * len(steps), (multi / n, half_time / n)


def test_state_refuses_a_negative_tau_before_it_allocates(example_params):
    propagator = Propagator(example_params, grid_size(200_001))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="tau"):
            propagator.state(Schedule.half_time(), 5, -3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid_size(200_001), peak


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind.value)
def test_state_refuses_an_off_grid_time_before_it_allocates(example_params, schedule):
    # the rule FourierState applies, checked before the first array is built
    n = grid_size(200_001)
    assert n == 202_500
    propagator = Propagator(example_params, n)
    for t in (n, -5):
        tracemalloc.start()
        try:
            match = f"t={t} is outside 0..{n - 1} of a {n}-point grid"
            with pytest.raises(ValueError, match=match):
                propagator.state(schedule, t, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n, peak


def test_grid_size_takes_numpy_integers_and_refuses_bool():
    for t in (np.int64(9), np.int32(9), np.uint16(9)):
        assert grid_size(t) == grid_size(9) == 10
        assert type(grid_size(t)) is int
    for bad in (True, False, np.True_, 9.0, "9"):
        with pytest.raises(ValueError, match="integer"):
            grid_size(bad)


def test_spectral_evolve_takes_numpy_integers_and_refuses_bool(example_params):
    p = dataclasses.replace(example_params, tau=3)
    want = spectral_evolve(p, Schedule.half_time(), 9)
    for t in (np.int64(9), np.int32(9)):
        got = spectral_evolve(p, Schedule.half_time(), t)
        assert got.time == 9 and np.array_equal(got.sites, want.sites)
    for bad in (True, np.True_, 9.0):
        with pytest.raises(ValueError, match="integer"):
            spectral_evolve(p, Schedule.half_time(), bad, n_grid=16)


def test_propagator_takes_integers_by_one_rule(example_params):
    # the grid size, the time and tau of a state and the site of a mass take
    # Python and numpy integers alike; a bool, float or str is refused
    p = dataclasses.replace(example_params, tau=2)
    propagator = Propagator(p, 16)
    want = propagator.state(Schedule.half_time(), 5, 2)
    for n in (np.int64(16), np.int32(16)):
        assert np.array_equal(Propagator(p, n).state(Schedule.half_time(), 5, 2).values,
                              want.values)
    got = propagator.state(Schedule.half_time(), np.int64(5), np.int64(2))
    assert type(got.time) is int and np.array_equal(got.values, want.values)
    assert want.mass(np.int64(1)) == want.mass(1)
    calls = (lambda bad: Propagator(p, bad), lambda bad: propagator.state(Schedule.half_time(), bad, 2),
             lambda bad: propagator.state(Schedule.half_time(), 5, bad), want.mass)
    for call, good in zip(calls, (16, 5, 2, 1)):
        for bad in (True, np.True_, float(good), np.float64(good), str(good)):
            with pytest.raises(ValueError, match="integer"):
                call(bad)


def test_sweep_refuses_a_negative_tau_at_that_tau(example_params):
    for bad in (-1, True, 2.0, "2"):
        states = Propagator(example_params, 16).sweep(Schedule.half_time(), "even", [1, bad])
        assert next(states).time == 4
        with pytest.raises(ValueError, match="tau"):
            next(states)


@pytest.mark.parametrize("schedule", (Schedule.half_time(), Schedule.usual()))
def test_block_sweeps_refuse_taus_out_of_their_rule(schedule, example_params):
    # sorted, distinct, non-negative integers, numpy ones included; the
    # rest is refused with ValueError, not read as tau 1 or left to a
    # TypeError or an IndexError
    propagator = Propagator(example_params, 64)
    masses = [m for _, m in propagator.sweep_masses(schedule, "odd", [0, 2, 5], (1,))]
    for taus in ([np.int64(0), np.int32(2), np.uint8(5)], (0, 2, 5)):
        got = [m for _, m in propagator.sweep_masses(schedule, "odd", taus, (1,))]
        assert all(np.array_equal(a, b) for a, b in zip(got, masses))
        assert len(list(propagator.sweep_probabilities(schedule, "odd", taus))) == len(masses)
    for taus in ([1.5], [-3], [True], [np.True_], ["2"], [3, 1], [2, 2], [0, 4, 4]):
        with pytest.raises(ValueError, match="tau"):
            next(propagator.sweep_masses(schedule, "odd", taus, (1,)))
        with pytest.raises(ValueError, match="tau"):
            next(propagator.sweep_probabilities(schedule, "odd", taus))


def row_wavenumber(n, m, dps=40):
    """The ``k_m`` that the row ``T_m = e^{i k_m}`` of an ``n``-point grid is built from.

    ``-e^{i fl(pi/n m)}`` below ``ceil(n/2)``, ``e^{i fl(pi/n (m - n))}`` above;
    pi is subtracted in ``dps``-digit arithmetic, so the ``k`` is exact.
    """
    if m >= (n + 1) // 2:
        return np.pi / n * (m - n)
    with mp.workdps(dps):
        return mp.mpf(np.pi / n * m) - mp.pi


def exactness_ms(t, n):
    """Grid slots to check a time-``t`` state at: both ends, ``k = -pi/2``
    (slot ``n // 2``, where the eigenvalues are closest) and its neighbours,
    and four slots drawn with seed ``t``."""
    return sorted({0, 1, n // 4, n // 2 - 1, n // 2, n // 2 + 1, n - 2, n - 1,
                   *np.random.default_rng(t).integers(0, n, 4).tolist()})


@pytest.mark.parametrize("t", [10**4, 2 * 10**5])
def test_long_time_states_match_exact_matrix_powers(t):
    # The closed form's error is the float64 conditioning of U(k)^t, a
    # relative error of about t*eps that stepping shares.  At 10^4 every
    # angle runs every schedule; at 2*10^5 the angles take turns.
    n, tau = grid_size(t), t // 2 - 1
    ms = exactness_ms(t, n)
    bound = t * np.finfo(float).eps
    for i, theta in enumerate((0.7,) + EDGE_THETAS):
        p = WalkParams(theta=theta, theta1=2.1, tau=tau, alpha=0.6, beta=0.8j)
        schedules = SCHEDULES if t <= 10**4 else SCHEDULES[i % 3:i % 3 + 1]
        propagator = Propagator(p, n)
        states = [propagator.state(schedule, t, tau) for schedule in schedules]
        for m in ms:
            exact = exact_fourier_amplitudes(
                p, t, row_wavenumber(n, m), [s.swaps_before(t, tau) for s in schedules])
            for schedule, state, want in zip(schedules, states, exact):
                err = float(np.max(np.abs(state.values[m] - want)))
                assert err <= bound, (theta, schedule.kind, m, err / bound)


@pytest.mark.parametrize("t", [10**4 + 1, 10**4 + 2, 2 * 10**5 + 1, 2 * 10**5 + 2])
def test_long_time_sweep_states_match_exact_matrix_powers(t):
    # A sweep forms (i sgn x)^M [S + T_M A + U_{M-1} B] on every schedule
    # (Propagator.sweep), not the powers of Propagator.state: within t*eps
    # of the exact state, not bit for bit.  The multi schedule's last
    # stretch, 37 steps, starts from a single-shot state at t - 37.  Every
    # angle runs the half-time sweep; at 2*10^5 the angles take turns over
    # the usual and multi ones.
    n, tau = grid_size(t), (t - 1) // 2
    parity = "odd" if t % 2 else "even"
    bound = t * np.finfo(float).eps
    schedules = (Schedule.half_time(), Schedule.usual(), Schedule.multi({2, 9, t - 38}))
    for i, theta in enumerate((0.7,) + EDGE_THETAS):
        p = WalkParams(theta=theta, theta1=2.1, tau=tau, alpha=0.6, beta=0.8j)
        tested = schedules if t < 10**5 else (schedules[0], schedules[1 + i % 2])
        states = [next(tau_sweep(p, schedule, parity, [tau])) for schedule in tested]
        assert all(state.time == t and len(state.values) == n for state in states)
        for m in exactness_ms(t, n):
            exact = exact_fourier_amplitudes(
                p, t, row_wavenumber(n, m), [s.swaps_before(t, tau) for s in tested])
            for schedule, state, want in zip(tested, states, exact):
                err = float(np.max(np.abs(state.values[m] - want)))
                assert err <= bound, (theta, schedule.kind, m, err / bound)


@pytest.mark.parametrize("parity", ("odd", "even"))
def test_whole_sweep_states_match_exact_matrix_powers(parity):
    # One consecutive sweep turns e^{iMw} by e^{2iw} from each 16-tau
    # anchor: tau 15, 31 and 247 are 15 multiplies from theirs, 1 one.
    taus = (1, 8, 15, 31, 247)
    for theta in (0.7,) + EDGE_THETAS:
        p = WalkParams(theta=theta, theta1=2.1, tau=0, alpha=0.6, beta=0.8j)
        states = list(tau_sweep(p, Schedule.half_time(), parity, range(taus[-1] + 1)))
        for tau in taus:
            state = states[tau]
            t, n = state.time, len(state.values)
            for m in exactness_ms(t, n):
                (want,) = exact_fourier_amplitudes(p, t, row_wavenumber(n, m), [{tau}])
                err = float(np.max(np.abs(state.values[m] - want))) / (t * np.finfo(float).eps)
                assert err <= 1, (theta, tau, m, err)


def test_long_time_sweep_states_far_from_their_anchor():
    # tau 10^5 + 8 and 10^5 + 15 are 8 and 15 multiplies from the anchor
    # 10^5, 5007 is 15 from 4992; the angles take turns over these taus
    # on both tracks.
    cases = [(tau, parity) for tau in (5007, 10**5 + 8, 10**5 + 15) for parity in ("odd", "even")]
    for i, theta in enumerate((0.7,) + EDGE_THETAS):
        tau, parity = cases[i % len(cases)]
        p = WalkParams(theta=theta, theta1=2.1, tau=tau, alpha=0.6, beta=0.8j)
        (state,) = tau_sweep(p, Schedule.half_time(), parity, [tau])
        t, n = state.time, len(state.values)
        for m in exactness_ms(t, n):
            (want,) = exact_fourier_amplitudes(p, t, row_wavenumber(n, m), [{tau}])
            err = float(np.max(np.abs(state.values[m] - want))) / (t * np.finfo(float).eps)
            assert err <= 1, (theta, tau, m, err)


@pytest.mark.parametrize("parity, schedule", list(SWEPT.values()), ids=list(SWEPT))
def test_sweep_state_does_not_depend_on_the_taus_before_it(parity, schedule):
    # a tau 15 steps into its block, one before the running tau, one after
    # a jump back, a repeat, and jumps across swaps: each gives the bits of
    # a consecutive sweep
    p = WalkParams(theta=0.7, theta1=2.1, tau=0, alpha=0.6, beta=0.8j)
    n = grid_size(2 * 250 + 2)
    taus = [250, 17, 3, 249, 17, 100, 2, 21, 99, 20]
    consecutive = list(Propagator(p, n).sweep(schedule, parity, range(251)))
    for tau, state in zip(taus, Propagator(p, n).sweep(schedule, parity, taus)):
        assert state.time == consecutive[tau].time
        assert np.array_equal(state.values, consecutive[tau].values), tau


@pytest.mark.parametrize("theta", [1e-8, math.pi - 2e-8])
def test_powers_stay_accurate_where_the_eigenvalues_nearly_meet(theta):
    # Next to k = -pi/2 with theta near 0 or pi, U_{m-1}(x) grows to about
    # m while V - x shrinks to about 1/m.  The form U_{m-1} V - U_{m-2}
    # subtracts two terms of size m there and was up to 1.6 t*eps off.
    for t in (9000, 10005):
        n, tau = grid_size(t), t // 2 - 1
        p = WalkParams(theta=theta, theta1=2.1, tau=tau, alpha=0.6, beta=0.8j)
        propagator = Propagator(p, n)
        states = [propagator.state(schedule, t, tau) for schedule in SCHEDULES]
        for m in sorted({n // 2 - 1, n // 2, n // 2 + 1, (n + 1) // 2}):
            exact = exact_fourier_amplitudes(
                p, t, row_wavenumber(n, m), [s.swaps_before(t, tau) for s in SCHEDULES])
            for schedule, state, want in zip(SCHEDULES, states, exact):
                err = float(np.max(np.abs(state.values[m] - want))) / (t * np.finfo(float).eps)
                assert err <= 0.5, (t, schedule.kind, m, err)


@pytest.mark.parametrize("t, n", [(10**4, None), (10**4 + 1, None), (2 * 10**5, None),
                                  (2 * 10**5 + 1, None), (96, 97), (97, 98)],
                         ids=["10000", "10001", "200000", "200001", "96-n97", "97-n98"])
def test_read_back_matches_direct_dft_rows(t, n):
    # a phase e^{-ikt} taken from the float product t*k is off by ~t*eps
    # in angle, which puts 1e-12 on the sites at 2*10^5; the norm cannot see
    # it.  Odd t takes conj(T); t = n - 1 fills every slot of a grid that
    # numpy's FFT does not factor into 2, 3 and 5.
    tau = t // 2 - 1
    p = WalkParams(theta=0.7, theta1=2.1, tau=tau, alpha=0.6, beta=0.8j)
    state = Propagator(p, n or grid_size(t)).state(Schedule.half_time(), t, tau)
    rng = np.random.default_rng(t)
    js = [0, 1, 2, t // 2 - 1, t // 2, t // 2 + 1, t - 2, t - 1, t,
          *rng.integers(0, t + 1, 11).tolist()]
    sites = state.sublattice().sites
    assert sites.shape == (t + 1, 2)
    err = float(np.max(np.abs(sites[js] - dft_rows(state, [2 * j - t for j in js]))))
    assert err < 5e-14


def test_sweep_frees_its_dft_rows():
    # mass builds its DFT row afresh and keeps it nowhere: after reads a
    # swept state holds its time, values and eik only, and dropping the
    # states frees their values
    p = WalkParams(theta=0.7, theta1=2.1, tau=0, alpha=0.6, beta=0.8j)
    states = list(tau_sweep(p, Schedule.half_time(), "odd", range(40)))
    for state in states:
        state.mass(1)
        state.mass(-3)
        assert set(vars(state)) == {"time", "values", "eik"}
    refs = [weakref.ref(state.values) for state in states]
    del states, state
    gc.collect()
    assert all(ref() is None for ref in refs)
    # no module-level cache holds a row or a table of phases
    cached = [name for name, value in vars(qwalk.spectral).items() if hasattr(value, "cache_info")]
    assert cached == []


@pytest.mark.parametrize("parity", ("odd", "even"))
def test_sweep_mass_equals_a_fresh_dft_row_bit_for_bit(parity):
    # FourierState.mass builds its row e^{ikx} off T by index, exactly
    p = WalkParams(theta=0.7, theta1=2.1, tau=0, alpha=0.6, beta=0.8j)
    states = list(tau_sweep(p, Schedule.half_time(), parity, [0, 1, 2, 9, 30, 9, 61]))
    xs = (1, -1, 2, -2, 0, 1, 1, -2)
    for state in states:
        n = len(state.values)
        assert state.eik is states[0].eik
        for x in xs:
            got = state.mass(x)
            if abs(x) > state.time or (x + state.time) % 2:
                assert got == 0.0
                continue
            # e^{i pi r / n} with r = (m - n) x mod 2n is -T_r below n and T_{r-n} above
            r = np.arange(-n, 0) * x % (2 * n)
            fresh = np.where(r < n, -state.eik[r % n], state.eik[r % n]) @ state.values / n
            assert got == float(np.sum(np.abs(fresh) ** 2)), (state.time, x)
    # no module-level cache holds a row or a table of phases
    cached = [name for name, value in vars(qwalk.spectral).items() if hasattr(value, "cache_info")]
    assert cached == []
