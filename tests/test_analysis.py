import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (EDGE_THETAS, SWEPT, brute_force_probability, dft_rows,
                     origin_mass_even_trace, sample_params)
from qwalk import (
    Distribution,
    ExcludedAngleError,
    LimitDensity,
    Schedule,
    WalkParams,
    delta_mass,
    distribution,
    evolve,
    initial_state,
    localized_mass,
    moment,
    rescaled_cdf_distance,
    spectral_evolve,
    tau_sweep,
    theorem1_limit,
    trace_masses,
    trace_moments,
)
from qwalk.analysis import mass_trace
from qwalk.coin import parity_offset
from qwalk.spectral import Propagator, grid_size

# frozen regression values for the showcase walk (theta=pi/4, theta1=0,
# symmetric spinor); recorded from a calibration run of this code
KS_401 = 0.015827834742873081
KS_1601 = 0.0079467753472979297
USUAL_KS_2001 = 0.014261118286455394
CESARO_2000 = 0.087054088392341716

SCHEDULES = (Schedule.usual(), Schedule.half_time(), Schedule.multi({5, 17}))
SWEEP_POSITIONS = (-2, -1, 0, 1, 2)


def sweep_moment(state, r):
    """The moment a trace reads off a transformed state."""
    return moment(distribution(state.sublattice()), r)


def rows_moment(state, r):
    """``sweep_moment`` off direct DFT rows, one per occupied site, no FFT."""
    t = state.time
    xs = np.arange(-t, t + 1, 2)
    sq = np.abs(dft_rows(state, xs)) ** 2
    return float(np.sum((xs / t) ** r * (sq[:, 0] + sq[:, 1])))


def assert_sweep_matches_evolve(params, schedule, parity, taus, tol):
    """Times, masses and moments of tau_sweep against position-space evolve."""
    for tau, state in zip(taus, tau_sweep(params, schedule, parity, taus)):
        t = 2 * tau + parity_offset(parity)
        assert state.time == t
        dist = distribution(evolve(dataclasses.replace(params, tau=tau), schedule, t))
        xs, ps = dist.as_arrays()
        probs = dict(zip(xs.tolist(), ps.tolist()))  # no entry: wrong parity or |x| > t
        for x in SWEEP_POSITIONS:
            assert abs(state.mass(x) - probs.get(x, 0.0)) <= tol
        for r in range(5):
            assert abs(sweep_moment(state, r) - moment(dist, r)) <= tol


def test_mass_trace_matches_independent_simulation(example_params):
    taus = (0, 1, 3)
    for parity, offset in (("odd", 1), ("even", 2)):
        trace = mass_trace(example_params, 0 if parity == "even" else 1,
                           parity, taus)
        assert trace.taus == taus
        for tau, value in zip(trace.taus, trace.values):
            expected = brute_force_probability(
                example_params, 2 * tau + offset,
                0 if parity == "even" else 1, swap_times={tau})
            assert abs(value - expected) < 1e-14
    with pytest.raises(ValueError):
        mass_trace(example_params, 0, "diagonal", taus)


def test_mass_trace_approaches_point_mass(example_params):
    expected = theorem1_limit(example_params, 1, "odd")
    trace = mass_trace(example_params, 1, "odd", (10, 50, 250, 1000))
    errors = [abs(v - expected) for v in trace.values]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 2e-3


def test_mass_trace_of_usual_walk_decays(hadamard_params):
    trace = mass_trace(hadamard_params, 0, "even", (5, 25, 125))
    assert trace.values[0] > trace.values[1] > trace.values[2]
    assert trace.values[2] < 5e-3


def test_origin_mass_oscillates_but_cesaro_converges(example_params):
    # oracle agrees with the per-tau simulation before we trust the sweep
    fast = origin_mass_even_trace(example_params, 30)
    slow = mass_trace(example_params, 0, "even", (0, 1, 5, 30))
    for tau, value in zip(slow.taus, slow.values):
        assert abs(fast[tau] - value) < 1e-12

    values = origin_mass_even_trace(example_params, 2000)
    expected = theorem1_limit(example_params, 0, "even")
    residual = values - expected
    signs = np.sign(residual[np.abs(residual) > 1e-12])
    assert np.count_nonzero(signs[1:] != signs[:-1]) > 100

    cesaro = np.cumsum(values) / np.arange(1, values.size + 1)
    errors = [abs(cesaro[tau] - expected) for tau in (500, 1000, 2000)]
    assert errors[0] > errors[1] > errors[2]
    # the mean still carries a slowly decaying positive bias at tau=2000;
    # 1.5e-3 is the calibrated bound (the error first dips under 1e-3
    # near tau=2600)
    assert errors[2] < 1.5e-3
    assert abs(cesaro[2000] - CESARO_2000) < 1e-9


def half_time_distance(params, t):
    dist = distribution(evolve(params, Schedule.half_time(), t))
    return rescaled_cdf_distance(params, dist)


def test_distance_requires_matching_time(example_params):
    p = dataclasses.replace(example_params, tau=10)
    with pytest.raises(ValueError):
        half_time_distance(p, 20)
    half_time_distance(p, 21)
    half_time_distance(p, 22)


def test_distance_is_a_probability_bound():
    for params in sample_params(seed=51, n=5, tau=8):
        for t in (17, 18):
            d = half_time_distance(params, t)
            assert 0.0 <= d <= 1.0


def test_distance_regression_and_decrease(example_params):
    d401 = half_time_distance(dataclasses.replace(example_params, tau=200), 401)
    d1601 = half_time_distance(dataclasses.replace(example_params, tau=800), 1601)
    assert abs(d401 - KS_401) < 1e-9
    assert abs(d1601 - KS_1601) < 1e-9
    assert d1601 < d401


def test_distance_small_for_usual_walk(hadamard_params):
    p = dataclasses.replace(hadamard_params, tau=1000)
    d = half_time_distance(p, 2001)
    assert abs(d - USUAL_KS_2001) < 1e-9
    assert d < 0.02


def brute_force_distance(params, dist):
    """Sup of |F - G| on a dense grid and on both sides of every jump.

    ``F`` is the collapsed lattice distribution function, rebuilt here:
    the mass on ``|x| <= sqrt(t)`` sits at 0, every other site at ``x/t``.
    """
    t = dist.time
    xs = np.arange(-t, t + 1, 2)  # values[j] is the mass at x = 2j - t
    far = np.abs(xs) > math.sqrt(t)
    jumps = xs[far] / t
    cum = np.concatenate(([0.0], np.cumsum(dist.values[far])))
    atom = float(np.sum(dist.values[~far]))
    jumps_and_zero = np.append(jumps, 0.0)
    ys = np.concatenate((np.linspace(-1.01, 1.01, 200_001),
                         np.nextafter(jumps_and_zero, -np.inf),
                         np.nextafter(jumps_and_zero, np.inf), jumps_and_zero))
    lattice = cum[np.searchsorted(jumps, ys, side="right")] + atom * (ys >= 0.0)
    limit = LimitDensity.from_params(params).cdf(ys)
    return float(np.max(np.abs(lattice - limit)))


def test_distance_is_the_exact_supremum(example_params, hadamard_params):
    # the jump-point evaluation misses no larger gap between the jumps
    walks = [example_params, hadamard_params, *sample_params(seed=54, n=4)]
    for i, base in enumerate(walks):
        for tau in (3, 40, 400):
            params = dataclasses.replace(base, tau=tau)
            dist = distribution(evolve(params, Schedule.half_time(), 2 * tau + 1 + i % 2))
            exact = rescaled_cdf_distance(params, dist)
            assert abs(brute_force_distance(params, dist) - exact) < 1e-13


@pytest.mark.parametrize("t", (1, 2, 3, 4, 9, 16, 10**4))
def test_localized_mass_window_edges(t):
    # at a perfect square t the edge sites x = +-sqrt(t) are in the window
    dist = Distribution(time=t, values=np.random.default_rng(t).random(t + 1))
    xs, ps = dist.as_arrays()
    inside = np.abs(xs) <= math.sqrt(t)
    assert localized_mass(dist) == float(np.sum(ps[inside]))
    if math.isqrt(t) ** 2 == t:
        assert xs[inside][0] == -math.isqrt(t) and xs[inside][-1] == math.isqrt(t)


def test_localized_mass_estimates_delta(example_params):
    expected = delta_mass(example_params)
    errors = []
    for tau in (500, 1000):
        p = dataclasses.replace(example_params, tau=tau)
        dist = distribution(evolve(p, Schedule.half_time(), 2 * tau + 2))
        errors.append(abs(localized_mass(dist) - expected))
    assert errors[1] < errors[0] < 0.03


def test_moment_basics(example_params):
    dist = distribution(evolve(example_params, Schedule.usual(), 40))
    assert abs(moment(dist, 0) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        moment(dist, -1)
    at_rest = distribution(initial_state(example_params))
    assert moment(at_rest, 0) == 1.0
    assert moment(at_rest, 2) == 0.0


def test_moments_stay_inside_ballistic_front():
    for params in sample_params(seed=52, n=5, tau=999):
        dist = distribution(evolve(params, Schedule.half_time(), 2000))
        for r in range(7):
            assert abs(moment(dist, r)) <= abs(params.c) ** r + 0.05


def test_moments_converge_to_limit(example_params):
    p = dataclasses.replace(example_params, tau=1000)
    dist = distribution(evolve(p, Schedule.half_time(), 2002))
    dens = LimitDensity.from_params(example_params)
    assert abs(moment(dist, 0) - dens.moment(0)) < 1e-12
    assert moment(dist, 1) == 0.0
    assert abs(moment(dist, 2) - dens.moment(2)) < 1e-3


def test_limit_moment_symmetric_weight_kills_odd_orders():
    inits = [(complex(1 / math.sqrt(2), 0), complex(0, 1 / math.sqrt(2))),
             (complex(0, 1 / math.sqrt(2)), complex(1 / math.sqrt(2), 0))]
    for alpha, beta in inits:
        for theta, theta1 in ((math.pi / 4, 0.0), (0.8, 2.1)):
            p = WalkParams(theta=theta, theta1=theta1, tau=0, alpha=alpha, beta=beta)
            for r in (1, 3, 5):
                assert abs(LimitDensity.from_params(p).moment(r)) < 1e-14


def test_limit_moment_normalization():
    for params in sample_params(seed=53, n=10):
        assert abs(LimitDensity.from_params(params).moment(0) - 1.0) < 1e-10


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind.value)
def test_sweep_matches_evolve(schedule):
    for params in sample_params(seed=54, n=4):
        for parity in ("odd", "even"):
            assert_sweep_matches_evolve(params, schedule, parity, (0, 3, 12, 40), 1e-13)


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind.value)
def test_reversed_sweep_yields_reversed_states(schedule, example_params):
    taus = list(range(41))
    for parity in ("odd", "even"):
        forward = [s.values for s in tau_sweep(example_params, schedule, parity, taus)]
        backward = [s.values for s in tau_sweep(example_params, schedule, parity, taus[::-1])]
        assert all(np.array_equal(a, b) for a, b in zip(forward, backward[::-1]))


@pytest.mark.parametrize("theta", EDGE_THETAS)
def test_sweep_at_edge_angles_to_tau_1000(theta):
    params = WalkParams(theta=theta, theta1=0.9, tau=0, alpha=0.6, beta=0.8j)
    for parity in ("odd", "even"):
        assert_sweep_matches_evolve(params, Schedule.half_time(), parity, (1000, 7), 1e-12)
    assert_sweep_matches_evolve(params, Schedule.multi({5, 17}), "even", (1000,), 1e-12)


# any angle WalkParams accepts: uniform over two turns and over a wide
# range, plus offsets from 2e-9 to 1e-3 rad around each multiple of pi/2
ANGLES = st.one_of(
    st.floats(-2 * math.pi, 2 * math.pi),
    st.floats(-1e4, 1e4),
    st.builds(lambda q, e: q * math.pi / 2 + e, st.integers(-4, 4),
              st.sampled_from((-1.0, 1.0)).flatmap(
                  lambda sign: st.floats(-8.7, -3.0).map(lambda p: sign * 10 ** p))),
)


@settings(max_examples=40, deadline=None)
@given(theta=ANGLES, theta1=st.floats(0.0, 2 * math.pi),
       tau=st.integers(0, 60), parity=st.sampled_from(("odd", "even")),
       schedule=st.sampled_from(SCHEDULES))
def test_sweep_matches_evolve_over_accepted_angles(theta, theta1, tau, parity, schedule):
    try:
        params = WalkParams(theta=theta, theta1=theta1, tau=0,
                            alpha=0.6, beta=0.8j)
    except ExcludedAngleError:
        assume(False)
    assert_sweep_matches_evolve(params, schedule, parity, (tau,), 1e-12)


def test_half_time_sweep_memory_per_grid_point():
    # The propagator keeps 49 B a grid point, the sweep's phase e^{iMw}
    # and turn e^{2iw} 32 B, the split's S, X/2 and Y/2 96 B and the DFT
    # row of x 16 B; the state being made (with its row U_{M-1} and one
    # (n,) product, 56 B) overlaps the one the loop still holds (32 B):
    # 282 B measured.  With the U_{M-1} Y/2 product formed as one (2, n)
    # array the peak was 48 B higher.
    p = WalkParams(theta=0.7, theta1=2.1, tau=0, alpha=0.6, beta=0.8j)
    n = grid_size(2 * 100_000 + 1)
    assert n == 202_500
    tracemalloc.start()
    try:
        for state in tau_sweep(p, Schedule.half_time(), "odd", [0, 5, 100_000]):
            state.mass(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 300 * n, peak / n


@pytest.mark.parametrize("schedule", (Schedule.usual(), Schedule.multi({150_000})),
                         ids=lambda s: s.kind.value)
def test_usual_and_multi_sweep_memory_per_grid_point(schedule):
    # The propagator keeps 49 B a grid point and the stretch's A and B 64
    # B.  The multi sweep builds A at t = 150 001 by one state(), which
    # peaks at 128 B a grid point, after it frees the stretch of taus 0
    # and 5: 234 B measured on both schedules, under the half-time bound.
    p = WalkParams(theta=0.7, theta1=2.1, tau=0, alpha=0.6, beta=0.8j)
    n = grid_size(2 * 100_000 + 1)
    tracemalloc.start()
    try:
        for state in tau_sweep(p, schedule, "odd", [0, 5, 100_000]):
            state.mass(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 300 * n, peak / n


@pytest.mark.parametrize("reader", ("masses", "moments"))
def test_trace_readers_memory_per_grid_point(reader):
    # The propagator keeps 49 B a grid point and the split 96 B while the
    # mass reader forms its 64 B of row products (then frees the split) or
    # the moment reader its (B, 2, n) block, B = 1 on this grid; a usual or
    # multi stretch holds 64 B where the split holds 96.
    p = WalkParams(theta=0.7, theta1=2.1, tau=0, alpha=0.6, beta=0.8j)
    n = grid_size(2 * 100_000 + 1)
    for schedule in (Schedule.half_time(), Schedule.usual(), Schedule.multi({150_000})):
        tracemalloc.start()
        try:
            if reader == "masses":
                trace_masses(p, schedule, "odd", [0, 5, 100_000], (1,))
            else:
                trace_moments(p, schedule, "odd", [0, 5, 100_000], 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 300 * n, (schedule.kind, peak / n)


#: Half-time taus whose largest t has a grid of exactly t + 1 points (t =
#: 161, n = 162; t = 80, n = 81), unsorted and repeated, across anchor blocks.
EDGE_TAUS = {"odd": (80, 3, 17, 17, 0, 79, 64, 3), "even": (39, 5, 5, 0, 16, 33, 39)}


@pytest.mark.parametrize("parity, schedule", list(SWEPT.values()), ids=list(SWEPT))
def test_trace_readers_match_the_states(parity, schedule, example_params):
    # The block readers against FourierState.mass and the moment of the
    # read-back of the swept states, at every x with |x| <= t + 2 and r =
    # 0..8.  On the track's t = n - 1 grid the DFT slot n/2 (odd) or (n -
    # 1)/2 (even) holds x = +t.
    taus = EDGE_TAUS[parity]
    t_max = 2 * max(taus) + parity_offset(parity)
    assert grid_size(t_max) == t_max + 1
    xs = range(-t_max - 2, t_max + 3)
    # near theta = 0 and pi the walk is ballistic: most mass sits at x = +-t
    ballistic = [WalkParams(theta=theta, theta1=2.1, tau=0, alpha=0.6, beta=0.8j)
                 for theta in (0.01, math.pi - 0.01)]
    for params in (example_params, *sample_params(seed=57, n=2), *ballistic):
        masses = trace_masses(params, schedule, parity, taus, xs)
        moments = np.array([trace_moments(params, schedule, parity, taus, r)
                            for r in range(9)])
        states = tau_sweep(params, schedule, parity, taus)
        for row, state in enumerate(states):
            t = state.time
            for column, x in enumerate(xs):
                want = state.mass(x)
                if abs(x) > t or (x + t) % 2:
                    assert masses[row, column] == 0.0, (t, x)
                assert abs(masses[row, column] - want) <= 1e-14, (t, x)
            dist = distribution(state.sublattice())  # what sweep_moment reads, once
            for r in range(9):
                assert abs(moments[r, row] - moment(dist, r)) <= 1e-14, (t, r)
    assert trace_masses(example_params, schedule, parity, (), (0,)).shape == (0, 1)
    assert trace_moments(example_params, schedule, parity, (), 2).shape == (0,)


def test_traces_build_one_state_per_stretch_after_a_swap(example_params, monkeypatch):
    # A usual trace forms no state() at all; a multi trace one single-shot
    # state() per stretch after a swap that its taus touch, whatever the
    # number of taus.  With swaps at 3, 10 and 40 the odd track's taus 0..80
    # (t = 1..161) touch all three stretches; taus 0..4 (t <= 9) only the
    # one after 3; taus 0 and 1 (t <= 3) none.
    calls = []
    state = Propagator.state
    monkeypatch.setattr(Propagator, "state",
                        lambda self, *args: calls.append(args[1]) or state(self, *args))
    multi = Schedule.multi({3, 10, 40})
    readers = (lambda s, taus: list(tau_sweep(example_params, s, "odd", taus)),
               lambda s, taus: trace_masses(example_params, s, "odd", taus, (1,)),
               lambda s, taus: trace_moments(example_params, s, "odd", taus, 2))
    for reader in readers:
        for schedule, taus, want in ((Schedule.usual(), range(81), []),
                                     (multi, range(81), [4, 11, 41]),
                                     (multi, range(5), [4]), (multi, (1, 0), [])):
            calls.clear()
            reader(schedule, taus)
            assert calls == want, (schedule.kind, taus)


def test_trace_moments_weigh_nothing_beyond_the_light_cone(example_params):
    # Short taus on a long trace's grid (n = 1440 here): the slots beyond
    # |x| = t hold roundoff, which (x/t)^8 would lift far above 1e-14 at t = 1.
    taus = (0, 1, 700)
    for parity in ("odd", "even"):
        moments = trace_moments(example_params, Schedule.half_time(), parity, taus, 8)
        states = tau_sweep(example_params, Schedule.half_time(), parity, taus)
        for got, state in zip(moments, states):
            assert abs(got - sweep_moment(state, 8)) <= 1e-14, state.time


@pytest.mark.parametrize("r", (3, 4, 7, 200))
def test_high_order_trace_moments_are_finite(r):
    # Beyond the cone of a short tau on a long trace's grid |x/t| reaches
    # 161 here, where an unclipped (x/t)^200 overflows to inf * 0 = NaN.
    taus = (*range(6), 80)
    eps = np.finfo(float).eps
    for params in sample_params(seed=58, n=4):
        for parity in ("odd", "even"):
            got = trace_moments(params, Schedule.half_time(), parity, taus, r)
            assert np.all(np.isfinite(got))
            for tau, value in zip(taus, got):
                t = 2 * tau + parity_offset(parity)
                walk = dataclasses.replace(params, tau=tau)
                want = moment(distribution(spectral_evolve(walk, Schedule.half_time(), t)), r)
                assert abs(value - want) <= 4 * t * eps, (parity, t)


def test_sweep_keeps_order_and_repeats(example_params):
    # Within each reader, a value's bits depend on its tau and the grid
    # alone; the state's DFT row and the block's matrix product add their
    # terms in different orders, so the two readers agree to roundoff.
    def swept(taus):
        states = tau_sweep(example_params, Schedule.half_time(), "odd", taus)
        return [state.mass(1) for state in states]

    taus = (9, 2, 9, 0)
    states, ordered = swept(taus), swept((0, 2, 9))
    assert states[0] == states[2]
    assert states[1] == ordered[1] and states[3] == ordered[0]
    trace = mass_trace(example_params, 1, "odd", taus)
    ordered = mass_trace(example_params, 1, "odd", (0, 2, 9))
    assert trace.taus == taus and trace.values[0] == trace.values[2]
    assert trace.values[1] == ordered.values[1] and trace.values[3] == ordered.values[0]
    assert max(abs(a - b) for a, b in zip(trace.values, states)) <= 1e-15
    assert mass_trace(example_params, 1, "odd", ()) == ((), ())
    assert list(tau_sweep(example_params, Schedule.half_time(), "odd", ())) == []


def test_sweep_validation(example_params, monkeypatch):
    schedule = Schedule.half_time()
    with pytest.raises(ValueError):
        tau_sweep(example_params, schedule, "both", (1,))
    with pytest.raises(ValueError):
        tau_sweep(example_params, schedule, "odd", (3, -1))
    readers = (lambda taus: [state.mass(1) for state in
                             tau_sweep(example_params, schedule, "odd", taus)],
               lambda taus: trace_masses(example_params, schedule, "odd", taus, (1,)),
               lambda taus: trace_moments(example_params, schedule, "odd", taus, 2))
    for reader in readers:
        # a tau is an integer, not something int() would truncate
        for bad in (2.9, 2.0, True, np.bool_(False), np.float64(3.0), "3"):
            with pytest.raises(ValueError, match="tau must be an integer"):
                reader((1, bad))
        assert np.array_equal(reader((np.int64(2), 3)), reader((2, 3)))
    monkeypatch.setenv("QWALK_MAX_T", "10")
    with pytest.raises(ValueError, match="cap"):
        tau_sweep(example_params, schedule, "odd", (1, 5))
    tau_sweep(example_params, schedule, "odd", (1, 4))
    state, = tau_sweep(example_params, schedule, "even", (2,))
    with pytest.raises(ValueError):
        sweep_moment(state, -1)
    assert state.mass(1) == 0.0  # wrong parity
    assert state.mass(8) == 0.0  # beyond the light cone


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind.value)
def test_fourier_moment_equals_the_direct_dft_rows(example_params, schedule):
    # the FFT read-back against one DFT row per site, on a sweep's shared grid
    taus = (0, 1, 4, 30, 7)
    for parity in ("odd", "even"):
        for state in tau_sweep(example_params, schedule, parity, taus):
            for r in (0, 1, 2, 3, 8):
                assert abs(sweep_moment(state, r) - rows_moment(state, r)) < 1e-14
