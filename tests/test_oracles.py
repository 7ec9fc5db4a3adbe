import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folnersys import (
    FolnerSpec, GroupSpec, MarkovSystem, PeriodicSystem, RotationSystem,
    density_at, verify_correspondence,
)
from folnersys.sets import SCALE, OrbitSet

Z = GroupSpec("Z")
FZ = FolnerSpec(Z, "interval", start=0)


def test_rotation_exact_measure_single():
    r = RotationSystem("golden", Fraction(1, 2))
    assert r.exact_measure([0]) == Fraction(SCALE // 2, SCALE)
    assert r.exact_measure([5]) == Fraction(SCALE // 2, SCALE)  # invariance


def test_rotation_exact_measure_pair_closed_form():
    # A = [0, 1/2), shift by 1: measure of [0,1/2) meet ([0,1/2) - alpha)
    # equals 1/2 - frac(alpha) when frac(alpha) <= 1/2, here alpha ~ 0.618
    # so overlap = alpha - 1/2 ~ 0.118
    r = RotationSystem("golden", Fraction(1, 2))
    expected = (r.alpha_fp - SCALE // 2) / SCALE
    assert abs(float(r.exact_measure([0, 1])) - expected) < 1e-30


def test_rotation_measure_monotone_and_bounded():
    r = RotationSystem("sqrt2", Fraction(1, 3))
    m1 = r.exact_measure([0])
    m2 = r.exact_measure([0, 1])
    m3 = r.exact_measure([0, 1, 2])
    # beta is the nearest grid point to 1/3, so m1 is beta_fp / 2^128 exactly
    assert 0 <= m3 <= m2 <= m1 == Fraction(r.beta_fp, SCALE)
    assert abs(m1 - Fraction(1, 3)) < Fraction(1, SCALE)


def test_rotation_orbit_matches_membership():
    r = RotationSystem("golden", Fraction(1, 2))
    orbit = r.orbit_set(-10, 50, Fraction(1, 3))
    x0_fp = round(Fraction(1, 3) * SCALE)
    for n in range(-10, 50):
        expected = (x0_fp + n * r.alpha_fp) % SCALE < r.beta_fp
        assert orbit.member(n) == expected


def test_periodic_exact_measure():
    p = PeriodicSystem([1, 0, 1, 1])
    assert p.exact_measure([0]) == Fraction(3, 4)
    assert p.exact_measure([0, 1]) == Fraction(2, 4)  # j=2 and j=3 (wrap)
    assert p.exact_measure([0, 2]) == Fraction(2, 4)
    assert p.exact_measure([0, 1, 2]) == Fraction(1, 4)  # j=2 only


def test_periodic_orbit_and_density():
    p = PeriodicSystem([1, 0, 1, 1])
    orbit = p.orbit_set(0, 400, 1)
    assert orbit.member(0) == False  # pattern[1]
    assert density_at(orbit, (0,), FZ, 400) == Fraction(3, 4)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 40),
       x0=st.one_of(st.integers(-50, 50), st.integers(2 ** 62 - 50, 2 ** 62 + 50)),
       lo=st.integers(-300, 300), n=st.integers(0, 400))
@example(seed=0, p=7, x0=2 ** 62 - 3, lo=-123, n=200)
@example(seed=1, p=5, x0=2 ** 62, lo=-5, n=0)
def test_periodic_orbit_tiles_its_pattern(seed, p, x0, lo, n):
    pattern = np.random.default_rng(seed).integers(0, 2, p)
    orbit = PeriodicSystem(pattern).orbit_set(lo, lo + n, x0)
    assert orbit.lo == lo and len(orbit.mask) == n
    assert orbit.mask.tolist() == [bool(pattern[(x0 + k) % p]) for k in range(lo, lo + n)]


def test_markov_stationary_vector():
    m = MarkovSystem([[0.7, 0.3], [0.4, 0.6]], accept=[1])
    np.testing.assert_allclose(m.pi, [4 / 7, 3 / 7], atol=1e-12)
    assert abs(m.exact_measure([0]) - 3 / 7) < 1e-12


def test_markov_exact_measure_pairs():
    m = MarkovSystem([[0.7, 0.3], [0.4, 0.6]], accept=[1])
    # P(X_0=1, X_1=1) = pi_1 * P[1,1]
    assert abs(m.exact_measure([0, 1]) - (3 / 7) * 0.6) < 1e-12
    # gap 2 bridges with P^2
    P2 = np.linalg.matrix_power(np.array([[0.7, 0.3], [0.4, 0.6]]), 2)
    assert abs(m.exact_measure([0, 2]) - (3 / 7) * P2[1, 1]) < 1e-12
    # shift invariance
    assert abs(m.exact_measure([3, 4]) - m.exact_measure([0, 1])) < 1e-15


def test_markov_validation():
    with pytest.raises(ValueError):
        MarkovSystem([[0.5, 0.4], [0.5, 0.5]], accept=[0])
    with pytest.raises(ValueError):
        MarkovSystem([[0.5, 0.5], [0.5, 0.5]], accept=[2])
    with pytest.raises(ValueError):
        MarkovSystem([[0.5, 0.5], [0.5, 0.5]], accept=[0], pi=[0.9, 0.1])


def test_markov_orbit_deterministic():
    m = MarkovSystem([[0.7, 0.3], [0.4, 0.6]], accept=[1])
    a = m.orbit_set(0, 1000, 5)
    b = m.orbit_set(0, 1000, 5)
    np.testing.assert_array_equal(a.mask, b.mask)
    c = m.orbit_set(0, 1000, 6)
    assert not np.array_equal(a.mask, c.mask)


def markov_states_loop(m, n, seed):
    """One searchsorted per step: the oracle for `MarkovSystem.states`."""
    u = np.random.default_rng(seed).random(n)
    cum_P = np.cumsum(m.P, axis=1)
    states = np.empty(n, dtype=np.int64)
    if n == 0:
        return states
    s = states[0] = int(np.searchsorted(np.cumsum(m.pi), u[0]))
    for i in range(1, n):
        s = states[i] = int(np.searchsorted(cum_P[s], u[i]))
    return states


def random_chain(k):
    P = np.random.default_rng(k).random((k, k)) + 0.05
    return MarkovSystem(P / P.sum(axis=1, keepdims=True), accept=[0, k - 1])


@pytest.mark.parametrize("k", [2, 3, 5, 300])
def test_markov_states_match_step_by_step_reference(k):
    m = random_chain(k)
    lengths = [0, 1, 2, 3, 1000] + [2 ** j + e for j in range(1, 13) for e in (-1, 1)]
    for n in lengths:
        for seed in (0, 17):
            np.testing.assert_array_equal(m.states(n, seed), markov_states_loop(m, n, seed))
    orbit = m.orbit_set(-5, 995, 3)
    np.testing.assert_array_equal(orbit.mask, m.accepted[markov_states_loop(m, 1000, 3)])
    if k == 300:  # states past 255 do not fit in uint8
        assert m.states(1000, 0).max() > 255


@pytest.mark.parametrize("k", [2, 300])
def test_markov_states_memory(k):
    # the uniforms, the states and the k x k cumulative table: no n x k table of maps
    m, n = random_chain(k), 200_000
    m.states(n, 1)  # numpy allocates caches of its own at a first call
    tracemalloc.start()
    try:
        m.states(n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * n + 48 * k * k


def sigma_reference(orbit, shifts):
    """The float64 batch means the sigma bound was first written with."""
    hs = sorted(set(shifts))
    usable = len(orbit.mask) - (hs[-1] - hs[0])
    vals = np.ones(usable, dtype=bool)
    for h in hs:
        vals &= orbit.mask[h - hs[0]: h - hs[0] + usable]
    x = vals.astype(np.float64)
    bs = usable // 32
    means = x[: bs * 32].reshape(32, bs).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(32))


def test_sigma_bound_matches_float_batch_means():
    m, rng = random_chain(2), np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(40, 5000))
        orbit = OrbitSet(0, rng.random(n) < rng.random(), "test", "test")
        shifts = sorted(set(rng.integers(0, 8, size=int(rng.integers(1, 4))).tolist()))
        assert m.sigma_bound(orbit, shifts) == sigma_reference(orbit, shifts)


def test_verify_correspondence_rotation():
    r = RotationSystem("golden", Fraction(1, 2))
    report = verify_correspondence(
        r, [(0,), (0, 1), (0, 1, 2)], FZ, [10**4, 10**5])
    assert report.passed
    for row in report.rows:
        assert row.deviation <= row.tolerance


def test_verify_correspondence_periodic_exact():
    p = PeriodicSystem([1, 1, 0])
    report = verify_correspondence(p, [(0,), (0, 1)], FZ, [300, 3000])
    assert report.passed
    for row in report.rows:
        assert row.deviation == 0.0 and row.tolerance == 0.0


def test_verify_correspondence_markov():
    m = MarkovSystem([[0.7, 0.3], [0.4, 0.6]], accept=[1])
    report = verify_correspondence(m, [(0,), (0, 1), (0, 2)], FZ, [10**4], start=42)
    assert report.passed
    d = report.to_dict()
    assert d["passed"] and len(d["rows"]) == 3


def test_verify_correspondence_requires_z():
    r = RotationSystem("golden", Fraction(1, 2))
    fh = FolnerSpec(GroupSpec("H3"), "heisenberg_box")
    with pytest.raises(ValueError):
        verify_correspondence(r, [(0,)], fh, [8])


def test_verify_rows_match_density_at():
    """Each verify row's densities are `density_at` of its query on the orbit, at each
    index: rotations with at most 16 and with more distinct shifts (the histogram and
    the list-by-list counts), periodic and Markov orbits."""
    f = FolnerSpec(Z, "interval", start=-7)
    schedule = [50, 301, 1000]
    cases = [
        (RotationSystem("golden", Fraction(2, 5)), [(0,), (0, 1, 5), (-3, 2)], Fraction(1, 7)),
        (RotationSystem("sqrt2", Fraction(1, 3)), [(k, k + 9) for k in range(-4, 6)], 0),
        (PeriodicSystem([1, 0, 1, 1, 0]), [(0,), (0, 1), (2, 4, 7)], 3),
        (MarkovSystem([[0.7, 0.3], [0.4, 0.6]], accept=[1]), [(0,), (0, 1), (0, 2)], 11),
    ]
    for system, queries, start in cases:
        report = verify_correspondence(system, queries, f, schedule, start)
        lo = f.start + min(min(q) for q in queries)
        hi = f.start + max(schedule) + max(max(q) for q in queries)
        orbit = system.orbit_set(lo, hi, start)
        assert [row.query for row in report.rows] == queries
        for q, row in zip(queries, report.rows):
            assert row.empirical == {N: density_at(orbit, q, f, N) for N in schedule}
