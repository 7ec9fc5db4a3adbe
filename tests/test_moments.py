import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from folnersys import (
    AveragingScheme, ComponentCongruence, Congruence, DyadicBlocks, ExponentialFn, FolnerSpec,
    GroupSpec, IndicatorFn, NormalizerRule, ProductFn, RandomDiskFn,
    WeightRule, accordance_check, density_at, exponential_oracle,
    scheme_normalization, weighted_moment,
)
from folnersys.moments import moment_exact

Z = GroupSpec("Z")
FZ1 = FolnerSpec(Z, "interval", start=1)
UNIT = AveragingScheme(FZ1)


def test_scheme_normalization_trivial():
    assert scheme_normalization(UNIT, 123) == 1
    # the unit weight counts elements, not coordinates, on multi-coordinate groups
    for f in (FolnerSpec(GroupSpec("H3"), "heisenberg_box"), FolnerSpec(GroupSpec("Zd", 2), "box", anchor=(0, 0))):
        assert scheme_normalization(AveragingScheme(f), 4) == 1
    s = AveragingScheme(FZ1, WeightRule("custom", table=tuple(
        (n, 2) for n in range(1, 51))), NormalizerRule("const", c=2))
    assert scheme_normalization(s, 50) == 1


def test_scheme_normalization_linear():
    s = AveragingScheme(FZ1, WeightRule("linear"), NormalizerRule("linear_mean"))
    for N in (1, 2, 7, 100, 12345):
        assert scheme_normalization(s, N) == 1
    # a(n) = n is a weight only on nonnegative points
    s = AveragingScheme(FolnerSpec(Z, "interval", start=-5), s.weight, s.normalizer)
    with pytest.raises(ValueError, match="nonnegative window"):
        scheme_normalization(s, 11)


def test_direct_evaluation_matches_range_gather():
    def gather(fn, n):  # the range-and-gather oracle: evaluate [min, max], index [n - min]
        lo, hi = int(n.min()), int(n.max()) + 1
        if isinstance(fn, ExponentialFn):
            vals = np.exp(2j * np.pi * fn.theta * np.arange(lo, hi, dtype=np.float64))
            return vals[n - lo]
        x = np.arange(lo, hi, dtype=np.int64).astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        x = x * np.uint64(fn.seed * 2 + 1)
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            x = (x ^ (x >> np.uint64(shift))) * np.uint64(mult)
        x = x ^ (x >> np.uint64(31))
        r = (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        phase = (x & np.uint64((1 << 53) - 1)).astype(np.float64) / float(1 << 53)
        return (np.sqrt(r) * np.exp(2j * np.pi * phase))[n - lo]

    rng = np.random.default_rng(5)
    fns = [ExponentialFn(0.3), ExponentialFn(0.123456789), RandomDiskFn(1), RandomDiskFn(7)]
    for base in (1, -12345, 10**15):
        # contiguous, then sparse and unsorted, with a repeated point
        for n in (np.arange(base, base + 3000, dtype=np.int64),
                  base + rng.integers(-5000, 5000, size=400)):
            n = np.append(n, n[0])
            for fn in fns:
                assert fn.eval_coords(Z, n.reshape(1, -1)).tobytes() == gather(fn, n).tobytes()

    # exact weight sums against brute force, including a window from 2^62 where
    # an int64 sum of the points would wrap
    for start, N in ((0, 1), (1, 1000), (7, 333), (1 << 62, 64)):
        f = FolnerSpec(Z, "interval", start=start)
        pts = range(start, start + N)
        s = AveragingScheme(f, WeightRule("linear"), NormalizerRule("linear_mean"))
        assert scheme_normalization(s, N) == sum(Fraction(n) for n in pts) / (
            Fraction(N + 1, 2) * N)
        table = tuple((n, Fraction(n % 5 + 1, 3) if n % 2 else n % 7) for n in pts)
        s = AveragingScheme(f, WeightRule("custom", table=table), NormalizerRule("const", c=3))
        assert scheme_normalization(s, N) == sum(Fraction(v) for _, v in table) / (3 * N)


def test_scheme_normalization_degenerate():
    s = AveragingScheme(FZ1, WeightRule("one"), NormalizerRule("const", c=0))
    with pytest.raises(ValueError, match="degenerate normalizer"):
        scheme_normalization(s, 10)


def test_indicator_reduction_exact():
    evens = Congruence(0, 2)
    family = [IndicatorFn(evens)]
    q = [(1, False, 0)]
    assert weighted_moment(family, q, UNIT, 1000) == 0.5
    assert moment_exact(family, q, UNIT, 1000) == density_at(evens, (0,), FZ1, 1000)
    q2 = [(1, False, 0), (1, False, 3)]
    assert moment_exact(family, q2, UNIT, 777) == density_at(evens, (0, 3), FZ1, 777)

    # two different sets, on the Z window path and the H3 coordinate path
    h3 = GroupSpec("H3")
    cases = [
        ([evens, DyadicBlocks()], [(1, False, 0), (2, False, 1), (1, False, 4)], UNIT, 90),
        ([ComponentCongruence(h3, [(0, 2), None, None]),
          ComponentCongruence(h3, [None, (1, 3), (0, 2)])],
         [(1, False, (0, 0, 0)), (2, False, (1, 0, 1))],
         AveragingScheme(FolnerSpec(h3, "heisenberg_box")), 3),
    ]
    for sets, q, s, N in cases:
        brute = sum(
            1 for h in s.folner.elements(N)
            if all(sets[i - 1].member(s.folner.group.mul(g, h)) for i, _, g in q)
        )
        family = [IndicatorFn(E) for E in sets]
        assert moment_exact(family, q, s, N) == Fraction(brute, s.folner.size(N))


def test_indicator_reduction_skips_weighted():
    evens = Congruence(0, 2)
    s = AveragingScheme(FZ1, WeightRule("linear"), NormalizerRule("linear_mean"))
    assert moment_exact([IndicatorFn(evens)], [(1, False, 0)], s, 100) is None


def test_exponential_cancellation():
    theta = 0.2137
    f = ExponentialFn(theta)
    q = [(1, False, 0), (1, True, 3)]
    v = weighted_moment([f], q, UNIT, 10**5)
    assert abs(v - cmath.exp(-2j * math.pi * theta * 3)) < 1e-10


def test_exponential_equidistribution():
    theta = math.sqrt(2) - 1
    N = 10**5
    v = weighted_moment([ExponentialFn(theta)], [(1, False, 0)], UNIT, N)
    bound = 2 / (N * abs(1 - cmath.exp(2j * math.pi * theta)))
    assert abs(v) <= bound + 1e-12


def test_modulus_bound():
    rng = np.random.default_rng(3)
    fam = [RandomDiskFn(1), ExponentialFn(0.31), IndicatorFn(Congruence(1, 4))]
    for _ in range(10):
        q = [
            (int(rng.integers(1, 4)), bool(rng.integers(2)), int(rng.integers(0, 9)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        v = weighted_moment(fam, q, UNIT, 512)
        assert abs(v) <= float(scheme_normalization(UNIT, 512)) + 1e-12


def test_conjugation_symmetry():
    fam = [RandomDiskFn(9), ExponentialFn(0.77)]
    q = [(1, False, 0), (2, True, 2), (1, False, 5)]
    qbar = [(i, not c, g) for i, c, g in q]
    a = weighted_moment(fam, q, UNIT, 2048)
    b = weighted_moment(fam, qbar, UNIT, 2048)
    assert abs(a.conjugate() - b) < 1e-12


def test_disk_constraint():
    for fn in (RandomDiskFn(4), ExponentialFn(0.123),
               ProductFn(RandomDiskFn(4), ExponentialFn(0.5))):
        vals = fn.eval_coords(Z, np.arange(-100, 100, dtype=np.int64).reshape(1, -1))
        assert np.all(np.abs(vals) <= 1 + 1e-12)


def test_query_validation():
    fam = [ExponentialFn(0.1)]
    with pytest.raises(ValueError):
        weighted_moment(fam, [], UNIT, 10)
    with pytest.raises(ValueError, match="function index 2 out of range"):
        weighted_moment(fam, [(2, False, 0)], UNIT, 10)


def test_exponential_oracle_branches():
    theta = 0.3941
    q = [(1, False, 0), (1, True, 4)]
    assert abs(exponential_oracle([theta], q, UNIT)
               - cmath.exp(-2j * math.pi * theta * 4)) < 1e-12
    assert exponential_oracle([1.0], [(1, False, 7)], UNIT) == 1
    assert exponential_oracle([math.sqrt(2) - 1], [(1, False, 0)], UNIT) == 0


def test_exponential_oracle_requires_unit_scheme():
    s = AveragingScheme(FZ1, WeightRule("linear"), NormalizerRule("linear_mean"))
    with pytest.raises(ValueError, match="oracle undefined"):
        exponential_oracle([0.5], [(1, False, 0)], s)


def test_accordance_exponential():
    rows = accordance_check(
        [ExponentialFn(0.137)], [[(1, False, 0), (1, True, 2)]],
        UNIT, [10**3, 10**4, 10**5], eps=0.01)
    assert all(r.accordant for r in rows)
    # every conjugation pattern of the pair was checked
    assert set(rows[0].oscillations) == {
        (False, False), (False, True), (True, False), (True, True)}


def test_accordance_dyadic_fails():
    rows = accordance_check(
        [IndicatorFn(DyadicBlocks())], [[(1, False, 0)]],
        UNIT, [1 << k for k in range(6, 15)], eps=0.05)
    assert not rows[0].accordant
    assert max(rows[0].oscillations.values()) > 0.25


def test_accordance_constant_function():
    rows = accordance_check(
        [ExponentialFn(0.0)], [[(1, False, 0)]], UNIT, [100, 1000], eps=1e-9)
    assert rows[0].accordant
