import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from folnersys import (
    AveragingScheme, Bitmask, ComponentCongruence, Congruence, DyadicBlocks, ExponentialFn,
    FolnerSpec, GroupSpec, IndicatorFn, NormalizerRule, ProductFn, RandomDiskFn,
    WeightRule, accordance_check, density_at, exponential_oracle,
    scheme_normalization, weighted_moment,
)
from folnersys.errors import CapExceededError, WindowExceededError
from folnersys.moments import (
    CONJ_CHUNK, ConjFn, ProductBuffer, _interval_product, moment_exact, moment_table,
)

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


def _per_factor_moment(family, query, s, N):
    """The per-factor oracle: each factor evaluated on its own translated window, the
    product formed factor by factor, then one numpy sum."""
    exact = moment_exact(family, query, s, N)
    if exact is not None:
        return complex(exact)
    group, coords = s.folner.group, s.folner.coords(N)
    prod = None
    for i, conj, g in query:
        fn = ConjFn(family[i - 1]) if conj else family[i - 1]
        vals = fn.eval_coords(group, group.translate_left(g, coords))
        prod = vals if prod is None else prod * vals
    if not s.weight.is_unit:
        prod = prod * s.weight.values(coords.reshape(-1))
    return complex(np.sum(prod)) / (float(s.normalizer.value(N)) * s.folner.size(N))


def test_window_moments_match_per_factor_oracle_bit_for_bit():
    def make_family():
        return [ExponentialFn(0.123456789), RandomDiskFn(11), IndicatorFn(Congruence(1, 3)),
                ProductFn(ExponentialFn(0.3), IndicatorFn(DyadicBlocks()))]

    weights = [(WeightRule("one"), NormalizerRule("one")),
               (WeightRule("linear"), NormalizerRule("linear_mean")),
               (WeightRule("exp_decay", rate=1e-3), NormalizerRule("const", c=2))]
    shifts = [0, 5, -3, 13]
    for start in (1, -12345, 10**15):
        n = np.arange(start - 9, start + 1000, dtype=np.int64)
        assert weights[2][0].values(n).tobytes() == np.exp(
            -1e-3 * np.abs(n).astype(np.float64)).tobytes()
        f = FolnerSpec(Z, "interval", start=start)
        family = make_family()
        queries = [[(i, c, shifts[i - 1])] for i in range(1, 5) for c in (False, True)]
        # every pair and conjugation pattern, a conjugated indicator first among them
        queries += [[(i, ci, shifts[i - 1]), (j, cj, shifts[j - 1] + 2)]
                    for i in range(1, 5) for j in range(1, 5)
                    for ci, cj in itertools.product((False, True), repeat=2)]
        queries += [[(3, c1, 1), (1, c2, 7), (2, c3, -6)]
                    for c1, c2, c3 in itertools.product((False, True), repeat=3)]
        for weight, norm in weights:
            s = AveragingScheme(f, weight, norm)
            if weight.kind == "linear" and start < 0:
                continue
            for N in (1, 203, 1000):
                for q in queries:
                    value = weighted_moment(family, q, s, N)
                    oracle = _per_factor_moment(make_family(), q, s, N)
                    assert np.array([value]).tobytes() == np.array([oracle]).tobytes(), (
                        start, q, N, value, oracle)
        # a second identical pass reads the same bytes: no window was written to
        windows = [fn._cache.copy() for fn in family if fn._cache is not None]
        again = [weighted_moment(family, q, AveragingScheme(f), 1000) for q in queries]
        assert again == [weighted_moment(family, q, AveragingScheme(f), 1000) for q in queries]
        assert [fn._cache.tobytes() for fn in family if fn._cache is not None] == [
            w.tobytes() for w in windows]


def test_function_window_grown_both_ways_slices_like_direct_evaluation():
    for make in (lambda: ExponentialFn(0.123456789), lambda: RandomDiskFn(3)):
        for base in (1, -12345, 10**15):
            fn = make()
            fn.window(base, base + 100)
            fn.window(base - 37, base + 1000 + 45)  # grown on both sides
            assert fn._cache_lo == base - 37 and len(fn._cache) == 1000 + 45 + 37
            for off in (1, 3, 5, 7, 9, 11, 13, 17, 19, 23, 29, 31, 37):
                for m in (1, 7, 9, 15, 17, 33, 1000):
                    lo = base - 37 + off
                    n = np.arange(lo, lo + m, dtype=np.int64)
                    assert fn.window(lo, lo + m).tobytes() == make().at(n).tobytes()
            # a disjoint window replaces the cache; no gap is filled
            far = base + 10**12
            assert fn.window(far, far + 5).tobytes() == make().at(
                np.arange(far, far + 5, dtype=np.int64)).tobytes()
            assert fn._cache_lo == far and len(fn._cache) == 5


def test_far_apart_shifts_fill_no_gap(monkeypatch):
    """A function's window is reserved over the hull of its factor windows only when
    they chain into one interval; shifts further apart than N are each filled on
    their own, so no window spans the gap between them."""
    lengths = []
    for cls in (ExponentialFn, RandomDiskFn):
        def recorded(self, n, _at=cls.at):
            lengths.append(len(n))
            return _at(self, n)
        monkeypatch.setattr(cls, "at", recorded)

    def make_family():
        return [ExponentialFn(0.3), RandomDiskFn(5)]

    N, far = 1000, 10**6  # filling this gap would build a window of 10^6 points
    queries = [[(1, False, 0), (2, False, 0)], [(1, True, far), (2, False, far + 7)],
               [(2, True, 500), (1, False, 0)]]
    family = make_family()
    values = moment_table(family, queries, UNIT, [N])
    assert lengths and max(lengths) <= N and all(len(fn._cache) <= 2 * N for fn in family)
    for q, (value,) in zip(queries, values):
        assert value == _per_factor_moment(make_family(), q, UNIT, N)
    lengths.clear()
    accordance_check(make_family(), [[(1, False, 0), (2, False, far)]], UNIT, [10, N], 1.0)
    assert lengths and max(lengths) <= N
    # factor windows that chain are filled once each, over their hull
    lengths.clear()
    family = make_family()
    moment_table(family, [[(1, False, 0), (2, False, 0)], [(1, False, N), (2, True, 3)]],
                 UNIT, [N])
    assert lengths == [2 * N, N + 3]


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


def test_indicator_moments_off_z_are_counts():
    # off Z a family holds indicators only, under the unit weight, and a moment is the
    # count of its intersection divided as on Z; a conjugated indicator is itself
    h3, z2 = GroupSpec("H3"), GroupSpec("Zd", 2)
    cases = [(FolnerSpec(h3, "heisenberg_box"),
              [ComponentCongruence(h3, [(0, 2), None, None]),
               ComponentCongruence(h3, [None, (1, 3), (0, 2)])],
              [(0, 0, 0), (1, 0, 1), (-1, 2, -3)]),
             (FolnerSpec(z2, "box", anchor=(-3, 2)),
              [ComponentCongruence(z2, [(0, 2), None]), ComponentCongruence(z2, [(1, 3), (2, 5)])],
              [(0, 0), (1, -1), (4, 2)])]
    norms = [NormalizerRule("one"), NormalizerRule("const", c=3), NormalizerRule("const", c=0.7),
             NormalizerRule("linear_mean"),
             NormalizerRule("custom", table=((1, 2), (2, Fraction(1, 3)), (3, 0.7)))]
    for f, sets, shifts in cases:
        family = [IndicatorFn(E) for E in sets]
        queries = [[(i, c, g)] for i in (1, 2) for c in (False, True) for g in shifts]
        queries += [[(1, c1, shifts[0]), (2, c2, shifts[1]), (2, c1, shifts[2])]
                    for c1, c2 in itertools.product((False, True), repeat=2)]
        for norm, N, q in itertools.product(norms, (1, 2, 3), queries):
            count = sum(1 for h in f.elements(N)
                        if all(sets[i - 1].member(f.group.mul(g, h)) for i, _, g in q))
            expected = complex(count) / (float(norm.value(N)) * f.size(N))
            value = weighted_moment(family, q, AveragingScheme(f, normalizer=norm), N)
            assert repr(value) == repr(expected), (f.shape, norm, N, q)


def test_conjugated_indicator_moments_on_z_keep_their_values():
    # the reprs computed when conjugated indicators still took the float path
    f = FolnerSpec(Z, "interval", start=-7)
    family = [IndicatorFn(Congruence(1, 3)), IndicatorFn(DyadicBlocks())]
    queries = [[(1, True, 0)], [(2, True, 5)], [(1, True, 0), (2, False, 3)],
               [(1, True, 0), (2, True, 3)]]
    pinned = {
        "one": [["0j", "(0.3333333333333333+0j)", "(0.333+0j)", "(0.3333282470703125+0j)"],
                ["0j", "(0.4444444444444444+0j)", "(0.341+0j)", "(0.3333282470703125+0j)"],
                ["0j", "(0.2222222222222222+0j)", "(0.117+0j)", "(0.1111907958984375+0j)"],
                ["0j", "(0.2222222222222222+0j)", "(0.117+0j)", "(0.1111907958984375+0j)"]],
        "const": [["0j", "(0.1111111111111111+0j)", "(0.111+0j)", "(0.11110941569010417+0j)"],
                  ["0j", "(0.14814814814814814+0j)", "(0.11366666666666667+0j)",
                   "(0.11110941569010417+0j)"],
                  ["0j", "(0.07407407407407407+0j)", "(0.039+0j)", "(0.0370635986328125+0j)"],
                  ["0j", "(0.07407407407407407+0j)", "(0.039+0j)", "(0.0370635986328125+0j)"]],
    }
    for norm in (NormalizerRule("one"), NormalizerRule("const", c=3)):
        s = AveragingScheme(f, normalizer=norm)
        assert [[repr(weighted_moment(family, q, s, N)) for N in (1, 9, 1000, 65536)]
                for q in queries] == pinned[norm.kind]
    assert moment_exact(family, queries[3], AveragingScheme(f), 1000) == Fraction(117, 1000)


def test_non_indicators_refused_off_z():
    h3 = GroupSpec("H3")
    f = FolnerSpec(h3, "heisenberg_box")
    E = ComponentCongruence(h3, [(0, 2), None, None])
    e = (0, 0, 0)
    decay = AveragingScheme(f, WeightRule("exp_decay", rate=0.1))
    for family, s, message in [
        ([ExponentialFn(0.3)], AveragingScheme(f), "ExponentialFn is defined on Z only"),
        # the function is refused before the weight
        ([IndicatorFn(E), RandomDiskFn(3)], decay, "RandomDiskFn is defined on Z only"),
        ([IndicatorFn(E)], decay, "exp_decay weight is defined on Z only"),
        # no config builds a product, which off Z is a non-indicator like any other
        ([ProductFn(IndicatorFn(E), IndicatorFn(E))], AveragingScheme(f),
         "ProductFn is defined on Z only"),
    ]:
        with pytest.raises(ValueError, match=message):
            weighted_moment(family, [(i + 1, True, e) for i in range(len(family))], s, 2)


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


def test_accordance_refuses_its_variant_count_before_listing_them(monkeypatch):
    # 2^40 conjugation patterns of one query were listed by itertools.product
    def product(*a, **kw):
        raise AssertionError("patterns listed before the cap check")

    monkeypatch.setattr(itertools, "product", product)
    query = [(1, False, g) for g in range(40)]
    with pytest.raises(CapExceededError, match="conjugation variant count 1099511627776"):
        accordance_check([ExponentialFn(0.137)], [query], UNIT, [10, 100], eps=0.01,
                         conj_depth=40)


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


def test_accordance_nan_oscillation_is_not_accordant():
    # exp(-inf * 0) is NaN, so every moment and oscillation is NaN, and NaN > eps
    # is false: the row read as accordant
    s = AveragingScheme(FolnerSpec(Z, "interval", start=0), WeightRule("exp_decay", math.inf))
    with np.errstate(invalid="ignore"):
        rows = accordance_check([ExponentialFn(0.137)], [[(1, False, 0)]], s, [100, 1000],
                                eps=0.01, conj_depth=0)
    assert all(math.isnan(osc) for osc in rows[0].oscillations.values())
    assert not rows[0].accordant


def test_moment_table_reads_each_index_as_a_prefix_bit_for_bit():
    """A table builds each query's product once over F_M and reads every N as a prefix
    of it; each value equals, by repr (the sign of zero too), the one built over F_N
    alone, on either side of every conjugate slice boundary."""
    C = CONJ_CHUNK
    family = [ExponentialFn(0.123456789), RandomDiskFn(11), IndicatorFn(Congruence(1, 3))]
    # conjugated factors first, in the middle and last; indicator and complex factors
    queries = [[(1, True, 0)], [(3, True, 2)], [(3, False, 0)],
               [(1, True, 0), (2, False, 3)], [(2, False, 1), (3, True, 4), (1, False, 0)],
               [(3, False, 0), (1, False, 5), (2, True, 2)], [(3, True, 1), (3, True, 6)],
               [(3, False, 0), (3, False, 1)]]
    schedules = [[2], [9, 1, 8, 7, 2], [1, 2, C - 1, C, C + 1], [7, C + 1, 2 * C + 3, 8]]
    for start, weight, norm in [
        (0, WeightRule("one"), NormalizerRule("const", c=2)),
        (0, WeightRule("linear"), NormalizerRule("linear_mean")),
        (-40000, WeightRule("exp_decay", rate=1e-4), NormalizerRule("one")),
        (2 ** 62, WeightRule("exp_decay", rate=1e-3), NormalizerRule("one")),
        (2 ** 62, WeightRule("linear"), NormalizerRule("const", c=3)),
        (2 ** 62, WeightRule("custom", table=tuple(
            (2 ** 62 + k, k % 5) for k in range(2 * C + 3))), NormalizerRule("one")),
        (-40000, WeightRule("custom", table=tuple(
            (-40000 + k, 1 / (1 + k % 7)) for k in range(2 * C + 3))), NormalizerRule("one")),
    ]:
        s = AveragingScheme(FolnerSpec(Z, "interval", start=start), weight, norm)
        for schedule in schedules:
            table = moment_table(family, queries, s, schedule)
            alone = [[weighted_moment(family, q, s, N) for N in schedule] for q in queries]
            assert repr(table) == repr(alone), (start, weight.kind, schedule)
            # a sum can absorb one point's last bit: the products agree byte for byte
            work = ProductBuffer(s, max(schedule))
            for q, N in itertools.product(queries, [N for N in schedule if N > 1]):
                prod = _interval_product(family, q, s.folner, N)
                if not weight.is_unit:
                    prod *= weight.values(np.arange(start, start + N, dtype=np.int64))
                assert work.product(family, q, N).tobytes() == prod.tobytes(), (q, N)


def test_moment_table_refuses_at_the_index_the_schedule_reaches():
    # a product over F_M would read weights past the table: the refusal is the one
    # made at the first index of the schedule that the scheme does not cover
    f = FolnerSpec(Z, "interval", start=1)
    s = AveragingScheme(f, WeightRule("custom", table=tuple((n, 1) for n in range(1, 6))))
    with pytest.raises(ValueError, match=r"^custom weight table has no entry for 6$"):
        moment_table([ExponentialFn(0.1)], [[(1, False, 0)]], s, [5, 10])
    s = AveragingScheme(f, WeightRule("exp_decay", rate=0.1),
                        NormalizerRule("custom", table=((5, 1), (10, 0))))
    with pytest.raises(ValueError, match=r"^custom normalizer table has no entry for 8$"):
        moment_table([ExponentialFn(0.1)], [[(1, False, 0)]], s, [5, 8, 10])
    # shifts 0 and 85 of a bitmask's indicator do not chain at M = 30: its window is
    # first exceeded at N = 20, not at M
    family = [IndicatorFn(Bitmask(0, [1, 0] * 50)), ExponentialFn(0.1)]
    with pytest.raises(WindowExceededError, match=r"^window exceeded: \[86,106\) outside"):
        moment_table(family, [[(1, False, 0)], [(1, False, 85), (2, False, 0)]], UNIT,
                     [10, 20, 30])


def test_moment_table_holds_one_product_and_one_weight_array():
    # at its peak a table holds the complex product and the float weights over F_M,
    # one conjugate slice, numpy's cast buffer of 8192 complex values and small change;
    # never a second window-sized array, such as a conjugate copy of a factor or the
    # int64 points and |n| that exp_decay's weights are computed from
    M = 200_000
    s = AveragingScheme(FZ1, WeightRule("exp_decay", rate=1e-5))
    family = [ExponentialFn(0.3), RandomDiskFn(5)]
    query = [(1, False, 0), (2, False, 1), (1, True, 2)]
    for fn in family:
        fn.window(1, 1 + M + 2)  # the windows are the family's, filled before the table
    tracemalloc.start()
    try:
        moment_table(family, [query], s, [M])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * M + 8 * M + 16 * CONJ_CHUNK + 256 * 1024, peak
    # a table whose queries are all counted allocates no product at all
    s = AveragingScheme(FZ1, WeightRule("one"), NormalizerRule("const", c=2))
    family = [IndicatorFn(Congruence(0, 2)), IndicatorFn(Congruence(1, 3))]
    moment_table(family, [[(1, False, 0), (2, True, 1)]], s, [M])
    tracemalloc.start()
    try:
        moment_table(family, [[(1, False, 0), (2, True, 1)]], s, [10, M])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * M, peak
