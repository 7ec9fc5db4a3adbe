import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folnersys import (
    Bitmask, Complement, ComponentCongruence, Congruence, DyadicBlocks,
    FolnerSpec, GroupSpec, MarkovSystem, PeriodicSystem, RotationSet, RotationSystem,
    indicator_bits, intersection_count,
)
from folnersys.errors import WindowExceededError
from folnersys.sets import FRAC_BITS, ROTATION_BLOCK, SCALE, rotation_bits, to_fixed

B = ROTATION_BLOCK


def rotation_bits_loop(x0_fp, alpha_fp, beta_fp, lo, hi):
    """One 128-bit step per point: the oracle for the blocked `rotation_bits`."""
    out = np.empty(hi - lo, dtype=bool)
    r = (x0_fp + lo * alpha_fp) % SCALE
    for i in range(hi - lo):
        out[i] = r < beta_fp
        r += alpha_fp
        if r >= SCALE:
            r -= SCALE
    return out


def test_to_fixed_rationals():
    assert to_fixed(Fraction(1, 2)) == SCALE // 2
    assert to_fixed(0) == 0
    assert to_fixed("1/4") == SCALE // 4


def test_to_fixed_golden():
    g = to_fixed("golden")
    # x satisfies x^2 + x - 1 = 0; check the residual at the grid scale
    residual = g * g + g * SCALE - SCALE * SCALE
    assert abs(residual) < 2 * SCALE  # off by < 2 ulps of the grid
    assert abs(g / SCALE - (math.sqrt(5) - 1) / 2) < 1e-15


def test_to_fixed_sqrt2():
    s = to_fixed("sqrt2")
    residual = (s + SCALE) ** 2 - 2 * SCALE * SCALE
    assert abs(residual) < 3 * SCALE


def test_congruence():
    evens = Congruence(0, 2)
    assert evens.member(4) and not evens.member(7)
    assert evens.member(-2)
    np.testing.assert_array_equal(
        evens.bits(0, 6), [True, False, True, False, True, False])
    odds = evens.complement()
    assert isinstance(odds, Congruence)
    assert odds.member(7) and not odds.member(4)


def test_window_cache_holds_one_window(monkeypatch):
    e = Congruence(1, 3)
    a = e.bits(0, 10).copy()
    b = e.bits(-5, 20)
    np.testing.assert_array_equal(a, b[5:15])
    # a read inside the cached window computes nothing; any other read, overlapping,
    # touching or disjoint, computes exactly its own window, which becomes the cache
    # (a gap of 10^15 points is never filled)
    reads = [[(0, 10), (-7, 4)], [(0, 10), (6, 25)], [(0, 10), (-3, 40), (2, 39)],
             [(0, 10), (10, 12), (-5, 0)], [(0, 10), (30, 35)],
             [(0, 10), (-40, -30), (2, 3), (5, 50)], [(0, 10), (-40, -30), (-35, 3)],
             [(1, 9), (10**15, 10**15 + 9)], [(0, 10), (0, 10), (3, 7)]]
    for cls, make in [(Congruence, lambda: Congruence(2, 5)), (DyadicBlocks, DyadicBlocks),
                      (RotationSet, lambda: RotationSet("golden", Fraction(2, 5),
                                                        x0=Fraction(1, 9)))]:
        calls, compute = [], cls._compute_bits
        monkeypatch.setattr(cls, "_compute_bits",
                            lambda self, lo, hi: calls.append((lo, hi)) or compute(self, lo, hi))
        for windows in reads:
            s, cache = make(), None
            for lo, hi in windows:
                calls.clear()
                got = s.bits(lo, hi)
                if cache is None or not (cache[0] <= lo and hi <= cache[1]):
                    assert calls == [(lo, hi)]
                    cache = (lo, hi)
                else:
                    assert calls == []
                assert (s._cache_lo, len(s._cache)) == (cache[0], cache[1] - cache[0])
                np.testing.assert_array_equal(got, compute(s, lo, hi))
    # a bitmask's cache is its mask: a read inside it is a slice of it, and a read
    # partly or wholly outside it is refused with the whole window named
    m = Bitmask(-4, [1, 0, 0, 1, 1, 0, 1, 0])
    for lo, hi in [(0, 2), (-4, 1), (1, 4), (-2, 3)]:
        np.testing.assert_array_equal(m.bits(lo, hi), m.mask[lo + 4:hi + 4])
        assert np.shares_memory(m.bits(lo, hi), m.mask)
    for lo, hi in [(-5, 0), (0, 5), (-6, 6)]:
        with pytest.raises(WindowExceededError, match=rf"\[{lo},{hi}\) outside \[-4,4\)"):
            m.bits(lo, hi)
    assert m._cache_lo == -4 and m._cache is m.mask


def test_rotation_set_density_smoke():
    r = RotationSet("golden", Fraction(1, 2))
    n = 100000
    count = int(np.count_nonzero(r.bits(0, n)))
    assert abs(count / n - 0.5) < 5e-3


def test_rotation_incremental_matches_direct():
    r = RotationSet("sqrt2", Fraction(1, 3), x0=Fraction(1, 7))
    bits = r.bits(-50, 50)
    for i, n in enumerate(range(-50, 50)):
        assert bits[i] == ((r.x0_fp + n * r.alpha_fp) % SCALE < r.beta_fp)
    # a window around a cached one, across block boundaries, far from the origin
    r = RotationSet("sqrt2", Fraction(1, 3), x0=Fraction(1, 7))
    lo = 10 ** 15
    r.bits(lo, lo + 100)
    np.testing.assert_array_equal(
        r.bits(lo - B - 3, lo + B + 7),
        rotation_bits_loop(r.x0_fp, r.alpha_fp, r.beta_fp, lo - B - 3, lo + B + 7))


@settings(max_examples=60, deadline=None)
@given(alpha=st.sampled_from(["golden", "sqrt2", Fraction(3, 7), 5]),
       beta=st.sampled_from([1, Fraction(1, 2), Fraction(1, 3), "golden"]),
       x0=st.sampled_from([0, Fraction(1, 7), "sqrt2"]),
       n=st.sampled_from([0, B - 1, B, B + 1, 3 * B + 5]),
       lo=st.sampled_from([0, -12345, 10 ** 15, "2^62 - n"]))
@example(alpha=5, beta=1, x0=Fraction(1, 7), n=3 * B + 5, lo="2^62 - n")
@example(alpha="golden", beta=Fraction(1, 2), x0="sqrt2", n=B + 1, lo=-12345)
def test_rotation_bits_match_loop(alpha, beta, x0, n, lo):
    # an integer alpha has alpha_fp = 0, and beta = 1 is the whole circle 2^128
    lo = 2 ** 62 - n if lo == "2^62 - n" else lo
    args = (to_fixed(x0) % SCALE, to_fixed(alpha) % SCALE, to_fixed(beta), lo, lo + n)
    np.testing.assert_array_equal(rotation_bits(*args), rotation_bits_loop(*args))


def test_rotation_beta_validation():
    with pytest.raises(ValueError):
        RotationSet("golden", 0)
    with pytest.raises(ValueError):
        RotationSet("golden", Fraction(3, 2))


def test_dyadic_blocks():
    d = DyadicBlocks()
    # blocks [1,2), [4,8), [16,32), ...
    members = [n for n in range(0, 40) if d.member(n)]
    assert members == [1] + list(range(4, 8)) + list(range(16, 32))
    np.testing.assert_array_equal(
        d.bits(0, 40), [d.member(n) for n in range(40)])
    assert not d.member(-3)


def test_dyadic_blocks_beyond_float_precision():
    # float frexp rounds 2^54 - 1 up to 2^54 and misreads its block
    d = DyadicBlocks()
    f = FolnerSpec(GroupSpec("Z"), "interval", start=2**54 - 4)
    assert intersection_count(d, (0,), f, 8) == 4


@settings(max_examples=50, deadline=None)
@given(base=st.sampled_from([2**53, 2**62]), off=st.integers(-80, 80),
       n=st.integers(0, 80))
def test_dyadic_bits_match_member_near_large_powers(base, off, n):
    d = DyadicBlocks()
    lo = base + off
    assert [bool(b) for b in d.bits(lo, lo + n)] == [d.member(k) for k in range(lo, lo + n)]


def test_bitmask_window():
    b = Bitmask(5, [1, 0, 1, 1])
    assert b.member(5) and not b.member(6) and b.member(8)
    with pytest.raises(WindowExceededError, match="window exceeded"):
        b.member(9)
    with pytest.raises(WindowExceededError):
        b.bits(4, 8)


def test_bitmask_reads_are_slices_of_its_mask():
    # the mask is the window: a read inside it is never a copy, and a read partly or
    # wholly outside it is refused and leaves the mask the window
    for b in (Bitmask(5, [1, 0, 1, 1, 0, 1]), Bitmask(3, []),
              PeriodicSystem([1, 0, 0]).orbit_set(-4, 20, 1),
              RotationSystem("golden", Fraction(1, 2)).orbit_set(-10, 40, Fraction(1, 3)),
              MarkovSystem([[0.7, 0.3], [0.4, 0.6]], accept=[1]).orbit_set(2, 60, 9)):
        for lo, hi in [(b.lo, b.hi), (b.lo + 1, b.hi - 2), (b.lo + 2, b.lo + 3)]:
            if b.lo <= lo < hi <= b.hi:
                assert np.shares_memory(b.bits(lo, hi), b.mask)
                assert np.shares_memory(indicator_bits(b, lo, hi), b.mask)
        for lo, hi in [(b.lo - 1, b.hi), (b.lo, b.hi + 1), (b.lo - 3, b.hi + 3),
                       (b.hi, b.hi + 3), (b.lo - 5, b.lo - 1), (b.hi + 2, b.hi + 4)]:
            with pytest.raises(WindowExceededError, match="window exceeded"):
                b.bits(lo, hi)
        assert b._cache is b.mask


def test_component_congruence():
    g = GroupSpec("Zd", 2)
    s = ComponentCongruence(g, [(0, 2), None])
    assert s.member((4, 7)) and not s.member((3, 0))
    coords = np.array([[0, 1, 2], [5, 5, 5]])
    np.testing.assert_array_equal(s.member_coords(coords), [True, False, True])

    h3 = GroupSpec("H3")
    t = ComponentCongruence(h3, [None, None, (1, 2)])
    assert t.member((9, -4, 3)) and not t.member((9, -4, 2))


def test_complement_roundtrip():
    e = Congruence(2, 5)
    c = Complement(e)
    assert c.complement() is e
    np.testing.assert_array_equal(c.bits(0, 10), ~e.bits(0, 10))
    assert c.member(0) and not c.member(2)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(-20, 20), m=st.one_of(st.integers(1, 12), st.integers(60, 10 ** 18)),
       lo=st.one_of(st.integers(-100, 100), st.integers(2 ** 62 - 300, 2 ** 62 + 300),
                    st.integers(-2 ** 62 - 300, -2 ** 62 + 300)),
       n=st.integers(0, 200))
@example(a=5, m=7, lo=2 ** 62 - 100, n=200)
@example(a=-3, m=10 ** 18, lo=-2 ** 62, n=200)
def test_congruence_bits_match_member(a, m, lo, n):
    # a window is one residue period tiled, offsets near +-2^62 included
    e = Congruence(a, m)
    expect = [e.member(k) for k in range(lo, lo + n)]
    assert [bool(b) for b in e._compute_bits(lo, lo + n)] == expect
    assert [bool(b) for b in indicator_bits(e, lo, lo + n)] == expect
