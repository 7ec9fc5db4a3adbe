from fractions import Fraction

import pytest

from folnersys import (
    CONSISTENT, DISTINGUISHED, ComponentCongruence, Congruence, DyadicBlocks,
    FolnerSpec, GroupSpec, compare_pairs, correlation_spectrum,
)
from folnersys.cylinders import enumerate_cylinders
from folnersys.errors import CapExceededError
from folnersys.spectrum import canonical_tuple, canonical_tuples, shift_ball

Z = GroupSpec("Z")
FZ = FolnerSpec(Z, "interval", start=0)


def test_canonical_tuple():
    assert canonical_tuple(Z, [3, 0, 3, 1]) == (0, 1, 3)
    assert canonical_tuple(Z, [5]) == (5,)
    h3 = GroupSpec("H3")
    assert canonical_tuple(h3, [(1, 0, 0), (0, 0, 0), (1, 0, 0)]) == (
        (0, 0, 0), (1, 0, 0))


def test_shift_ball():
    assert shift_ball(Z, 3) == [0, 1, 2, 3]
    assert len(shift_ball(GroupSpec("Zd", 2), 1)) == 9


def test_canonical_tuples_count():
    # depth 2, radius 2 on Z: C(3,1) + C(3,2) = 6
    ts = canonical_tuples(Z, 2, 2)
    assert len(ts) == 6
    assert ts[0] == (0,) and ts[-1] == (1, 2)


def test_spectrum_evens():
    evens = Congruence(0, 2)
    s = correlation_spectrum(evens, FZ, 2, 3, [100, 1000])
    assert s.density([0]) == Fraction(1, 2)
    assert s.density([0, 2]) == Fraction(1, 2)
    assert s.density([0, 1]) == 0
    assert s.density([1, 0]) == 0  # canonicalized
    assert all(osc == 0 for osc in s.oscillations.values())


def test_compare_evens_vs_odds_consistent():
    evens = Congruence(0, 2)
    odds = Congruence(1, 2)
    v = compare_pairs((evens, FZ), (odds, FZ), 3, 8, [60, 600, 6000], 1e-9)
    assert v.verdict == CONSISTENT
    assert v.max_discrepancy == 0
    assert v.witness is None
    assert v.inconclusive == []


def test_compare_evens_vs_thirds_distinguished():
    evens = Congruence(0, 2)
    thirds = Congruence(0, 3)
    v = compare_pairs((evens, FZ), (thirds, FZ), 3, 8, [60, 600, 6000], 1e-9)
    assert v.verdict == DISTINGUISHED
    assert v.witness == (0,)
    assert v.witness_discrepancy == Fraction(1, 6)
    assert v.inconclusive == []
    d = v.to_dict()
    assert d["verdict"] == "DISTINGUISHED" and d["witness"] == [0]


def test_compare_inconclusive_exclusion():
    # the dyadic set does not converge on a dense schedule, so its tuples
    # are excluded rather than judged
    d = DyadicBlocks()
    evens = Congruence(0, 2)
    f1 = FolnerSpec(Z, "interval", start=1)
    v = compare_pairs((d, f1), (evens, f1), 1, 2, [16, 64, 256], 0.05)
    assert len(v.inconclusive) > 0


def test_compare_group_mismatch_and_eps():
    evens = Congruence(0, 2)
    h3set = ComponentCongruence(GroupSpec("H3"), [(0, 2), None, None])
    fh = FolnerSpec(GroupSpec("H3"), "heisenberg_box")
    with pytest.raises(ValueError):
        compare_pairs((evens, FZ), (h3set, fh), 1, 1, [8], 1e-3)
    with pytest.raises(ValueError):
        compare_pairs((evens, FZ), (evens, FZ), 1, 1, [8], 0.0)


def test_spectrum_h3():
    h3 = GroupSpec("H3")
    fh = FolnerSpec(h3, "heisenberg_box")
    e = ComponentCongruence(h3, [(0, 2), None, None])
    s = correlation_spectrum(e, fh, 1, 1, [4, 8])
    assert s.density([(0, 0, 0)]) == Fraction(1, 2)
    assert s.density([(1, 0, 0)]) == Fraction(1, 2)


def test_ball_counted_before_cap():
    # neither the 10^12-point shift ball nor the Z^2 and H3 balls is built
    E = Congruence(0, 2)
    with pytest.raises(CapExceededError, match="tuple count at least 1000000000001"):
        correlation_spectrum(E, FZ, 2, 10 ** 12, [10])
    for group in (GroupSpec("Zd", 2), GroupSpec("H3")):
        with pytest.raises(CapExceededError, match="cylinder count at least"):
            enumerate_cylinders(group, 10 ** 6, 1)
