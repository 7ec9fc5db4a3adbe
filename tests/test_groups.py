import itertools
from fractions import Fraction

import pytest

from folnersys import GroupSpec, FolnerSpec
from folnersys.errors import GroupMismatchError


Z = GroupSpec("Z")
Z2 = GroupSpec("Zd", 2)
H3 = GroupSpec("H3")


def test_mul_examples():
    assert Z.mul(3, 5) == 8
    assert H3.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    assert H3.mul((0, 1, 0), (1, 0, 0)) == (1, 1, 0)  # noncommutative


def test_inv_examples():
    assert Z.inv(4) == -4
    assert H3.inv((1, 1, 1)) == (-1, -1, 0)
    assert Z2.inv((2, -3)) == (-2, 3)


def test_group_mismatch():
    with pytest.raises(GroupMismatchError, match="group mismatch"):
        Z.mul(1, (1, 2))
    with pytest.raises(GroupMismatchError):
        H3.mul((1, 0, 0), (1, 0))


@pytest.mark.parametrize("group,box", [
    (Z, [(g,) for g in range(-5, 6)]),
    (Z2, list(itertools.product(range(-3, 4), repeat=2))),
    (H3, list(itertools.product(range(-2, 3), repeat=3))),
])
def test_group_axioms_exhaustive(group, box):
    def unwrap(t):
        return t[0] if group.kind == "Z" else t

    elems = [unwrap(t) for t in box]
    e = group.identity()
    for g in elems:
        assert group.mul(e, g) == g
        assert group.mul(g, e) == g
        assert group.mul(group.inv(g), g) == e
        assert group.mul(g, group.inv(g)) == e
    small = elems[:7]
    for g, h, k in itertools.product(small, repeat=3):
        assert group.mul(group.mul(g, h), k) == group.mul(g, group.mul(h, k))


def test_folner_set_examples():
    f = FolnerSpec(Z, "interval", start=1)
    assert list(f.elements(4)) == [1, 2, 3, 4]

    fh = FolnerSpec(H3, "heisenberg_box")
    s = list(fh.elements(2))
    assert len(s) == 16
    assert set(s) == {(a, b, c) for a in range(2) for b in range(2) for c in range(4)}

    fb = FolnerSpec(Z2, "box", anchor=(0, 0))
    assert set(fb.elements(3)) == {(i, j) for i in range(3) for j in range(3)}


def test_folner_set_no_duplicates_and_sizes():
    for f, Ns in [
        (FolnerSpec(Z, "interval", start=-3), [1, 2, 5]),
        (FolnerSpec(Z2, "box", anchor=(1, -1)), [1, 2, 4]),
        (FolnerSpec(H3, "heisenberg_box"), [1, 2, 3]),
    ]:
        sizes = []
        for N in Ns:
            s = list(f.elements(N))
            assert len(s) == len(set(s)) == f.size(N)
            sizes.append(len(s))
        assert sizes == sorted(set(sizes))


def test_folner_index_zero():
    f = FolnerSpec(Z, "interval", start=1)
    with pytest.raises(ValueError, match="empty Folner index"):
        list(f.elements(0))


def test_defect_examples():
    f = FolnerSpec(Z, "interval", start=1)
    assert f.defect(10, 1) == Fraction(2, 10)
    assert f.defect(10, 0) == 0

    fh = FolnerSpec(H3, "heisenberg_box")
    F8 = set(fh.elements(8))
    g = (1, 0, 0)
    gF8 = {H3.mul(g, x) for x in F8}
    brute = Fraction(len(F8 ^ gF8), len(F8))
    v = fh.defect(8, g)
    assert v == brute
    assert v <= Fraction(4, 8)


def test_defect_brute_force_cross_check():
    fb = FolnerSpec(Z2, "box", anchor=(0, 0))
    for N in (2, 4):
        F = set(fb.elements(N))
        for g in [(1, 0), (0, -2), (2, 1)]:
            gF = {Z2.mul(g, x) for x in F}
            assert fb.defect(N, g) == Fraction(len(F ^ gF), len(F))


@pytest.mark.parametrize("f,gens", [
    (FolnerSpec(Z, "interval", start=1), [1, 2, -1, -2]),
    (FolnerSpec(Z2, "box", anchor=(0, 0)), [(1, 0), (0, 1), (1, 1), (-1, 1)]),
    (FolnerSpec(H3, "heisenberg_box"),
     [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0)]),
])
def test_empirical_folner_property(f, gens):
    # defect nonincreasing along 2^k and below 1% at the top
    for g in gens:
        vals = [f.defect(1 << k, g) for k in range(4, 13)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < Fraction(1, 100)


def test_nested_windows():
    f = FolnerSpec(Z, "interval", start=2)
    assert set(f.elements(3)) <= set(f.elements(7))
    fb = FolnerSpec(Z2, "box", anchor=(0, 1))
    assert set(fb.elements(2)) <= set(fb.elements(5))


def test_word_ball():
    assert GroupSpec("Z").word_ball(2) == [-2, -1, 0, 1, 2]
    ball = H3.word_ball(2)
    assert (0, 0, 0) in ball and (1, 1, 1) in ball  # xy reaches (1,1,1)
    assert all(max(abs(a), abs(b)) <= 2 for a, b, _ in ball)


def test_right_defect_brute_force_h3():
    f = FolnerSpec(H3, "heisenberg_box")
    for N in (1, 2, 3):
        F = set(f.elements(N))
        for g in [(1, 0, 0), (0, 1, 0), (1, -2, 3), (-2, 1, -5), (2, 2, 0), (0, 0, 7)]:
            Fg = {H3.mul(x, g) for x in F}
            assert f.right_defect(N, g) == Fraction(len(F ^ Fg), len(F))


def test_ball_size():
    for group in (Z, Z2, H3):
        for R in range(4):
            assert group.ball_size(R, 10 ** 6) == len(group.word_ball(R))
    # H3 stops growing the ball once it has more than `limit` elements
    assert 100 < H3.ball_size(10 ** 9, 100) < 10 ** 4
