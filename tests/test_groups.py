import itertools
from fractions import Fraction

import numpy as np
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


FOLNERS = [
    FolnerSpec(Z, "interval", start=-3),
    FolnerSpec(GroupSpec("Zd", 1), "box", anchor=(-2,)),
    FolnerSpec(Z2, "box", anchor=(1, -4)),
    FolnerSpec(GroupSpec("Zd", 3), "box", anchor=(-1, 0, -5)),
    FolnerSpec(H3, "heisenberg_box"),
]


def _brute_window(f, N):
    """F_N as the sorted points of a larger region that meet its defining bounds."""
    if f.shape == "interval":
        return [n for n in range(-10, 10) if f.start <= n < f.start + N]
    if f.shape == "box":
        return [v for v in itertools.product(range(-10, 10), repeat=f.group.d)
                if all(a <= x < a + N for a, x in zip(f.anchor, v))]
    return [(a, b, c) for a in range(-1, N + 1) for b in range(-1, N + 1)
            for c in range(-1, N * N + 1) if 0 <= a < N and 0 <= b < N and 0 <= c < N * N]


def _columns(coords):
    return [tuple(int(x) for x in col) for col in coords.T]


def _tuple(g):
    return g if isinstance(g, tuple) else (g,)


@pytest.mark.parametrize("f", FOLNERS, ids=lambda f: f"{f.shape}-{f.group.ncoords}")
def test_size_elements_coords_agree_with_brute_force(f):
    for N in range(1, 5):
        brute = _brute_window(f, N)
        assert list(f.elements(N)) == brute
        assert f.size(N) == len(brute)
        coords = f.coords(N)
        assert coords.dtype == np.int64 and coords.shape == (f.group.ncoords, len(brute))
        assert _columns(coords) == [_tuple(v) for v in brute]


@pytest.mark.parametrize("f", FOLNERS, ids=lambda f: f"{f.shape}-{f.group.ncoords}")
def test_translation_is_the_group_law_column_by_column(f):
    G = f.group
    coords = f.coords(3)
    before = coords.copy()
    xs = list(f.elements(3))
    for t in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, -3, 5), (-4, 7, -11)]:
        g = t[0] if G.kind == "Z" else tuple((t * 2)[:G.ncoords])
        assert _columns(G.translate_left(g, coords)) == [_tuple(G.mul(g, x)) for x in xs]
        assert _columns(G.translate_right(coords, g)) == [_tuple(G.mul(x, g)) for x in xs]
    assert np.array_equal(coords, before)


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
