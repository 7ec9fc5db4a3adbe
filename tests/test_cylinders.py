from fractions import Fraction

import numpy as np
import pytest

from folnersys import (
    Bitmask, Complement, ComponentCongruence, Congruence, CylinderSpec, DyadicBlocks,
    FolnerSpec, GroupSpec, RotationSet, additivity_check, cylinder_measure, furstenberg_report,
    invariance_defect,
)
from folnersys.cylinders import cylinder_count, enumerate_cylinders
from folnersys.errors import CapExceededError

Z = GroupSpec("Z")
H3 = GroupSpec("H3")
FZ = FolnerSpec(Z, "interval", start=0)
FH = FolnerSpec(H3, "heisenberg_box")


def test_cylinder_spec_canonical_order():
    C = CylinderSpec.make(Z, {3: 1, -1: 0, 0: 1})
    assert C.constraints == ((-1, 0), (0, 1), (3, 1))
    assert C.elements() == (-1, 0, 3)


def test_cylinder_spec_validation():
    with pytest.raises(ValueError):
        CylinderSpec.make(Z, {0: 2})
    C = CylinderSpec.make(Z, {0: 1})
    with pytest.raises(ValueError, match="constraint clash"):
        C.with_constraint(Z, 0, 0)


def test_cylinder_shifted():
    C = CylinderSpec.make(Z, {0: 1, 2: 0})
    assert C.shifted(Z, 5).constraints == ((5, 1), (7, 0))
    D = CylinderSpec.make(H3, {(0, 0, 0): 1})
    assert D.shifted(H3, (1, 1, 0)).constraints == (((1, 1, 0), 1),)


def test_cylinder_measure_evens():
    evens = Congruence(0, 2)
    A = CylinderSpec.make(Z, {0: 1})
    assert cylinder_measure(evens, A, FZ, 1000) == Fraction(1, 2)
    AB = CylinderSpec.make(Z, {0: 1, 1: 1})
    assert cylinder_measure(evens, AB, FZ, 1000) == 0
    A0B1 = CylinderSpec.make(Z, {0: 0, 1: 1})
    assert cylinder_measure(evens, A0B1, FZ, 1000) == Fraction(1, 2)


def test_empty_cylinder_is_full_space():
    evens = Congruence(0, 2)
    assert cylinder_measure(evens, CylinderSpec(()), FZ, 123) == 1


def test_cylinder_count_brute_force_z():
    C = CylinderSpec.make(Z, {-1: 0, 0: 1, 3: 1})
    f = FolnerSpec(Z, "interval", start=2)
    N = 60
    for d in (DyadicBlocks(), Complement(DyadicBlocks())):
        brute = sum(
            1 for g in range(2, 2 + N)
            if not d.member(g - 1) and d.member(g) and d.member(g + 3)
        )
        assert cylinder_count(d, C, f, N) == brute


def test_cylinder_count_brute_force_h3():
    e = ComponentCongruence(H3, [(0, 2), None, (0, 3)])
    C = CylinderSpec.make(H3, {(0, 0, 0): 1, (1, 0, 0): 0, (0, 1, 1): 1})
    z2 = GroupSpec("Zd", 2)
    # the coordinate path also serves Z^2 boxes and complements
    cases = [
        (FH, e, C, (2, 3)),
        (FH, Complement(e), C, (2, 3)),
        (FolnerSpec(z2, "box", anchor=(-1, 2)), ComponentCongruence(z2, [(0, 2), (1, 3)]),
         CylinderSpec.make(z2, {(0, 0): 1, (1, 0): 0, (0, -2): 1}), (3, 6)),
    ]
    for f, E, D, Ns in cases:
        for N in Ns:
            brute = 0
            for g in f.elements(N):
                ok = True
                for h, eps in D.constraints:
                    if E.member(E.group.mul(g, h)) != bool(eps):
                        ok = False
                        break
                brute += ok
            assert cylinder_count(E, D, f, N) == brute


def test_additivity_exact():
    evens = Congruence(0, 2)
    C = CylinderSpec.make(Z, {0: 1})
    ok, residual = additivity_check(evens, C, 3, FZ, 997)
    assert ok and residual == 0
    with pytest.raises(ValueError, match="constraint clash"):
        additivity_check(evens, C, 0, FZ, 100)


def test_additivity_randomized():
    rng = np.random.default_rng(11)
    sources = [Congruence(1, 3), DyadicBlocks(), Congruence(0, 2)]
    for _ in range(50):
        E = sources[int(rng.integers(len(sources)))]
        support = rng.choice(np.arange(-4, 5), size=int(rng.integers(1, 4)),
                             replace=False)
        C = CylinderSpec.make(Z, {int(h): int(rng.integers(2)) for h in support})
        h = int(rng.integers(5, 9))
        ok, residual = additivity_check(E, C, h, FZ, int(rng.integers(50, 500)))
        assert ok and residual == 0


def test_invariance_defect_bound_z():
    evens = Congruence(0, 2)
    C = CylinderSpec.make(Z, {0: 1})
    assert invariance_defect(evens, C, 2, FZ, 100) == 0
    v = invariance_defect(evens, C, 1, FZ, 101)
    assert v <= FZ.right_defect(101, 1) / 2


def test_invariance_defect_bound_h3():
    e = ComponentCongruence(H3, [(0, 2), (1, 2), None])
    C = CylinderSpec.make(H3, {(0, 0, 0): 1, (1, 0, 0): 0})
    for g in [(1, 0, 0), (0, 1, 0), (1, -1, 2), (0, 0, 1)]:
        for N in (4, 8, 16):
            v = invariance_defect(e, C, g, FH, N)
            assert v <= FH.right_defect(N, g) / 2


def test_enumerate_cylinders_counts():
    cyls = enumerate_cylinders(Z, 1, 1)
    # supports {-1}, {0}, {1} with two polarities each
    assert len(cyls) == 6
    assert cyls[0].constraints == ((-1, 0),)
    cyls2 = enumerate_cylinders(Z, 1, 2)
    assert len(cyls2) == 6 + 3 * 4
    with pytest.raises(CapExceededError):
        enumerate_cylinders(Z, 8, 3, cap=10)


def test_furstenberg_report_evens():
    evens = Congruence(0, 2)
    table = furstenberg_report(evens, FZ, 1, 2, [100, 1000])
    assert table.density_estimate == Fraction(1, 2)
    assert table.nu_of_A == Fraction(1, 2)
    assert table.subsequence == [100, 1000]
    for row in table.rows:
        assert row.oscillation == 0
        # marginal of a single constraint is 1/2 either way
        if len(row.cylinder.constraints) == 1:
            assert row.values[1000] == Fraction(1, 2)
    d = table.to_dict()
    assert d["nu_of_A"]["num"] == 1 and d["nu_of_A"]["den"] == 2


def test_furstenberg_report_patterns():
    evens = Congruence(0, 2)
    table = furstenberg_report(evens, FZ, 1, 1, [100], collect_patterns=True)
    # only the two alternating words appear over the radius-1 ball
    assert table.observed_patterns == [(0, 1, 0), (1, 0, 1)]


Z2 = GroupSpec("Zd", 2)
START = 2 ** 62 - 100  # the Z words are slices of one window, near the int64 edge


@pytest.mark.parametrize("E, f, radius, N", [
    (RotationSet("golden", Fraction(2, 5), x0=Fraction(1, 7)),
     FolnerSpec(Z, "interval", start=START), 4, 60),
    (Bitmask(START - 4, np.random.default_rng(5).integers(0, 2, size=68).tolist()),
     FolnerSpec(Z, "interval", start=START), 4, 60),
    (ComponentCongruence(Z2, [(1, 3), (0, 2)]), FolnerSpec(Z2, "box", anchor=(-7, 12)), 1, 5),
    # a rule on the c coordinate tells the right translate g*h from h*g
    (ComponentCongruence(H3, [None, (1, 2), (1, 3)]), FH, 1, 3),
])
def test_observed_patterns_brute_force(E, f, radius, N):
    ball = E.group.word_ball(radius)
    brute = {tuple(int(E.member(E.group.mul(g, h))) for h in ball) for g in f.elements(N)}
    table = furstenberg_report(E, f, radius, 1, [N], collect_patterns=True)
    assert table.observed_patterns == sorted(brute)
