import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from folnersys import (
    Bitmask, Complement, Congruence, ComponentCongruence, DyadicBlocks, FolnerSpec, GroupSpec,
    RotationSet, density_at, extract_subsequence, furstenberg_report, intersection_count,
    upper_density,
)
from folnersys.cylinders import CylinderSpec, _observed_patterns, cylinder_count
from folnersys.density import (constraint_counts, pair_correlation_fft, pattern_histograms,
                               select_subsequence, window_count)
from folnersys.errors import NoConvergentSubsequenceError

Z = GroupSpec("Z")
FZ = FolnerSpec(Z, "interval", start=0)
FZ1 = FolnerSpec(Z, "interval", start=1)


def test_intersection_count_evens():
    evens = Congruence(0, 2)
    assert intersection_count(evens, (0,), FZ, 100) == 50
    assert intersection_count(evens, (0, 2), FZ, 100) == 50
    assert intersection_count(evens, (0, 1), FZ, 100) == 0
    assert density_at(evens, (0,), FZ, 1000) == Fraction(1, 2)


def test_intersection_count_brute_force_z():
    for e in (Congruence(1, 3), Complement(Congruence(1, 3))):
        for shifts in [(0,), (-2, 1), (0, 3, 5), (1, 4)]:
            for N in (7, 50):
                brute = sum(
                    1 for h in range(FZ1.start, FZ1.start + N)
                    if all(e.member(g + h) for g in shifts)
                )
                assert intersection_count(e, shifts, FZ1, N) == brute


def test_intersection_count_brute_force_h3():
    h3 = GroupSpec("H3")
    fh = FolnerSpec(h3, "heisenberg_box")
    e = ComponentCongruence(h3, [(0, 2), None, (1, 3)])
    z2 = GroupSpec("Zd", 2)
    # the coordinate path also serves Z^2 boxes and complements
    cases = [
        (fh, e, [((0, 0, 0),), ((1, 0, 0), (0, 1, 1))], (2, 3)),
        (fh, Complement(e), [((0, 0, 0),), ((1, 0, 0), (0, 1, 1))], (2, 3)),
        (FolnerSpec(z2, "box", anchor=(1, -2)), ComponentCongruence(z2, [(1, 3), (0, 2)]),
         [((0, 0),), ((1, 0), (0, -1)), ((2, 1), (-1, 3), (0, 0))], (3, 5)),
    ]
    for f, E, queries, Ns in cases:
        for shifts in queries:
            for N in Ns:
                brute = sum(
                    1 for h in f.elements(N)
                    if all(E.member(E.group.mul(g, h)) for g in shifts)
                )
                assert intersection_count(E, shifts, f, N) == brute


def test_intersection_count_validation():
    evens = Congruence(0, 2)
    with pytest.raises(ValueError):
        intersection_count(evens, (), FZ, 10)
    fh = FolnerSpec(GroupSpec("H3"), "heisenberg_box")
    with pytest.raises(ValueError, match="group mismatch"):
        intersection_count(evens, ((0, 0, 0),), fh, 2)


MISMATCHED = [  # a set and a Folner spec of another group
    (Congruence(0, 2), FolnerSpec(GroupSpec("H3"), "heisenberg_box")),
    (Congruence(0, 2), FolnerSpec(GroupSpec("Zd", 2), "box", anchor=(0, 0))),
    (ComponentCongruence(GroupSpec("H3"), [(0, 2), None, None]), FZ),
]


@pytest.mark.parametrize("E, f", MISMATCHED)
def test_group_mismatch_refused_by_every_count(E, f):
    # every count reads F_N through `density.columns`, which refuses the mismatch
    e = E.group.identity()
    calls = [
        lambda: window_count([(E, e, 1)], f, 2),
        lambda: pattern_histograms(E, f, [e], [2]),
        lambda: constraint_counts(E, f, [[(e, 1)]], [2]),
        lambda: intersection_count(E, (e,), f, 2),
        lambda: cylinder_count(E, CylinderSpec.make(E.group, {e: 1}), f, 2),
        lambda: furstenberg_report(E, f, 1, 1, [2], collect_patterns=True),
        lambda: _observed_patterns(E, f, 1, 2),
    ]
    if f.shape != "heisenberg_box":  # pair correlation refuses the H3 box on its own
        calls.append(lambda: pair_correlation_fft(E, f, 2, 1))
    for call in calls:
        with pytest.raises(ValueError, match="group mismatch between set and Folner spec"):
            call()


def test_counts_build_coords_once_per_set(monkeypatch):
    calls = []
    coords = FolnerSpec.coords
    monkeypatch.setattr(FolnerSpec, "coords", lambda self, N: calls.append(N) or coords(self, N))
    h3 = GroupSpec("H3")
    fh = FolnerSpec(h3, "heisenberg_box")
    e = ComponentCongruence(h3, [(0, 2), None, (1, 3)])
    shifts = [(0, 0, 0), (1, 0, 0), (0, 1, 1)]
    terms = [(E, g, 1) for E in (e, Complement(e)) for g in shifts]
    assert window_count(terms, fh, 3) == 0
    assert calls == [3, 3]  # one per distinct set, not one per term
    calls.clear()
    z2 = GroupSpec("Zd", 2)
    counts = pair_correlation_fft(ComponentCongruence(z2, [(1, 3), None]),
                                  FolnerSpec(z2, "box", anchor=(1, -2)), 6, 2)
    assert len(counts) == 25 and calls == [6]  # not one per shift
    calls.clear()
    queries = [[(0, 0, 0)], [(0, 0, 0), (2, 0, 0)], [(1, 0, 0), (0, 1, 1)]]
    assert extract_subsequence(e, queries, fh, [4, 8, 12], 0.5) == [4, 8, 12]
    assert calls == [4, 8, 12]  # one per index, not one per query and index


def test_window_count_reads_a_cached_window_in_place():
    """A one-term count is the count of its column, a view of the set's window:
    nothing of |F_N| bytes is allocated (it used to start from np.ones(|F_N|))."""
    N = 1 << 20
    warm = Congruence(1, 3)
    warm.bits(0, N)
    for E in (Bitmask(0, np.random.default_rng(1).integers(0, 2, N).astype(bool)), warm):
        expect = int(np.count_nonzero(E.bits(0, N)))
        tracemalloc.start()
        try:
            assert window_count([(E, 0, 1)], FZ, N) == expect
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < N, (E.describe(), peak)


def test_window_count_mixed_polarity():
    """Counts with 1- and 0-constraints, the first of either polarity, over one set or
    two, equal point-by-point counting, and no cached window is written to."""
    rng = np.random.default_rng(5)
    N = 257
    E = Bitmask(-20, rng.integers(0, 2, N + 60).astype(bool))
    F = Congruence(1, 3)
    mask = E.mask.copy()
    cases = [[(E, 0, 0)], [(E, 3, 1), (E, -5, 0)], [(E, 2, 0), (F, 1, 1), (E, 7, 1)],
             [(F, 0, 0), (E, 0, 1), (F, 2, 0)], [(E, 1, 1), (E, 1, 1)], [(E, 4, 1), (E, 4, 0)]]
    cases += [[(rng.choice([E, F]), int(rng.integers(-8, 9)), int(rng.integers(2)))
               for _ in range(rng.integers(1, 6))] for _ in range(30)]
    for terms in cases:
        expect = sum(all(S.member(h + g) == bool(eps) for S, g, eps in terms) for h in range(N))
        assert window_count(terms, FZ, N) == expect, terms
    np.testing.assert_array_equal(E.mask, mask)
    np.testing.assert_array_equal(F.bits(-8, N + 8), [F.member(n) for n in range(-8, N + 8)])


def _selected(select, *args):
    try:
        return select(*args)
    except NoConvergentSubsequenceError as e:
        return str(e)


def test_extract_subsequence_matches_density_rows(monkeypatch):
    """The subsequence of one count per index is the one the densities of each query
    at each index select, on the histogram path and on the list-by-list path (more
    than HISTOGRAM_BITS shifts); every refusal comes before anything is counted."""
    h3 = GroupSpec("H3")
    cases = [
        (ComponentCongruence(h3, [(0, 2), None, (1, 3)]), FolnerSpec(h3, "heisenberg_box"),
         [[(0, 0, 0)], [(0, 0, 0), (1, 0, 0)], [(0, 1, 1), (2, 0, 0)]], [3, 6, 9, 12], 0.2),
        (DyadicBlocks(), FZ1, [[0], [1]], [1 << k for k in range(4, 15)], 0.05),
        (DyadicBlocks(), FZ1, [[0], [0, 1]], [1 << k for k in range(4, 15)], 0.05),
        (Congruence(0, 2), FZ, [[0], list(range(0, 34, 2)), [1]], [99, 100, 301], 0.01),
    ]
    for E, f, queries, schedule, eps in cases:
        rows = [{N: density_at(E, q, f, N) for N in schedule} for q in queries]
        assert _selected(extract_subsequence, E, queries, f, schedule, eps) == \
            _selected(select_subsequence, rows, schedule, eps)
    e, fh = cases[0][:2]
    monkeypatch.setattr(FolnerSpec, "coords", lambda self, N: pytest.fail("counted"))
    for queries, eps, message in [
        ([], 0.1, "at least one query required"),
        ([[(0, 0, 0)], []], 0.1, "query must contain at least one shift"),
        ([[(0, 0, 0)], [(0, 0)]], 0.1, "is not an element of"),
        ([[(0, 0, 0)], []], 0.0, "eps must be positive"),
    ]:
        with pytest.raises(ValueError, match=message):
            extract_subsequence(e, queries, fh, [3, 6], eps)


def test_upper_density_periodic():
    e = Congruence(0, 3)
    est, attaining = upper_density(e, FZ, [30, 300, 3000])
    assert est == Fraction(1, 3)
    assert attaining == [30, 300, 3000]


def test_upper_density_dyadic_oscillates():
    d = DyadicBlocks()
    schedule = [1 << k for k in range(4, 15)]
    est, attaining = upper_density(d, FZ1, schedule, tol=Fraction(1, 50))
    assert abs(est - Fraction(2, 3)) < Fraction(1, 100)
    assert attaining == [1 << k for k in range(5, 15, 2)]


def test_upper_density_schedule_validation():
    e = Congruence(0, 2)
    with pytest.raises(ValueError):
        upper_density(e, FZ, [])
    with pytest.raises(ValueError):
        upper_density(e, FZ, [10, 10, 20])
    with pytest.raises(ValueError):
        upper_density(e, FZ, [20, 10])


def test_extract_subsequence_convergent_set():
    e = Congruence(0, 2)
    schedule = [100, 200, 400, 800]
    assert extract_subsequence(e, [(0,), (0, 1)], FZ, schedule, 0.01) == schedule


def test_extract_subsequence_dyadic():
    d = DyadicBlocks()
    schedule = [1 << k for k in range(4, 17)]
    sub = extract_subsequence(d, [(0,)], FZ1, schedule, 0.05)
    assert sub == [1 << k for k in range(5, 17, 2)]


def test_extract_subsequence_failure():
    d = DyadicBlocks()
    with pytest.raises(NoConvergentSubsequenceError):
        extract_subsequence(d, [(0,)], FZ1, [16, 32], 0.01)
    with pytest.raises(ValueError):
        extract_subsequence(d, [(0,)], FZ1, [16, 32], -1.0)


def test_rotation_density_unique_ergodicity():
    r = RotationSet("golden", Fraction(1, 2))
    vals = [float(density_at(r, (0,), FZ, N)) for N in (10**4, 10**5)]
    assert all(abs(v - 0.5) < 5e-3 for v in vals)
