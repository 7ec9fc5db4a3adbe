"""The word histograms behind spectra and cylinder tables.

`correlation_spectrum` and `furstenberg_report` read every count over a ball
of at most HISTOGRAM_BITS elements, on Z intervals, Z^d boxes and the H3 box,
off one pass of `pattern_histograms`; these tests hold those counts to the
per-tuple `density_at` and per-cylinder `cylinder_count` kernel, and to brute
force.
"""
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folnersys import (
    Bitmask, Complement, ComponentCongruence, Congruence, DyadicBlocks, FolnerSpec, GroupSpec,
    RotationSet, correlation_spectrum, density_at, furstenberg_report, upper_density,
)
from folnersys import density, sets
from folnersys.cli import main
from folnersys.cylinders import cylinder_count
from folnersys.density import HISTOGRAM_BITS, pattern_histograms
from folnersys.errors import WindowExceededError

Z = GroupSpec("Z")
Z2 = GroupSpec("Zd", 2)
H3 = GroupSpec("H3")
# a rule on the c coordinate of H3 tells left translation from right
BOXES = {
    "z2": (FolnerSpec(Z2, "box", anchor=(-7, 12)), ComponentCongruence(Z2, [(1, 3), (0, 2)])),
    "h3": (FolnerSpec(H3, "heisenberg_box"), ComponentCongruence(H3, [None, (1, 2), (1, 3)])),
}
# room a random bitmask leaves around the window for every ball used below
PAD = 20


def make_set(kind, seed, start, n):
    """A Z set of each rule; a bitmask covers [start - PAD, start + n + PAD)."""
    if kind == "bitmask":
        rng = np.random.default_rng(seed)
        return Bitmask(start - PAD, rng.integers(0, 2, size=n + 2 * PAD).tolist())
    if kind == "congruence":
        return Congruence(seed % 11 - 5, seed % 7 + 1)
    if kind == "complement":
        return Complement(Congruence(seed % 5, 5))
    if kind == "dyadic":
        return DyadicBlocks()
    return RotationSet("golden", Fraction(seed % 97 + 1, 100), x0=Fraction(1, 7))


KINDS = ["bitmask", "congruence", "complement", "dyadic", "rotation"]
STARTS = st.one_of(st.sampled_from([0, -12345, 10 ** 15, 2 ** 62 - 4096, 2 ** 53 - 700]),
                   st.integers(-10 ** 6, 10 ** 6))
# strictly increasing and mostly not powers of two
SCHEDULES = st.lists(st.integers(1, 1500), min_size=1, max_size=4, unique=True).map(sorted)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 10 ** 6), start=STARTS,
       schedule=SCHEDULES, lo=st.integers(-8, 8), k=st.integers(1, HISTOGRAM_BITS),
       chunk=st.sampled_from([1, 7, 1 << 16]))
def test_pattern_histograms_brute_force(kind, seed, start, schedule, lo, k, chunk):
    E = make_set(kind, seed, start, max(schedule) + k)
    f = FolnerSpec(Z, "interval", start=start)
    with pytest.MonkeyPatch.context() as mp:  # blocks that end inside a chunk
        mp.setattr(density, "HISTOGRAM_CHUNK", chunk)
        hist = pattern_histograms(E, f, range(lo, lo + k), schedule)
    assert hist.dtype == np.int64 and hist.shape == (len(schedule), 1 << k)
    for row, N in zip(hist, schedule):
        words = Counter(sum(E.member(h + lo + j) << j for j in range(k))
                        for h in range(start, start + N))
        assert {w: int(c) for w, c in enumerate(row) if c} == dict(words)


@pytest.mark.parametrize("right", [False, True])
@pytest.mark.parametrize("complement", [False, True])
@pytest.mark.parametrize("name", BOXES)
def test_pattern_histograms_brute_force_on_boxes(name, complement, right):
    f, E = BOXES[name]
    E = Complement(E) if complement else E
    group = f.group
    # the radius-1 ball and one far element: 6 (H3) and 10 (Z^2) bits
    ball = group.word_ball(1) + [(3, -2) if name == "z2" else (2, -1, 3)]
    schedule = [2, 5, 3]
    hist = pattern_histograms(E, f, ball, schedule, right)
    assert hist.dtype == np.int64 and hist.shape == (len(schedule), 1 << len(ball))
    for row, N in zip(hist, schedule):
        words = Counter(sum(E.member(group.mul(h, g) if right else group.mul(g, h)) << j
                            for j, g in enumerate(ball))
                        for h in f.elements(N))
        assert {w: int(c) for w, c in enumerate(row) if c} == dict(words)


def per_tuple(E, f, spec, schedule):
    """The spectrum from `density_at`, one tuple and one index at a time."""
    for t, d in spec.densities.items():
        vals = [density_at(E, t, f, N) for N in schedule]
        assert d == vals[-1], t
        assert spec.oscillations[t] == max(vals) - min(vals), t


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 10 ** 6), start=STARTS,
       schedule=SCHEDULES, depth=st.integers(1, 3), radius=st.integers(0, 9))
@example(kind="rotation", seed=3, start=2 ** 62 - 4096, schedule=[1, 700, 1500], depth=3,
         radius=9)
def test_histogram_spectrum_equals_density_at(kind, seed, start, schedule, depth, radius):
    E = make_set(kind, seed, start, max(schedule) + radius)
    f = FolnerSpec(Z, "interval", start=start)
    spec = correlation_spectrum(E, f, depth, radius, schedule)
    per_tuple(E, f, spec, schedule)


@pytest.mark.parametrize("kind", KINDS)
def test_spectrum_at_the_histogram_boundary(kind):
    # radius 15 (16 points) is counted from the histogram, radius 16 per tuple
    start, schedule = -777, [97, 250, 301]
    E = make_set(kind, 5, start, max(schedule) + 16)
    f = FolnerSpec(Z, "interval", start=start)
    wide = correlation_spectrum(E, f, 2, HISTOGRAM_BITS, schedule)
    narrow = correlation_spectrum(E, f, 2, HISTOGRAM_BITS - 1, schedule)
    assert narrow.densities == {t: wide.densities[t] for t in narrow.densities}
    assert narrow.oscillations == {t: wide.oscillations[t] for t in narrow.oscillations}
    per_tuple(E, f, narrow, schedule)


def per_cylinder(E, f, table, schedule):
    """The cylinder table from `cylinder_count`, one cylinder and index at a time."""
    for row in table.rows:
        counts = [cylinder_count(E, row.cylinder, f, N) for N in schedule]
        assert list(row.counts.items()) == list(zip(schedule, counts)), row.cylinder
        assert all(type(c) is int for c in row.counts.values())
        values = [Fraction(c, f.size(N)) for c, N in zip(counts, schedule)]
        assert list(row.values.values()) == values
        assert row.oscillation == max(values) - min(values)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 10 ** 6), start=STARTS,
       schedule=SCHEDULES, depth=st.integers(1, 3), radius=st.integers(1, 4))
def test_histogram_cylinder_table_equals_cylinder_count(kind, seed, start, schedule, depth,
                                                        radius):
    E = make_set(kind, seed, start, max(schedule) + radius)
    f = FolnerSpec(Z, "interval", start=start)
    per_cylinder(E, f, furstenberg_report(E, f, radius, depth, schedule), schedule)


@pytest.mark.parametrize("kind", KINDS)
def test_cylinder_table_at_the_histogram_boundary(kind):
    # radius 7 (a 15-point ball) is counted from the histogram, radius 8 per cylinder
    start, schedule = 10 ** 15, [40, 123]
    E = make_set(kind, 11, start, max(schedule) + 8)
    f = FolnerSpec(Z, "interval", start=start)
    for radius in (7, 8):
        per_cylinder(E, f, furstenberg_report(E, f, radius, 2, schedule), schedule)


@pytest.mark.parametrize("complement", [False, True])
@pytest.mark.parametrize("name", BOXES)
def test_box_tables_equal_per_item_counts(name, complement):
    # radius 1 (5 or 9 elements) is counted from the histogram; a radius-2
    # spectrum (17 or 25 elements) per tuple
    f, E = BOXES[name]
    E = Complement(E) if complement else E
    schedule = [2, 3, 5]
    for depth, radius in [(3, 1), (2, 2)]:
        per_tuple(E, f, correlation_spectrum(E, f, depth, radius, schedule), schedule)
    per_cylinder(E, f, furstenberg_report(E, f, 1, 3, schedule), schedule)


def test_h3_cylinder_table_reads_each_index_once(monkeypatch):
    calls = []
    coords = FolnerSpec.coords
    monkeypatch.setattr(FolnerSpec, "coords", lambda self, N: calls.append(N) or coords(self, N))
    f, E = BOXES["h3"]
    schedule = [2, 3, 4, 5]
    furstenberg_report(E, f, 1, 2, schedule)
    # the table reads each index once, which also gives the density estimate, nu(A)
    # and the subsequence of A: not once per cylinder, and A is not recounted
    assert sorted(calls) == sorted(schedule)


@pytest.fixture
def computes(monkeypatch):
    """The (lo, hi) of every window a congruence or rotation set computes."""
    calls = []
    for cls in (sets.Congruence, sets.RotationSet):
        compute = cls._compute_bits
        monkeypatch.setattr(cls, "_compute_bits", lambda self, lo, hi, compute=compute:
                            calls.append((lo, hi)) or compute(self, lo, hi))
    return calls


WIDE = [1 << j for j in range(10, 21)]
SETS = (lambda: Congruence(0, 3), lambda: RotationSet("golden", Fraction(2, 5)))


def test_spectrum_builds_one_window(computes):
    # a depth-3 radius-8 spectrum over 11 dyadic indices used to grow each
    # window once per index
    f = FolnerSpec(Z, "interval", start=0)
    for make in SETS:
        E = make()
        computes.clear()
        correlation_spectrum(E, f, 3, 8, WIDE)
        assert computes == [(0, (1 << 20) + 8)]
        # the cylinder table reads [-3, 2^20 + 3), which is not inside the spectrum's
        # window, so it computes its own once
        furstenberg_report(E, f, 3, 3, WIDE)
        assert computes == [(0, (1 << 20) + 8), (-3, (1 << 20) + 3)]


def test_schedule_counts_build_one_window(computes):
    # an upper density over 11 indices used to compute one window and grow it 10
    # times; a table over a ball past HISTOGRAM_BITS, counted list by list at
    # ascending indices, reads its widest window first as well
    f = FolnerSpec(Z, "interval", start=0)
    for make in SETS:
        computes.clear()
        upper_density(make(), f, WIDE)
        assert computes == [(0, 1 << 20)]
        computes.clear()
        furstenberg_report(make(), f, 8, 1, WIDE[:4])
        assert computes == [(-8, (1 << 13) + 8)]


def test_bitmask_short_of_the_hull_refused(tmp_path, capsys):
    schedule = [16, 64]
    f = FolnerSpec(Z, "interval", start=0)
    # the spectrum reads [0, 64 + 8) and the cylinder table [-2, 64 + 2)
    for lo, n, count in [(0, 71, lambda E: correlation_spectrum(E, f, 2, 8, schedule)),
                         (-2, 67, lambda E: furstenberg_report(E, f, 2, 2, schedule))]:
        count(Bitmask(lo, [1] * (n + 1)))
        with pytest.raises(WindowExceededError, match="window exceeded"):
            count(Bitmask(lo, [1] * n))
    cfg = {"group": {"kind": "Z"}, "folner": {"shape": "interval", "start": 0},
           "schedule": schedule, "sets": {"b": {"rule": "bitmask", "bits": "1" * 71}},
           "tasks": [{"task": "spectrum", "set": "b", "depth": 2, "radius": 8}]}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", "--config", str(path)]) == 2
    assert "window exceeded" in capsys.readouterr().err
