"""Acceptance gate: one criterion per test, one pass/fail line each.

The lines are printed in the "acceptance criteria" section of the pytest
terminal summary (see conftest).
"""
import itertools
import time
from fractions import Fraction

import numpy as np

from folnersys import (
    Bitmask, ComponentCongruence, Congruence, CylinderSpec, DyadicBlocks,
    FolnerSpec, GroupSpec, MarkovSystem, RotationSet, RotationSystem,
    additivity_check, compare_pairs, density_at, exponential_oracle,
    extract_subsequence, intersection_count, invariance_defect,
    pair_correlation_fft, pair_correlation_naive, scheme_normalization,
    upper_density, verify_correspondence, weighted_moment,
)
from folnersys.moments import AveragingScheme, ExponentialFn, NormalizerRule, WeightRule
from folnersys.spectrum import CONSISTENT, DISTINGUISHED

Z = GroupSpec("Z")
H3 = GroupSpec("H3")
FZ = FolnerSpec(Z, "interval", start=0)
FZ1 = FolnerSpec(Z, "interval", start=1)
FH = FolnerSpec(H3, "heisenberg_box")


def test_acceptance_1_rotation_correspondence(acceptance):
    t0 = time.perf_counter()
    system = RotationSystem("golden", Fraction(1, 2))
    queries = [
        q for r in (1, 2, 3) for q in itertools.combinations(range(9), r)
    ]
    report = verify_correspondence(system, queries, FZ, [10**6])
    elapsed = time.perf_counter() - t0
    worst = max(row.deviation for row in report.rows)
    acceptance.check(
        1,
        report.passed and worst <= 5e-3 and elapsed < 30.0,
        f"golden rotation, {len(queries)} queries at N=10^6, "
        f"max deviation {worst:.2e} <= 5e-3, {elapsed:.1f}s < 30s",
    )


def test_acceptance_2_exact_additivity(acceptance):
    rng = np.random.default_rng(20240823)
    sources = [
        Congruence(0, 2), Congruence(1, 3), DyadicBlocks(),
        RotationSet("golden", Fraction(1, 2)),
    ]
    failures = 0
    for _ in range(1000):
        E = sources[int(rng.integers(len(sources)))]
        depth = int(rng.integers(1, 4))
        support = rng.choice(np.arange(-4, 5), size=depth, replace=False)
        C = CylinderSpec.make(Z, {int(h): int(rng.integers(2)) for h in support})
        h = int(rng.integers(5, 10)) * (1 if rng.integers(2) else -1)
        N = int(rng.integers(50, 1000))
        ok, residual = additivity_check(E, C, h, FZ1, N)
        if not ok or residual != 0:
            failures += 1
    acceptance.check(
        2, failures == 0,
        f"1000 randomized additivity instances, residual exactly 0 "
        f"({failures} failures)",
    )


def test_acceptance_3_invariance_defect_bound(acceptance):
    rng = np.random.default_rng(314159)
    z_sources = [Congruence(0, 2), Congruence(2, 5),
                 RotationSet("sqrt2", Fraction(1, 3)), DyadicBlocks()]
    h3_sources = [
        ComponentCongruence(H3, [(0, 2), None, None]),
        ComponentCongruence(H3, [None, (1, 2), (0, 3)]),
        ComponentCongruence(H3, [(1, 3), (0, 2), None]),
    ]
    violations = 0
    for _ in range(700):
        E = z_sources[int(rng.integers(len(z_sources)))]
        depth = int(rng.integers(1, 3))
        support = rng.choice(np.arange(-3, 4), size=depth, replace=False)
        C = CylinderSpec.make(Z, {int(h): int(rng.integers(2)) for h in support})
        g = int(rng.integers(-8, 9))
        N = int(rng.integers(32, 2048))
        v = invariance_defect(E, C, g, FZ1, N)  # asserts the bound internally
        if v > FZ1.defect(N, g):
            violations += 1
    h3_ns = [4, 8, 16, 32]
    for _ in range(300):
        E = h3_sources[int(rng.integers(len(h3_sources)))]
        support = [(0, 0, 0), tuple(int(x) for x in rng.integers(-1, 2, size=3))]
        C = CylinderSpec.make(
            H3, {h: int(rng.integers(2)) for h in dict.fromkeys(support)})
        g = tuple(int(x) for x in rng.integers(-2, 3, size=3))
        N = h3_ns[int(rng.choice(4, p=[0.4, 0.3, 0.2, 0.1]))]
        v = invariance_defect(E, C, g, FH, N)
        if v > FH.defect(N, g):
            violations += 1
    acceptance.check(
        3, violations == 0,
        f"1000 randomized invariance instances (300 Heisenberg, N <= 32), "
        f"defect bound held exactly ({violations} violations)",
    )


def test_acceptance_4_kernel_equivalence(acceptance):
    rng = np.random.default_rng(271828)
    mismatches = 0
    total = 0
    for _ in range(950):
        N = 1 << int(rng.integers(4, 13))  # 16 .. 4096
        H = int(rng.integers(1, 5))
        kind = int(rng.integers(3))
        if kind == 0:
            bits = rng.integers(0, 2, size=N + 2 * H + 16)
            E = Bitmask(-H - 8, bits)
        elif kind == 1:
            E = Congruence(int(rng.integers(7)), int(rng.integers(2, 8)))
        else:
            E = RotationSet(Fraction(int(rng.integers(1, 97)), 97),
                            Fraction(1, 2), x0=Fraction(int(rng.integers(97)), 97))
        naive = pair_correlation_naive(E, FZ, N, H)
        if pair_correlation_fft(E, FZ, N, H) != naive:
            mismatches += 1
        total += 1
    g2 = GroupSpec("Zd", 2)
    f2 = FolnerSpec(g2, "box", anchor=(0, 0))
    for _ in range(50):
        N = int(rng.integers(8, 33))
        H = int(rng.integers(1, 3))
        E = ComponentCongruence(
            g2, [(int(rng.integers(3)), int(rng.integers(2, 5))), None])
        if pair_correlation_fft(E, f2, N, H) != pair_correlation_naive(E, f2, N, H):
            mismatches += 1
        total += 1
    acceptance.check(
        4, mismatches == 0 and total == 1000,
        f"1000 random kernel instances (N <= 4096), the pair-correlation kernel "
        f"equals naive counting bit for bit ({mismatches} mismatches)",
    )


def test_acceptance_5_spectrum_criterion(acceptance):
    schedule = [60, 600, 6000]  # multiples of 6 keep both spectra exact
    evens = Congruence(0, 2)
    odds = Congruence(1, 2)
    thirds = Congruence(0, 3)
    same = compare_pairs((evens, FZ), (odds, FZ), 3, 8, schedule, 1e-9)
    diff = compare_pairs((evens, FZ), (thirds, FZ), 3, 8, schedule, 1e-9)
    ok = (
        same.verdict == CONSISTENT
        and same.max_discrepancy == 0
        and diff.verdict == DISTINGUISHED
        and diff.witness_discrepancy == Fraction(1, 6)
    )
    acceptance.check(
        5, ok,
        f"evens vs odds {same.verdict} (discrepancy {same.max_discrepancy}), "
        f"evens vs thirds {diff.verdict} (witness {diff.witness} discrepancy "
        f"{diff.witness_discrepancy}) at depth 3, radius 8",
    )


def test_acceptance_6_nonconvergent_density(acceptance):
    d = DyadicBlocks()
    # independent counting oracle first: closed form against the library
    # count, plus a pure-python membership loop at one mid-size index
    oracle_ok = True
    for m in range(2, 12):
        N = 1 << (2 * m + 1)
        closed = (4 ** (m + 1) - 1) // 3
        if intersection_count(d, (0,), FZ1, N) != closed:
            oracle_ok = False
    N_loop = 1 << 12
    brute = sum(1 for n in range(1, N_loop + 1)
                if n.bit_length() % 2 == 1)
    if intersection_count(d, (0,), FZ1, N_loop) != brute:
        oracle_ok = False

    schedule = [1 << k for k in range(4, 25)]
    est, attaining = upper_density(d, FZ1, schedule, tol=Fraction(1, 50))
    odd_exponents = [1 << k for k in range(5, 25, 2)]
    sub = extract_subsequence(d, [(0,)], FZ1, schedule, 0.05)
    ok = (
        oracle_ok
        and abs(est - Fraction(2, 3)) <= Fraction(1, 1000)
        and attaining == odd_exponents
        and sub == odd_exponents
    )
    acceptance.check(
        6, ok,
        f"dyadic-block upper density {float(est):.6f} within 10^-3 of 2/3, "
        f"attained and extracted exactly on the odd-exponent indices "
        f"2^5..2^23 (counting oracle {'ok' if oracle_ok else 'FAILED'})",
    )


def test_acceptance_7_exponential_moments(acceptance):
    rng = np.random.default_rng(1618)
    scheme = AveragingScheme(FZ1)
    N = 10**6
    worst = 0.0
    count = 0
    while count < 100:
        if rng.random() < 0.3:
            theta = float(rng.random())
            g1, g2 = (int(x) for x in rng.integers(0, 9, size=2))
            thetas = [theta]
            q = [(1, False, g1), (1, True, g2)]  # exact cancellation branch
        else:
            r = int(rng.integers(1, 4))
            thetas = [float(rng.random()) for _ in range(r)]
            q = [(i + 1, bool(rng.integers(2)), int(rng.integers(0, 9)))
                 for i in range(r)]
            total = sum((-t if c else t)
                        for (_, c, _), t in zip(q, thetas))
            dist = abs(total - round(total))
            if 1e-9 < dist < 2e-3:
                continue  # too close to resonance for the N=10^6 bound
        value = weighted_moment([ExponentialFn(t) for t in thetas], q, scheme, N)
        oracle = exponential_oracle(thetas, q, scheme)
        worst = max(worst, abs(value - oracle))
        count += 1

    norm_ok = all(
        scheme_normalization(
            AveragingScheme(FZ1, WeightRule("linear"), NormalizerRule("linear_mean")),
            n) == 1
        for n in list(range(1, 60)) + [1000, 10**6]
    )
    acceptance.check(
        7, worst <= 1e-3 and norm_ok,
        f"100 random exponential moments at N=10^6, max oracle deviation "
        f"{worst:.2e} <= 10^-3; linear-weight normalization exactly 1 "
        f"({'ok' if norm_ok else 'FAILED'})",
    )


def test_acceptance_8_markov_statistical(acceptance):
    system = MarkovSystem([[0.7, 0.3], [0.4, 0.6]], accept=[1])
    queries = [(0, gap) for gap in (1, 2, 3, 4)]
    first = verify_correspondence(system, queries, FZ, [10**5], start=42)
    second = verify_correspondence(system, queries, FZ, [10**5], start=42)
    worst = max(row.deviation / row.tolerance for row in first.rows)
    ok = first.passed and first.to_dict() == second.to_dict()
    acceptance.check(
        8, ok,
        f"seeded Markov orbit at N=10^5 within the 4-sigma band for all "
        f"pair queries with gaps <= 4 (worst deviation {worst:.2f} sigma-"
        f"bands), bit-identical on re-run",
    )
