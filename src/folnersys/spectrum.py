"""Correlation spectra and the finite isomorphism-consistency check.

The correlation spectrum of a pair (E, (F_N)) is the family of densities
of r-fold shifted intersections, indexed by canonical shift tuples (sorted,
duplicates removed, since permuting or repeating shifts does not change the
intersection).  Two pairs whose spectra agree to a chosen depth and radius
are CONSISTENT with having isomorphic symbolic systems at that scale; a
witnessed disagreement is conclusive and reported as DISTINGUISHED.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CapExceededError
from .groups import FolnerSpec, GroupSpec, INT_Z, Element
from .sets import SetSpec
from .density import constraint_counts

CanonicalTuple = Tuple[Element, ...]

TUPLE_CAP = 200000

CONSISTENT = "CONSISTENT"
DISTINGUISHED = "DISTINGUISHED"


def canonical_tuple(group: GroupSpec, shifts: Sequence[Element]) -> CanonicalTuple:
    """Sorted distinct form; intersection is permutation- and repeat-invariant."""
    return tuple(sorted(set(shifts)))


def shift_ball(group: GroupSpec, radius: int) -> List[Element]:
    """Shift alphabet for spectra: [0, radius] on Z (diagonal translation
    makes negative representatives redundant there), the word ball otherwise."""
    if group.kind == INT_Z:
        return list(range(radius + 1))
    return group.word_ball(radius)


def check_subset_count(what: str, n: int, depth: int, cap: int, weight=lambda r: 1) -> None:
    """Refuse more than `cap` subsets of 1..depth of n elements, an r-subset
    counting weight(r), before any is built; n over the cap may be a lower bound."""
    last = min(depth, n)
    total = 0
    for r in range(1, last + 1):
        total += math.comb(n, r) * weight(r)
        if total > cap:
            least = "at least " if r < last or n > cap else ""
            raise CapExceededError(f"{what} count {least}{total} exceeds cap {cap}")


def check_tuple_count(group: GroupSpec, r_max: int, radius: int, what: str = "tuple") -> None:
    """Refuse a spectrum of more than TUPLE_CAP canonical tuples, before any is built."""
    # the shift ball is [0, radius] on Z
    n = max(0, radius + 1) if group.kind == INT_Z else group.ball_size(radius, TUPLE_CAP)
    check_subset_count(what, n, r_max, TUPLE_CAP)


def canonical_tuples(group: GroupSpec, r_max: int, radius: int) -> List[CanonicalTuple]:
    ball = sorted(shift_ball(group, radius))
    out: List[CanonicalTuple] = []
    for r in range(1, r_max + 1):
        out.extend(itertools.combinations(ball, r))
    return out


@dataclass
class CorrelationSpectrum:
    group: GroupSpec
    r_max: int
    radius: int
    final_N: int
    densities: Dict[CanonicalTuple, Fraction]
    oscillations: Dict[CanonicalTuple, Fraction]

    def density(self, shifts: Sequence[Element]) -> Fraction:
        return self.densities[canonical_tuple(self.group, shifts)]

    def to_rows(self) -> List[dict]:
        return [
            {
                "tuple": [list(g) if isinstance(g, tuple) else g for g in t],
                "num": d.numerator,
                "den": d.denominator,
                "oscillation": float(self.oscillations[t]),
            }
            for t, d in self.densities.items()
        ]


def correlation_spectrum(
    E: SetSpec,
    f: FolnerSpec,
    r_max: int,
    radius: int,
    schedule: Sequence[int],
) -> CorrelationSpectrum:
    """Densities of every canonical tuple at the final schedule index,
    with per-tuple oscillation over the whole schedule.

    The tuple count is checked against TUPLE_CAP before any tuple is built.  A
    tuple's count is that of its shifts all constrained to 1 in `constraint_counts`.
    """
    check_tuple_count(E.group, r_max, radius)
    tuples = canonical_tuples(E.group, r_max, radius)
    final = max(schedule)
    counts = constraint_counts(E, f, [[(g, 1) for g in t] for t in tuples], schedule)
    densities, oscillations = {}, {}
    for t, row in zip(tuples, counts):
        vals = {N: Fraction(c, f.size(N)) for N, c in zip(schedule, row)}
        densities[t] = vals[final]
        oscillations[t] = max(vals.values()) - min(vals.values())
    return CorrelationSpectrum(E.group, r_max, radius, final, densities, oscillations)


@dataclass
class CompareVerdict:
    verdict: str
    max_discrepancy: Fraction
    witness: Optional[CanonicalTuple]
    witness_discrepancy: Optional[Fraction]
    inconclusive: List[CanonicalTuple]
    depth: int
    radius: int

    def to_dict(self) -> dict:
        def tup(t):
            return None if t is None else [list(g) if isinstance(g, tuple) else g for g in t]

        return {
            "verdict": self.verdict,
            "max_discrepancy": float(self.max_discrepancy),
            "witness": tup(self.witness),
            "witness_discrepancy": (
                None if self.witness_discrepancy is None else float(self.witness_discrepancy)
            ),
            "inconclusive": [tup(t) for t in self.inconclusive],
            "depth": self.depth,
            "radius": self.radius,
        }


def compare_pairs(
    pair1: Tuple[SetSpec, FolnerSpec],
    pair2: Tuple[SetSpec, FolnerSpec],
    r_max: int,
    radius: int,
    schedule: Sequence[int],
    eps: float,
) -> CompareVerdict:
    """Finite fragment of the spectrum-equality criterion.

    DISTINGUISHED is conclusive at this scale (a tuple's densities differ by
    more than eps); CONSISTENT only certifies agreement to depth r_max and
    radius `radius`.  Tuples whose own oscillation exceeds eps under either
    pair are flagged inconclusive and excluded: the criterion presumes the
    densities converge, so run extract_subsequence first for those.
    The witness is the earliest canonical tuple that distinguishes.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    E1, f1 = pair1
    E2, f2 = pair2
    if E1.group != E2.group:
        raise ValueError("pairs must live on the same group")
    s1 = correlation_spectrum(E1, f1, r_max, radius, schedule)
    s2 = correlation_spectrum(E2, f2, r_max, radius, schedule)
    # both in canonical order
    inconclusive = [t for t in s1.densities if s1.oscillations[t] > eps or s2.oscillations[t] > eps]
    skip = set(inconclusive)
    discs = {t: abs(d - s2.densities[t]) for t, d in s1.densities.items() if t not in skip}
    witness = next((t for t, disc in discs.items() if disc > eps), None)
    return CompareVerdict(DISTINGUISHED if witness is not None else CONSISTENT,
                          max(discs.values(), default=Fraction(0)), witness, discs.get(witness),
                          inconclusive, r_max, radius)
