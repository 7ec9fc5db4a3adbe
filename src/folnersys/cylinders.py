"""Empirical cylinder measures on the symbolic space {0,1}^G.

For a source set E with indicator sequence omega = (1_E(g)) and a cylinder
C = {x : x(h_i) = eps_i}, the empirical measure at window F_N is

    nu_N(C) = |{g in F_N : 1_E(g * h_i) = eps_i for all i}| / |F_N|

which is exactly the fraction of g in F_N whose shifted sequence S_g omega
lies in C.  Every count reads its columns g -> 1_E(g * h_i) from
`density.columns`, the one place a count reads F_N.  All values are exact
rationals; additivity over polarity splits is an integer counting identity
and must hold with residual exactly zero.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ._numpy import np
from .errors import NoConvergentSubsequenceError
from .groups import FolnerSpec, GroupSpec, Element
from .sets import SetSpec
from .density import columns, constraint_counts, select_subsequence, window_count
from .spectrum import check_subset_count


def frac(x) -> dict:
    """An exact rational (or a float) as report JSON."""
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator, "dec": f"{float(x):.12g}"}
    return {"dec": f"{float(x):.12g}"}


@dataclass(frozen=True)
class CylinderSpec:
    """Finite map {h_i -> eps_i}; the empty map denotes the full space."""

    constraints: Tuple[Tuple[Element, int], ...]

    @staticmethod
    def make(group: GroupSpec, constraints: Dict[Element, int]) -> "CylinderSpec":
        items = []
        for h, eps in constraints.items():
            group.check(h)
            if eps not in (0, 1):
                raise ValueError("polarity must be 0 or 1")
            items.append((h, eps))
        return CylinderSpec(tuple(sorted(items)))  # the elements are distinct

    def elements(self) -> Tuple[Element, ...]:
        return tuple(h for h, _ in self.constraints)

    def with_constraint(self, group: GroupSpec, h: Element, eps: int) -> "CylinderSpec":
        if h in self.elements():
            raise ValueError("constraint clash")
        return CylinderSpec.make(group, {**dict(self.constraints), h: eps})

    def shifted(self, group: GroupSpec, g: Element) -> "CylinderSpec":
        """S_g^{-1} C: constraints {g*h_i -> eps_i}."""
        return CylinderSpec.make(group, {group.mul(g, h): eps for h, eps in self.constraints})


def cylinder_count(E: SetSpec, C: CylinderSpec, f: FolnerSpec, N: int) -> int:
    """Exact |{g in F_N : 1_E(g*h_i) = eps_i for all i}|."""
    return window_count([(E, h, eps) for h, eps in C.constraints], f, N, right=True)


def cylinder_measure(E: SetSpec, C: CylinderSpec, f: FolnerSpec, N: int) -> Fraction:
    """nu_N(C) as an exact rational."""
    return Fraction(cylinder_count(E, C, f, N), f.size(N))


def additivity_check(
    E: SetSpec, C: CylinderSpec, h: Element, f: FolnerSpec, N: int,
) -> Tuple[bool, Fraction]:
    """Verify nu_N(C) = nu_N(C + {h->0}) + nu_N(C + {h->1}) exactly.

    Returns (ok, residual); the residual is an exact rational and must be 0.
    """
    # `with_constraint` refuses an h that C constrains before anything is counted
    parts = sum(
        cylinder_measure(E, C.with_constraint(E.group, h, eps), f, N) for eps in (0, 1)
    )
    residual = cylinder_measure(E, C, f, N) - parts
    return residual == 0, residual


def invariance_defect(
    E: SetSpec, C: CylinderSpec, g: Element, f: FolnerSpec, N: int,
) -> Fraction:
    r"""|nu_N(S_g^{-1} C) - nu_N(C)|, guaranteed <= |F_N \ F_N g| / |F_N|.

    The moved cylinder is counted over F_N g and the base one over F_N, so
    the counts differ by at most |F_N \ F_N g|, half the right defect of g;
    that bound is asserted.
    """
    base = cylinder_measure(E, C, f, N)
    moved = cylinder_measure(E, C.shifted(E.group, g), f, N)
    value = abs(moved - base)
    bound = f.right_defect(N, g) / 2
    if value > bound:
        raise AssertionError(
            f"invariance defect {value} exceeded half the right Folner defect {bound} "
            f"for g={g}")
    return value


# ---------------------------------------------------------------------------
# report generation


@dataclass
class MeasureRow:
    cylinder: CylinderSpec
    counts: Dict[int, int]
    values: Dict[int, Fraction]
    oscillation: Fraction


@dataclass
class MeasureTable:
    source: str
    folner: FolnerSpec
    schedule: List[int]
    rows: List[MeasureRow]
    density_estimate: Fraction
    nu_of_A: Fraction
    subsequence: Optional[List[int]]
    observed_patterns: Optional[List[Tuple[int, ...]]] = None

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "schedule": list(self.schedule),
            "density_estimate": frac(self.density_estimate),
            "nu_of_A": frac(self.nu_of_A),
            "subsequence": self.subsequence,
            "rows": [
                {
                    "cylinder": [[list(h) if isinstance(h, tuple) else h, eps]
                                 for h, eps in r.cylinder.constraints],
                    "counts": {str(N): c for N, c in r.counts.items()},
                    "values": {str(N): frac(v) for N, v in r.values.items()},
                    "oscillation": frac(r.oscillation),
                }
                for r in self.rows
            ],
            "observed_patterns": (
                None if self.observed_patterns is None
                else ["".join(map(str, p)) for p in self.observed_patterns]
            ),
        }


def check_cylinder_count(group: GroupSpec, support_radius: int, max_depth: int, cap: int,
                         what: str = "cylinder") -> None:
    """Refuse more than `cap` cylinders of `enumerate_cylinders`, before any is built."""
    check_subset_count(what, group.ball_size(support_radius, cap), max_depth, cap,
                       weight=lambda r: 2 ** r)


def enumerate_cylinders(
    group: GroupSpec, support_radius: int, max_depth: int, cap: int = 20000,
) -> List[CylinderSpec]:
    """All cylinders with support in the radius ball and <= max_depth constraints.

    Canonical order: supports in lexicographic element order, polarities
    enumerated 0 before 1.
    """
    check_cylinder_count(group, support_radius, max_depth, cap)
    ball = group.word_ball(support_radius)
    out = []
    for r in range(1, max_depth + 1):
        for support in itertools.combinations(ball, r):
            for pol in itertools.product((0, 1), repeat=r):
                out.append(CylinderSpec.make(group, dict(zip(support, pol))))
    return out


def furstenberg_report(
    E: SetSpec,
    f: FolnerSpec,
    support_radius: int,
    max_depth: int,
    schedule: Sequence[int],
    cylinder_cap: int = 20000,
    subsequence_eps: float = 0.05,
    collect_patterns: bool = False,
) -> MeasureTable:
    """Tabulate nu_N over the cylinder algebra of a support ball.

    Reports per-cylinder convergence oscillation over the schedule, the
    density estimate for the defining set against nu(A) (A the one-point
    cylinder at the identity), and the convergent subsequence for A when one
    exists at `subsequence_eps`.  Every cylinder count comes from one
    `constraint_counts` call over the whole table.
    """
    if support_radius < 1 or max_depth < 1:
        raise ValueError("support radius and depth must be >= 1")
    cyls = enumerate_cylinders(E.group, support_radius, max_depth, cap=cylinder_cap)
    rows = []
    for C, row in zip(cyls, constraint_counts(E, f, [C.constraints for C in cyls], schedule,
                                              right=True)):
        counts = dict(zip(schedule, row))
        values = {N: Fraction(c, f.size(N)) for N, c in counts.items()}
        osc = max(values.values()) - min(values.values())
        rows.append(MeasureRow(C, counts, values, osc))
    # A = {e -> 1} is one of the table's cylinders; its row holds E's densities
    e = E.group.identity()
    dens = next(r.values for r in rows if r.cylinder.constraints == ((e, 1),))
    try:
        sub = select_subsequence([dens], schedule, subsequence_eps)
    except NoConvergentSubsequenceError:
        sub = None
    patterns = None
    if collect_patterns:
        patterns = _observed_patterns(E, f, support_radius, max(schedule))
    return MeasureTable(
        source=E.describe(),
        folner=f,
        schedule=list(schedule),
        rows=rows,
        density_estimate=max(dens.values()),
        nu_of_A=dens[max(schedule)],
        subsequence=sub,
        observed_patterns=patterns,
    )


def _observed_patterns(E, f, radius, N):
    """Distinct words of S_g omega over the radius ball, g in F_N (opt-in)."""
    ball = E.group.word_ball(radius)
    column = columns(E, f, N, ball, right=True)
    words = np.stack([column(h).astype(np.int8) for h in ball], axis=1)
    return [tuple(int(v) for v in row) for row in np.unique(words, axis=0)]
