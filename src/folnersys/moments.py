"""Weighted correlation moments of disk-valued function families.

An averaging scheme is a Folner sequence with a nonnegative weight a(g)
and a normalizer b(N) whose combination (1/(b(N)|F_N|)) sum a(g) tends to
one.  The moment of a query [(i, conj, g_i), ...] against a family
(f_1,...,f_l) is the finite-N value of

    (1/(b(N)|F_N|)) sum_{g in F_N} a(g) prod_i f~_i(g_i g)

with f~ the function or its conjugate.  All-indicator unweighted moments
bypass floating point and reduce exactly to intersection densities.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .density import window_count
from .groups import FolnerSpec, GroupSpec, INT_Z, SHAPE_INTERVAL, Element
from .sets import SetSpec

Factor = Tuple[int, bool, Element]  # (1-based function index, conjugate?, shift)


# ---------------------------------------------------------------------------
# weights and normalizers


def _linear_points(n: np.ndarray) -> np.ndarray:
    """The window points as linear weights a(n) = n; a weight must be nonnegative."""
    if np.any(n < 0):
        raise ValueError("linear weight needs a nonnegative window")
    return n


def _table_values(table: tuple, keys, what: str) -> list:
    """The entries of a custom table at `keys`; a missing one is refused."""
    lookup = dict(table)
    try:
        return [lookup[k] for k in keys]
    except KeyError as e:
        raise ValueError(f"custom {what} table has no entry for {e.args[0]}") from None


@dataclass(frozen=True)
class WeightRule:
    """Named catalog: one, linear (a(n)=n), exp_decay(rate), or a custom table."""

    kind: str
    rate: float = 0.0
    table: Optional[tuple] = None

    def values(self, n: np.ndarray) -> np.ndarray:
        """Weights at the 1-D int64 window points n."""
        if self.kind == "one":
            return np.ones(len(n))
        if self.kind == "linear":
            return _linear_points(n).astype(np.float64)
        if self.kind == "exp_decay":
            return np.exp(-self.rate * np.abs(n).astype(np.float64))
        if self.kind == "custom":
            return np.array(_table_values(self.table, n.tolist(), "weight"), dtype=np.float64)
        raise ValueError(f"unknown weight rule {self.kind!r}")

    @property
    def is_unit(self) -> bool:
        return self.kind == "one"


@dataclass(frozen=True)
class NormalizerRule:
    """Named catalog: one, const(c), linear_mean (b(N)=(N+1)/2), custom table."""

    kind: str
    c: Union[int, float, Fraction] = 1
    table: Optional[tuple] = None

    def value(self, N: int) -> Union[Fraction, float]:
        if self.kind == "one":
            return Fraction(1)
        if self.kind == "const":
            return Fraction(self.c) if isinstance(self.c, (int, Fraction)) else self.c
        if self.kind == "linear_mean":
            return Fraction(N + 1, 2)
        if self.kind == "custom":
            return _table_values(self.table, [N], "normalizer")[0]
        raise ValueError(f"unknown normalizer rule {self.kind!r}")

    @property
    def is_unit(self) -> bool:
        return self.kind == "one"


@dataclass(frozen=True)
class AveragingScheme:
    folner: FolnerSpec
    weight: WeightRule = WeightRule("one")
    normalizer: NormalizerRule = NormalizerRule("one")


def _weight_points(s: AveragingScheme, coords: np.ndarray) -> np.ndarray:
    """The window coords as the points a non-unit weight is read at."""
    if s.folner.group.kind != INT_Z:
        raise ValueError(f"{s.weight.kind} weight is defined on Z only")
    return coords.reshape(-1)


def scheme_normalization(s: AveragingScheme, N: int) -> Union[Fraction, float]:
    """(1/(b(N)|F_N|)) sum_{g in F_N} a(g); exact when both rules are rational."""
    b = s.normalizer.value(N)
    if b == 0:
        raise ValueError("degenerate normalizer")
    w, size = s.weight, s.folner.size(N)
    if w.is_unit:
        return Fraction(size) / (b * size) if isinstance(b, Fraction) else size / (float(b) * size)
    n = _weight_points(s, s.folner.coords(N))
    rational = w.kind == "linear" or (
        w.kind == "custom" and all(isinstance(v, (int, Fraction)) for _, v in w.table))
    if not (rational and isinstance(b, Fraction)):
        return float(np.sum(w.values(n))) / (float(b) * size)
    # summed as Python ints: an int64 sum wraps for windows near 2^62
    if w.kind == "linear":
        total = sum(_linear_points(n).tolist())
    else:
        total = sum(_table_values(w.table, n.tolist(), "weight"))
    return Fraction(total) / (b * size)


# ---------------------------------------------------------------------------
# function specs


class FunctionSpec:
    """A function G -> closed unit disk, evaluatable on windows."""

    def at(self, n: np.ndarray) -> np.ndarray:
        """Values at a 1-D int64 array of Z points."""
        raise NotImplementedError

    def eval_coords(self, group: GroupSpec, coords: np.ndarray) -> np.ndarray:
        if group.kind != INT_Z:
            raise ValueError(f"{type(self).__name__} is defined on Z only")
        return self.at(coords.reshape(-1))

    def conj(self) -> "FunctionSpec":
        return ConjFn(self)


class ExponentialFn(FunctionSpec):
    """f(n) = exp(2 pi i theta n)."""

    def __init__(self, theta: float):
        try:
            self.theta = float(theta)
        except TypeError:
            raise ValueError(f"theta must be a number, got {theta!r}") from None

    def at(self, n):
        return np.exp(2j * np.pi * self.theta * n.astype(np.float64))


class IndicatorFn(FunctionSpec):
    def __init__(self, E: SetSpec):
        self.E = E

    def eval_coords(self, group, coords):
        return self.E.member_coords(coords).astype(np.complex128)


class RandomDiskFn(FunctionSpec):
    """Deterministic pseudo-random disk values, hashed per integer point."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def at(self, n):
        # negative int64 points wrap into the hash domain
        x = n.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        x *= np.uint64(self.seed * 2 + 1)
        # splitmix64 finalizer
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        r = (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        phase = ((x & np.uint64((1 << 53) - 1)).astype(np.float64) / float(1 << 53))
        return np.sqrt(r) * np.exp(2j * np.pi * phase)


class ConjFn(FunctionSpec):
    def __init__(self, inner: FunctionSpec):
        self.inner = inner

    def eval_coords(self, group, coords):
        return np.conj(self.inner.eval_coords(group, coords))

    def conj(self):
        return self.inner


class ProductFn(FunctionSpec):
    def __init__(self, a: FunctionSpec, b: FunctionSpec):
        self.a, self.b = a, b

    def eval_coords(self, group, coords):
        return self.a.eval_coords(group, coords) * self.b.eval_coords(group, coords)


# ---------------------------------------------------------------------------
# moments


def _check_query(family: Sequence[FunctionSpec], query: Sequence[Factor]) -> None:
    if not query:
        raise ValueError("moment query must be nonempty")
    for idx, _, _ in query:
        if not 1 <= idx <= len(family):
            raise ValueError(f"function index {idx} out of range for family of {len(family)}")


def moment_exact(
    family: Sequence[FunctionSpec],
    query: Sequence[Factor],
    s: AveragingScheme,
    N: int,
) -> Optional[Fraction]:
    """Exact rational value for all-indicator unconjugated unweighted moments.

    Returns None when the query does not admit the exact counting path.
    """
    _check_query(family, query)
    if not (s.weight.is_unit and s.normalizer.is_unit):
        return None
    if any(conj or not isinstance(family[i - 1], IndicatorFn) for i, conj, _ in query):
        return None
    terms = [(family[i - 1].E, g, 1) for i, _, g in query]
    return Fraction(window_count(terms, s.folner, N), s.folner.size(N))


def weighted_moment(
    family: Sequence[FunctionSpec],
    query: Sequence[Factor],
    s: AveragingScheme,
    N: int,
) -> complex:
    """Finite-N weighted moment; exact counting path taken when available."""
    exact = moment_exact(family, query, s, N)  # also validates the query
    if exact is not None:
        return complex(exact)
    group = s.folner.group
    coords = s.folner.coords(N)
    prod = None
    for i, conj, g in query:
        fn = family[i - 1].conj() if conj else family[i - 1]
        vals = fn.eval_coords(group, group.translate_left(g, coords))
        prod = vals if prod is None else prod * vals
    if not s.weight.is_unit:
        prod = prod * s.weight.values(_weight_points(s, coords))
    total = complex(np.sum(prod))  # numpy pairwise summation keeps error tiny
    b = float(s.normalizer.value(N))
    if b == 0:
        raise ValueError("degenerate normalizer")
    return total / (b * s.folner.size(N))


@dataclass
class AccordanceRow:
    query: Tuple[Factor, ...]
    oscillations: Dict[Tuple[bool, ...], float]
    accordant: bool


def accordance_check(
    family: Sequence[FunctionSpec],
    queries: Sequence[Sequence[Factor]],
    s: AveragingScheme,
    schedule: Sequence[int],
    eps: float,
    conj_depth: int = 3,
) -> List[AccordanceRow]:
    """Cauchy oscillation of each query over the schedule tail.

    For queries with at most `conj_depth` factors every conjugation pattern
    is tried (the definition quantifies over all of them); deeper queries
    keep their stated pattern only.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rows = []
    for q in queries:
        q = tuple((int(i), bool(c), g) for i, c, g in q)
        patterns = (itertools.product((False, True), repeat=len(q)) if len(q) <= conj_depth
                    else [tuple(c for _, c, _ in q)])
        oscs: Dict[Tuple[bool, ...], float] = {}
        for pat in patterns:
            variant = tuple((i, c, g) for (i, _, g), c in zip(q, pat))
            vals = [weighted_moment(family, variant, s, N) for N in schedule]
            oscs[pat] = float(max((abs(a - b) for a, b in itertools.combinations(vals, 2)),
                                  default=0.0))
        rows.append(AccordanceRow(q, oscs, not any(osc > eps for osc in oscs.values())))
    return rows


def exponential_oracle(
    thetas: Sequence[float],
    query: Sequence[Factor],
    s: AveragingScheme,
) -> complex:
    """Closed-form limit for pure exponential families under the unit scheme.

    With signs sigma_i = -1 for conjugated factors, Theta = sum sigma_i
    theta_i: the limit is exp(2 pi i sum sigma_i theta_i g_i) when Theta is
    an integer and 0 otherwise (equidistribution of the geometric sum).
    """
    if not (s.weight.is_unit and s.normalizer.is_unit
            and s.folner.shape == SHAPE_INTERVAL):
        raise ValueError("oracle undefined")
    for idx, _, _ in query:
        if not 1 <= idx <= len(thetas):
            raise ValueError(f"function index {idx} out of range for {len(thetas)} thetas")
    theta_total = 0.0
    phase = 0.0
    for i, conj, g in query:
        sigma = -1.0 if conj else 1.0
        theta_total += sigma * thetas[i - 1]
        phase += sigma * thetas[i - 1] * g
    if abs(theta_total - round(theta_total)) < 1e-12:
        return cmath.exp(2j * math.pi * (phase % 1.0))
    return 0j
