"""Weighted correlation moments of disk-valued function families.

An averaging scheme is a Folner sequence with a nonnegative weight a(g)
and a normalizer b(N) whose combination (1/(b(N)|F_N|)) sum a(g) tends to
one.  The moment of a query [(i, conj, g_i), ...] against a family
(f_1,...,f_l) is the finite-N value of

    (1/(b(N)|F_N|)) sum_{g in F_N} a(g) prod_i f~_i(g_i g)

with f~ the function or its conjugate.  An all-indicator moment under the unit
weight is a count: under the unit scheme an exact intersection density.  Every
rule of the scheme is checked by `check_scheme`, which validation calls too.

On an interval of Z every factor is a slice of its function's window
(`functions.FunctionSpec.window`), filled once per task by `moment_table`.  A table
builds each query's weighted product once, over F_M for the largest index M, in one
buffer it reuses for every query, and reads the moment at each N as a prefix sum of
it; the value is bit for bit the one built over F_N alone.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._numpy import np
from .density import window_count
from .errors import CapExceededError
from .functions import (  # noqa: F401  (the function specs stay importable from here)
    ConjFn, ExponentialFn, FunctionSpec, IndicatorFn, ProductFn, RandomDiskFn,
)
from .groups import FolnerSpec, INT_Z, SHAPE_INTERVAL, Element
from .spectrum import TUPLE_CAP

Factor = Tuple[int, bool, Element]  # (1-based function index, conjugate?, shift)

# points of a conjugated factor copied at a time into a table's product, so that no
# second window-sized array exists
CONJ_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# weights and normalizers


@dataclass(frozen=True)
class WeightRule:
    """Named catalog: one, linear (a(n)=n), exp_decay(rate), or a custom table."""

    kind: str
    rate: float = 0.0
    table: Optional[tuple] = None

    def values(self, n: np.ndarray) -> np.ndarray:
        """Weights at the 1-D int64 points n of a window that `check_scheme` accepted."""
        if self.kind == "one":
            return np.ones(len(n))
        if self.kind == "linear":
            return n.astype(np.float64)
        if self.kind == "exp_decay":  # exp(-rate |n|), computed in place
            w = np.abs(n).astype(np.float64)
            np.multiply(-self.rate, w, out=w)
            return np.exp(w, out=w)
        if self.kind == "custom":
            lookup = dict(self.table)
            return np.array([lookup[k] for k in n.tolist()], dtype=np.float64)
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
            lookup = dict(self.table)
            if N not in lookup:
                raise ValueError(f"custom normalizer table has no entry for {N}")
            return lookup[N]
        raise ValueError(f"unknown normalizer rule {self.kind!r}")

    @property
    def is_unit(self) -> bool:
        return self.kind == "one"


@dataclass(frozen=True)
class AveragingScheme:
    folner: FolnerSpec
    weight: WeightRule = WeightRule("one")
    normalizer: NormalizerRule = NormalizerRule("one")


def check_scheme(s: AveragingScheme, N: int) -> Union[Fraction, float]:
    """b(N), once every refusal of the scheme at N has been made by arithmetic alone,
    the weight's first: a non-unit weight off Z, a linear weight on a window with a
    negative point, a custom weight table with a negative entry or missing a point of
    F_N (the first, found in O(len(table)) steps), then a missing normalizer, or one
    that is 0, negative or outside the float range."""
    w = s.weight
    if not w.is_unit:
        if s.folner.group.kind != INT_Z:
            raise ValueError(f"{w.kind} weight is defined on Z only")
        start, stop = s.folner.start, s.folner.start + N
        if w.kind == "linear" and start < 0:
            raise ValueError("linear weight needs a nonnegative window")
        if w.kind == "custom":
            for k, v in w.table:
                if v < 0:
                    raise ValueError(f"custom weight table entry for {k} is negative")
            keys, n = {k for k, _ in w.table}, start
            while n < stop and n in keys:
                n += 1
            if n < stop:
                raise ValueError(f"custom weight table has no entry for {n}")
    b = s.normalizer.value(N)
    try:
        x = float(b)
    except OverflowError:
        x = math.inf
    if x <= 0 or not math.isfinite(x):
        raise ValueError("degenerate normalizer" + (
            "" if b == 0 else f": b({N}) is negative" if x < 0
            else f": b({N}) is outside the float range"))
    return b


def check_moment_reads(family: Sequence[Optional[FunctionSpec]],
                       queries: Sequence[Sequence[Factor]], s: AveragingScheme,
                       schedule: Sequence[int]) -> None:
    """Refuse, by arithmetic alone, what `moment_table` refuses first of a function
    defined on Z only and of the scheme (`check_scheme`), on checked queries.  An
    indicator may be given as None: it is defined on every group."""
    checked = False
    for q in queries:
        fns = [family[i - 1] for i, _, _ in q]
        indicators = [f is None or isinstance(f, IndicatorFn) for f in fns]
        if s.weight.is_unit and s.normalizer.is_unit and all(indicators):
            continue  # counted exactly: neither rule is read
        if s.folner.shape != SHAPE_INTERVAL and not all(indicators):
            raise ValueError(f"{type(fns[indicators.index(False)]).__name__} "
                             f"is defined on Z only")
        for N in () if checked else schedule:  # the rules read the same at every query
            check_scheme(s, N)
        checked = True


def scheme_normalization(s: AveragingScheme, N: int) -> Union[Fraction, float]:
    """(1/(b(N)|F_N|)) sum_{g in F_N} a(g); exact when both rules are rational."""
    b = check_scheme(s, N)
    w, size = s.weight, s.folner.size(N)
    if w.is_unit:
        return Fraction(size) / (b * size) if isinstance(b, Fraction) else size / (float(b) * size)
    rational = w.kind == "linear" or (
        w.kind == "custom" and all(isinstance(v, (int, Fraction)) for _, v in w.table))
    start, stop = s.folner.start, s.folner.start + N
    if not (rational and isinstance(b, Fraction)):
        n = np.arange(start, stop, dtype=np.int64)
        return float(np.sum(w.values(n))) / (float(b) * size)
    # exact in Python ints: an int64 sum wraps for windows near 2^62
    if w.kind == "linear":
        total = N * start + N * (N - 1) // 2
    else:
        lookup = dict(w.table)
        total = sum(lookup[n] for n in range(start, stop))
    return Fraction(total) / (b * size)


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
    """Exact rational value for all-indicator unweighted moments; a conjugated
    0/1 function is itself.

    Returns None when the query does not admit the exact counting path.
    """
    _check_query(family, query)
    if not (s.weight.is_unit and s.normalizer.is_unit):
        return None
    if not all(isinstance(family[i - 1], IndicatorFn) for i, _, _ in query):
        return None
    terms = [(family[i - 1].E, g, 1) for i, _, g in query]
    return Fraction(window_count(terms, s.folner, N), s.folner.size(N))


def _times(prod: np.ndarray, vals: np.ndarray) -> None:
    """prod *= vals, bit for bit as over a longer array: numpy multiplies a single
    element into itself by another loop, but out of place by the same one."""
    if len(prod) > 1:
        prod *= vals
    else:
        prod[...] = prod * vals


def _interval_product(family: Sequence[FunctionSpec], query: Sequence[Factor],
                      f: FolnerSpec, N: int) -> np.ndarray:
    """prod_i f~_i(g_i + n) over F_N = [start, start+N), built in place from slices of
    the functions' windows, which are never written to."""
    prod = None
    for i, conj, g in query:
        f.group.check(g)
        vals = family[i - 1].window(f.start + g, f.start + g + N)
        if prod is None or conj:
            vals = vals.astype(np.complex128)
            if conj:
                np.conj(vals, out=vals)
        if prod is None:
            prod = vals
        else:
            _times(prod, vals)
    return prod


class ProductBuffer:
    """A table's scratch on an interval of Z: one complex buffer over F_M, the weights
    over F_M, and the query whose weighted product the buffer holds."""

    def __init__(self, s: AveragingScheme, M: int):
        self.s, self.M = s, M
        self.buf = self.weights = self.key = None

    def product(self, family: Sequence[FunctionSpec], query: Sequence[Factor],
                N: int) -> np.ndarray:
        """The query's weighted product over F_N, a prefix of the buffer."""
        key = tuple(map(tuple, query))
        if key != self.key:
            self._fill(family, query)
            self.key = key
        return self.buf[:N]

    def _fill(self, family: Sequence[FunctionSpec], query: Sequence[Factor]) -> None:
        f, M = self.s.folner, self.M
        if self.buf is None:  # at the first product only, the weights first so that
            # their temporaries are freed before the buffer exists
            if not self.s.weight.is_unit:
                self.weights = self.s.weight.values(
                    np.arange(f.start, f.start + M, dtype=np.int64))
            self.buf = np.empty(M, dtype=np.complex128)
        buf, part = self.buf, None
        for k, (i, conj, g) in enumerate(query):
            f.group.check(g)
            vals = family[i - 1].window(f.start + g, f.start + g + M)
            if k == 0:
                np.copyto(buf, vals)
                if conj:
                    np.conj(buf, out=buf)
            elif not conj:
                buf *= vals
            else:
                part = np.empty(min(CONJ_CHUNK, M), dtype=np.complex128) if part is None else part
                for a in range(0, M, CONJ_CHUNK):
                    chunk = part[:min(CONJ_CHUNK, M - a)]
                    np.copyto(chunk, vals[a:a + len(chunk)])
                    np.conj(chunk, out=chunk)
                    _times(buf[a:a + len(chunk)], chunk)
        if self.weights is not None:
            buf *= self.weights


def weighted_moment(
    family: Sequence[FunctionSpec],
    query: Sequence[Factor],
    s: AveragingScheme,
    N: int,
    work: Optional[ProductBuffer] = None,
) -> complex:
    """Finite-N weighted moment.  An all-indicator query is counted: exactly under the
    unit scheme (`moment_exact`), else, under the unit weight, by `window_count` on any
    window.  Any other query, which `check_moment_reads` refuses off Z, is the sum of
    the product of its factors' windows on an interval of Z: at N > 1 a prefix of
    `work`'s product when a table gives one, else built over F_N alone."""
    exact = moment_exact(family, query, s, N)  # also validates the query
    if exact is not None:
        return complex(exact)
    check_moment_reads(family, [query], s, [N])
    f = s.folner
    if s.weight.is_unit and all(isinstance(family[i - 1], IndicatorFn) for i, _, _ in query):
        total = complex(window_count([(family[i - 1].E, g, 1) for i, _, g in query], f, N))
    elif work is not None and N > 1:
        total = complex(np.sum(work.product(family, query, N)))
    else:
        prod = _interval_product(family, query, f, N)
        if not s.weight.is_unit:
            prod *= s.weight.values(np.arange(f.start, f.start + N, dtype=np.int64))
        total = complex(np.sum(prod))  # numpy pairwise summation keeps error tiny
    return total / (float(s.normalizer.value(N)) * f.size(N))


def moment_table(family: Sequence[FunctionSpec], queries: Sequence[Sequence[Factor]],
                 s: AveragingScheme, schedule: Sequence[int]) -> List[List[complex]]:
    """The weighted moment of each query at each N of the schedule.  Once every query
    is validated, each function's window, an indicator's being its set's, is filled at
    once over the hull of the factor windows [start+g, start+g+M), M = max(schedule),
    if they chain into one interval, so every factor reads a slice of it; shifts
    further apart are left to `window`, which fills no gap.  When every window chains
    and the scheme passes `check_scheme` at M, so that a product over F_M refuses
    nothing the schedule's own indices would not, each query's product is built once
    in one `ProductBuffer`."""
    for q in queries:
        _check_query(family, q)
    M = max(schedule)
    chained = interval = s.folner.shape == SHAPE_INTERVAL
    for i in dict.fromkeys(i for q in queries for i, _, _ in q) if interval else ():
        gs = sorted({g for q in queries for j, _, g in q if j == i})
        if all(b - a <= M for a, b in zip(gs, gs[1:])):
            family[i - 1].window(s.folner.start + gs[0], s.folner.start + gs[-1] + M)
        else:
            chained = False
    work = None
    if chained and M > 1:
        try:
            check_scheme(s, M)
        except ValueError:
            pass  # the index that the schedule reaches first makes the refusal
        else:
            work = ProductBuffer(s, M)
    return [[weighted_moment(family, q, s, N, work) for N in schedule] for q in queries]


@dataclass
class AccordanceRow:
    query: Tuple[Factor, ...]
    oscillations: Dict[Tuple[bool, ...], float]
    accordant: bool


def check_variant_count(queries: Sequence[Sequence[Factor]], conj_depth: int,
                        what: str = "conjugation variant") -> None:
    """Refuse more than TUPLE_CAP query variants of `accordance_check`, before any is listed."""
    total = sum(1 << len(q) if len(q) <= conj_depth else 1 for q in queries)
    if total > TUPLE_CAP:
        size = total if total < 1 << 64 else f"over 2^{total.bit_length() - 1}"
        raise CapExceededError(f"{what} count {size} exceeds cap {TUPLE_CAP}")


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
    queries = [tuple((int(i), bool(c), g) for i, c, g in q) for q in queries]
    check_variant_count(queries, conj_depth)
    patterns = [list(itertools.product((False, True), repeat=len(q))) if len(q) <= conj_depth
                else [tuple(c for _, c, _ in q)] for q in queries]
    variants = [tuple((i, c, g) for (i, _, g), c in zip(q, pat))
                for q, pats in zip(queries, patterns) for pat in pats]
    values = iter(moment_table(family, variants, s, schedule))
    rows = []
    for q, pats in zip(queries, patterns):
        oscs = {pat: float(max((abs(a - b) for a, b in itertools.combinations(next(values), 2)),
                               default=0.0)) for pat in pats}
        rows.append(AccordanceRow(q, oscs, all(osc <= eps for osc in oscs.values())))
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
