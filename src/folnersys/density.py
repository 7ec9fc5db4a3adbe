"""Multi-shift intersection densities along Folner sequences.

The central count is, for shifts (g_1,...,g_r) and the window F_N,

    |{h in F_N : g_i * h in E for all i}|

i.e. the window count of the intersection of the left-translated sets
g_i^{-1} E.  Counts are exact integers, ratios exact `Fraction`s.  Every count
reads F_N through `columns`, the one place that turns a set and a shift into
the boolean column h -> 1_E(g*h): a slice of one window over the hull on a Z
interval, membership on translated coordinates elsewhere.  Single counts, pair
correlation included, AND columns in `window_count`.  Spectra and cylinder
tables go through `constraint_counts`: a ball of at most HISTOGRAM_BITS
elements is counted from one `pattern_histograms` pass, and a larger ball list
by list with `window_count`.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from ._numpy import np
from .errors import NoConvergentSubsequenceError
from .groups import FolnerSpec, Element, GroupSpec, SHAPE_INTERVAL, SHAPE_BOX
from .sets import SetSpec, indicator_bits

Query = Tuple[Element, ...]

# the widest word `pattern_histograms` encodes: 2^16 int64 bins per index
HISTOGRAM_BITS = 16
# points encoded per bincount, so that temporaries stay small
HISTOGRAM_CHUNK = 1 << 16


def check_set_group(group: GroupSpec, f: FolnerSpec) -> None:
    """Refuse a set on `group` read over the windows of f, on another group."""
    if f.group != group:
        raise ValueError("group mismatch between set and Folner spec")


def columns(E: SetSpec, f: FolnerSpec, N: int, gs: Sequence[Element], right: bool = False):
    """g -> the boolean column h -> 1_E(g*h) over h in F_N (1_E(h*g) with `right`),
    for each g in gs; callers must not write the columns.

    On a Z interval every column is a slice of one window over the hull of the
    shifts; elsewhere F_N's coordinates are built once and each column is
    membership on their translate."""
    check_set_group(E.group, f)
    if f.shape == SHAPE_INTERVAL:
        f.size(N)  # refuses an index below 1
        lo = min(gs, default=0)
        bits = indicator_bits(E, f.start + lo, f.start + N + max(gs, default=0))
        return lambda g: bits[g - lo:g - lo + N]
    coords = f.coords(N)
    return lambda g: E.member_coords(f.group.translate_right(coords, g) if right else
                                     f.group.translate_left(g, coords))


def window_count(terms: Sequence[Tuple[SetSpec, Element, int]], f: FolnerSpec, N: int,
                 right: bool = False) -> int:
    """Exact |{h in F_N : 1_E(g*h) = eps for every term (E, g, eps)}|, h*g with
    `right`: the AND of the columns of the terms, one `columns` call per set."""
    acc, fresh = None, False
    for E in dict.fromkeys(E for E, _, _ in terms):
        column = columns(E, f, N, [g for F, g, _ in terms if F is E], right)
        for F, g, eps in terms:
            if F is E:
                c = column(g) if eps else ~column(g)
                if fresh:
                    acc &= c
                else:  # a column may be a view of a cached window: it is never written
                    acc, fresh = (c, not eps) if acc is None else (acc & c, True)
    return f.size(N) if acc is None else int(np.count_nonzero(acc))


def pattern_histograms(E: SetSpec, f: FolnerSpec, ball: Sequence[Element],
                       schedule: Sequence[int], right: bool = False) -> np.ndarray:
    """Exact histograms of the words of 1_E over a ball, one row per schedule index.

    Row i counts, for every word w < 2^k (k = len(ball) <= HISTOGRAM_BITS), the h in
    F_N (N = schedule[i]) with sum_j 1_E(ball[j]*h) 2^j = w, or 1_E(h*ball[j]) with
    `right`.  On a Z interval the columns of the largest index hold those of every
    smaller one, and each nested block [N_{j-1}, N_j) adds its bincount,
    HISTOGRAM_CHUNK points at a time; elsewhere each F_N is encoded from its own
    columns.
    """
    f.size(min(schedule))  # refuses an empty schedule or an index below 1
    Ns = sorted(set(schedule))
    acc, rows = np.zeros(1 << len(ball), dtype=np.int64), {}
    if f.shape == SHAPE_INTERVAL:
        column, done = columns(E, f, Ns[-1], ball, right), 0
        for N in Ns:
            for a in range(done, N, HISTOGRAM_CHUNK):
                b = min(a + HISTOGRAM_CHUNK, N)
                acc += _bincount(ball, lambda g: column(g)[a:b], b - a)
            rows[N] = acc.copy()
            done = N
    else:
        for N in Ns:
            rows[N] = _bincount(ball, columns(E, f, N, ball, right), f.size(N))
    return np.array([rows[N] for N in schedule])


def _bincount(ball, column, n: int) -> np.ndarray:
    """Histogram of the n words sum_j column(ball[j]) 2^j."""
    code = np.zeros(n, dtype=np.uint8 if len(ball) <= 8 else np.uint16)
    for g in reversed(ball):
        code <<= 1
        code |= column(g)
    return np.bincount(code, minlength=1 << len(ball))


def superset_sums(hist: np.ndarray) -> np.ndarray:
    """Row-wise sums of each histogram of k-bit words over the supersets of
    every mask (the fast zeta transform): column m counts the words containing m."""
    out = hist.copy()
    for j in range(hist.shape[1].bit_length() - 1):
        v = out.reshape(len(out), -1, 2, 1 << j)  # axis 2 is bit j
        v[:, :, 0, :] += v[:, :, 1, :]
    return out


def constraint_counts(E: SetSpec, f: FolnerSpec,
                      constraints: Sequence[Sequence[Tuple[Element, int]]],
                      schedule: Sequence[int], right: bool = False) -> List[List[int]]:
    """Exact |{h in F_N : 1_E(g*h) = eps for every (g, eps) in c}| (h*g with
    `right`), for each constraint list c, at each index N of the schedule.

    When the lists name at most HISTOGRAM_BITS elements, all counts are read off
    one `pattern_histograms` over them: c's count is the sum over subsets S of its
    eps = 0 bits of (-1)^|S| times the number of words containing its eps = 1 bits
    and S.  Otherwise each list is counted by `window_count`."""
    ball = list(dict.fromkeys(g for c in constraints for g, _ in c))
    if not constraints or len(ball) > HISTOGRAM_BITS:
        if ball and f.shape == SHAPE_INTERVAL:  # the widest window first
            columns(E, f, max(schedule), ball, right)
        return [[window_count([(E, g, eps) for g, eps in c], f, N, right) for N in schedule]
                for c in constraints]
    bit = {g: 1 << j for j, g in enumerate(ball)}
    cols, signs, starts = [], [], []
    for c in constraints:
        ones = sum({bit[g] for g, eps in c if eps})
        zeros = list({bit[g] for g, eps in c if not eps})
        starts.append(len(cols))
        for r in range(len(zeros) + 1):
            for S in itertools.combinations(zeros, r):
                cols.append(ones | sum(S))
                signs.append((-1) ** r)
    sums = superset_sums(pattern_histograms(E, f, ball, schedule, right))
    return np.add.reduceat(sums[:, cols] * signs, starts, axis=1).T.tolist()


def intersection_count(E: SetSpec, shifts: Sequence[Element], f: FolnerSpec, N: int) -> int:
    """Exact |{h in F_N : g*h in E for all g in shifts}|."""
    if not shifts:
        raise ValueError("query must contain at least one shift")
    for g in shifts:
        E.group.check(g)
    return window_count([(E, g, 1) for g in shifts], f, N)


def density_at(E: SetSpec, shifts: Sequence[Element], f: FolnerSpec, N: int) -> Fraction:
    """intersection_count / |F_N| as an exact rational."""
    return Fraction(intersection_count(E, shifts, f, N), f.size(N))


def upper_density(E: SetSpec, f: FolnerSpec, schedule: Sequence[int],
                  tol: Fraction = Fraction(1, 1000)) -> Tuple[Fraction, List[int]]:
    """Finite-scale limsup surrogate over the schedule.

    Returns the maximal single-shift density and every index whose density
    is within `tol` of that maximum (the attaining subsequence).
    """
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if list(schedule) != sorted(set(schedule)):
        raise ValueError("schedule must be strictly increasing")
    e = E.group.identity()
    # the widest window first: on Z every smaller index reads a slice of it
    dens = {N: density_at(E, (e,), f, N) for N in reversed(schedule)}
    est = max(dens.values())
    attaining = [N for N in schedule if est - dens[N] <= tol]
    return est, attaining


def density_rows(E: SetSpec, queries: Sequence[Query], f: FolnerSpec,
                 schedule: Sequence[int]) -> Iterable[Dict[int, Fraction]]:
    """Each query's exact densities (index -> density) over the schedule, every query
    counted at every index by one `constraint_counts` call.  A generator: nothing is
    checked or counted before the first row is asked for."""
    for q in queries:
        if not q:
            raise ValueError("query must contain at least one shift")
        for g in q:
            E.group.check(g)
    for row in constraint_counts(E, f, [[(g, 1) for g in q] for q in queries], schedule):
        yield {N: Fraction(c, f.size(N)) for N, c in zip(schedule, row)}


def extract_subsequence(E: SetSpec, queries: Sequence[Query], f: FolnerSpec,
                        schedule: Sequence[int], eps: float) -> List[int]:
    """Greedy finite surrogate of the diagonal subsequence argument: the
    `select_subsequence` of the `density_rows` of the queries, the first one leading."""
    if not queries:
        raise ValueError("at least one query required")
    return select_subsequence(density_rows(E, queries, f, schedule), schedule, eps)


def select_subsequence(dens: Iterable[Dict[int, Fraction]], schedule: Sequence[int],
                       eps: float) -> List[int]:
    """Selects, earliest index first, a subset S of the schedule on which every
    row of densities (index -> density) oscillates by at most `eps`, and on which
    the first row stays within `eps` of its maximum over the full schedule.
    Raises when no S with at least two indices exists.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    dens = list(dens)
    est = max(dens[0].values())
    chosen: List[int] = []
    for N in schedule:
        if abs(dens[0][N] - est) <= eps and all(
                abs(d[N] - d[M]) <= eps for d in dens for M in chosen):
            chosen.append(N)
    if len(chosen) < 2:
        raise NoConvergentSubsequenceError(
            f"no convergent subsequence at tolerance {eps}")
    return chosen


# ---------------------------------------------------------------------------
# pair correlation (abelian windows only)


def pair_correlation_naive(E: SetSpec, f: FolnerSpec, N: int, H: int) -> Dict[Element, int]:
    """Reference loops over windows of 1_E; the oracle the kernel must match."""
    _require_abelian(f)
    if f.shape == SHAPE_INTERVAL:
        s = f.start
        x = indicator_bits(E, s, s + N)
        y = indicator_bits(E, s - H, s + N + H)
        out = {}
        for h in range(-H, H + 1):
            c = 0
            for n in range(N):
                if x[n] and y[n + h + H]:
                    c += 1
            out[h] = c
        return out

    def grid(lo, hi):
        box = FolnerSpec(f.group, SHAPE_BOX, anchor=tuple(a + lo for a in f.anchor))
        return E.member_coords(box.coords(hi - lo)).reshape([hi - lo] * f.group.d)

    x = grid(0, N)
    y = grid(-H, N + H)
    out = {}
    for h in itertools.product(range(-H, H + 1), repeat=f.group.d):
        sl = tuple(slice(H + t, H + t + N) for t in h)
        out[h] = int(np.count_nonzero(x & y[sl]))
    return out


def pair_correlation_fft(E: SetSpec, f: FolnerSpec, N: int, H: int) -> Dict[Element, int]:
    """|{x in F_N : x in E, h*x in E}| for every h in the radius-H word ball.

    The counts are exact: one `columns` call reads every shift's column, and
    each is ANDed with the identity's.
    """
    _require_abelian(f)
    ball = f.group.word_ball(H)
    column = columns(E, f, N, ball)
    base = column(f.group.identity())
    return {h: int(np.count_nonzero(base & column(h))) for h in ball}


def _require_abelian(f: FolnerSpec) -> None:
    if f.shape not in (SHAPE_INTERVAL, SHAPE_BOX):
        raise ValueError("pair correlation needs an interval or box window")
