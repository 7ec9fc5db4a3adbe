"""Exactly solvable measure-preserving systems used as ground truth.

Each system exposes the closed-form measure of an intersection of shifted
copies of its distinguished set A, and can realize the visit set
E(x) = {n : T^n x in A} of an orbit as a window bitmask.  The empirical
densities of E(x) must then reproduce the closed-form measures.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._numpy import np
from .groups import FolnerSpec, INT_Z
from .sets import OrbitSet, SCALE, rotation_bits, to_fixed
from .density import density_rows


class OracleSystem:
    """Base for the closed-form systems, each with `exact_measure(shifts)`,
    `orbit_set(lo, hi, start)` and `label()`; all act by Z.  An orbit starts from the config
    key `start_key`; each of its points costs one element of `caps.window`."""

    start_key = "x0"

    def start(self, start):
        """The orbit's start as `orbit_set` reads it; a ValueError refuses it."""
        return start


class RotationSystem(OracleSystem):
    """x -> x + alpha on the circle with A = [0, beta).

    Works on the 2^128 fixed-point circle; intersections of translated arcs
    are computed by an exact endpoint sweep, so `exact_measure` is a true
    rational with denominator 2^128.
    """

    def __init__(self, alpha, beta):
        self.alpha_fp = to_fixed(alpha) % SCALE
        self.beta_fp = to_fixed(beta)
        if not (0 < self.beta_fp <= SCALE):
            raise ValueError("beta must lie in (0, 1]")

    def _arcs(self, h: int) -> List[Tuple[int, int]]:
        """[0,beta) - h*alpha as one or two half-open arcs in [0, SCALE)."""
        lo = (-h * self.alpha_fp) % SCALE
        hi = lo + self.beta_fp
        if self.beta_fp == SCALE:
            return [(0, SCALE)]
        if hi <= SCALE:
            return [(lo, hi)]
        return [(lo, SCALE), (0, hi - SCALE)]

    def exact_measure(self, shifts: Sequence[int]) -> Fraction:
        if not shifts:
            raise ValueError("shift list must be nonempty")
        arc_sets = [self._arcs(h) for h in shifts]
        pts = sorted({0, SCALE} | {x for arcs in arc_sets for arc in arcs for x in arc})
        total = 0
        for a, b in zip(pts, pts[1:]):
            mid = a + (b - a) // 2
            if all(any(lo <= mid < hi for lo, hi in arcs) for arcs in arc_sets):
                total += b - a
        return Fraction(total, SCALE)

    def start(self, x0) -> int:
        """The orbit's start x0 on the fixed-point circle."""
        return to_fixed(x0) % SCALE

    def orbit_set(self, lo: int, hi: int, start) -> OrbitSet:
        x0_fp = self.start(start)
        bits = rotation_bits(x0_fp, self.alpha_fp, self.beta_fp, lo, hi)
        return OrbitSet(lo, bits, self.label(), f"x0_fp={x0_fp}")

    def label(self) -> str:
        return f"rotation(alpha_fp={self.alpha_fp}, beta_fp={self.beta_fp})"


class PeriodicSystem(OracleSystem):
    """Rotation on Z/pZ with A read off a 0/1 pattern of length p."""

    def __init__(self, pattern: Sequence[int]):
        self.pattern = tuple(int(b) for b in pattern)
        if not self.pattern or any(b not in (0, 1) for b in self.pattern):
            raise ValueError("pattern must be a nonempty 0/1 vector")
        self.p = len(self.pattern)

    def exact_measure(self, shifts: Sequence[int]) -> Fraction:
        if not shifts:
            raise ValueError("shift list must be nonempty")
        hits = sum(
            1 for j in range(self.p)
            if all(self.pattern[(j + h) % self.p] for h in shifts)
        )
        return Fraction(hits, self.p)

    def start(self, x0) -> int:
        """The orbit's start x0, a point of Z/pZ given as an integer."""
        if not isinstance(x0, int) or isinstance(x0, bool):
            raise ValueError(f"x0 of a periodic orbit must be an integer, got {x0!r}")
        return x0

    def orbit_set(self, lo: int, hi: int, start) -> OrbitSet:
        x0, n = self.start(start), max(hi - lo, 0)
        # one period, rotated to start at x0 + lo and tiled: no int64 index arrays
        period = np.roll(np.array(self.pattern, dtype=bool), -((x0 + lo) % self.p))
        return OrbitSet(lo, np.tile(period, -(-n // self.p))[:n], self.label(), f"x0={x0}")

    def label(self) -> str:
        return f"periodic({''.join(map(str, self.pattern))})"


class MarkovSystem(OracleSystem):
    """Stationary Markov shift; A = {sequences whose 0th state is accepted}.  An orbit
    starts from a seed."""

    start_key = "seed"

    def __init__(self, P: Sequence[Sequence[float]], accept: Sequence[int],
                 pi: Optional[Sequence[float]] = None):
        self.P = np.asarray(P, dtype=np.float64)
        if self.P.ndim != 2 or self.P.shape[0] != self.P.shape[1]:
            raise ValueError("transition matrix must be square")
        k = self.P.shape[0]
        if not np.allclose(self.P.sum(axis=1), 1.0, atol=1e-10):
            raise ValueError("rows of P must sum to 1")
        if np.any((self.P < 0) | (self.P > 1)):
            raise ValueError("entries of P must lie in [0, 1]")
        try:
            self.accept = frozenset(int(s) for s in accept)
        except TypeError:
            raise ValueError(f"accept must be a list of states, got {accept!r}") from None
        if not self.accept or not all(0 <= s < k for s in self.accept):
            raise ValueError("accept states out of range")
        self.accepted = np.isin(np.arange(k), sorted(self.accept))
        self.pi = self._stationary() if pi is None else np.asarray(pi, dtype=np.float64)
        if not abs(self.pi.sum() - 1.0) <= 1e-10:  # a NaN or infinite entry fails too
            raise ValueError("stationary vector must sum to 1")
        if np.max(np.abs(self.pi @ self.P - self.pi)) > 1e-12:
            raise ValueError("pi is not stationary for P")
        if np.any(self.pi <= 0):
            raise ValueError("stationary vector must be strictly positive")

    def _stationary(self) -> np.ndarray:
        k = self.P.shape[0]
        A = np.vstack([self.P.T - np.eye(k), np.ones(k)])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
        return pi

    def exact_measure(self, shifts: Sequence[int]) -> float:
        """P(X_h in accept for all h in shifts) under stationarity.

        Dynamic programming over the sorted shift gaps with matrix powers
        bridging the gaps; returns a float (transition entries are floats).
        """
        if not shifts:
            raise ValueError("shift list must be nonempty")
        hs = sorted(set(int(h) for h in shifts))
        mask = self.accepted.astype(np.float64)
        v = self.pi * mask
        for prev, nxt in zip(hs, hs[1:]):
            v = (v @ np.linalg.matrix_power(self.P, nxt - prev)) * mask
        return float(v.sum())

    def orbit_set(self, lo: int, hi: int, start) -> OrbitSet:
        """Sample a stationary trajectory over [lo, hi); deterministic per seed `start`."""
        return OrbitSet(lo, self.accepted[self.states(hi - lo, start)], self.label(),
                        f"seed={start}")

    def states(self, n: int, seed: int = 0) -> np.ndarray:
        """The first n states of the trajectory sampled from ``seed``: X_0 is drawn
        from pi with u_0 and X_i = searchsorted(cum_P[X_{i-1}], u_i), one step at a
        time, for the uniforms u = default_rng(seed).random(n)."""
        k = self.P.shape[0]
        u = np.random.default_rng(seed).random(n)
        out = np.empty(n, dtype=np.min_scalar_type(k))
        if n:
            cum_P = np.cumsum(self.P, axis=1).tolist()
            s = int(np.searchsorted(np.cumsum(self.pi), u[0]))
            uv, ov = memoryview(u), memoryview(out)
            ov[0] = s
            for i in range(1, n):
                s = ov[i] = bisect_left(cum_P[s], uv[i])
        return out

    def sigma_bound(self, orbit: OrbitSet, shifts: Sequence[int]) -> float:
        """Batch-means standard error for the empirical product frequency."""
        hs = sorted(set(int(h) for h in shifts))
        usable = len(orbit.mask) - (hs[-1] - hs[0])
        check_batches(usable)
        vals = np.ones(usable, dtype=bool)
        for h in hs:
            vals &= orbit.mask[h - hs[0]: h - hs[0] + usable]
        bs = usable // SIGMA_BATCHES  # each mean is an integer count over bs
        means = vals[: bs * SIGMA_BATCHES].reshape(SIGMA_BATCHES, bs).sum(axis=1) / bs
        return float(means.std(ddof=1) / math.sqrt(SIGMA_BATCHES))

    def label(self) -> str:
        return f"markov(k={self.P.shape[0]}, accept={sorted(self.accept)})"


# ---------------------------------------------------------------------------


@dataclass
class CorrespondenceRow:
    query: Tuple[int, ...]
    exact: Union[Fraction, float]
    empirical: Dict[int, Fraction]
    deviation: float
    tolerance: float
    passed: bool


@dataclass
class CorrespondenceReport:
    system: str
    rows: List[CorrespondenceRow]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "passed": self.passed,
            "rows": [
                {
                    "query": list(r.query),
                    "exact": float(r.exact),
                    "empirical": {
                        str(N): {"num": v.numerator, "den": v.denominator}
                        for N, v in r.empirical.items()
                    },
                    "deviation": r.deviation,
                    "tolerance": r.tolerance,
                    "passed": r.passed,
                }
                for r in self.rows
            ],
        }


ROTATION_TOL = 5e-3
MARKOV_SIGMA_FACTOR = 4.0
SIGMA_BATCHES = 32  # batch means of a Markov sigma band


def check_batches(usable: int) -> None:
    """Refuse a Markov sigma band over fewer than SIGMA_BATCHES usable orbit points."""
    if usable < SIGMA_BATCHES:
        raise ValueError(f"a Markov verify needs at least {SIGMA_BATCHES} orbit points "
                         f"past its largest shift gap for {SIGMA_BATCHES} batch means, "
                         f"got {usable}")


def check_acts_on(f: FolnerSpec) -> None:
    """Refuse the windows of f off Z, where no oracle system acts."""
    if f.group.kind != INT_Z:
        raise ValueError("oracle systems act by Z only")


def verify_correspondence(sys: OracleSystem, queries: Sequence[Sequence[int]], f: FolnerSpec,
                          schedule: Sequence[int], start=0) -> CorrespondenceReport:
    """Check the `density_rows` of an orbit's visit set against the closed-form
    measures, on the orbit from `start` (the system's `start_key`: x0 or a seed).

    Tolerances per system: rotations must land within ROTATION_TOL at the
    final index; Markov orbits within a 4-sigma batch-means band; periodic
    orbits must agree exactly once N is a multiple of the period.
    """
    check_acts_on(f)
    queries = [tuple(int(g) for g in q) for q in queries]
    final = max(schedule)
    lo = f.start + min(min(q) for q in queries)
    hi = f.start + final + max(max(q) for q in queries)
    orbit = sys.orbit_set(lo, hi, start)
    rows = []
    for q, emp in zip(queries, density_rows(orbit, queries, f, schedule)):
        exact = sys.exact_measure(q)
        dev = abs(float(emp[final]) - float(exact))
        if isinstance(sys, PeriodicSystem):
            tol = 0.0 if final % sys.p == 0 else float(Fraction(sys.p, final))
        elif isinstance(sys, MarkovSystem):
            tol = MARKOV_SIGMA_FACTOR * sys.sigma_bound(orbit, q)
        else:
            tol = ROTATION_TOL
        rows.append(CorrespondenceRow(q, exact, emp, dev, tol, dev <= tol))
    return CorrespondenceReport(sys.label(), rows)
