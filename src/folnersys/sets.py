"""Membership rules for subsets of the supported groups.

Every set spec can answer membership for any element inside a bounded
window.  Integer-group sets additionally expose ``bits(lo, hi)``, a cached
boolean window used by the counting kernels, kept by `CachedWindow`, which
the function windows of `moments` share.

Rotation sets are evaluated in 128-bit fixed point: the circle [0,1) is
scaled to [0, 2^128) and all fractional parts are exact integer residues,
so no point near an interval endpoint is ever misclassified relative to
the stored approximation of alpha.  Windows are built block by block with
exact two-limb (2 x uint64) additions with carry.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from ._numpy import np
from .errors import WindowExceededError
from .groups import GroupSpec, INT_Z, INT_ZD, HEISENBERG3

FRAC_BITS = 128
SCALE = 1 << FRAC_BITS


def to_fixed(value: Union[int, float, str, Fraction]) -> int:
    """Scale a circle coordinate to the 2^128 fixed-point grid.

    Accepts exact rationals, floats, or the symbolic names "golden"
    ((sqrt5-1)/2) and "sqrt2" (sqrt2-1), which are computed with integer
    square roots so the full 128 bits are meaningful.
    """
    if isinstance(value, str):
        if value == "golden":
            return (math.isqrt(5 << (2 * FRAC_BITS)) - SCALE) // 2
        if value == "sqrt2":
            return math.isqrt(2 << (2 * FRAC_BITS)) - SCALE
        value = Fraction(value)
    try:
        return round(Fraction(None if isinstance(value, bool) else value) * SCALE)
    except (TypeError, OverflowError):  # a bool, a list, null or an infinite float
        raise ValueError(f"circle coordinate must be a number, got {value!r}") from None


# points per vectorized block of a rotation window
ROTATION_BLOCK = 1 << 14
_LOW64 = (1 << 64) - 1


def _add128(hi: np.ndarray, lo: np.ndarray, c: int) -> Tuple[np.ndarray, np.ndarray]:
    """(hi, lo) + c modulo 2^128, limb by limb with carry; c is a Python int."""
    low = lo + np.uint64(c & _LOW64)  # wraps modulo 2^64
    return hi + np.uint64(c >> 64) + (low < lo), low


@functools.lru_cache(maxsize=16)
def _block_steps(alpha_fp: int) -> Tuple[np.ndarray, np.ndarray]:
    """k*alpha mod 2^128 for k < ROTATION_BLOCK as (hi, lo) uint64 arrays,
    each doubling adding m*alpha to the first m entries."""
    hi = lo = np.zeros(1, dtype=np.uint64)
    while len(lo) < ROTATION_BLOCK:
        top_hi, top_lo = _add128(hi, lo, len(lo) * alpha_fp % SCALE)
        hi, lo = np.concatenate([hi, top_hi]), np.concatenate([lo, top_lo])
    return hi, lo


def rotation_bits(x0_fp: int, alpha_fp: int, beta_fp: int, lo: int, hi: int) -> np.ndarray:
    """1[frac(x0 + n*alpha) < beta] for n in [lo, hi), on the fixed-point circle.

    Each block of ROTATION_BLOCK points is its exact base point (a Python
    int) plus the precomputed steps k*alpha, compared with beta limb by limb.
    """
    out = np.ones(hi - lo, dtype=bool)
    if beta_fp == SCALE:  # the whole circle
        return out
    step_hi, step_lo = _block_steps(alpha_fp)
    beta_hi, beta_lo = np.uint64(beta_fp >> 64), np.uint64(beta_fp & _LOW64)
    base = (x0_fp + lo * alpha_fp) % SCALE
    stride = ROTATION_BLOCK * alpha_fp % SCALE
    for start in range(0, hi - lo, ROTATION_BLOCK):
        m = min(ROTATION_BLOCK, hi - lo - start)
        r_hi, r_lo = _add128(step_hi[:m], step_lo[:m], base)
        out[start:start + m] = (r_hi < beta_hi) | ((r_hi == beta_hi) & (r_lo < beta_lo))
        base = (base + stride) % SCALE
    return out


class SetSpec:
    """Base: an evaluatable membership predicate `member(g)` on a group."""

    group: GroupSpec

    def member_coords(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (ncoords, n) array of elements."""
        raise NotImplementedError

    def complement(self) -> "SetSpec":
        return Complement(self)

    def describe(self) -> str:
        return repr(self)


class CachedWindow:
    """Values over one interval of Z, computed once and served as slices.  A read
    inside the cached interval is a slice of it; any other read computes exactly its
    own interval, which becomes the cache, so no cached window is wider than a read."""

    _cache: Optional[np.ndarray] = None
    _cache_lo = 0

    def _window(self, lo: int, hi: int, compute) -> np.ndarray:
        """The values over [lo, hi), nonempty, from `compute(lo, hi)`."""
        off = lo - self._cache_lo
        if self._cache is None or off < 0 or hi - self._cache_lo > len(self._cache):
            self._cache, self._cache_lo, off = compute(lo, hi), lo, 0
        return self._cache[off:off + (hi - lo)]


class ZSetSpec(SetSpec, CachedWindow):
    """Integer-group set with a cached boolean window, filled by `_compute_bits(lo, hi)`."""

    def __init__(self):
        self.group = GroupSpec(INT_Z)

    def bits(self, lo: int, hi: int) -> np.ndarray:
        """Boolean membership over [lo, hi), cached."""
        if hi <= lo:
            return np.zeros(0, dtype=bool)
        return self._window(lo, hi, self._compute_bits)

    def member_coords(self, coords: np.ndarray) -> np.ndarray:
        n = coords.reshape(-1)
        lo = int(n.min())
        hi = int(n.max()) + 1
        # windows in practice are contiguous or nearly so
        return self.bits(lo, hi)[n - lo]


class Congruence(ZSetSpec):
    """E = {n : n = a (mod m)}."""

    def __init__(self, a: int, m: int):
        super().__init__()
        if m < 1:
            raise ValueError("modulus must be positive")
        self.a = a % m
        self.m = m

    def _compute_bits(self, lo, hi):
        # one period, tiled: no int64 temporaries of the window's length
        n = hi - lo
        period = np.arange(min(self.m, n)) == (self.a - lo) % self.m
        return np.tile(period, -(-n // self.m))[:n]

    def member(self, g):
        self.group.check(g)
        return g % self.m == self.a

    def complement(self):
        if self.m == 2:
            return Congruence(1 - self.a, 2)
        return Complement(self)

    def describe(self):
        return f"congruence(a={self.a}, m={self.m})"


class RotationSet(ZSetSpec):
    """E = {n : frac(x0 + n*alpha) in [0, beta)} for the circle rotation."""

    def __init__(self, alpha, beta, x0=0):
        super().__init__()
        self.alpha_fp = to_fixed(alpha) % SCALE
        self.beta_fp = to_fixed(beta)
        self.x0_fp = to_fixed(x0) % SCALE
        if not (0 < self.beta_fp <= SCALE):
            raise ValueError("beta must lie in (0, 1]")

    def _compute_bits(self, lo, hi):
        return rotation_bits(self.x0_fp, self.alpha_fp, self.beta_fp, lo, hi)

    def member(self, g):
        self.group.check(g)
        return (self.x0_fp + g * self.alpha_fp) % SCALE < self.beta_fp

    def describe(self):
        return f"rotation(alpha_fp={self.alpha_fp}, beta_fp={self.beta_fp}, x0_fp={self.x0_fp})"


class DyadicBlocks(ZSetSpec):
    """E = union of [2^(2n), 2^(2n+1)); membership iff bit_length(n) is odd."""

    def _compute_bits(self, lo, hi):
        out = np.zeros(hi - lo, dtype=bool)
        k = 1
        while k < hi:  # fill each block [k, 2k), k = 4^j, that meets the window
            a, b = max(k, lo), min(2 * k, hi)
            if a < b:
                out[a - lo:b - lo] = True
            k *= 4
        return out

    def member(self, g):
        self.group.check(g)
        return g >= 1 and g.bit_length() % 2 == 1

    def describe(self):
        return "dyadic_blocks"


class Bitmask(ZSetSpec):
    """Explicit membership on a half-open window [lo, lo+len(bits)).  The mask is the
    cached window, so every read inside it is a slice of the mask."""

    def __init__(self, lo: int, bits: Sequence[int]):
        super().__init__()
        self.lo = self._cache_lo = lo
        self.mask = self._cache = np.asarray(bits, dtype=bool)

    @property
    def hi(self) -> int:
        return self.lo + len(self.mask)

    def _compute_bits(self, lo, hi):
        raise WindowExceededError(f"window exceeded: [{lo},{hi}) outside [{self.lo},{self.hi})")

    def member(self, g):
        self.group.check(g)
        if not self.lo <= g < self.hi:
            raise WindowExceededError(f"window exceeded: {g} outside [{self.lo},{self.hi})")
        return bool(self.mask[g - self.lo])

    def describe(self):
        return f"bitmask(lo={self.lo}, n={len(self.mask)})"


class OrbitSet(Bitmask):
    """Bitmask realized from an oracle-system orbit; see `oracles.orbit_set`."""

    def __init__(self, lo, bits, system_label: str, start_label: str):
        super().__init__(lo, bits)
        self.system_label = system_label
        self.start_label = start_label

    def describe(self):
        return f"orbit({self.system_label}, start={self.start_label}, lo={self.lo}, n={len(self.mask)})"


def _residue_rule(rule) -> Tuple[int, int]:
    """A component rule [a, m] as (a mod m, m)."""
    try:
        a, m = (int(x) for x in rule)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"a component rule is null or [a, m], got {rule!r}") from None
    if m < 1:
        raise ValueError("modulus must be positive")
    return a % m, m


class ComponentCongruence(SetSpec):
    """Componentwise congruences on Z^d or H3; None leaves a coordinate free."""

    def __init__(self, group: GroupSpec, rules: Sequence[Optional[Tuple[int, int]]]):
        if group.kind not in (INT_ZD, HEISENBERG3):
            raise ValueError("componentwise rules are for lattice or Heisenberg groups")
        if not isinstance(rules, (list, tuple)) or len(rules) != group.ncoords:
            raise ValueError("one rule (or None) per coordinate required")
        self.group = group
        self.rules = tuple(None if r is None else _residue_rule(r) for r in rules)

    def member(self, g):
        self.group.check(g)
        return all(r is None or c % r[1] == r[0] for c, r in zip(g, self.rules))

    def member_coords(self, coords):
        out = np.ones(coords.shape[1], dtype=bool)
        for row, r in zip(coords, self.rules):
            if r is not None:
                out &= (row % r[1]) == r[0]
        return out

    def describe(self):
        return f"component_congruence({self.group.kind}, {self.rules})"


class Complement(SetSpec):
    def __init__(self, inner: SetSpec):
        self.inner = inner
        self.group = inner.group

    def member(self, g):
        return not self.inner.member(g)

    def member_coords(self, coords):
        return ~self.inner.member_coords(coords)

    def bits(self, lo, hi):
        return ~self.inner.bits(lo, hi)

    def complement(self):
        return self.inner

    def describe(self):
        return f"complement({self.inner.describe()})"


# ---------------------------------------------------------------------------


def indicator_bits(E: SetSpec, lo: int, hi: int) -> np.ndarray:
    """Boolean window of 1_E over [lo, hi) on the integer group."""
    if E.group.kind != INT_Z:
        raise ValueError("integer windows require a Z set")
    return np.asarray(E.bits(lo, hi), dtype=bool)
