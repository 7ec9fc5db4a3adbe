"""Functions G -> closed unit disk, the factors of `moments`.

Every function evaluates on group coordinates (`eval_coords`).  On Z it also
keeps one cached window of its values (`sets.CachedWindow`, shared with set
windows), so a moment on an interval of Z takes each factor as a slice of it;
an indicator reads its set's own boolean window instead.
"""
from __future__ import annotations

from ._numpy import np
from .groups import GroupSpec, INT_Z
from .sets import CachedWindow, SetSpec, indicator_bits


class FunctionSpec(CachedWindow):
    """A function G -> closed unit disk, evaluatable on windows; on Z a subclass may
    give its values at a 1-D int64 array of points as `at(n)` instead."""

    def eval_coords(self, group: GroupSpec, coords: np.ndarray) -> np.ndarray:
        if group.kind != INT_Z:
            raise ValueError(f"{type(self).__name__} is defined on Z only")
        return self.at(coords.reshape(-1))

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Values over [lo, hi) on Z, from the cached window; callers must not write them."""
        return self._window(lo, hi, lambda a, b: self.eval_coords(
            GroupSpec(INT_Z), np.arange(a, b, dtype=np.int64)))


class ExponentialFn(FunctionSpec):
    """f(n) = exp(2 pi i theta n)."""

    def __init__(self, theta: float):
        try:
            self.theta = float(None if isinstance(theta, bool) else theta)
        except TypeError:
            raise ValueError(f"theta must be a number, got {theta!r}") from None

    def at(self, n):
        v = 2j * np.pi * self.theta * n.astype(np.float64)
        return np.exp(v, out=v)


class IndicatorFn(FunctionSpec):
    def __init__(self, E: SetSpec):
        self.E = E

    def eval_coords(self, group, coords):
        return self.E.member_coords(coords).astype(np.complex128)

    def window(self, lo, hi):
        """The set's own boolean window; no complex copy is kept."""
        return indicator_bits(self.E, lo, hi)


class RandomDiskFn(FunctionSpec):
    """Deterministic pseudo-random disk values, hashed per integer point."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def at(self, n):
        # negative int64 points wrap into the hash domain
        x = n.astype(np.uint64)
        x += np.uint64(0x9E3779B97F4A7C15)
        x *= np.uint64(self.seed * 2 + 1)
        # splitmix64 finalizer
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        # sqrt(r) exp(2 pi i phase), each step in place
        r = (x >> np.uint64(11)).astype(np.float64)
        r /= float(1 << 53)
        x &= np.uint64((1 << 53) - 1)
        v = x.astype(np.float64)
        del x
        v /= float(1 << 53)
        v = 2j * np.pi * v
        np.exp(v, out=v)
        return np.multiply(np.sqrt(r, out=r), v, out=v)


class ConjFn(FunctionSpec):
    def __init__(self, inner: FunctionSpec):
        self.inner = inner

    def eval_coords(self, group, coords):
        return np.conj(self.inner.eval_coords(group, coords))


class ProductFn(FunctionSpec):
    def __init__(self, a: FunctionSpec, b: FunctionSpec):
        self.a, self.b = a, b

    def eval_coords(self, group, coords):
        return self.a.eval_coords(group, coords) * self.b.eval_coords(group, coords)
