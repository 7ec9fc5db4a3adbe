"""Arithmetic for the supported groups and Folner window generation.

Three concrete countable amenable groups are supported: the integers,
integer lattices Z^d, and the discrete Heisenberg group H3(Z) with the
multiplication (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').  Elements are
plain ints (Z) or tuples of ints (Z^d, H3).  All counting is exact integer
arithmetic; ratios are `fractions.Fraction`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Tuple, Union

from ._numpy import np
from .errors import GroupMismatchError

Element = Union[int, Tuple[int, ...]]

INT_Z = "Z"
INT_ZD = "Zd"
HEISENBERG3 = "H3"

_KINDS = (INT_Z, INT_ZD, HEISENBERG3)


@dataclass(frozen=True)
class GroupSpec:
    """One of the supported groups; `d` only matters for the lattice kind."""

    kind: str
    d: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == INT_ZD and self.d < 1:
            raise ValueError("lattice dimension must be >= 1")
        if self.kind != INT_ZD and self.d != 1:
            object.__setattr__(self, "d", 1)

    # -- element structure ------------------------------------------------

    @property
    def ncoords(self) -> int:
        """Number of integer coordinates in one element."""
        return 3 if self.kind == HEISENBERG3 else self.d

    def identity(self) -> Element:
        if self.kind == INT_Z:
            return 0
        return (0,) * self.ncoords

    def contains(self, g: Element) -> bool:
        if self.kind == INT_Z:
            return isinstance(g, int) and not isinstance(g, bool)
        return (
            isinstance(g, tuple)
            and len(g) == self.ncoords
            and all(isinstance(c, int) and not isinstance(c, bool) for c in g)
        )

    def check(self, g: Element) -> None:
        if not self.contains(g):
            raise GroupMismatchError(f"group mismatch: {g!r} is not an element of {self}")

    # -- group law --------------------------------------------------------

    def mul(self, g: Element, h: Element) -> Element:
        self.check(g)
        self.check(h)
        if self.kind == INT_Z:
            return g + h
        if self.kind == INT_ZD:
            return tuple(x + y for x, y in zip(g, h))
        a, b, c = g
        ap, bp, cp = h
        return (a + ap, b + bp, c + cp + a * bp)

    def inv(self, g: Element) -> Element:
        self.check(g)
        if self.kind == INT_Z:
            return -g
        if self.kind == INT_ZD:
            return tuple(-x for x in g)
        a, b, c = g
        return (-a, -b, -c + a * b)

    # -- vectorized translation -------------------------------------------
    #
    # coords arrays have shape (ncoords, n), one column per element, in the
    # canonical enumeration order of whatever produced them.

    def translate_left(self, g: Element, coords: np.ndarray) -> np.ndarray:
        """Columns g*x for the fixed element g."""
        return self._translate(coords, g, left=True)

    def translate_right(self, coords: np.ndarray, h: Element) -> np.ndarray:
        """Columns x*h for the fixed element h."""
        return self._translate(coords, h, left=False)

    def _translate(self, coords: np.ndarray, g: Element, left: bool) -> np.ndarray:
        """coords plus g, column by column; on H3 the c row then gains the product
        term of the group law, a0*b for g*x and a*b0 for x*g."""
        self.check(g)
        out = coords + np.asarray(g, dtype=np.int64).reshape(-1, 1)
        if self.kind == HEISENBERG3:
            out[2] += g[0] * coords[1] if left else coords[0] * g[1]
        return out

    def word_ball(self, radius: int, limit: float = float("inf")) -> list:
        """The radius ball: the sup-norm box on Z and Z^d; on H3 the elements
        of word length <= radius in {x, y, x^-1, y^-1}, x=(1,0,0), y=(0,1,0),
        by BFS stopped once the ball has more than `limit` elements."""
        if self.kind == INT_Z:
            return list(range(-radius, radius + 1))
        if self.kind == INT_ZD:
            return [tuple(v) for v in itertools.product(range(-radius, radius + 1), repeat=self.d)]
        gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
        seen = frontier = {self.identity()}
        for _ in range(radius):
            if len(seen) > limit:
                break
            frontier = {self.mul(g, s) for g in frontier for s in gens} - seen
            seen = seen | frontier
        return sorted(seen)

    def ball_size(self, radius: int, limit: int) -> int:
        """len(word_ball(radius)), counted on Z and Z^d; on H3 any count over
        `limit` once the ball outgrows it."""
        if self.kind != HEISENBERG3:
            return max(0, 2 * radius + 1) ** self.d
        return len(self.word_ball(radius, limit))


# ---------------------------------------------------------------------------
# Folner shapes

SHAPE_INTERVAL = "interval"
SHAPE_BOX = "box"
SHAPE_HEISENBERG_BOX = "heisenberg_box"


@dataclass(frozen=True)
class FolnerSpec:
    """Rule producing the finite averaging window F_N for each index N.

    * interval:       F_N = [start, start+N) in Z
    * box:            the side-N box at `anchor` in Z^d
    * heisenberg_box: {(a,b,c) : 0 <= a,b < N, 0 <= c < N^2}
    """

    group: GroupSpec
    shape: str
    start: int = 0
    anchor: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.shape == SHAPE_INTERVAL:
            if self.group.kind != INT_Z:
                raise ValueError("interval shape requires the integer group")
        elif self.shape == SHAPE_BOX:
            if self.group.kind != INT_ZD:
                raise ValueError("box shape requires a lattice group")
            if len(self.anchor) != self.group.d:
                raise ValueError("anchor dimension does not match the group")
        elif self.shape == SHAPE_HEISENBERG_BOX:
            if self.group.kind != HEISENBERG3:
                raise ValueError("heisenberg_box shape requires the Heisenberg group")
        else:
            raise ValueError(f"unknown Folner shape {self.shape!r}")

    def _sides(self, N: int) -> list:
        """F_N as a box: the least point and the length along each coordinate."""
        if N < 1:
            raise ValueError("empty Folner index")
        if self.shape == SHAPE_INTERVAL:
            return [(self.start, N)]
        if self.shape == SHAPE_BOX:
            return [(a, N) for a in self.anchor]
        return [(0, N), (0, N), (0, N * N)]

    def size(self, N: int) -> int:
        return math.prod(n for _, n in self._sides(N))

    def elements(self, N: int) -> Iterator[Element]:
        """F_N in canonical (ascending / lexicographic) order, no duplicates."""
        points = itertools.product(*(range(a, a + n) for a, n in self._sides(N)))
        return (v for (v,) in points) if self.shape == SHAPE_INTERVAL else points

    def coords(self, N: int) -> np.ndarray:
        """(ncoords, |F_N|) int64 array in canonical order."""
        sides = self._sides(N)
        out = np.indices([n for _, n in sides], dtype=np.int64).reshape(len(sides), -1)
        for row, (a, _) in zip(out, sides):
            row += a
        return out

    # -- defects ----------------------------------------------------------

    def defect(self, N: int, g: Element) -> Fraction:
        """Exact |F_N symdiff g*F_N| / |F_N| (left translation)."""
        size = self.size(N)
        self.group.check(g)
        return Fraction(2 * (size - self._left_overlap(N, g)), size)

    def right_defect(self, N: int, g: Element) -> Fraction:
        """Exact |F_N symdiff F_N*g| / |F_N| (right translation).

        On the Heisenberg box F_N*(a0,b0,c0) overlaps F_N in as many elements
        as (b0,a0,c0)*F_N does: both overlaps sum N^2 - |c0 + t*s| over the
        same columns with the roles of a and b exchanged.
        """
        self.group.check(g)
        if self.shape == SHAPE_HEISENBERG_BOX:
            g = (g[1], g[0], g[2])
        return self.defect(N, g)

    def _left_overlap(self, N: int, g: Element) -> int:
        if self.shape != SHAPE_HEISENBERG_BOX:
            return math.prod(max(0, N - abs(t)) for t in (g if self.shape == SHAPE_BOX else [g]))
        # g*F shifts (a,b) by (a0,b0) and, on the column over b' = b0+b,
        # shifts the c-range by c0 + a0*b.
        a0, b0, c0 = g
        ab = max(0, N - abs(a0))
        if ab == 0 or abs(b0) >= N:
            return 0
        total = 0
        for b in range(max(0, -b0), min(N, N - b0)):
            total += max(0, N * N - abs(c0 + a0 * b))
        return ab * total
