"""Integer-exact geometry of the infinite pre-Sierpinski gasket.

Vertices are addressed in the oblique basis b0 = (1, 0), a0 = (1/2, sqrt(3)/2):
the pair (i, j) is the point i*b0 + j*a0, so the whole graph lives in the
closed upper half-plane j >= 0.  The right half of the gasket is grown from
the unit triangle O, a0, b0 by repeated doubling (each generation is three
shifted copies of the previous one), and the left half is the mirror image
across the y-axis, glued to the right half at the origin only.

In this addressing a filled upward unit triangle with lower-left corner
(i, j), i >= 0, exists exactly when the binary expansions of i and j share no
common 1-bit; a triangle of side 2**level scales that test by the side
length.  Mirrored triangles are tested through the reflection
(i, j) -> (-i - j - side, j).  All predicates below are pure functions of
integer inputs.

Paths are sequences of integer coordinate pairs.  A path of n+1
vertices has length n (the number of unit steps).  A ``LevelPath`` holds
them as vertex ids numbered by grid level, as the walker hands them to the
staged eraser.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

Vertex = tuple[int, int]

ORIGIN: Vertex = (0, 0)
ORIGIN_LEVEL = 255  # the origin's grid level: above every level, and one byte


class TriangleId(NamedTuple):
    """An upward filled triangle of side 2**level, keyed by its lower-left corner."""

    corner: Vertex
    level: int

    @property
    def side(self) -> int:
        return 1 << self.level

    def corners(self) -> tuple[Vertex, Vertex, Vertex]:
        (i, j), s = self.corner, self.side
        return ((i, j), (i + s, j), (i, j + s))

    def contains(self, v: Vertex) -> bool:
        """Whether a lattice point lies in the closed triangle."""
        (i, j), level = self
        di = v[0] - i
        dj = v[1] - j
        return di >= 0 and dj >= 0 and di + dj <= 1 << level


class NoCommonCell(ValueError):
    """Two vertices share no filled triangle of the requested size."""


def apex(level: int) -> Vertex:
    """The top corner a_N = (0, 2**N) of the level-N crossing frame."""
    return (0, 1 << level)


def corner(level: int) -> Vertex:
    """The right corner b_N = (2**N, 0) of the level-N crossing frame."""
    return (1 << level, 0)


def up_triangle_exists(corner: Vertex, level: int) -> bool:
    """Whether the upward triangle of side 2**level at ``corner`` is filled.

    Right half (corner.i >= 0): divide both coordinates by the side and test
    for disjoint binary digits.  Left half: apply the mirror map and reuse the
    right-half test.
    """
    i, j = corner
    s = 1 << level
    if j < 0:
        raise ValueError(f"triangle corner below the lattice half-plane: {corner}")
    if i % s or j % s:
        raise ValueError(f"corner {corner} not aligned to side {s}")
    if i < 0:
        i = -i - j - s
        if i < 0:
            return False
    return (i >> level) & (j >> level) == 0


def incident_cells(v: Vertex, level: int = 0) -> list[TriangleId]:
    """The filled 2**level-triangles having ``v`` (a G_level vertex) as a corner."""
    i, j = v
    s = 1 << level
    if i % s or j % s:
        raise ValueError(f"{v} is not on the level-{level} grid")
    cells = []
    for ci, cj in ((i, j), (i - s, j), (i, j - s)):
        if cj >= 0 and up_triangle_exists((ci, cj), level):
            cells.append(TriangleId((ci, cj), level))
    return cells


@lru_cache(maxsize=1 << 14)
def neighbors(v: Vertex) -> tuple[Vertex, ...]:
    """The four nearest neighbors of a gasket vertex.

    These are the corners of the exactly two filled unit triangles incident
    to ``v``, with ``v`` itself removed.  The walkers' tables apply the same
    rule to coordinate arrays (``walker._region``) and never call it; its
    bounded cache serves the exact absorbing chains and the tests'
    reference walker and oracles.
    """
    cells = incident_cells(v, 0)
    if not cells:
        raise ValueError(f"{v} is not a gasket vertex")
    out = []
    for cell in cells:
        for c in cell.corners():
            if c != v and c not in out:
                out.append(c)
    if len(out) != 4:
        raise AssertionError(f"vertex {v} has {len(out)} neighbors, expected 4")
    return tuple(out)


def on_grid(v: Vertex, level: int) -> bool:
    """Whether both coordinates are divisible by 2**level (v in G_level)."""
    return ((v[0] | v[1]) & ((1 << level) - 1)) == 0


class LevelPath(Sequence):
    """A path as int32 vertex ids, rows of ``xy``, the (n, 2) int64
    coordinates, numbered by descending grid level (``walker.by_grid_level``):
    vertex k lies on the level-m grid exactly when k < at_least[m].  It
    reads as a sequence of (i, j) tuples: a slice is a ``LevelPath``, and a
    path equals the list or tuple of its vertices."""

    __slots__ = ("ids", "xy", "at_least")

    def __init__(self, ids, xy, at_least: tuple[int, ...]):
        self.ids, self.xy, self.at_least = ids, xy, at_least

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return LevelPath(self.ids[k], self.xy, self.at_least)
        return tuple(self.xy[self.ids[k]].tolist())

    def __iter__(self) -> Iterator[Vertex]:
        for k in range(0, len(self.ids), 1 << 16):  # never a list of the whole path
            yield from zip(*self.xy.take(self.ids[k : k + (1 << 16)], axis=0).T.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, LevelPath) and other.xy is self.xy:
            return len(self) == len(other) and bool((self.ids == other.ids).all())
        if isinstance(other, (LevelPath, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


def cell_of_step(u: Vertex, v: Vertex, level: int) -> TriangleId:
    """The unique filled 2**level-triangle having two distinct level-``level``
    grid vertices u and v as corners.

    Any two corners of an upward cell have the cell's lower-left corner as
    their coordinatewise minimum, so that is the only candidate.
    """
    c = ci, cj = min(u[0], v[0]), min(u[1], v[1])
    side = 1 << level
    if (
        cj >= 0
        and u[0] + u[1] - ci - cj <= side
        and v[0] + v[1] - ci - cj <= side
        and up_triangle_exists(c, level)
    ):
        return TriangleId(c, level)
    raise NoCommonCell(f"{u} and {v} share no filled level-{level} cell")
