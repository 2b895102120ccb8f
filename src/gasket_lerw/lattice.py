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

Paths are lists/tuples of integer coordinate pairs.  A path of n+1
vertices has length n (the number of unit steps).  A ``LevelPath`` is a
list that also carries the ``grid_level`` of each vertex, so the staged
eraser reads each stage's grid visits without rescanning the tuples.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

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


def grid_level(v: Vertex) -> int:
    """The largest level whose grid holds ``v``: the 2-adic valuation of
    ``v[0] | v[1]``, and ``ORIGIN_LEVEL`` for the origin, which every grid
    holds."""
    bits = v[0] | v[1]
    return (bits & -bits).bit_length() - 1 if bits else ORIGIN_LEVEL


class LevelPath(list):
    """A path that carries ``levels``: the ``grid_level`` of each vertex, in
    path order, one byte each.  Slices and copies are plain lists."""

    __slots__ = ("levels",)

    def __init__(self, vertices: Iterable[Vertex], levels: bytes):
        super().__init__(vertices)
        self.levels = levels


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
