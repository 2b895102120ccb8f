"""Two-type branching refinement and the scaling-limit path sampler.

A depth-M approximation of the limit process is a chain of 2**-M-sided
upward triangles, each crossed either corner-to-corner (one time unit) or
through its third corner (two time units), with every time unit worth
lambda**-M.  Refinement replaces one triangle by the skeleton of a random
crossing shape: a one-visit triangle draws from the direct shape law, a
two-visit triangle from the via-corner law, both read from
``exact.ShapeTable.law`` with each shape's skeleton cells (``children``).
The children are placed by the affine identification sending the shape
frame's origin, apex and right corner to the parent's entry, exit and third
corner.  A parent whose draw happens to avoid the third corner simply
produces that shape's children; its own recorded kind is not rewritten.

Cell geometry is kept in integer coordinates at the working depth (the
triangle side is the unit), so doubling at each refinement is exact and the
projective structure is an identity: refining depth M+1 with the same
stream reproduces the depth-M chain cell for cell.

Each level is stored as one int32 array with a row per cell: the cell's
lower-left corner (i, j), its orientation and its kind.  The orientation,
0..5, says which of the corners c, c + (1, 0) and c + (0, 1) of the cell
with corner c is its entry, which its exit and which its third corner
(``ORIENTATIONS``).  Under a parent of a given orientation every child of a
shape sits at a fixed offset from twice the parent's corner, with a fixed
orientation and kind, so ``refinement_table()`` holds each shape's children
once per parent orientation, built once from the shape table.  A level is
refined all at once: it draws one uniform per parent, in skeleton order,
picks each parent's shape from the cumulative law of its kind and places
every child by one gather from that table plus twice its parent's corner.
The uniforms are taken level by level in skeleton order, so a seed
determines the path.  The junction chain and the skeleton writer read the
same rows, with entries, exits and third corners taken from the orientation
table; ``RefinedPath.cells`` is a tuple view for outside readers only.

A child's kind depends only on its parent's kind and the drawn shape, so the
(one-visit, two-visit) counts per level are a two-type Galton-Watson process
and need no geometry: ``sample_branching_counts`` draws a level of many
independent runs with two multinomials, one per parent kind, at a cost that
does not grow with the cell count.  Box counting, and with it the
``dimension`` command, reads only these counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from math import log, sqrt
from typing import NamedTuple, Sequence

import numpy as np

from .eraser import TYPE_ONE, TYPE_TWO
from .exact import PARENT_LAWS, Child, ShapeTable, shape_table, spectral_data
from .lattice import Vertex


MIN_BOX_DEPTH = 6  # levels a box-counting fit needs
# Deepest limit-path or dimension run.  limit-path's memory grows as
# lambda**M; dimension's does not, but its cap rises only with a run measured
# at the new cap.
MAX_DEPTH = 18
BOX_MIN_LEVEL = 2  # coarsest level in the box-counting fit


class InsufficientDepth(ValueError):
    """Box counting needs several levels to fit a slope."""


class SkeletonCell(NamedTuple):
    """One triangle of a refined skeleton, in integer depth-scale coordinates."""

    entry: Vertex
    exit: Vertex
    third: Vertex
    kind: int


ANCESTOR = SkeletonCell(entry=(0, 0), exit=(0, 1), third=(1, 0), kind=TYPE_ONE)


# The corners of the cell with lower-left corner c are c + CORNER_OFFSETS[k];
# orientation o puts its entry, exit and third corner at the offsets
# ORIENTATIONS[o] = (entry, exit, third) from c.
CORNER_OFFSETS = ((0, 0), (1, 0), (0, 1))
ORIENTATIONS = np.array(
    [[CORNER_OFFSETS[k] for k in order] for order in permutations(range(3))], dtype=np.int32
)
_ENTRY = ORIENTATIONS[:, 0]
_THIRD_EXIT = ORIENTATIONS[:, [2, 1]].reshape(6, 4)


def _compact(points: np.ndarray, kinds: Sequence[int] | np.ndarray) -> np.ndarray:
    """Rows (corner i, corner j, orientation, kind) of the cells with these
    entry, exit and third corners (an n x 3 x 2 array), each an upward
    triangle of side 1."""
    corner = points.min(axis=1)
    rows = np.empty((len(points), 4), dtype=np.int32)
    rows[:, 0:2] = corner
    # The orientation whose offsets the corners take; a cell with none gets 0, caught below.
    match = (points[:, None] - corner[:, None, None] == ORIENTATIONS).all(axis=(2, 3))
    rows[:, 2] = match.argmax(axis=1)
    rows[:, 3] = kinds
    if not np.array_equal(_points(rows), points):
        raise ValueError("cells must be upward triangles of side 1")
    return rows


def _points(rows: np.ndarray) -> np.ndarray:
    """Entry, exit and third corner of each row, as an n x 3 x 2 array."""
    return corner_plus(rows, ORIENTATIONS.reshape(6, 6)).reshape(-1, 3, 2)


def corner_plus(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each row's corner plus the offsets its orientation takes from a table
    of one row of (i, j) pairs per orientation, as one row per cell."""
    out = np.take(offsets, rows[:, 2], axis=0)
    for k in range(0, out.shape[1], 2):  # column by column: numpy adds 1-D runs fastest
        out[:, k] += rows[:, 0]
        out[:, k + 1] += rows[:, 1]
    return out


def _junction_chain(rows: np.ndarray) -> np.ndarray:
    """The vertices the chain passes, in order: the first entry, then for
    each cell its third corner when it is two-visit, followed by its exit."""
    steps = corner_plus(rows, _THIRD_EXIT).reshape(-1, 2)
    used = np.stack((rows[:, 3] == TYPE_TWO, np.ones(len(rows), dtype=bool)), axis=1)
    return np.concatenate((corner_plus(rows[:1], _ENTRY), steps[used.ravel()]))


@dataclass(frozen=True, eq=False)
class RefinedPath:
    """A depth-M skeleton chain with lambda-scaled traversal times."""

    depth: int
    rows: np.ndarray  # one int32 row (corner i, corner j, orientation, kind) per cell
    level_counts: tuple[tuple[int, int], ...]  # (one-visit, two-visit) per level 0..depth

    @cached_property
    def cells(self) -> tuple[SkeletonCell, ...]:
        flat = np.column_stack((_points(self.rows).reshape(-1, 6), self.rows[:, 3]))
        return tuple(
            SkeletonCell(entry=(ei, ej), exit=(xi, xj), third=(ti, tj), kind=kind)
            for ei, ej, xi, xj, ti, tj, kind in flat.tolist()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefinedPath):
            return NotImplemented
        return (
            self.depth == other.depth
            and self.level_counts == other.level_counts
            and np.array_equal(self.rows, other.rows)
        )

    def s_counts(self) -> tuple[int, int]:
        return self.level_counts[-1]

    def scaled_length(self) -> float:
        s1, s2 = self.s_counts()
        return float(growth_rate() ** -self.depth * (s1 + 2 * s2))

    def polyline(self) -> np.ndarray:
        """(time, x, y) rows of the time-parameterized path, one per junction."""
        dt = float(growth_rate()) ** -self.depth
        scale = 0.5**self.depth
        root3_half = sqrt(3.0) / 2.0
        points = _junction_chain(self.rows)
        t = np.concatenate(([0.0], np.cumsum(np.full(len(points) - 1, dt))))
        x = (points[:, 0] + 0.5 * points[:, 1]) * scale
        y = points[:, 1] * root3_half * scale
        return np.column_stack((t, x, y))

    def repeated_junctions(self) -> int:
        """Junctions the chain passes more than once (0 for a self-avoiding
        path), counted as adjacent equal keys after one sort."""
        points = _junction_chain(self.rows).astype(np.int64)
        keys = np.sort((points[:, 0] << 32) | points[:, 1])
        return int(np.count_nonzero(keys[1:] == keys[:-1]))


def growth_rate():
    """The Perron eigenvalue governing time scaling (an mpf)."""
    return spectral_data().lam


class _LevelLaw(NamedTuple):
    """The two offspring laws of a shape table as arrays, for refining a
    whole level at once.

    Shapes are numbered over both laws, the type-one (direct) law first, and
    their children in the side-2 shape frame are the frame rows, shape after
    shape.  ``children[o, r]`` is frame row r placed in a parent of
    orientation o with corner (0, 0), as a cell row; in a parent with corner
    c the child's corner moves by 2 c.  ``masses`` and ``offspring`` are the
    same two laws for the count sampler, indexed by parent kind less one.
    """

    cum_one: np.ndarray  # cumulative type-one law, last entry forced to 1.0
    cum_two: np.ndarray
    first: np.ndarray  # shape number -> its first frame row
    count: np.ndarray  # shape number -> its number of children
    children: np.ndarray  # orientation x frame row -> (corner i, corner j, orientation, kind)
    masses: tuple[np.ndarray, np.ndarray]  # each law's masses, normalized to sum 1
    offspring: tuple[np.ndarray, np.ndarray]  # each law's shapes -> (S1, S2) children, int64

    @classmethod
    def of(cls, table: ShapeTable) -> _LevelLaw:
        cums = []
        masses = []
        offspring = []
        first = []
        frame: list[Child] = []
        for variant in PARENT_LAWS:
            law = table.law(variant)
            mass = np.array([float(p) for p, _ in law])
            cum = np.cumsum(mass)
            cum[-1] = 1.0
            cums.append(cum)
            masses.append(mass / mass.sum())
            offspring.append(np.array([(s.s1, s.s2) for _, s in law], dtype=np.int64))
            for _, shape in law:
                first.append(len(frame))
                frame.extend(shape.children)
        first.append(len(frame))
        bounds = np.array(first, dtype=np.int64)
        # Frame point (a, b) lands at 2 entry + a (third - entry) + b (exit - entry).
        points = np.array([cell[:3] for cell in frame], dtype=np.int32)
        kinds = [cell[3] for cell in frame]
        a, b = points[..., :1], points[..., 1:]
        children = [
            _compact(2 * entry + a * (third - entry) + b * (exit_ - entry), kinds)
            for entry, exit_, third in ORIENTATIONS
        ]
        return cls(
            cums[0], cums[1], bounds[:-1], np.diff(bounds), np.stack(children),
            tuple(masses), tuple(offspring),
        )

    def draw(self, kinds: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Frame rows of the children of every parent, in skeleton order, and
        each parent's number of children.

        Parent k takes the first shape of its kind's law whose cumulative
        mass is at least r[k].
        """
        shape = np.searchsorted(self.cum_one, r)
        two = kinds == TYPE_TWO
        shape[two] = len(self.cum_one) + np.searchsorted(self.cum_two, r[two])
        sizes = self.count[shape]
        offsets = np.cumsum(sizes) - sizes
        rows = np.repeat(self.first[shape] - offsets, sizes) + np.arange(sizes.sum())
        return rows, sizes

    def place(self, parents: np.ndarray, rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """The drawn children as compact rows: each frame row read under its
        parent's orientation, its corner moved by twice the parent's."""
        frame_rows = self.children.shape[1]
        table = self.children.reshape(-1, 4)
        out = np.take(table, np.repeat(parents[:, 2] * frame_rows, sizes) + rows, axis=0)
        out[:, 0] += np.repeat(2 * parents[:, 0], sizes)
        out[:, 1] += np.repeat(2 * parents[:, 1], sizes)
        return out


@lru_cache(maxsize=None)
def refinement_table() -> _LevelLaw:
    """The refinement kernels of the shape table, as arrays, built once."""
    return _LevelLaw.of(shape_table())


def sample_refined_family(depth: int, rng: np.random.Generator) -> list[RefinedPath]:
    """The coupled chain of approximations at depths 0..depth.

    One kernel draw is consumed per cell per level, in skeleton order, so
    the depth-m member is a deterministic prefix of the depth-(m+1) member's
    construction: coarse-graining the finer one recovers the coarser one
    exactly (checked cell for cell by the coupling oracle in
    ``tests/oracles.py``).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    law = refinement_table()
    rows = _compact(np.array([ANCESTOR[:3]]), [ANCESTOR.kind])
    counts = [(1, 0)]
    family = [RefinedPath(depth=0, rows=rows, level_counts=tuple(counts))]
    for m in range(1, depth + 1):
        rows = law.place(rows, *law.draw(rows[:, 3], rng.random(len(rows))))
        s2 = int(np.count_nonzero(rows[:, 3] == TYPE_TWO))
        counts.append((len(rows) - s2, s2))
        family.append(RefinedPath(depth=m, rows=rows, level_counts=tuple(counts)))
    return family


def sample_limit_path(depth: int, rng: np.random.Generator) -> RefinedPath:
    """Sample one depth-M approximation from the single one-visit ancestor."""
    return sample_refined_family(depth, rng)[-1]


# ---------------------------------------------------------------------------
# Box counting
# ---------------------------------------------------------------------------


def box_count_dimension(level_counts: Sequence[tuple[int, int]]) -> float:
    """Least-squares slope of log cell count against log inverse mesh.

    ``level_counts`` are the (one-visit, two-visit) counts per level 0..M
    recorded during refinement: K_m cells of side 2**-m at level m.
    """
    depth = len(level_counts) - 1
    if depth < MIN_BOX_DEPTH:
        raise InsufficientDepth(f"box counting needs depth >= {MIN_BOX_DEPTH}")
    xs = []
    ys = []
    for m in range(BOX_MIN_LEVEL, depth + 1):
        s1, s2 = level_counts[m]
        xs.append(m * log(2.0))
        ys.append(log(s1 + s2))
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


# ---------------------------------------------------------------------------
# Count-only branching simulation (vectorized)
# ---------------------------------------------------------------------------


def sample_branching_counts(
    depth: int,
    runs: int,
    rng: np.random.Generator,
    ancestor: tuple[int, int] = (1, 0),
) -> np.ndarray:
    """(S1, S2) at levels 0..depth of many independent runs, as an int64
    array of shape (depth + 1, runs, 2) whose level 0 is the ancestor.

    Counts evolve exactly as under the geometric sampler (same offspring
    laws); dropping the geometry lets each generation be drawn with two
    multinomials across all runs: how many parents of each kind drew each
    shape.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    law = refinement_table()
    (p1, p2), (off1, off2) = law.masses, law.offspring
    counts = np.empty((depth + 1, runs, 2), dtype=np.int64)
    counts[0] = ancestor
    for m in range(depth):
        d1 = rng.multinomial(counts[m, :, 0], p1)
        d2 = rng.multinomial(counts[m, :, 1], p2)
        counts[m + 1] = d1 @ off1 + d2 @ off2
    return counts
