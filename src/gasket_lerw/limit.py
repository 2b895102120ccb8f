"""Two-type branching refinement and the scaling-limit path sampler.

A depth-M approximation of the limit process is a chain of 2**-M-sided
upward triangles, each crossed either corner-to-corner (one time unit) or
through its third corner (two time units), with every time unit worth
lambda**-M.  Refinement replaces one triangle by the skeleton of a random
crossing shape: a one-visit triangle draws from the direct shape law, a
two-visit triangle from the via-corner law, and the children are placed by
the affine identification sending the shape frame's origin, apex and right
corner to the parent's entry, exit and third corner.  A parent whose draw
happens to avoid the third corner simply produces that shape's children;
its own recorded kind is not rewritten.

Cell geometry is kept in integer coordinates at the working depth (the
triangle side is the unit), so doubling at each refinement is exact and the
projective structure is an identity: refining depth M+1 with the same
stream reproduces the depth-M chain cell for cell.

Each level is stored as one int64 array with a row per cell (entry, exit and
third corner as integer pairs, then the kind) and refined all at once: the
level draws one uniform per parent, in skeleton order, picks each parent's
shape from the cumulative law of its kind and places every child by one
affine map.  The uniforms are taken level by level in skeleton order, so a
seed determines the path.  Coarse-graining and the junction chain read the
same arrays; ``RefinedPath.cells`` is a tuple view for outside readers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import log, sqrt
from typing import NamedTuple, Sequence

import numpy as np

from . import eraser
from .eraser import TYPE_ONE, TYPE_TWO
from .exact import ShapeTable, offspring_laws, shape_table, spectral_data
from .lattice import Vertex


MIN_BOX_DEPTH = 6  # levels a box-counting fit needs
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


@dataclass(frozen=True)
class RefinementShape:
    """A crossing shape expressed as children placed inside a unit parent."""

    shape_id: str
    children: tuple[SkeletonCell, ...]  # in the side-2 shape frame


@dataclass(frozen=True)
class RefinementKernels:
    """Offspring laws of the branching refinement, per parent kind."""

    type_one: tuple[tuple[Fraction, RefinementShape], ...]
    type_two: tuple[tuple[Fraction, RefinementShape], ...]

    def law(self, kind: int) -> tuple[tuple[Fraction, RefinementShape], ...]:
        return self.type_one if kind == TYPE_ONE else self.type_two


def _shape_children(path: tuple[Vertex, ...]) -> tuple[SkeletonCell, ...]:
    cells = []
    for e in eraser.skeleton(path, 0).entries:
        if e.kind is None:
            raise AssertionError("crossing shapes have one- or two-visit cells only")
        cells.append(SkeletonCell(entry=e.entry, exit=e.exit, third=e.third_corner, kind=e.kind))
    return tuple(cells)


def refinement_table(table: ShapeTable | None = None) -> RefinementKernels:
    """Kernel of the refinement: each shape's mass and child skeleton.

    All children stay inside the closed parent triangle; this is asserted at
    build time rather than assumed.
    """
    if table is None:
        table = shape_table()
    type_one = []
    type_two = []
    for s in table.shapes:
        shape = RefinementShape(shape_id=s.shape_id, children=_shape_children(s.path))
        for cell in shape.children:
            for p in (cell.entry, cell.exit, cell.third):
                if not (p[0] >= 0 and p[1] >= 0 and p[0] + p[1] <= 2):
                    raise AssertionError(f"shape {s.shape_id} leaves its frame at {p}")
        if s.p_direct:
            type_one.append((s.p_direct, shape))
        if s.p_via:
            type_two.append((s.p_via, shape))
    return RefinementKernels(type_one=tuple(type_one), type_two=tuple(type_two))


def _cell_array(cells: Sequence[SkeletonCell]) -> np.ndarray:
    """Rows (entry i, j, exit i, j, third i, j, kind) of a cell sequence."""
    rows = [(*c.entry, *c.exit, *c.third, c.kind) for c in cells]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 7)


def cell_corners(cells: np.ndarray) -> np.ndarray:
    """Lower-left corner (i, j) of each row of a cell array."""
    return np.minimum(np.minimum(cells[:, 0:2], cells[:, 2:4]), cells[:, 4:6])


def _junction_chain(cells: np.ndarray) -> np.ndarray:
    """The vertices the chain passes, in order: the first entry, then for
    each cell its third corner when it is two-visit, followed by its exit."""
    steps = np.stack((cells[:, 4:6], cells[:, 2:4]), axis=1).reshape(-1, 2)
    used = np.stack((cells[:, 6] == TYPE_TWO, np.ones(len(cells), dtype=bool)), axis=1)
    return np.concatenate((cells[:1, 0:2], steps[used.ravel()]))


@dataclass(frozen=True, eq=False)
class RefinedPath:
    """A depth-M skeleton chain with lambda-scaled traversal times."""

    depth: int
    cell_array: np.ndarray  # one int64 row per cell, as built by _cell_array
    level_counts: tuple[tuple[int, int], ...]  # (one-visit, two-visit) per level 0..depth

    @cached_property
    def cells(self) -> tuple[SkeletonCell, ...]:
        return tuple(
            SkeletonCell(entry=(ei, ej), exit=(xi, xj), third=(ti, tj), kind=kind)
            for ei, ej, xi, xj, ti, tj, kind in self.cell_array.tolist()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefinedPath):
            return NotImplemented
        return (
            self.depth == other.depth
            and self.level_counts == other.level_counts
            and np.array_equal(self.cell_array, other.cell_array)
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
        points = _junction_chain(self.cell_array)
        t = np.concatenate(([0.0], np.cumsum(np.full(len(points) - 1, dt))))
        x = (points[:, 0] + 0.5 * points[:, 1]) * scale
        y = points[:, 1] * root3_half * scale
        return np.column_stack((t, x, y))

    def repeated_junctions(self) -> int:
        """Junctions the chain passes more than once (0 for a self-avoiding
        path), counted as adjacent equal keys after one sort."""
        points = _junction_chain(self.cell_array)
        keys = np.sort((points[:, 0] << 32) | points[:, 1])
        return int(np.count_nonzero(keys[1:] == keys[:-1]))


def growth_rate():
    """The Perron eigenvalue governing time scaling (an mpf)."""
    return spectral_data().lam


class _LevelLaw(NamedTuple):
    """Refinement kernels as arrays, for refining a whole level at once.

    Shapes are numbered over both laws, the type-one law first; ``frames``
    holds every shape's children in the side-2 shape frame, shape after
    shape, as ``_cell_array`` rows.
    """

    cum_one: np.ndarray  # cumulative type-one law, last entry forced to 1.0
    cum_two: np.ndarray
    first: np.ndarray  # shape number -> its first row in frames
    count: np.ndarray  # shape number -> its number of children
    frames: np.ndarray

    @classmethod
    def of(cls, kernels: RefinementKernels) -> _LevelLaw:
        cums = []
        first = []
        children: list[SkeletonCell] = []
        for kind in (TYPE_ONE, TYPE_TWO):
            cum = []
            acc = 0.0
            for p, shape in kernels.law(kind):
                acc += float(p)
                cum.append(acc)
                first.append(len(children))
                children.extend(shape.children)
            cum[-1] = 1.0
            cums.append(np.array(cum))
        first.append(len(children))
        bounds = np.array(first, dtype=np.int64)
        return cls(cums[0], cums[1], bounds[:-1], np.diff(bounds), _cell_array(children))

    def refine(self, parents: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Children of every parent row, in skeleton order.

        Parent k takes the first shape of its kind's law whose cumulative
        mass is at least r[k].  Each child point (a, b) of the shape frame
        lands at 2 entry + a (third - entry) + b (exit - entry), doubling
        the parent's coordinates.
        """
        shape = np.searchsorted(self.cum_one, r)
        two = parents[:, 6] == TYPE_TWO
        shape[two] = len(self.cum_one) + np.searchsorted(self.cum_two, r[two])
        sizes = self.count[shape]
        owner = np.repeat(np.arange(len(parents)), sizes)
        offsets = np.cumsum(sizes) - sizes
        rows = np.repeat(self.first[shape] - offsets, sizes) + np.arange(len(owner))
        frame = self.frames[rows]
        parent = parents[owner]
        entry = parent[:, 0:2]
        to_exit = parent[:, 2:4] - entry
        to_third = parent[:, 4:6] - entry
        out = np.empty_like(frame)
        for col in (0, 2, 4):
            a, b = frame[:, col : col + 1], frame[:, col + 1 : col + 2]
            out[:, col : col + 2] = 2 * entry + a * to_third + b * to_exit
        out[:, 6] = frame[:, 6]
        return out


def sample_refined_family(
    depth: int,
    rng: np.random.Generator,
    kernels: RefinementKernels | None = None,
) -> list[RefinedPath]:
    """The coupled chain of approximations at depths 0..depth.

    One kernel draw is consumed per cell per level, in skeleton order, so
    the depth-m member is a deterministic prefix of the depth-(m+1) member's
    construction: coarse-graining the finer one recovers the coarser one
    exactly.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    law = _LevelLaw.of(refinement_table() if kernels is None else kernels)
    cells = _cell_array((ANCESTOR,))
    counts = [(1, 0)]
    family = [RefinedPath(depth=0, cell_array=cells, level_counts=tuple(counts))]
    for m in range(1, depth + 1):
        cells = law.refine(cells, rng.random(len(cells)))
        s2 = int(np.count_nonzero(cells[:, 6] == TYPE_TWO))
        counts.append((len(cells) - s2, s2))
        family.append(RefinedPath(depth=m, cell_array=cells, level_counts=tuple(counts)))
    return family


def sample_limit_path(
    depth: int,
    rng: np.random.Generator,
    kernels: RefinementKernels | None = None,
) -> RefinedPath:
    """Sample one depth-M approximation from the single one-visit ancestor."""
    return sample_refined_family(depth, rng, kernels)[-1]


def coarse_grain_refined(path: RefinedPath) -> RefinedPath:
    """Collapse a depth-M chain one level: group children by parent triangle
    and reread each parent's kind from whether the chain uses its third corner.

    The parent triangles, entries and exits reproduce the coupled coarser
    sample exactly.  Kinds are the finer path's own level-(M-1) reading: a
    two-visit parent whose offspring avoided the middle corner rereads as
    one-visit, which is the only kind change the erasure allows.  The
    returned history keeps the recorded branching counts for the untouched
    levels and carries the reread counts at the top.
    """
    if path.depth == 0:
        raise ValueError("depth-0 paths have no coarser level")
    cells = path.cell_array
    key = cell_corners(cells) >> 1  # the parent's corner, one level up
    new_group = np.concatenate(([True], np.any(key[1:] != key[:-1], axis=1)))
    starts = np.flatnonzero(new_group)
    entry = cells[starts, 0:2]
    exit_ = cells[np.append(starts[1:], len(cells)) - 1, 2:4]
    # The parent's corners 2 key, 2 key + (2, 0) and 2 key + (0, 2) sum to
    # 3 * 2 key + (2, 2); the third is what entry and exit leave of them.
    third = 3 * 2 * key[starts] + 2 - entry - exit_
    # Only one child holds the parent's third corner, so the chain can pass
    # that corner only as the third corner of a two-visit child.
    own = third[np.cumsum(new_group) - 1]
    visits = (cells[:, 6] == TYPE_TWO) & np.all(cells[:, 4:6] == own, axis=1)
    two = np.add.reduceat(visits, starts) > 0
    kinds = np.where(two, TYPE_TWO, TYPE_ONE)
    parents = np.column_stack((entry >> 1, exit_ >> 1, third >> 1, kinds))
    s2 = int(np.count_nonzero(two))
    return RefinedPath(
        depth=path.depth - 1,
        cell_array=parents,
        level_counts=path.level_counts[:-2] + ((len(parents) - s2, s2),),
    )


def projects_onto(fine: RefinedPath, coarse: RefinedPath) -> bool:
    """Exact projective check between coupled depths.

    Triangles, entry points and exit points must agree cell for cell; a kind
    may only change from two-visit to one-visit when passing down a level.
    """
    if fine.depth != coarse.depth + 1:
        raise ValueError("projects_onto compares adjacent depths")
    got = coarse_grain_refined(fine).cell_array
    want = coarse.cell_array
    if got.shape != want.shape:
        return False
    upgraded = (got[:, 6] == TYPE_TWO) & (want[:, 6] == TYPE_ONE)
    return bool(np.array_equal(got[:, :6], want[:, :6]) and not upgraded.any())


# ---------------------------------------------------------------------------
# Box counting
# ---------------------------------------------------------------------------


def box_count_dimension(path: RefinedPath) -> float:
    """Least-squares slope of log cell count against log inverse mesh.

    Counts come from the coarse-grained skeletons recorded during
    refinement: K_m cells of side 2**-m at level m.
    """
    if path.depth < MIN_BOX_DEPTH:
        raise InsufficientDepth(f"box counting needs depth >= {MIN_BOX_DEPTH}")
    xs = []
    ys = []
    for m in range(BOX_MIN_LEVEL, path.depth + 1):
        s1, s2 = path.level_counts[m]
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
    """(S1, S2) after ``depth`` refinements for many independent runs.

    Counts evolve exactly as under the geometric sampler (same offspring
    laws); dropping the geometry lets each generation be drawn with two
    multinomials across all runs.
    """
    law1, law2 = offspring_laws()
    p1 = np.array([float(p) for p, _ in law1])
    p2 = np.array([float(p) for p, _ in law2])
    off1 = np.array([s for _, s in law1], dtype=np.int64)
    off2 = np.array([s for _, s in law2], dtype=np.int64)
    p1 /= p1.sum()
    p2 /= p2.sum()
    state = np.tile(np.array(ancestor, dtype=np.int64), (runs, 1))
    for _ in range(depth):
        d1 = rng.multinomial(state[:, 0], p1)
        d2 = rng.multinomial(state[:, 1], p2)
        state = d1 @ off1 + d2 @ off2
    return state
