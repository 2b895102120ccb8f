"""Loop erasure with the larger-scale-loops-first rule.

``chronological_erase`` is the single-scale primitive: starting from the
first vertex, jump to the last index carrying the same vertex, step forward
once, and repeat.  It equals the familiar stack erasure (grow a self-avoiding
prefix, truncate on revisit), which the tests keep as an independent
cross-check.

``loop_erase`` removes loops from a crossing path scale by scale, largest
first.  At stage M the path is split along its level-M skeleton (the ordered
filled 2**M-triangles it crosses); inside each triangle the level-(M-1)
coarse view of the segment is chronologically erased, and the surviving fine
sub-segments are spliced back together.  Surviving pieces are addressed by
half-open index ranges of the pre-stage path, matching the concatenation
formula wd = [w(T_{s_i}), ..., w(T_{s_i + 1} - 1)] plus the final exit
vertex.  A stage works on vertex ids numbered by grid level
(``lattice.LevelPath``): it finds its grid visits by comparing ids in
numpy and reads coordinates only for the level-M visits.  Inside a
triangle it runs no Python code per visit: each step of the erasure finds
the last visit of a vertex by a search of the reversed ids, in C.  That
stays linear because a segment holds at most 15 distinct level-(M-1)
vertices, the triangle's 6 and the 3 midpoints of each neighbour that the
walk enters and leaves through a shared corner.  The stage keeps its
pieces by concatenating their slices, and returns a path it erases nothing
from unchanged.  After the stage, coarse-graining the output one level down
yields a loop-free path; the coarser skeletons never change again, although
a two-visit triangle can turn into a one-visit one when the erased mass
included the middle corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import (
    ORIGIN,
    LevelPath,
    TriangleId,
    Vertex,
    apex,
    cell_of_step,
    corner,
)
from .walker import CrossingVariant, by_grid_level

TYPE_ONE = 1
TYPE_TWO = 2


class NotACrossing(ValueError):
    """The path does not have the hitting structure of a conditioned crossing."""


class UnknownShape(ValueError):
    """A unit-frame path is not one of the admissible loop-erased shapes."""


@dataclass(frozen=True)
class SkeletonEntry:
    triangle: TriangleId
    entry: Vertex
    exit: Vertex
    kind: int | None  # 1 = crossed corner to corner, 2 = via the third corner
    exit_index: int  # path index of the exit time

    @property
    def third_corner(self) -> Vertex:
        for c in self.triangle.corners():
            if c != self.entry and c != self.exit:
                return c
        raise AssertionError("degenerate skeleton entry")


@dataclass(frozen=True)
class Skeleton:
    level: int
    entries: tuple[SkeletonEntry, ...]

    def triangles(self) -> tuple[TriangleId, ...]:
        return tuple(e.triangle for e in self.entries)

    def s_counts(self) -> tuple[int, int]:
        """(number of one-visit triangles, number of two-visit triangles)."""
        s1 = s2 = 0
        for e in self.entries:
            if e.kind == TYPE_ONE:
                s1 += 1
            elif e.kind == TYPE_TWO:
                s2 += 1
            else:
                raise ValueError("skeleton entry with more than two grid visits")
        return s1, s2


# ---------------------------------------------------------------------------
# Single-scale erasure
# ---------------------------------------------------------------------------


def chronological_erase(path: Sequence[Vertex]) -> list[Vertex]:
    """Erase all loops from a finite path, oldest loop base first.

    Output is self-avoiding and keeps the path's first and last vertices.
    """
    if not path:
        raise ValueError("empty path")
    last = dict(zip(path, range(len(path))))
    out, t = [], -1
    while t < len(path) - 1:
        t = last[path[t + 1]]
        out.append(path[t])
    return out


# ---------------------------------------------------------------------------
# Grid visits and skeletons
# ---------------------------------------------------------------------------


def _as_ids(path: Sequence[Vertex], level: int = 0) -> LevelPath:
    """The path as vertex ids numbered by grid level, checked to start and
    end on the ``level`` grid: as it is if it is a ``LevelPath``, else its
    distinct vertices, keyed (i << 32) + j (coordinates below 2**31), in
    the order of ``by_grid_level``."""
    if not len(path):
        raise ValueError("empty path")
    if not isinstance(path, LevelPath):
        xy = np.array(path, np.int64).reshape(-1, 2)
        keys = (xy[:, 0] << 32) + xy[:, 1]
        _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
        order, at_least = by_grid_level(xy[first])
        path = LevelPath(np.argsort(order)[ids].astype(np.int32), xy[first[order]], at_least)
    if max(path.ids[0], path.ids[-1]) >= path.at_least[level]:
        raise ValueError(f"path endpoints must lie on the level-{level} grid")
    return path


def _once_in_a_row(at: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The visits ``at`` of vertices ``ids`` without the repeats in a row."""
    new = np.empty(len(ids), bool)
    new[0] = True
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    return at[new], ids[new]


def _stage_visits(path: LevelPath, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both grids a stage reads: the path indices of the level-(M-1)
    visits, their vertex ids, and the positions in those arrays of the
    level-M visits, each counted once in a row.  The first two arrays alone
    are the once-in-a-row visits of one grid: ``_stage_visits(path, m + 1)``
    holds the level-m visits that ``skeleton`` and ``crossing_level`` read.
    Stage 1 skips the grid test, since every vertex lies on the level-0 grid.

    A level-M visit counted at level M is also counted at level M-1: the
    last level-(M-1) visit before it cannot be the same vertex, or that
    would be the last level-M visit as well.
    """
    if level == 1:
        fine, ids = _once_in_a_row(np.arange(len(path.ids)), path.ids)
    else:
        fine = (path.ids < path.at_least[level - 1]).nonzero()[0]
        fine, ids = _once_in_a_row(fine, path.ids[fine])
    top = (ids < path.at_least[level]).nonzero()[0]
    return fine, ids, _once_in_a_row(top, ids[top])[0]


def _crossed_cells(points: np.ndarray) -> tuple[list[int], list[int]]:
    """The ordered cells along the grid visits at ``points``: the positions
    of each cell's entry, and of its exit.  Two consecutive visits are
    corners of the cell whose lower-left corner is their coordinatewise
    minimum (``cell_of_step``); a cell lasts while the steps stay in it.
    """
    if len(points) < 2:
        return [], []
    corner = np.minimum(points[:-1], points[1:])
    moved = corner[1:] != corner[:-1]
    exits = ((moved[:, 0] | moved[:, 1]).nonzero()[0] + 1).tolist()
    return [0, *exits], [*exits, len(corner)]


def skeleton(path: Sequence[Vertex], level: int) -> Skeleton:
    """The ordered 2**level-triangles a path crosses, with exit times
    (``_crossed_cells``).  Each triangle is found by ``cell_of_step``,
    which raises ``NoCommonCell`` if its first step is no step of a walk."""
    path = _as_ids(path, level)
    ht, ids, _ = _stage_visits(path, level + 1)
    points = path.xy.take(ids, axis=0)
    hits = list(zip(*points.T.tolist()))
    entries = []
    for n, j in zip(*_crossed_cells(points)):
        visits = j - n
        entries.append(
            SkeletonEntry(
                triangle=cell_of_step(hits[n], hits[n + 1], level),
                entry=hits[n],
                exit=hits[j],
                kind=visits if visits <= 2 else None,
                exit_index=int(ht[j]),
            )
        )
    return Skeleton(level=level, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Staged erasure
# ---------------------------------------------------------------------------


def erase_scale(path: Sequence[Vertex], level: int, *, _crossing: bool = False) -> LevelPath:
    """Remove every 2**(level-1)-scale loop from a path whose coarser views
    are already loop-free, as they are when ``erase_to_scale`` runs the
    stages from the top down.

    Works triangle by triangle along the level-M skeleton; inside each
    triangle the level-(M-1) coarse sequence is chronologically erased and
    the fine sub-segments under the surviving coarse steps are spliced.
    ``_stage_visits`` finds the grid visits of both levels and their ids; a
    triangle's level-(M-1) visits are a slice of them.  Each step of the
    erasure finds the last visit of the next vertex with one ``list.index``
    on the reversed ids, from the triangle's exit.  A triangle's slice holds
    at most 15 distinct vertices (the module docstring), so these searches
    take time linear in the slice.  The kept pieces are index ranges of the
    path, whose slices of its ids are concatenated; a stage that keeps the
    whole path returns it as it is.  ``erase_to_scale`` runs its top stage
    with ``_crossing``, which checks the crossing pattern on the level-M
    visits.
    """
    if level < 1:
        raise ValueError("erasure stage level must be >= 1")
    path = _as_ids(path, level)
    fine, ids, top = _stage_visits(path, level)
    points = path.xy.take(ids[top], axis=0)
    if _crossing:
        _crossing_variant(list(zip(*points.T.tolist())), level)
    fine, ids, top = fine.tolist(), ids.tolist(), top.tolist()
    # The last visit to a vertex at or before position b of ``ids`` is its
    # first at or after position ``last - b`` of ``rev``.
    rev, last = ids[::-1], len(ids) - 1
    # The kept index ranges of the path, joined where they touch:
    # ``bounds`` is start, end, start, end, ...
    bounds = [0]
    end = 1  # the first vertex is kept
    for n, j in zip(*_crossed_cells(points)):
        # ``chronological_erase`` of the triangle's visits top[n]..b,
        # inlined on their ids: from the last visit to a vertex, on to the
        # next visit.
        b = top[j]
        lo = last - b
        k = last - rev.index(ids[top[n]], lo)
        skip = 1  # the triangle's entry is already kept
        while k < b:
            t = fine[k] + skip
            if t != end:
                bounds += (end, t)
            end = fine[k + 1]
            k = last - rev.index(ids[k + 1], lo)
            skip = 0
        t = fine[b]
        if t != end:
            bounds += (end, t)
        end = t + 1
    if len(bounds) == 1 and end == len(path):
        return path
    bounds.append(end)
    kept = [path.ids[a:b] for a, b in zip(bounds[::2], bounds[1::2])]
    return LevelPath(np.concatenate(kept), path.xy, path.at_least)


def _apex_level(path: Sequence[Vertex]) -> int:
    """The level n of a path that starts at the origin and ends at an apex a_n."""
    if not path or path[0] != ORIGIN:
        raise NotACrossing("crossing paths start at the origin")
    i, j = path[-1]
    if i != 0 or j <= 0 or (j & (j - 1)) != 0:
        raise NotACrossing(f"endpoint {path[-1]} is not an apex vertex")
    return j.bit_length() - 1


def _crossing_variant(hits: list[Vertex], n: int) -> CrossingVariant:
    """The crossing whose level-n visit sequence is ``hits``."""
    if hits == [ORIGIN, apex(n)]:
        return CrossingVariant.DIRECT
    if hits == [ORIGIN, corner(n), apex(n)]:
        return CrossingVariant.VIA_CORNER
    raise NotACrossing(f"level-{n} visit sequence {hits} is not a crossing pattern")


def crossing_level(path: Sequence[Vertex]) -> tuple[int, CrossingVariant]:
    """Validate the hitting structure of a crossing path and read off its level."""
    n = _apex_level(path)
    path = _as_ids(path)
    hits = path.xy.take(_stage_visits(path, n + 1)[1], axis=0)
    return n, _crossing_variant(list(zip(*hits.T.tolist())), n)


def erase_to_scale(path: Sequence[Vertex], down_to: int) -> LevelPath:
    """Run erasure stages from the top scale down to (and excluding) 2**down_to.

    The output has no loops of scale 2**down_to or larger; with down_to = 0
    the output is the fully loop-erased path, a ``LevelPath``.  The top
    stage validates the crossing pattern (``crossing_level``) from the
    visits it reads anyway.
    """
    n = _apex_level(path)
    if not 0 <= down_to <= n:
        raise ValueError(f"down_to must be in 0..{n}")
    path = _as_ids(path)
    if down_to == n:
        crossing_level(path)
        return path
    out = erase_scale(path, n, _crossing=True)
    for m in range(n - 1, down_to, -1):
        out = erase_scale(out, m)
    return out


def loop_erase(path: Sequence[Vertex]) -> LevelPath:
    """The fully loop-erased crossing: self-avoiding, origin to apex."""
    return erase_to_scale(path, 0)


# ---------------------------------------------------------------------------
# Shape classification
# ---------------------------------------------------------------------------


def classify_shape(path: Sequence[Vertex], table=None) -> str:
    """Canonical identifier of a unit-frame loop-erased crossing shape.

    The admissible vertex sequences are the ones enumerated by the exact
    shape-law solver, never transcribed by hand.
    """
    if table is None:
        from .exact import shape_table

        table = shape_table()
    key = tuple(path)
    info = table.by_path.get(key)
    if info is None:
        raise UnknownShape(f"not an admissible loop-erased crossing: {key}")
    return info.shape_id
