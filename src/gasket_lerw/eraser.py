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
vertex.  A stage reads only the path's level-(M-1) grid vertices, which it
finds in the grid levels the path carries (``lattice.LevelPath``: the
sampler records them, each stage slices them with the path), so it never
rescans the vertex tuples.  After the stage, coarse-graining the output one
level down yields a loop-free path; the coarser skeletons never change
again, although a two-visit triangle can turn into a one-visit one when the
erased mass included the middle corner.
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
    grid_level,
    on_grid,
)
from .walker import CrossingVariant

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


def _sup_rule_keep(seq: Sequence[Vertex]) -> list[int]:
    """Kept indices under the last-occurrence jump rule."""
    last: dict[Vertex, int] = {}
    for t, v in enumerate(seq):
        last[v] = t
    keep = [last[seq[0]]]
    end = len(seq) - 1
    while keep[-1] < end:
        keep.append(last[seq[keep[-1] + 1]])
    return keep


def chronological_erase(path: Sequence[Vertex]) -> list[Vertex]:
    """Erase all loops from a finite path, oldest loop base first.

    Output is self-avoiding and keeps the path's first and last vertices.
    """
    if not path:
        raise ValueError("empty path")
    return [path[t] for t in _sup_rule_keep(path)]


# ---------------------------------------------------------------------------
# Grid visits and skeletons
# ---------------------------------------------------------------------------


def _levels(path: Sequence[Vertex]) -> bytes:
    """The grid level of every vertex: carried by a ``LevelPath``, else
    from one ``grid_level`` pass."""
    return path.levels if isinstance(path, LevelPath) else bytes(map(grid_level, path))


def _stage_visits(path: Sequence[Vertex], level: int) -> tuple[list[int], list[int]]:
    """Both grids a stage reads: the path indices of the level-(M-1)
    visits, and the positions in that list of the level-M visits, each
    counted once in a row.  The first list alone is the once-in-a-row
    visits of one grid: ``_stage_visits(path, m + 1)[0]`` holds the level-m
    visits that ``skeleton`` and ``crossing_level`` read.

    Only the path's vertices on the level-(M-1) grid are read, found by one
    comparison of the grid levels (``_levels``).  A level-M visit counted
    at level M is also counted at level M-1: the last level-(M-1) visit
    before it cannot be the same vertex, or that would be the last level-M
    visit as well.
    """
    levels = _levels(path)
    grid = np.frombuffer(levels, np.uint8)
    top: list[int] = []
    last_top = None
    if level == 1:
        # A unit step never stays put: every vertex is a level-0 visit.
        for t in np.flatnonzero(grid).tolist():
            v = path[t]
            if v != last_top:
                last_top = v
                top.append(t)
        return list(range(len(path))), top
    fine: list[int] = []
    last = None
    for t in np.flatnonzero(grid >= level - 1).tolist():
        v = path[t]
        if v == last:
            continue
        last = v
        if levels[t] >= level and v != last_top:
            last_top = v
            top.append(len(fine))
        fine.append(t)
    return fine, top


def _crossed_cells(path: Sequence[Vertex], hits: list[int], level: int):
    """The ordered 2**level-triangles along the grid visits ``path[hits]``:
    yields (cell, n, j), the triangle and the positions in ``hits`` of its
    entry and exit.

    The exit of a triangle is the last grid visit before the coarse path
    moves to a vertex outside it; the next triangle is the unique filled
    cell containing that exit and the following grid visit.
    """
    m = len(hits) - 1
    n = 0
    while n < m:
        cell = cell_of_step(path[hits[n]], path[hits[n + 1]], level)
        j = n + 1
        while j < m and cell.contains(path[hits[j + 1]]):
            j += 1
        yield cell, n, j
        n = j


def skeleton(path: Sequence[Vertex], level: int) -> Skeleton:
    """The ordered 2**level-triangles a path crosses, with exit times
    (``_crossed_cells``)."""
    _check_grid_endpoints(path, level)
    ht = _stage_visits(path, level + 1)[0]
    entries = []
    for cell, n, j in _crossed_cells(path, ht, level):
        visits = j - n
        entries.append(
            SkeletonEntry(
                triangle=cell,
                entry=path[ht[n]],
                exit=path[ht[j]],
                kind=visits if visits <= 2 else None,
                exit_index=ht[j],
            )
        )
    return Skeleton(level=level, entries=tuple(entries))


def _check_grid_endpoints(path: Sequence[Vertex], level: int) -> None:
    if not path:
        raise ValueError("empty path")
    if not (on_grid(path[0], level) and on_grid(path[-1], level)):
        raise ValueError(f"path endpoints must lie on the level-{level} grid")


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
    ``_stage_visits`` finds the grid visits of both levels from the path's
    grid levels; a triangle's level-(M-1) visits are a slice of them, and
    the kept pieces are slices of the path and of its levels, which the
    output carries.  ``erase_to_scale`` runs its top stage with
    ``_crossing``, which checks the crossing pattern on the level-M visits.
    """
    if level < 1:
        raise ValueError("erasure stage level must be >= 1")
    _check_grid_endpoints(path, level)
    if not isinstance(path, LevelPath):
        path = LevelPath(path, _levels(path))
    fine, top = _stage_visits(path, level)
    ht = [fine[k] for k in top]
    if _crossing:
        _crossing_variant([path[t] for t in ht], level)
    # The kept index ranges of the path, joined where they touch:
    # ``bounds`` is start, end, start, end, ...
    bounds = [0]
    end = 1  # the first vertex is kept
    for _, n, j in _crossed_cells(path, ht, level):
        hs = fine[top[n] : top[j] + 1]
        keep = _sup_rule_keep([path[t] for t in hs])
        skip = 1  # the triangle's entry is already kept
        for k in keep[:-1]:
            if hs[k] + skip != end:
                bounds += (end, hs[k] + skip)
            end = hs[k + 1]
            skip = 0
        t = hs[keep[-1]]
        if t != end:
            bounds += (end, t)
        end = t + 1
    bounds.append(end)
    pieces = list(map(slice, bounds[::2], bounds[1::2]))
    out = LevelPath((), b"".join(map(path.levels.__getitem__, pieces)))
    for piece in pieces:
        out += path[piece]
    return out


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
    return n, _crossing_variant([path[t] for t in _stage_visits(path, n + 1)[0]], n)


def erase_to_scale(path: Sequence[Vertex], down_to: int) -> LevelPath:
    """Run erasure stages from the top scale down to (and excluding) 2**down_to.

    The output has no loops of scale 2**down_to or larger; with down_to = 0
    the output is the fully loop-erased path.  It carries its grid levels
    (``LevelPath``).  The top stage validates the crossing pattern
    (``crossing_level``) from the visits it reads anyway.
    """
    n = _apex_level(path)
    if not 0 <= down_to <= n:
        raise ValueError(f"down_to must be in 0..{n}")
    if down_to == n:
        crossing_level(path)
        return LevelPath(path, _levels(path))
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
