"""Reference code that only the tests read.

Each function here is an independent route to something the package
computes another way, or a predicate the tests state their claims with:
stack erasure beside the package's chronological erasure, the diameter
reading of loop scale beside the staged eraser, the once-in-a-row hitting
scan and coarse-graining beside the walkers' level-(N-1) patterns and the
eraser's one-scan stage visits, the staged eraser on vertex tuples beside
the eraser on vertex ids, the one-draw walk loops beside the walker's pair
loops, a depth-first enumeration of the level-1
self-avoiding crossings beside the exact chain's supports, the lattice
predicates the geometry tests use, and the per-cell coarse-graining that
checks the coupling of the limit sampler's refinement family.  None of it shares code with what the
command line runs, but for the one-draw walk loops, which step on the
walker's own region table.
"""

from __future__ import annotations

from operator import length_hint
from typing import Iterable, Sequence

import numpy as np

from gasket_lerw.lattice import (
    ORIGIN,
    ORIGIN_LEVEL,
    TriangleId,
    Vertex,
    apex,
    cell_of_step,
    corner,
    neighbors,
    on_grid,
    up_triangle_exists,
)
from gasket_lerw.limit import SkeletonCell
from gasket_lerw.walker import BLOCK, CrossingVariant, StepBudgetExceeded, _block, _region

# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------


def is_vertex(v: Vertex) -> bool:
    """Whether ``v`` is a corner of at least one filled unit triangle."""
    i, j = v
    if j < 0:
        return False
    for ci, cj in ((i, j), (i - 1, j), (i, j - 1)):
        if cj >= 0 and up_triangle_exists((ci, cj), 0):
            return True
    return False


def neighbors_on_grid(v: Vertex, level: int) -> tuple[Vertex, ...]:
    """Neighbors of ``v`` in the coarse graph whose edges have length 2**level.

    The coarse graph is the gasket scaled by 2**level, so the unit-scale
    neighbor table is reused after shifting coordinates.
    """
    if level == 0:
        return neighbors(v)
    i, j = v
    base = neighbors((i >> level, j >> level))
    return tuple((x << level, y << level) for x, y in base)


def vertex_level(v: Vertex, cap: int = 62) -> int:
    """The largest M with v in G_M, saturated at ``cap``.

    The origin belongs to every G_M; callers pass the working level as the
    cap, which is the only level ever queried there.
    """
    i, j = v
    if i == 0 and j == 0:
        return cap
    m = 0
    while ((i | j) & 1) == 0 and m < cap:
        i >>= 1
        j >>= 1
        m += 1
    return m


def grid_level(v: Vertex) -> int:
    """The grid level a path carries for a vertex: ``vertex_level`` with
    the origin at ``ORIGIN_LEVEL``."""
    return vertex_level(v, cap=ORIGIN_LEVEL)


def step_levels(path) -> bytes:
    """The grid level of every vertex of a ``LevelPath``, one byte each,
    read off its numbering: vertex k has level m when at_least[m + 1] <= k
    < at_least[m]."""
    at_least = np.array(path.at_least)
    return (np.searchsorted(-at_least, -path.ids) - 1).astype(np.uint8).tobytes()


def euclid_sq(u: Vertex, v: Vertex) -> int:
    """Squared Euclidean distance between two lattice vertices (an integer)."""
    di = u[0] - v[0]
    dj = u[1] - v[1]
    return di * di + di * dj + dj * dj


def triangles_of_generation(level_span: int) -> list[TriangleId]:
    """All filled unit triangles of the doubled generation-N gasket."""
    n = 1 << level_span
    out = []
    for j in range(n):
        for i in range(-n, n - j):
            if up_triangle_exists((i, j), 0):
                out.append(TriangleId((i, j), 0))
    return out


def iter_vertices(level_span: int) -> Iterable[Vertex]:
    """Vertices of the doubled generation-N gasket, left and right halves."""
    n = 1 << level_span
    seen: set[Vertex] = set()
    for tri in triangles_of_generation(level_span):
        for c in tri.corners():
            if c not in seen:
                seen.add(c)
                yield c


# ---------------------------------------------------------------------------
# Hitting times and coarse-graining
# ---------------------------------------------------------------------------


def hitting_indices(path: Sequence[Vertex], level: int) -> list[int]:
    """Path indices of the level-M grid visits, applying the once-in-a-row rule."""
    mask = (1 << level) - 1
    out: list[int] = []
    last: Vertex | None = None
    for t, v in enumerate(path):
        if ((v[0] | v[1]) & mask) == 0 and v != last:
            out.append(t)
            last = v
    return out


def coarse_grain(path: Sequence[Vertex], level: int, validate: bool = True) -> list[Vertex]:
    """The subsequence of a path at its level-M grid visits.

    Composing coarse-grainings keeps only the coarser one: applying level M
    after level K <= M equals applying level M directly.
    """
    if not path:
        raise ValueError("empty path")
    if validate and not (on_grid(path[0], level) and on_grid(path[-1], level)):
        raise ValueError(f"path endpoints must lie on the level-{level} grid")
    return [path[t] for t in hitting_indices(path, level)]


# ---------------------------------------------------------------------------
# Erasure
# ---------------------------------------------------------------------------


def is_self_avoiding(path: Sequence[Vertex]) -> bool:
    return len(set(path)) == len(path)


def stack_erase(path: Sequence[Vertex]) -> list[Vertex]:
    """Single-pass erasure: grow a self-avoiding prefix, truncate on revisit."""
    out: list[Vertex] = []
    pos: dict[Vertex, int] = {}
    for v in path:
        k = pos.get(v)
        if k is None:
            pos[v] = len(out)
            out.append(v)
        else:
            while len(out) > k + 1:
                pos.pop(out.pop())
    return out


def _last_occurrence_keep(seq: Sequence) -> list[int]:
    """Kept indices of chronological erasure: jump to the last occurrence
    of the current entry, step forward once, repeat."""
    last = {v: t for t, v in enumerate(seq)}
    keep = [last[seq[0]]]
    while keep[-1] < len(seq) - 1:
        keep.append(last[seq[keep[-1] + 1]])
    return keep


def _tuple_stage_visits(path, levels: bytes, level: int) -> tuple[list[int], list[int]]:
    """The path indices of the once-in-a-row level-(M-1) visits, and the
    positions in that list of the once-in-a-row level-M visits, by one scan
    of the grid levels that compares vertex tuples."""
    top: list[int] = []
    last_top = None
    if level == 1:
        for t, v in enumerate(path):
            if levels[t] >= 1 and v != last_top:
                last_top = v
                top.append(t)
        return list(range(len(path))), top
    fine: list[int] = []
    last = None
    for t, v in enumerate(path):
        if levels[t] < level - 1 or v == last:
            continue
        last = v
        if levels[t] >= level and v != last_top:
            last_top = v
            top.append(len(fine))
        fine.append(t)
    return fine, top


def tuple_erase_scale(path: list[Vertex], levels: bytes, level: int) -> tuple[list[Vertex], bytes]:
    """One stage of the staged eraser on vertex tuples: triangle by triangle
    along the level-M skeleton, the level-(M-1) visits inside each are
    chronologically erased and the fine pieces under the kept coarse steps
    spliced.  Returns the kept vertices and their grid levels."""
    fine, top = _tuple_stage_visits(path, levels, level)
    ht = [fine[k] for k in top]
    bounds = [0]
    end = 1  # the first vertex is kept
    n, m = 0, len(ht) - 1
    while n < m:
        cell = cell_of_step(path[ht[n]], path[ht[n + 1]], level)
        j = n + 1
        while j < m and cell.contains(path[ht[j + 1]]):
            j += 1
        hs = fine[top[n] : top[j] + 1]
        keep = _last_occurrence_keep([path[t] for t in hs])
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
        n = j
    bounds.append(end)
    out, kept = [], b""
    for a, b in zip(bounds[::2], bounds[1::2]):
        out += path[a:b]
        kept += levels[a:b]
    return out, kept


def has_loops_at_or_above(path: Sequence[Vertex], level: int) -> bool:
    """Whether any coarse view at this level or above still has a loop."""
    k = level
    while True:
        hits = hitting_indices(path, k)
        if len(hits) <= 2:
            return False
        if not is_self_avoiding([path[t] for t in hits]):
            return True
        k += 1


def iter_loops(path: Sequence[Vertex]):
    """Yield (start, end) index pairs of minimal loops (no base revisit inside)."""
    seen: dict[Vertex, int] = {}
    for t, v in enumerate(path):
        if v in seen:
            yield seen[v], t
        seen[v] = t


def has_scale_loop(path: Sequence[Vertex], level: int, working_level: int) -> bool:
    """Whether the path has a loop whose base sits exactly on level M
    (capped at the working level) and whose diameter reaches 2**M.

    This is the direct, diameter-based reading of loop scale.  The staged
    eraser never computes it; it exists so tests can confirm that loops of a
    given scale are gone once the coarse view at that scale is loop-free.
    """
    need = 4**level
    for s, t in iter_loops(path):
        base = path[s]
        if vertex_level(base, cap=working_level) != level:
            continue
        if any(euclid_sq(path[k], base) >= need for k in range(s + 1, t + 1)):
            return True
    return False


# ---------------------------------------------------------------------------
# Exact supports
# ---------------------------------------------------------------------------


def enumerate_self_avoiding_crossings(allow_corner: bool) -> set[tuple[Vertex, ...]]:
    """Independent support oracle: depth-first enumeration of self-avoiding
    origin-to-apex paths inside the closed level-1 cell."""
    cell = TriangleId(ORIGIN, 1)
    a1, b1 = apex(1), corner(1)
    found: set[tuple[Vertex, ...]] = set()

    def extend(path: list[Vertex]):
        head = path[-1]
        if head == a1:
            found.add(tuple(path))
            return
        for u in neighbors(head):
            if not cell.contains(u) or u in path:
                continue
            if u == b1 and not allow_corner:
                continue
            path.append(u)
            extend(path)
            path.pop()

    extend([ORIGIN])
    return found


# ---------------------------------------------------------------------------
# Limit family: coarse-graining one cell at a time
# ---------------------------------------------------------------------------


def _corner(cell):
    pts = (cell.entry, cell.exit, cell.third)
    return (min(p[0] for p in pts), min(p[1] for p in pts))


def _collapse_group(group, corner_key):
    entry = group[0].entry
    exit_ = group[-1].exit
    corners = {
        corner_key,
        (corner_key[0] + 2, corner_key[1]),
        (corner_key[0], corner_key[1] + 2),
    }
    (third,) = corners - {entry, exit_}
    junctions = {c.entry for c in group} | {c.exit for c in group}
    junctions |= {c.third for c in group if c.kind == 2}
    kind = 2 if third in junctions else 1
    half = lambda p: (p[0] >> 1, p[1] >> 1)  # noqa: E731
    return SkeletonCell(entry=half(entry), exit=half(exit_), third=half(third), kind=kind)


def _reference_coarse_grain(path):
    """(cells, level_counts) of a depth-M path collapsed one level: its cells
    grouped by parent triangle, each parent's kind reread from whether the
    chain passes its third corner, and the reread counts at the top."""
    parents = []
    group = []
    key = None
    for cell in path.cells:
        q = _corner(cell)
        k = (2 * (q[0] >> 1), 2 * (q[1] >> 1))
        if key is None or k == key:
            group.append(cell)
        else:
            parents.append(_collapse_group(group, key))
            group = [cell]
        key = k
    parents.append(_collapse_group(group, key))
    s1 = sum(1 for c in parents if c.kind == 1)
    return tuple(parents), path.level_counts[:-2] + ((s1, len(parents) - s1),)


def _reference_projects_onto(fine, coarse):
    """Exact coupling check between adjacent depths: triangles, entries and
    exits agree cell for cell, and a kind may only change from two-visit to
    one-visit when passing down a level."""
    if fine.depth != coarse.depth + 1:
        raise ValueError("projects_onto compares adjacent depths")
    collapsed, _ = _reference_coarse_grain(fine)
    if len(collapsed) != len(coarse.cells):
        return False
    for got, want in zip(collapsed, coarse.cells):
        if (got.entry, got.exit, got.third) != (want.entry, want.exit, want.third):
            return False
        if got.kind == 2 and want.kind == 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Walker: one draw per loop iteration, on the walker's region table
# ---------------------------------------------------------------------------


def region_vertices(reg) -> list[Vertex]:
    """The vertices of a walker region table, ``reg.xy``, as tuples."""
    return list(zip(*reg.xy.T.tolist()))


class OneDrawDice:
    """Direction draws a block at a time, handed out one by one, with the
    walker's step budget: checked at each refill against the draws of the
    blocks already used up."""

    def __init__(self, rng: np.random.Generator, budget: int, size: int):
        self.rng, self.size, self.budget = rng, size, budget
        self.drawn = 0
        self.draws = iter(())

    def refill(self) -> None:
        if self.drawn > self.budget:
            raise StepBudgetExceeded(f"step budget {self.budget} exhausted")
        self.draws = iter(self.rng.integers(0, 4, size=self.size).astype(np.uint8).tobytes())
        self.drawn += self.size

    @property
    def steps(self) -> int:
        return self.drawn - length_hint(self.draws)


def one_draw_walk(dice: OneDrawDice, reg, start: int, path: list[int]) -> int:
    """Step from row ``start`` (4 * vertex) to the first level-N vertex
    other than the start, one draw at a time, appending each row reached to
    ``path``; return the row it stops at."""
    cur = start
    while True:
        for d in dice.draws:
            cur = reg.rows[cur + d]
            path.append(cur)
            if cur < reg.stops and cur != start:
                return cur
        dice.refill()


def one_draw_coarse_walk(dice: OneDrawDice, reg, start: int, pattern: list[int]) -> int:
    """``one_draw_walk`` that appends only the once-in-a-row level-(N-1)
    visits after ``start``."""
    cur = last = start
    while True:
        for d in dice.draws:
            cur = reg.rows[cur + d]
            if cur < reg.coarse and cur != last:
                pattern.append(cur)
                last = cur
                if cur < reg.stops and cur != start:
                    return cur
        dice.refill()


def one_draw_patterns(N, variant, count, rng, max_steps=10**9):
    """``sample_patterns`` walked one draw at a time: the patterns and the
    raw steps walked for them."""
    reg = _region(N, variant)
    dice = OneDrawDice(rng, max_steps * count, BLOCK)
    patterns = []
    for _ in range(count):
        pattern = [ORIGIN]
        for start, images in reg.coarse_legs:
            rows: list[int] = []
            image = images[one_draw_coarse_walk(dice, reg, start, rows)]
            pattern += [image[r >> 2] for r in rows]
        patterns.append(tuple(pattern))
    return patterns, dice.steps


def one_draw_crossing(N, variant, rng, max_steps=10**9):
    """``sample_crossing`` walked one draw at a time: the path's vertices
    and their grid levels, one byte each."""
    reg = _region(N, variant)
    vertices = region_vertices(reg)
    dice = OneDrawDice(rng, max_steps, _block(N))
    path, levels = [ORIGIN], bytearray([ORIGIN_LEVEL])
    for start, images in reg.legs:
        rows: list[int] = []
        image = images[one_draw_walk(dice, reg, start, rows)]
        path += [vertices[image[r >> 2]] for r in rows]
        levels += bytes(grid_level(vertices[r >> 2]) for r in rows[:-1]) + bytes([N])
    return path, bytes(levels)


def one_draw_attempt(N, variant, rng, max_steps=10**9):
    """``attempt_crossing`` walked one draw at a time."""
    reg = _region(N, variant)
    vertices = region_vertices(reg)
    dice = OneDrawDice(rng, max_steps, _block(N))
    path = [0]
    end = one_draw_walk(dice, reg, 0, path)
    if variant is CrossingVariant.VIA_CORNER:
        if vertices[end >> 2] != corner(N):
            return None
        end = one_draw_walk(dice, reg, end, path)
    return [vertices[r >> 2] for r in path] if vertices[end >> 2] == apex(N) else None
