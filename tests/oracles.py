"""Reference code that only the tests read.

Each function here is an independent route to something the package
computes another way, or a predicate the tests state their claims with:
stack erasure beside the package's chronological erasure, the diameter
reading of loop scale beside the staged eraser, the once-in-a-row hitting
scan and coarse-graining beside the walkers' level-(N-1) patterns and the
eraser's one-scan stage visits, a depth-first enumeration of the level-1
self-avoiding crossings beside the exact chain's supports, the lattice
predicates the geometry tests use, and the per-cell coarse-graining that
checks the coupling of the limit sampler's refinement family.  None of it shares code with what the
command line runs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from gasket_lerw.lattice import (
    ORIGIN,
    TriangleId,
    Vertex,
    apex,
    corner,
    neighbors,
    on_grid,
    up_triangle_exists,
)
from gasket_lerw.limit import SkeletonCell

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
