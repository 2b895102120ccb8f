"""Simple random walk on the gasket and the conditioned crossing samplers.

Two crossing laws are sampled, both walks from the origin with uniform steps
over the four neighbors:

* ``Direct``: the walk's first visit to a coarse vertex other than the origin
  is the apex a_N (conditioning probability exactly 1/4),
* ``ViaCorner``: that first visit is the right corner b_N and the next coarse
  visit after it is a_N (probability exactly 1/16).

Coarse visits are counted with the once-in-a-row rule: consecutive returns to
the vertex counted last do not register again.

Neither sampler rejects.  A leg starts at a level-N vertex s
(O, or b_N for the via-corner second leg) and walks inside the two level-N
cells at s until its first level-N vertex w other than s.  Every step is
uniform over four neighbours, so a leg of length n has probability 4**-n,
and an automorphism of the two cells that fixes s and sends w to the
leg's target t maps the legs that stop at w one to one, length for length,
onto the legs that stop at t.  Each of the four stops is reached with
probability 1/4, so the image of one leg under the automorphism for its
own stop has the law of a leg conditioned to stop at t: the law of
retrying the leg until it stops there.  By the strong Markov property at
the b_N visit this is also the law of retrying whole attempts
(``attempt_crossing`` runs one whole attempt; it is the ground truth the
samplers are gated against, and the only code that rejects).

``sample_crossing`` keeps every step of the legs, as vertex ids numbered by
grid level (``lattice.LevelPath``), which the staged eraser reads.
``sample_patterns`` walks the same legs but records only their level-(N-1)
visits, which is all that ``mc-shapes`` reads.  The
automorphisms map the level-(N-1) grid onto itself, so mapping those visits
gives the level-(N-1) coarse view of the mapped crossing.

All walkers read one table per (N, variant), built once in numpy on
coordinate arrays from the gasket's self-similarity (``_region``): the
vertices of the level-N cells at the legs' starts, with their neighbours by
direction, numbered by descending grid level (``by_grid_level``) so that
one comparison of a row number tells a level-N or level-(N-1) vertex, and
each leg's automorphisms as the image vertex of every row.  An
automorphism is an integer affine map with a unimodular linear part, so it
keeps the grid level of every vertex below level N.  ``sample_crossing``
maps a leg by one numpy gather from its stop's image and builds no vertex
tuple; ``sample_patterns`` indexes tuple prefixes of the images over the
level-(N-1) rows, which come first and map onto themselves.

The walk loops take two draws per iteration.  The region's pair table
holds, for each vertex and pair of directions (d1, d2), the vertex the two
steps reach, so one list index and one comparison walk two steps.  Where
the first step lands on the level-(N-1) grid, which holds every stop and
every vertex a pattern records, the entry holds the complement ~ of that
vertex's row instead: a negative flag, which falls into the comparison's
rare branch, where the pair is stepped one draw at a time.  A walk that
stops on the first draw of a pair leaves the second draw pending, and the
next leg steps it first, so the walks read the same draws in the same
order as one step per draw, and walk the same paths.  ``sample_crossing``
records one pair index per pair, which names the vertex the pair starts
from, and gathers the pairs' middle vertices in numpy.  Below
``PATTERN_PAIRS_FROM``, ``sample_patterns`` steps one draw per iteration,
which is faster there.

Samplers draw from an explicit ``numpy.random.Generator``; independent
replicas must use independently spawned streams (``replica_rng``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import length_hint
from typing import Callable, Sequence

import numpy as np

from .lattice import ORIGIN, ORIGIN_LEVEL, LevelPath, Vertex, apex, corner, incident_cells

DEFAULT_STEP_BUDGET = 10**9
MAX_LEVEL = 12  # the mean walk, 5**N steps, stays within the default budget
MAX_ERASED_LEVEL = 11  # mc-length keeps whole paths: 2.6 GB at 11 (default run), 5x longer at 12
BLOCK = 4096  # direction draws per block, at most
PAIR_CHUNK = 1 << 14  # vertices per chunk of the pair table's build
# The level from which sample_patterns walks two draws per loop iteration.
# Below it one draw per iteration is faster: at N <= 2 the first step of most
# pairs lands on the level-(N-1) grid, whose entries take the slow branch.
PATTERN_PAIRS_FROM = 3


class StepBudgetExceeded(RuntimeError):
    """A sampler hit its raw-step cap.

    The budget is a failsafe against mis-set parameters: the expected number
    of raw steps per sample is about 5**N, far below the default cap for
    every supported level.
    """


class CrossingVariant(Enum):
    DIRECT = "direct"
    VIA_CORNER = "via-corner"


class _Dice:
    """Direction draws from a numpy Generator, a block at a time, handed out
    in pairs, with a global step budget.

    One draw is one walk step.  Walkers iterate ``draws``, the rest of the
    current block as pair codes ``4 * d1 + d2`` of consecutive draws, and
    call ``refill`` when it runs dry; the budget is checked there, against
    the draws of the blocks already used up.  Blocks are even, so no pair
    straddles two.  A walk that stops on the first draw of a pair leaves
    the second in ``pending``, and the next walk steps it first.  Unless
    ``paired``, the draws are handed out one by one, for
    ``_step_coarse_walk``.
    """

    __slots__ = ("_rng", "_size", "_budget", "_drawn", "draws", "paired", "pending")

    def __init__(
        self,
        rng: np.random.Generator,
        budget: int = DEFAULT_STEP_BUDGET,
        size: int = BLOCK,
        *,
        paired: bool,
    ):
        self._rng = rng
        self._size = size
        self._budget = budget
        self._drawn = 0
        self.draws = iter(())
        self.paired = paired
        self.pending: int | None = None

    def refill(self) -> None:
        if self._drawn > self._budget:
            raise StepBudgetExceeded(f"step budget {self._budget} exhausted")
        a = self._rng.integers(0, 4, size=self._size).astype(np.uint8)
        if self.paired:
            a = a[0::2] << 2 | a[1::2]
        # Bytes iterate as small ints, with no conversion per draw.
        self.draws = iter(a.tobytes())
        self._drawn += self._size

    @property
    def steps(self) -> int:
        """Draws handed out so far: the steps walked on them."""
        left = length_hint(self.draws) << self.paired
        return self._drawn - left - (self.pending is not None)


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """An independent stream fully determined by (seed, replica-index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replica,)))


def by_grid_level(xy: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """The numbering of the rows (i, j) of an (n, 2) integer array by
    descending grid level, the 2-adic valuation of i | j (``ORIGIN_LEVEL``
    at the origin): the order of the rows, stable within a level, and
    ``at_least``, whose entry m counts the rows of level m or more, for m up
    to ``ORIGIN_LEVEL``.  Numbered in that order, row k has level m or more
    exactly when k < at_least[m]."""
    bits = xy[:, 0] | xy[:, 1]
    levels = np.full(len(xy), float(ORIGIN_LEVEL))
    levels = np.log2(bits & -bits, out=levels, where=bits != 0).astype(np.uint8)
    at_least = np.bincount(levels, minlength=ORIGIN_LEVEL + 1)[::-1].cumsum()[::-1]
    return np.argsort(~levels, kind="stable"), tuple(at_least.tolist())


# ---------------------------------------------------------------------------
# Walk primitives
# ---------------------------------------------------------------------------


def _walk(dice: _Dice, reg: _Region, start: int, path: list[int], spilled: bytearray) -> int:
    """Step from row ``start`` of the region table to the first level-N
    vertex other than the start, two draws at a time; return the row it
    stops at.  Each pair walked appends its index ``16 * vertex + pair
    code`` in the pair table to ``path``, from which ``_leg`` rebuilds the
    rows.  At each refill the indices listed so far move to ``spilled`` as
    int32 bytes: an index is a fresh int object, and listed it costs 40
    bytes against 4.  One bytearray, unlike a list of small arrays, leaves
    no holes in the heap when it is freed: with per-block arrays the peak
    of ``mc-length 11`` rose by 245 MB.

    Pair-table rows are 16 * vertex index and the level-N vertices come
    first, so an entry below ``stops`` is a level-N vertex or a flag: the
    pair's first step landed on the level-(N-1) grid, which holds every
    level-N vertex, and the flagged branch steps the pair one draw at a time.
    """
    pairs, rows = reg.pairs, reg.rows
    stops = reg.stops << 2
    cur = start = start << 2
    append = path.append
    if dice.pending is not None:
        # A step from a level-N vertex lands on a level-0 vertex, never a stop.
        cur = rows[(start >> 2) + dice.pending] << 2
        dice.pending = None
    while True:
        for dd in dice.draws:
            i = cur + dd
            append(i)
            cur = pairs[i]
            if cur < stops:
                if cur < 0:
                    cur = ~cur
                    if cur < stops and cur != start:
                        dice.pending = dd & 3
                        return cur >> 2
                    cur = rows[(cur >> 2) + (dd & 3)] << 2
                if cur < stops and cur != start:
                    return cur >> 2
        spilled += np.fromiter(path, np.int32, len(path)).tobytes()
        path.clear()
        dice.refill()


def _leg(dice: _Dice, reg: _Region, start: int) -> tuple[int, np.ndarray]:
    """Walk one leg from row ``start``: the row it stops at, and the vertex
    index of every vertex it reached, as int32.

    A pair index ``i = 16 * v + 4 * d1 + d2`` names the vertex v the pair
    starts from, where the previous pair, or the pending draw, ended.  So
    the vertices are each pair's start ``i >> 4`` and middle
    ``row_array[i >> 2]`` in turn, then the stop.  The leg's start goes,
    unless a pending draw led away from it, and the stop goes if the walk
    stopped on the last pair's first draw: that pair's middle is the stop.
    """
    path: list[int] = []
    lead, spilled = dice.pending, bytearray()
    stop = _walk(dice, reg, start, path, spilled)
    spilled += np.fromiter(path, np.int32, len(path)).tobytes()
    del path
    at = np.frombuffer(spilled, np.int32)
    walked = np.empty(2 * len(at) + 1, np.int32)
    # take, not indexing: it costs less per call, and most legs are short.
    reg.row_array.take(at >> 2, out=walked[1::2])
    np.right_shift(at, 4, out=walked[:-1:2])
    walked[-1] = stop >> 2
    return stop, walked[(lead is None) : len(walked) - (dice.pending is not None)]


def leg_steps_moments(N: int) -> tuple[int, int]:
    """The exact mean and variance of one leg's raw steps at level N: 5**N
    and 3 * (25**N - 5**N) / 5.

    A leg's length has generating function f composed N times, f(s) =
    s**2 / (4 - 3s): a level-1 leg takes 2 + G steps, G geometric with
    P(G = k) = (3/4)**k / 4, and a level-N leg is a level-1 leg whose steps
    are level-(N-1) legs.  So the mean is 5 * 5**(N-1) and the variance
    V_N = 5 V_(N-1) + 12 * 25**(N-1), from V_1 = 12.
    """
    return 5**N, 3 * (25**N - 5**N) // 5


def _block(N: int) -> int:
    """Draws per block of the whole-walk samplers: 64 * 5**(N-1), scaled with
    the mean walk length (about 5**N steps), up to ``BLOCK``."""
    return min(BLOCK, 64 * 5 ** (N - 1))


def attempt_crossing(
    N: int,
    variant: CrossingVariant,
    rng: np.random.Generator,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> LevelPath | None:
    """Run one whole conditioning trial of the fine walk; None if the event fails.

    Draws come ``_block(N)`` at a time, as in ``sample_crossing``.
    """
    if N < 1:
        raise ValueError("crossing level must be >= 1")
    reg = _region(N, variant)
    dice = _Dice(rng, max_steps, _block(N), paired=True)
    targets = [corner(N), apex(N)] if variant is CrossingVariant.VIA_CORNER else [apex(N)]
    stop, walked = 0, []
    for target in targets:
        stop, at = _leg(dice, reg, stop)
        if tuple(reg.xy[stop >> 2].tolist()) != target:
            return None
        walked.append(at)
    return _path(reg, walked)


def sample_crossing(
    N: int,
    variant: CrossingVariant,
    rng: np.random.Generator,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> LevelPath:
    """Sample one conditioned crossing path at level N (starts at O, ends at a_N).

    Each leg is walked once and mapped onto its target by the automorphism
    for the stop it reached (module docstring), a gather of its vertex
    indices from the stop's image.  Draws come ``_block(N)`` at a time;
    ``max_steps`` caps the raw steps of the whole call, checked at each
    refill.
    """
    if N < 1:
        raise ValueError("crossing level must be >= 1")
    dice = _Dice(rng, max_steps, _block(N), paired=True)
    reg = _region(N, variant)
    walked = []
    for start, images in reg.legs:
        stop, at = _leg(dice, reg, start)
        walked.append(images[stop].take(at, out=at, mode="clip"))  # "raise" would buffer
    return _path(reg, walked)


def _path(reg: _Region, walked: list[np.ndarray]) -> LevelPath:
    """The path of the origin, vertex 0, and then the vertices ``walked``."""
    return LevelPath(np.concatenate([np.zeros(1, np.int32), *walked]), reg.xy, reg.at_least)


# ---------------------------------------------------------------------------
# Region table and the pattern sampler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Region:
    """The unit vertices of the level-N cells at the legs' starts, their
    neighbour table and their pair table.  The vertices are numbered by
    descending grid level (``by_grid_level``): vertex 0 is the origin, and
    vertex k has level m or more exactly when k < at_least[m].  A
    pair-table entry whose first step lands on the level-(N-1) grid is
    flagged, negative, and names that step's vertex; the walkers step its
    second draw from ``rows``, or leave it pending if the first step
    stopped the leg."""

    xy: np.ndarray  # the (n, 2) int64 coordinates of every vertex
    rows: list[int]  # the row each (row + direction) steps to; row = 4 * vertex
    row_array: np.ndarray  # ``rows`` as int32 vertex ids, row >> 2
    # The pair-table row each (16 * vertex + 4 * d1 + d2) steps to, two steps on, in
    # rows of 16 * vertex; ~(16 * vertex) of the first step's vertex if that is on the
    # level-(N-1) grid.
    pairs: list[int]
    stops: int  # 4 * at_least[N]
    coarse: int  # 4 * at_least[N - 1]
    at_least: tuple[int, ...]  # at_least[m]: the number of vertices of level m or more
    # Per leg: its start row, and for each row it can stop at, the vertex index of every
    # vertex's image after the leg is mapped onto its target, as int32.
    legs: tuple[tuple[int, dict[int, np.ndarray]], ...]
    # ``legs`` over the level-(N-1) rows, which come first and map onto themselves, as tuples.
    coarse_legs: tuple[tuple[int, dict[int, tuple[Vertex, ...]]], ...]


@lru_cache(maxsize=32)
def _region(N: int, variant: CrossingVariant) -> _Region:
    """The table of the level-N cells at the legs' starts (the two at O, and
    for via-corner the two at b_N), built by the gasket's self-similarity.

    A level-k cell is three copies of a level-(k-1) cell, at offsets 0,
    (2**(k-1), 0) and (0, 2**(k-1)), so N doublings of the unit cell give
    the unit cells of the level-N cell at O.  Every filled level-N cell,
    the mirrored one at (-2**N, 0) included, holds them shifted to its
    corner.  The vertices are their corners, by descending grid level and
    within a level in the order the doubling first reaches them, which
    keeps neighbours close in memory; the origin, of level
    ``ORIGIN_LEVEL``, comes first.
    The neighbours of v are the other corners of its two filled unit cells
    among those at v, v - (1, 0) and v - (0, 1), in that order, as in
    ``lattice.neighbors``.  Only the rows a walk leaves are built, each
    start's and every row off the level-N grid; the others hold -4.  The
    pair table composes the neighbour table with itself in numpy
    (``_pair_table``) and flags the entries whose first step lands on the
    level-(N-1) grid; its rows that no walk leaves hold -16.
    """
    via = variant is CrossingVariant.VIA_CORNER
    ends = [(ORIGIN, corner(N)), (corner(N), apex(N))] if via else [(ORIGIN, apex(N))]
    unit = np.zeros((1, 2), np.int64)
    for k in range(N):
        unit = np.concatenate([unit, unit + (1 << k, 0), unit + (0, 1 << k)])
    big = np.array(list(dict.fromkeys(c.corner for s, _ in ends for c in incident_cells(s, N))))
    xy = (big[:, None, None] + unit[:, None] + [(0, 0), (1, 0), (0, 1)]).reshape(-1, 2)
    xy = xy[np.sort(np.unique(xy[:, 0] << 32 | xy[:, 1], return_index=True)[1])]
    order, at_least = by_grid_level(xy)
    xy = xy[order]
    stops, coarse = at_least[N], at_least[N - 1]
    find = _lookup(xy)
    walked = np.concatenate([find(np.array([s for s, _ in ends])), np.arange(stops, len(xy))])
    c = xy[walked, None] + [(0, 0), (-1, 0), (0, -1)]  # the unit cells at v, v-(1,0), v-(0,1)
    i, j = np.moveaxis(c, 2, 0)
    i = np.where(i < 0, -i - j - 1, i)  # mirrored, as in up_triangle_exists
    filled = (j >= 0) & (i >= 0) & (i & j == 0)
    # The corners of each filled cell other than v, by their offsets from the cell's corner.
    others = (c[:, :, None] + [[(1, 0), (0, 1)], [(0, 0), (0, 1)], [(0, 0), (1, 0)]])[filled]
    del unit, order, c, i, j, filled
    table = np.full((len(xy), 4), -1)
    table[walked] = find(others).reshape(-1, 4)
    del walked, others  # freed before the pair table and images, which set the peak
    # One int object per row, shared by every entry that names it.
    rows = np.arange(-4, 4 * len(xy), 4).astype(object)[table.ravel() + 1].tolist()
    row_array = table.astype(np.int32).ravel()
    pairs = _pair_table(table, coarse)
    del table
    legs = tuple(_leg_images(xy, ends, N))
    grid = tuple(zip(*xy[:coarse].T.tolist()))  # the level-(N-1) vertices, as tuples
    coarse_legs = tuple(
        (row, {w: tuple([grid[k] for k in image[:coarse].tolist()]) for w, image in images.items()})
        for row, images in legs
    )
    return _Region(
        xy=xy,
        rows=rows,
        row_array=row_array,
        pairs=pairs,
        stops=4 * stops,
        coarse=4 * coarse,
        at_least=at_least,
        legs=legs,
        coarse_legs=coarse_legs,
    )


def _pair_table(table: np.ndarray, coarse: int) -> list[int]:
    """The pair table of the neighbour table ``table``, whose row v lists
    the index of v's neighbour in each direction (-1 on the rows no walk
    leaves) and whose first ``coarse`` vertices are the level-(N-1) grid.

    Entry ``16 * v + 4 * d1 + d2`` holds 16 * the vertex that steps d1 then
    d2 reach from v, or ~(16 * u) if the first step reaches u on the
    level-(N-1) grid, and -16 on a row no walk leaves.  Built a chunk of
    vertices at a time, as one shared int object per value, like ``rows``.
    """
    n = len(table)
    # The values, indexed by 0 for -16, 1 + u for 16 * u and 1 + n + u for ~(16 * u).
    shared = np.concatenate([np.arange(-16, 16 * n, 16), ~np.arange(0, 16 * coarse, 16)])
    shared = shared.astype(object)
    pairs: list[int] = []
    for a in range(0, n, PAIR_CHUNK):
        first = table[a : a + PAIR_CHUNK, :, None]
        at = np.where(first < coarse, 1 + n + first, 1 + table[first[..., 0]])
        at[(first < 0).repeat(4, axis=2)] = 0
        pairs += shared[at.ravel()].tolist()
    return pairs


def _lookup(xy: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The lookup of points among the vertices ``xy``, an (n, 2) int64
    array: ``find(g)`` gives the index of each point ``g[..., :]``, by
    binary search over the sorted keys x << 32 | y (y >= 0 on the gasket),
    and raises ``KeyError`` on a point that is not a vertex."""
    keys = xy[:, 0] << 32 | xy[:, 1]
    order = np.argsort(keys)
    keys = keys[order]

    def find(g: np.ndarray) -> np.ndarray:
        want = g[..., 0] << 32 | g[..., 1]
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        if (keys[at] != want).any():
            raise KeyError("a point is not among the vertices")
        return order[at]

    return find


def _leg_images(
    vertices: Sequence[Vertex] | np.ndarray, ends: list[tuple[Vertex, Vertex]], N: int
) -> list[tuple[int, dict[int, np.ndarray]]]:
    """Per leg from s to t in ``ends``: its start row, and for the row of
    each level-N stop w, the int32 index of the image of every vertex under
    an automorphism of the two level-N cells at s that fixes s and sends w to t.

    If w shares a cell with t, the map swaps them inside it and fixes the
    other cell; otherwise it exchanges the two cells.  Each cell goes onto
    its image by the integer affine map that sends its corners to their
    images.  Vertices outside both cells keep themselves.  The maps act on
    int64 coordinate arrays, and ``_lookup`` finds each image, raising
    ``KeyError`` on one missing from ``vertices``.
    """
    xy = np.asarray(vertices, np.int64)
    xs, ys = xy.T
    find = _lookup(xy)
    legs = []
    for s, t in ends:
        home, away = sorted(incident_cells(s, N), key=lambda cell: t not in cell.corners())
        (u,) = set(home.corners()) - {s, t}
        x, y = (c for c in away.corners() if c != s)
        swaps = {u: {u: t, t: u}, x: {x: t, t: x, y: u, u: y}, y: {y: t, t: y, x: u, u: x}}
        cells = []  # each cell, the indices of its vertices, and their offsets from its corner
        for cell in (home, away):
            (i, j), side = cell.corner, cell.side
            inside = np.flatnonzero((xs >= i) & (ys >= j) & (xs + ys <= i + j + side))
            cells.append((cell, inside, xy[inside] - cell.corner))
        start, *stops = 4 * find(np.array([s, t, *swaps], np.int64))
        images = {}
        for stop, swap in zip(stops, [{}, *swaps.values()]):
            image = np.arange(len(xy), dtype=np.int32)  # the map for t is the identity
            for cell, inside, d in cells if swap else ():
                q = np.array([swap.get(p, p) for p in cell.corners()], np.int64)
                # The cell's edge vectors are side * (1, 0) and side * (0, 1).
                image[inside] = find(d @ ((q[1:] - q[0]) >> N) + q[0])
            images[int(stop)] = image
        legs.append((int(start), images))
    return legs


def _step_coarse_walk(dice: _Dice, reg: _Region, start: int, pattern: list[int]) -> int:
    """``_coarse_walk`` one draw at a time, below ``PATTERN_PAIRS_FROM``,
    with rows of 4 * vertex.  A row below ``reg.coarse`` is a level-(N-1)
    vertex, and every stop is one, so the stop test runs only on those rows.
    """
    rows, stops, coarse = reg.rows, reg.stops, reg.coarse
    cur = last = start
    while True:
        for d in dice.draws:
            cur = rows[cur + d]
            if cur < coarse and cur != last:
                pattern.append(cur)
                last = cur
                if cur < stops and cur != start:
                    return cur
        dice.refill()


def _coarse_walk(dice: _Dice, reg: _Region, start: int, pattern: list[int]) -> int:
    """``_walk`` that appends only the once-in-a-row level-(N-1) visits
    after ``start``, as pair-table rows (16 * vertex).

    An entry below ``coarse`` is a level-(N-1) vertex or a flag, and every
    stop is one, so the stop test runs only on those.  A stop is never the
    vertex recorded last, so it is always appended.
    """
    pairs, rows = reg.pairs, reg.rows
    stops, coarse = reg.stops << 2, reg.coarse << 2
    append = pattern.append
    cur = last = start = start << 2
    if dice.pending is not None:
        # A step from a level-N vertex lands on a level-0 vertex, which this
        # walk does not record at N >= 2.
        cur = rows[(start >> 2) + dice.pending] << 2
        dice.pending = None
    while True:
        for dd in dice.draws:
            cur = pairs[cur + dd]
            if cur < coarse:
                if cur < 0:
                    cur = ~cur
                    if cur != last:
                        append(cur)
                        last = cur
                        if cur < stops and cur != start:
                            dice.pending = dd & 3
                            return cur >> 2
                    cur = rows[(cur >> 2) + (dd & 3)] << 2
                    if cur >= coarse:
                        continue
                if cur != last:
                    append(cur)
                    last = cur
                    if cur < stops and cur != start:
                        return cur >> 2
        dice.refill()


def sample_patterns(
    N: int,
    variant: CrossingVariant,
    count: int,
    rng: np.random.Generator,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> tuple[list[tuple[Vertex, ...]], int]:
    """Level-(N-1) patterns of ``count`` conditioned level-N crossings.

    Crossings are sampled as in ``sample_crossing``, one after another on
    one stream, with each leg recording only its level-(N-1) visits, so a
    pattern is the crossing's level-(N-1) coarse view: its level-(N-1) grid
    vertices in order, once in a row, as a tuple.
    Draws come ``BLOCK`` at a time, shared by all samples, and
    ``max_steps`` is a budget per sample, as in ``sample_crossing``: the
    call may draw ``max_steps * count`` steps.

    Returns the patterns in order and the raw steps walked for them.
    """
    if N < 1:
        raise ValueError("crossing level must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    reg = _region(N, variant)
    dice = _Dice(rng, max_steps * count, paired=N >= PATTERN_PAIRS_FROM)
    walk, shift = (_coarse_walk, 4) if dice.paired else (_step_coarse_walk, 2)
    patterns = []
    for _ in range(count):
        pattern = [ORIGIN]
        for start, images in reg.coarse_legs:
            rows: list[int] = []
            image = images[walk(dice, reg, start, rows)]
            pattern += [image[r >> shift] for r in rows]
        patterns.append(tuple(pattern))
    return patterns, dice.steps
