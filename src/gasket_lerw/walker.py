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

``sample_crossing`` keeps every step of the legs, and the grid level of
every vertex it keeps (``lattice.LevelPath``), which the staged eraser
reads.  ``sample_patterns`` walks the same legs but records only their
level-(N-1) visits, which is all that ``mc-shapes`` reads.  The
automorphisms map the level-(N-1) grid onto itself, so mapping those visits
gives the level-(N-1) coarse view of the mapped crossing.

All walkers read one table per (N, variant), built once in numpy on
coordinate arrays from the gasket's self-similarity (``_region``): the
vertices of the level-N cells at the legs' starts, with their neighbours by
direction and their grid levels, ordered so that one comparison of a row
number tells a level-N or level-(N-1) vertex, and each leg's automorphisms
as the image vertex of every row.  An automorphism is an integer affine map
with a unimodular linear part, so it keeps the grid level of every vertex
below level N.  The walkers build vertex tuples only for the paths they
keep: ``sample_crossing`` maps a leg by one numpy gather from its stop's
image, an object array of the shared vertex tuples, and ``sample_patterns``
indexes tuple prefixes of the same images over the level-(N-1) rows, which
come first and map onto themselves.

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
MAX_ERASED_LEVEL = 11  # mc-length keeps whole paths and erasures: 2 GB at 11, 7-9 GB at 12
BLOCK = 4096  # direction draws per block, at most
GATHER = 1 << 16  # rows mapped per gather in sample_crossing


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
    """Direction draws from a numpy Generator, a block at a time, with a
    global step budget.

    One draw is one walk step.  Walkers iterate ``draws``, the rest of the
    current block, and call ``refill`` when it runs dry; the budget is
    checked there, against the draws of the blocks already used up.
    """

    __slots__ = ("_rng", "_size", "_budget", "_drawn", "draws")

    def __init__(
        self, rng: np.random.Generator, budget: int = DEFAULT_STEP_BUDGET, size: int = BLOCK
    ):
        self._rng = rng
        self._size = size
        self._budget = budget
        self._drawn = 0
        self.draws = iter(())

    def refill(self) -> None:
        if self._drawn > self._budget:
            raise StepBudgetExceeded(f"step budget {self._budget} exhausted")
        # Bytes iterate as small ints, with no conversion per draw.
        self.draws = iter(self._rng.integers(0, 4, size=self._size).astype(np.uint8).tobytes())
        self._drawn += self._size

    @property
    def steps(self) -> int:
        """Draws handed out so far: the steps walked on them."""
        return self._drawn - length_hint(self.draws)


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """An independent stream fully determined by (seed, replica-index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replica,)))


# ---------------------------------------------------------------------------
# Walk primitives
# ---------------------------------------------------------------------------


def _walk(dice: _Dice, reg: _Region, start: int, path: list[int]) -> int:
    """Step from row ``start`` of the region table to the first level-N
    vertex other than the start, appending each row reached to ``path``;
    return the row it stops at.

    Rows are 4 * vertex index and the level-N vertices come first, so a row
    below ``reg.stops`` is a level-N vertex.
    """
    table, stops = reg.rows, reg.stops
    cur = start
    append = path.append
    while True:
        for d in dice.draws:
            cur = table[cur + d]
            append(cur)
            if cur < stops and cur != start:
                return cur
        dice.refill()


def _block(N: int) -> int:
    """Draws per block of the whole-walk samplers: 64 * 5**(N-1), scaled with
    the mean walk length (about 5**N steps), up to ``BLOCK``."""
    return min(BLOCK, 64 * 5 ** (N - 1))


def attempt_crossing(
    N: int,
    variant: CrossingVariant,
    rng: np.random.Generator,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> list[Vertex] | None:
    """Run one whole conditioning trial of the fine walk; None if the event fails.

    Draws come ``_block(N)`` at a time, as in ``sample_crossing``.
    """
    if N < 1:
        raise ValueError("crossing level must be >= 1")
    reg = _region(N, variant)
    dice = _Dice(rng, max_steps, _block(N))
    path = [0]
    end = _walk(dice, reg, 0, path)
    if variant is CrossingVariant.VIA_CORNER:
        if reg.vertices[end >> 2] != corner(N):
            return None
        end = _walk(dice, reg, end, path)
    return [reg.vertices[r >> 2] for r in path] if reg.vertices[end >> 2] == apex(N) else None


def sample_crossing(
    N: int,
    variant: CrossingVariant,
    rng: np.random.Generator,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> LevelPath:
    """Sample one conditioned crossing path at level N (starts at O, ends at a_N).

    Each leg is walked once and mapped onto its target by the automorphism
    for the stop it reached (module docstring).  The leg's rows become one
    int32 index, which gathers its vertices from the stop's image and their
    grid levels, carried by the path, from the region's level column.
    Draws come ``_block(N)`` at a time; ``max_steps`` caps the raw
    steps of the whole call, checked at each refill.
    """
    if N < 1:
        raise ValueError("crossing level must be >= 1")
    dice, reg = _Dice(rng, max_steps, _block(N)), _region(N, variant)
    path = LevelPath([ORIGIN], b"")
    levels = [bytes([ORIGIN_LEVEL])]
    for start, images in reg.legs:
        rows: list[int] = []
        image = images[_walk(dice, reg, start, rows)]
        # An int32 index, the rows dropped before the gather, and the gather
        # done a slice at a time: against listing the vertices row by row,
        # the peak memory of mc-length 9 --samples 4 fell from 252 to 169 MB
        # and that of mc-length 10 --samples 2 from 714 to 533 MB.
        at = np.fromiter(rows, np.int32, len(rows))
        del rows
        at >>= 2
        for k in range(0, len(at), GATHER):
            path += image[at[k : k + GATHER]].tolist()
        # The map keeps every walked level but the stop's, which goes to the
        # target, level N.
        levels.append(reg.levels[at[:-1]].tobytes())
        levels.append(bytes([N]))
    path.levels = b"".join(levels)
    return path


# ---------------------------------------------------------------------------
# Region table and the pattern sampler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Region:
    """The unit vertices of the level-N cells at the legs' starts and their
    neighbour table.  Vertex 0 is the origin; the level-N vertices come
    first, then the other level-(N-1) grid vertices, then the rest."""

    vertices: tuple[Vertex, ...]
    rows: list[int]  # the row each (row + direction) steps to; row = 4 * vertex
    stops: int  # 4 * the number of level-N vertices
    coarse: int  # 4 * the number of level-(N-1) grid vertices
    levels: np.ndarray  # the grid level of every vertex, as uint8
    # Per leg: its start row, and for each row it can stop at, the vertex of every row after
    # the leg is mapped onto its target, as an object array of the shared vertex tuples.
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
    corner.  The vertices are their corners, within each rank in the order
    the doubling first reaches them, which keeps neighbours close in memory.
    The neighbours of v are the other corners of its two filled unit cells
    among those at v, v - (1, 0) and v - (0, 1), in that order, as in
    ``lattice.neighbors``.  Only the rows a walk leaves are built, each
    start's and every row off the level-N grid; the others hold -4.
    """
    via = variant is CrossingVariant.VIA_CORNER
    ends = [(ORIGIN, corner(N)), (corner(N), apex(N))] if via else [(ORIGIN, apex(N))]
    unit = np.zeros((1, 2), np.int64)
    for k in range(N):
        unit = np.concatenate([unit, unit + (1 << k, 0), unit + (0, 1 << k)])
    big = np.array(list(dict.fromkeys(c.corner for s, _ in ends for c in incident_cells(s, N))))
    xy = (big[:, None, None] + unit[:, None] + [(0, 0), (1, 0), (0, 1)]).reshape(-1, 2)
    xy = xy[np.sort(np.unique(xy[:, 0] << 32 | xy[:, 1], return_index=True)[1])]
    bits = xy[:, 0] | xy[:, 1]
    levels = np.log2(bits & -bits, out=np.full(len(xy), float(ORIGIN_LEVEL)), where=bits != 0)
    # Level N first, then level N-1, then the rest.  The origin is the
    # doubling's first corner, and the stable sort keeps it first.
    order = np.argsort((levels < N) * 1 + (levels < N - 1), kind="stable")
    xy, levels = xy[order], levels[order].astype(np.uint8)
    stops, coarse = int((levels >= N).sum()), int((levels >= N - 1).sum())
    find = _lookup(xy)
    walked = np.concatenate([find(np.array([s for s, _ in ends])), np.arange(stops, len(xy))])
    c = xy[walked, None] + [(0, 0), (-1, 0), (0, -1)]  # the unit cells at v, v-(1,0), v-(0,1)
    i, j = np.moveaxis(c, 2, 0)
    i = np.where(i < 0, -i - j - 1, i)  # mirrored, as in up_triangle_exists
    filled = (j >= 0) & (i >= 0) & (i & j == 0)
    # The corners of each filled cell other than v, by their offsets from the cell's corner.
    others = (c[:, :, None] + [[(1, 0), (0, 1)], [(0, 0), (0, 1)], [(0, 0), (1, 0)]])[filled]
    del unit, bits, order, c, i, j, filled
    table = np.full((len(xy), 4), -1)
    table[walked] = find(others).reshape(-1, 4)
    del walked, others  # freed before the vertex tuples and images, which set the peak
    # One int object per row, shared by every entry that names it.
    rows = np.arange(-4, 4 * len(xy), 4).astype(object)[table.ravel() + 1].tolist()
    del table
    vertices = tuple(zip(*xy.T.tolist()))
    shared = np.fromiter(vertices, object, len(xy))
    legs = tuple(
        (start, {w: shared[image] for w, image in images.items()})
        for start, images in _leg_images(xy, ends, N)
    )
    return _Region(
        vertices=vertices,
        rows=rows,
        stops=4 * stops,
        coarse=4 * coarse,
        levels=levels,
        legs=legs,
        coarse_legs=tuple(
            (row, {w: tuple(image[:coarse]) for w, image in images.items()})
            for row, images in legs
        ),
    )


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


def _coarse_walk(dice: _Dice, reg: _Region, start: int, pattern: list[int]) -> int:
    """``_walk`` that appends only the once-in-a-row level-(N-1) visits
    after ``start``.

    A row below ``reg.coarse`` is a level-(N-1) vertex, and every stop is
    one, so the stop test runs only on those rows.  A stop is never the
    vertex recorded last, so it is always appended.
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
    dice = _Dice(rng, max_steps * count)
    patterns = []
    for _ in range(count):
        pattern = [ORIGIN]
        for start, images in reg.coarse_legs:
            rows: list[int] = []
            image = images[_coarse_walk(dice, reg, start, rows)]
            pattern += [image[r >> 2] for r in rows]
        patterns.append(tuple(pattern))
    return patterns, dice.steps
