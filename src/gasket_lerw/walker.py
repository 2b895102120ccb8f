"""Simple random walk on the gasket and the conditioned crossing samplers.

Two crossing laws are sampled, both walks from the origin with uniform steps
over the four neighbors:

* ``Direct``: the walk's first visit to a coarse vertex other than the origin
  is the apex a_N (conditioning probability exactly 1/4),
* ``ViaCorner``: that first visit is the right corner b_N and the next coarse
  visit after it is a_N (probability exactly 1/16).

Coarse visits are counted with the once-in-a-row rule: consecutive returns to
the vertex counted last do not register again.

``sample_crossing`` simulates the fine walk and conditions it by rejection,
one leg at a time: the walk from O is retried until its first coarse visit
is a_N (direct) or b_N (via-corner), and for via-corner the walk from b_N is
then retried until its next coarse visit is a_N.  By the strong Markov
property at the b_N visit this is the law of retrying whole attempts
(``attempt_crossing`` runs one whole attempt).  It is the ground truth.

``sample_patterns`` rejects whole attempts on one stream, as
``attempt_crossing`` does, and keeps only each attempt's level-(N-1) visits,
which is all that ``mc-shapes`` reads.  It has the law of ``sample_crossing``
and is gated path for path against whole attempts of a tuple walk.

All walkers read one table per (N, variant): the vertices a level-N attempt
can reach, with their neighbours by direction (``_region``), ordered so that
one comparison of a row number tells a level-N or level-(N-1) vertex.  They
step through it one block of draws at a time and build vertex tuples only
for the paths they keep.

Samplers draw from an explicit ``numpy.random.Generator``; independent
replicas must use independently spawned streams (``replica_rng``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .lattice import ORIGIN, Vertex, apex, corner, neighbors, on_grid

DEFAULT_STEP_BUDGET = 10**9
BLOCK = 4096  # direction draws per block of ``sample_crossing`` and ``sample_patterns``


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


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """An independent stream fully determined by (seed, replica-index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replica,)))


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
# Walk primitives
# ---------------------------------------------------------------------------


def _walk(dice: _Dice, reg: _Region, start: int, path: list[int]) -> int:
    """Step from row ``start`` of the region table (the last entry of
    ``path``) to the first level-N vertex other than the start, appending
    each row reached to ``path``; return the row it stops at.

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


def attempt_crossing(
    N: int,
    variant: CrossingVariant,
    rng: np.random.Generator,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> list[Vertex] | None:
    """Run one whole conditioning trial of the fine walk; None if the event fails.

    Draws come in blocks of 64 * 5**(N-1), scaled with the mean trial
    length (about 5**N steps) up to ``BLOCK``, so a trial at a low level
    does not draw a whole ``BLOCK``; from N = 4 on the block is the full
    ``BLOCK``, as in ``sample_crossing``.
    """
    if N < 1:
        raise ValueError("crossing level must be >= 1")
    reg = _region(N, variant)
    dice = _Dice(rng, max_steps, min(BLOCK, 64 * 5 ** (N - 1)))
    path = [0]
    end = _walk(dice, reg, 0, path)
    if variant is CrossingVariant.VIA_CORNER:
        if end != 4 * reg.corner:
            return None
        end = _walk(dice, reg, end, path)
    return reg.path(path) if end == 4 * reg.apex else None


def _leg(dice: _Dice, reg: _Region, start: int, stop: int) -> list[int]:
    """The walk from row ``start`` to its next level-N vertex, retried until
    that vertex is row ``stop``."""
    while True:
        path = [start]
        if _walk(dice, reg, start, path) == stop:
            return path


def sample_crossing(
    N: int,
    variant: CrossingVariant,
    rng: np.random.Generator,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> list[Vertex]:
    """Sample one conditioned crossing path at level N (starts at O, ends at a_N).

    Each leg is retried on its own (module docstring); ``max_steps`` caps
    the raw steps of the whole call, checked each ``BLOCK`` draws.
    """
    if N < 1:
        raise ValueError("crossing level must be >= 1")
    reg = _region(N, variant)
    dice = _Dice(rng, max_steps)
    if variant is CrossingVariant.DIRECT:
        return reg.path(_leg(dice, reg, 0, 4 * reg.apex))
    b_N = 4 * reg.corner
    return reg.path(_leg(dice, reg, 0, b_N) + _leg(dice, reg, b_N, 4 * reg.apex)[1:])


# ---------------------------------------------------------------------------
# Region table and the pattern sampler
# ---------------------------------------------------------------------------

#: Exact probability of each conditioning event (``exact`` derives it too).
ACCEPTANCE = {CrossingVariant.DIRECT: Fraction(1, 4), CrossingVariant.VIA_CORNER: Fraction(1, 16)}


@dataclass(frozen=True)
class _Region:
    """The unit vertices a conditioned level-N attempt can reach and their
    neighbour table.  Vertex 0 is the origin; the level-N vertices come
    first, then the other level-(N-1) grid vertices, then the rest."""

    vertices: tuple[Vertex, ...]
    rows: list[int]  # the row each (row + direction) steps to; row = 4 * vertex
    stops: int  # 4 * the number of level-N vertices
    coarse: int  # 4 * the number of level-(N-1) grid vertices
    apex: int  # index of a_N
    corner: int  # index of b_N, or -1 when the attempt never stops there

    def path(self, rows: list[int]) -> list[Vertex]:
        """The vertices of a walk given as rows."""
        vertices = self.vertices
        return [vertices[r >> 2] for r in rows]


@lru_cache(maxsize=32)
def _region(N: int, variant: CrossingVariant) -> _Region:
    """Breadth-first closure from O (and b_N for via-corner) that stops at
    every level-N vertex other than the leg's start: the level-N cells at O,
    plus those at b_N.  Directions follow ``lattice.neighbors``."""
    mask = (1 << N) - 1
    index: dict[Vertex, int] = {}
    vertices: list[Vertex] = []
    starts = (ORIGIN, corner(N)) if variant is CrossingVariant.VIA_CORNER else (ORIGIN,)
    for start in starts:
        if start not in index:
            index[start] = len(vertices)
            vertices.append(start)
        queue = [start]
        while queue:
            v = queue.pop()
            if v != start and ((v[0] | v[1]) & mask) == 0:
                continue
            for u in neighbors(v):
                if u not in index:
                    index[u] = len(vertices)
                    vertices.append(u)
                    queue.append(u)

    def rank(v: Vertex) -> int:  # 0 on the level-N grid, 1 on level N-1 only, else 2
        bits = v[0] | v[1]
        return 0 if bits & mask == 0 else 1 if bits & (mask >> 1) == 0 else 2

    # A stable sort: the origin stays first.
    vertices.sort(key=rank)
    index = {v: k for k, v in enumerate(vertices)}
    ranks = [rank(v) for v in vertices]
    return _Region(
        vertices=tuple(vertices),
        rows=[4 * index.get(u, -1) for v in vertices for u in neighbors(v)],
        stops=4 * ranks.count(0),
        coarse=4 * (len(ranks) - ranks.count(2)),
        apex=index[apex(N)],
        corner=index.get(corner(N), -1),
    )


def _coarse_walk(dice: _Dice, reg: _Region, start: int, pattern: list[int]) -> int:
    """``_walk`` that appends only the once-in-a-row level-(N-1) visits
    (``start`` is the last entry of ``pattern``).

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
    keep: Callable[[list[Vertex]], object] = tuple,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> tuple[list, int]:
    """Level-(N-1) patterns of ``count`` conditioned level-N crossings.

    Whole attempts, as in ``attempt_crossing``, are run one after another on
    one stream until ``count`` are accepted.  An attempt records only its
    once-in-a-row visits to the level-(N-1) grid, which is
    ``coarse_grain(path, N - 1)`` of the path it walks; each accepted
    pattern goes through ``keep``.  Draws come ``BLOCK`` at a time, shared
    by all attempts, and ``max_steps`` is a budget per sample, as in
    ``sample_crossing``: the call may draw ``max_steps * count`` steps.

    Returns the kept values in attempt order and the number of attempts up
    to the ``count``-th acceptance.
    """
    if N < 1:
        raise ValueError("crossing level must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    reg = _region(N, variant)
    a_N, b_N = 4 * reg.apex, 4 * reg.corner
    via = variant is CrossingVariant.VIA_CORNER
    dice = _Dice(rng, max_steps * count)
    kept: list = []
    attempts = 0
    while len(kept) < count:
        attempts += 1
        pattern = [0]
        end = _coarse_walk(dice, reg, 0, pattern)
        if via:
            if end != b_N:
                continue
            end = _coarse_walk(dice, reg, end, pattern)
        if end == a_N:
            kept.append(keep(reg.path(pattern)))
    return kept, attempts
