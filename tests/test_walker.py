from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, ks_2samp

from gasket_lerw import walker
from gasket_lerw.eraser import chronological_erase, loop_erase
from gasket_lerw.lattice import (
    ORIGIN,
    ORIGIN_LEVEL,
    LevelPath,
    apex,
    corner,
    incident_cells,
    neighbors,
    on_grid,
)
from gasket_lerw.harness import chi_square, classify_top_shape
from gasket_lerw.walker import (
    MAX_LEVEL,
    PATTERN_PAIRS_FROM,
    CrossingVariant,
    StepBudgetExceeded,
    _leg_images,
    _region,
    attempt_crossing,
    leg_steps_moments,
    replica_rng,
    sample_crossing,
    sample_patterns,
)
from oracles import (
    coarse_grain,
    euclid_sq,
    grid_level,
    hitting_indices,
    is_vertex,
    neighbors_on_grid,
    one_draw_attempt,
    one_draw_crossing,
    one_draw_patterns,
    region_vertices,
    step_levels,
)

DIRECT = CrossingVariant.DIRECT
VIA = CrossingVariant.VIA_CORNER


def walk_from_dirs(dirs):
    path = [ORIGIN]
    for d in dirs:
        path.append(neighbors(path[-1])[d])
    return path


walks = st.lists(st.integers(0, 3), min_size=0, max_size=80).map(walk_from_dirs)


class TestHittingTimes:
    """``hitting_indices``; the eraser's one-scan stage visits must agree
    with it (tests/test_eraser.py)."""

    def test_counts_same_vertex_once_in_a_row(self):
        w = [(0, 0), (1, 0), (1, 1), (1, 0), (2, 0)]
        assert hitting_indices(w, 1) == [0, 4]

    def test_unit_level_counts_every_vertex(self):
        w = [(0, 0), (1, 0), (0, 1)]
        assert hitting_indices(w, 0) == [0, 1, 2]

    def test_apex_hit(self):
        w = [(0, 0), (1, 0), (1, 1), (0, 2)]
        assert hitting_indices(w, 1) == [0, 3]

    def test_repeated_coarse_vertex_countable_after_other_hit(self):
        # O, b_1, O: the second O visit counts because b_1 intervened.
        w = [(0, 0), (1, 0), (2, 0), (1, 0), (0, 0)]
        assert hitting_indices(w, 1) == [0, 2, 4]


class TestCoarseGrain:
    def test_example(self):
        assert coarse_grain([(0, 0), (1, 0), (1, 1), (0, 2)], 1) == [(0, 0), (0, 2)]

    def test_fixed_point(self):
        p = [(0, 0), (2, 0), (0, 2)]
        assert coarse_grain(p, 1) == p

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            coarse_grain([(0, 0), (1, 0)], 1)

    @given(walks, st.integers(0, 3), st.integers(0, 3))
    def test_composition_keeps_the_coarser_level(self, w, k, extra):
        m = k + extra
        once = coarse_grain(w, m, validate=False)
        twice = coarse_grain(coarse_grain(w, k, validate=False), m, validate=False)
        assert once == twice

    @given(walks, st.integers(0, 3))
    def test_coarse_vertices_on_grid_and_distinct_in_a_row(self, w, m):
        g = coarse_grain(w, m, validate=False)
        assert all(on_grid(v, m) for v in g)
        assert all(a != b for a, b in zip(g, g[1:]))

    def test_coarse_law_matches_exact_crossing_law(self):
        # The level-1 coarse view of a level-2 crossing is itself a crossing
        # walk of the doubled cells; each specific coarse path w has exact
        # probability 4 * (1/4)**len(w).  Bucket short paths, pool the rest.
        rng = replica_rng(20240, 0)
        n = 1000
        seen: dict[tuple, int] = {}
        for _ in range(n):
            p = sample_crossing(2, DIRECT, rng)
            key = tuple((i // 2, j // 2) for i, j in coarse_grain(p, 1))
            seen[key] = seen.get(key, 0) + 1

        def enumerate_crossings(max_len):
            out = {}

            def extend(path):
                head = path[-1]
                if on_grid(head, 1) and head != ORIGIN:
                    if head == apex(1):
                        out[tuple(path)] = 4.0 * 0.25 ** (len(path) - 1)
                    return
                if len(path) > max_len:
                    return
                for u in neighbors(head):
                    path.append(u)
                    extend(path)
                    path.pop()

            extend([ORIGIN])
            return out

        exact_mass = enumerate_crossings(7)
        rest = 1.0 - sum(exact_mass.values())
        observed = {"rest": 0}
        expected = {"rest": rest}
        for key, prob in exact_mass.items():
            expected[str(key)] = prob
        for key, cnt in seen.items():
            k = str(key) if key in exact_mass else "rest"
            observed[k] = observed.get(k, 0) + cnt
        _, p_value = chi_square(observed, expected)
        assert p_value > 1e-3


class TestConditioning:
    def test_acceptance_fractions(self):
        rng = replica_rng(11, 0)
        n = 30_000
        acc = sum(attempt_crossing(1, DIRECT, rng) is not None for _ in range(n)) / n
        sigma = (0.25 * 0.75 / n) ** 0.5
        assert abs(acc - 0.25) < 3 * sigma
        acc = sum(attempt_crossing(1, VIA, rng) is not None for _ in range(n)) / n
        p = 1 / 16
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(acc - p) < 3 * sigma

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_crossing_structure(self, n, variant):
        rng = replica_rng(5 * n, 1)
        for _ in range(40):
            p = sample_crossing(n, variant, rng)
            assert p[0] == ORIGIN and p[-1] == apex(n)
            hits = [p[t] for t in hitting_indices(p, n)]
            if variant is DIRECT:
                assert hits == [ORIGIN, apex(n)]
            else:
                assert hits == [ORIGIN, corner(n), apex(n)]
            # Absorption confines the walk near the origin.
            assert all(euclid_sq(v, ORIGIN) <= 4 * 4**n for v in p)
            assert all(b in neighbors(a) for a, b in zip(p, p[1:]))

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            sample_crossing(0, DIRECT, replica_rng(0, 0))

    def test_step_budget(self):
        # This level-6 leg walks past its first block of 4096 draws, so the
        # second refill raises, in the sampler as in the reference.
        with pytest.raises(StepBudgetExceeded):
            sample_crossing(6, DIRECT, replica_rng(0, 0), max_steps=10)
        with pytest.raises(StepBudgetExceeded):
            _TupleWalk(replica_rng(0, 0), max_steps=10).symmetric(6, DIRECT)


def _xy(p):
    """The point (i, j) sits at (2i + j, j sqrt 3) / 2, so in these
    coordinates the Euclidean inner product is x x' + 3 y y' (over 4)."""
    return 2 * p[0] + p[1], p[1]


def _reflect(v, a, b):
    """The mirror image of the point v in the perpendicular bisector of a
    and b, by Euclidean geometry in the coordinates ``_xy``."""
    (x, y), (ax, ay), (bx, by) = _xy(v), _xy(a), _xy(b)
    nx, ny = bx - ax, by - ay
    k = (2 * x - ax - bx) * nx + 3 * (2 * y - ay - by) * ny
    d = nx * nx + 3 * ny * ny
    x, rx = divmod(x * d - k * nx, d)
    y, ry = divmod(y * d - k * ny, d)
    assert rx == ry == 0 and (x - y) % 2 == 0, "not a lattice symmetry"
    return ((x - y) // 2, y)


def _leg_symmetry(s, w, t):
    """A symmetry of the two level-N cells at s that fixes s and swaps the
    stop w with the target t.

    The two cells are mirror images in the vertical line through s, one on
    each side of it.  If w and t lie on the same side, reflect that side in
    the bisector of w and t.  Otherwise exchange the sides by the vertical
    mirror V, followed on t's side by the swap S of V(w) with t (and
    preceded by S on the way back), so the map is its own inverse.
    """

    def side(v):
        return (_xy(v)[0] > _xy(s)[0]) - (_xy(v)[0] < _xy(s)[0])

    if w == t:
        return lambda v: v
    if side(w) == side(t):
        return lambda v: _reflect(v, w, t) if side(v) == side(t) else v

    def mirror(v):
        return _reflect(v, (s[0] - 1, s[1]), (s[0] + 1, s[1]))

    vw = mirror(w)

    def swap(v):
        return v if vw == t else _reflect(v, vw, t)

    return lambda v: swap(mirror(v)) if side(v) != side(t) else mirror(swap(v))


class _TupleWalk:
    """Reference walker on vertex tuples: each step looks up
    ``lattice.neighbors`` of the current vertex, and the direction draws
    come ``block`` at a time from one buffer per call, the budget checked
    at each refill against the draws already used up.  It shares no code
    with the walker's region table or its leg images."""

    def __init__(self, rng, block=4096, max_steps=10**9):
        self.rng, self.block, self.max_steps = rng, block, max_steps
        self.dirs, self.used = [], 0

    def draw(self):
        if not self.dirs:
            if self.used > self.max_steps:
                raise StepBudgetExceeded("reference budget")
            self.dirs = self.rng.integers(0, 4, size=self.block).tolist()[::-1]
            self.used += self.block
        return self.dirs.pop()

    def walk(self, v0, mask):
        path, cur = [v0], v0
        while True:
            cur = neighbors(cur)[self.draw()]
            path.append(cur)
            if ((cur[0] | cur[1]) & mask) == 0 and cur != v0:
                return path

    def leg(self, start, stop, mask):
        while True:
            path = self.walk(start, mask)
            if path[-1] == stop:
                return path

    def crossing(self, N, variant):
        """Rejection: each leg retried until it stops at its target."""
        mask = (1 << N) - 1
        if variant is DIRECT:
            return self.leg(ORIGIN, apex(N), mask)
        return self.leg(ORIGIN, corner(N), mask) + self.leg(corner(N), apex(N), mask)[1:]

    def symmetric(self, N, variant):
        """One walk per leg, mapped onto the leg's target by ``_leg_symmetry``."""
        mask = (1 << N) - 1
        legs = [(ORIGIN, apex(N))] if variant is DIRECT else [
            (ORIGIN, corner(N)), (corner(N), apex(N))]
        path = [ORIGIN]
        for s, t in legs:
            walk = self.walk(s, mask)
            g = cache(_leg_symmetry(s, walk[-1], t))
            path += [g(v) for v in walk[1:]]
        return path

    def attempt(self, N, variant):
        mask = (1 << N) - 1
        path = self.walk(ORIGIN, mask)
        if variant is VIA:
            if path[-1] != corner(N):
                return None
            path += self.walk(corner(N), mask)[1:]
        return path if path[-1] == apex(N) else None


def _whole_attempt_crossing(N, variant, rng, block=4096):
    """Reference sampler: whole attempts of the tuple walk, retried on one
    stream until the event holds."""
    walk = _TupleWalk(rng, block=block)
    while (path := walk.attempt(N, variant)) is None:
        pass
    return path


def _block(n):
    """Draws per refill of the whole-walk samplers: 64 at level 1, five
    times more per level, at most 4096."""
    return min(4096, 64 * 5 ** (n - 1))


class TestRegionWalker:
    """The region-table walker against the tuple walk: the same draws give
    the same paths, call after call on one stream."""

    @pytest.mark.parametrize("n,seeds", [(1, 12), (2, 12), (3, 8), (4, 6), (5, 4), (6, 3)])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_sample_crossing_equals_tuple_walk(self, n, seeds, variant):
        # One tuple walk per leg, mapped by the symmetry the test computes.
        for seed in range(seeds):
            r1, r2 = replica_rng(seed, 40 + n), replica_rng(seed, 40 + n)
            for _ in range(2):
                ref = _TupleWalk(r2, block=_block(n)).symmetric(n, variant)
                assert sample_crossing(n, variant, r1) == ref

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_leg_images_are_cell_automorphisms(self, n, variant):
        # Each image maps the two level-n cells at the leg's start onto
        # themselves, one to one, keeping every edge between their
        # vertices; it fixes the start and sends its stop to the target.
        reg = _region(n, variant)
        vertices = region_vertices(reg)
        targets = [apex(n)] if variant is DIRECT else [corner(n), apex(n)]
        assert len(reg.legs) == len(targets)
        for (start, images), t in zip(reg.legs, targets):
            s = vertices[start >> 2]
            cells = incident_cells(s, n)
            stops = {c for cell in cells for c in cell.corners()} - {s}
            assert {vertices[r >> 2] for r in images} == stops
            inside = [k for k, v in enumerate(vertices) if any(c.contains(v) for c in cells)]
            members = {vertices[k] for k in inside}
            for r, image in images.items():
                g = {vertices[k]: vertices[image[k]] for k in inside}
                assert set(g.values()) == members
                assert g[s] == s and g[vertices[r >> 2]] == t
                for v in members:
                    for u in neighbors(v):
                        if u in members:
                            assert g[u] in neighbors(g[v])

    @pytest.mark.parametrize(
        "s,t",
        [(ORIGIN, apex(MAX_LEVEL)), (ORIGIN, corner(MAX_LEVEL)), (corner(MAX_LEVEL), apex(MAX_LEVEL))],
    )
    def test_leg_images_at_the_largest_level(self, s, t):
        # The corners and edge midpoints of the two level-N cells at s map
        # onto themselves, so the builder runs at the largest coordinates a
        # region can hold without building one.
        cells = incident_cells(s, MAX_LEVEL)
        corners = sorted({c for cell in cells for c in cell.corners()})
        edges = {(p, q) for cell in cells for p in cell.corners() for q in cell.corners() if p < q}
        vertices = corners + sorted({((p[0] + q[0]) // 2, (p[1] + q[1]) // 2) for p, q in edges})
        assert len(vertices) == 11
        [(start, images)] = _leg_images(vertices, [(s, t)], MAX_LEVEL)
        assert vertices[start >> 2] == s
        assert {vertices[r >> 2] for r in images} == set(corners) - {s}
        for stop, image in images.items():
            assert image.dtype == np.int32 and sorted(image) == list(range(len(vertices)))
            mapped = [vertices[k] for k in image]
            assert mapped[vertices.index(s)] == s and mapped[stop >> 2] == t
            assert sorted(mapped[: len(corners)]) == corners
        # Without one midpoint some image is missing, and the lookup says so.
        with pytest.raises(KeyError):
            _leg_images(vertices[:-1], [(s, t)], MAX_LEVEL)

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_region_is_the_gasket_in_the_start_cells(self, n, variant):
        # The table holds each gasket vertex of the closed level-n cells at
        # the legs' starts once, and every row a walk leaves (each start's,
        # and each one off the level-n grid) lists lattice.neighbors in order.
        reg = _region(n, variant)
        vertices = region_vertices(reg)
        starts = [ORIGIN] if variant is DIRECT else [ORIGIN, corner(n)]
        side = 1 << n
        gasket = {
            (i, j)
            for s in starts
            for (ci, cj), _ in incident_cells(s, n)
            for j in range(cj, cj + side + 1)
            for i in range(ci, ci + side + 1 - (j - cj))
            if is_vertex((i, j))
        }
        assert len(set(vertices)) == len(vertices)
        assert set(vertices) == gasket
        assert len(gasket) == (3 ** (n + 1) + 2 if variant is DIRECT else (3 ** (n + 2) + 5) // 2)
        # Python ints: a numpy scalar would slow every step's comparison.
        assert type(reg.stops) is type(reg.coarse) is int
        for k, v in enumerate(vertices):
            if v in starts or not on_grid(v, n):
                row = reg.rows[4 * k : 4 * k + 4]
                assert [vertices[r >> 2] for r in row] == list(neighbors(v))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_attempt_crossing_equals_tuple_walk(self, n, variant):
        r1, r2 = replica_rng(70 + n, 0), replica_rng(70 + n, 0)
        for _ in range(200 if n < 4 else 40):
            ref = _TupleWalk(r2, block=_block(n)).attempt(n, variant)
            assert attempt_crossing(n, variant, r1) == ref

    @pytest.mark.parametrize(
        "max_steps,exceeded", [(0, True), (4096, True), (8191, True), (8192, False)]
    )
    def test_budget_stops_at_the_same_block(self, max_steps, exceeded):
        # This crossing draws three blocks.  A refill raises once the draws
        # already taken exceed the budget: budget 0 stops it at the second
        # refill, 4096 and 8191 at the third, and 8192 lets it finish.
        outcomes = []
        for sampler in (
            lambda rng: sample_crossing(5, VIA, rng, max_steps),
            lambda rng: _TupleWalk(rng, max_steps=max_steps).symmetric(5, VIA),
        ):
            try:
                outcomes.append(sampler(replica_rng(5, 0)))
            except StepBudgetExceeded:
                outcomes.append("exceeded")
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == "exceeded") is exceeded


def _first_draw_stops(monkeypatch, name):
    """Wrap ``walker.<name>`` to list, leg by leg, whether the leg stopped
    on the first draw of a pair, leaving the second pending."""
    real, stops = getattr(walker, name), []

    def spy(dice, *args):
        stop = real(dice, *args)
        stops.append(dice.pending is not None)
        return stop

    monkeypatch.setattr(walker, name, spy)
    return stops


class TestPairWalk:
    """The pair loops against the one-draw loops they replaced, kept in
    ``oracles``: the same draws give the same patterns, paths, grid levels,
    raw steps and generator state, and the corpus stops legs on the first
    draw of a pair, so the pending draw is walked."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_pair_table_is_rows_composed_twice(self, n, variant):
        reg = _region(n, variant)
        # Python ints: a numpy scalar would slow every step's comparison.
        assert type(reg.stops) is type(reg.coarse) is int
        assert all(type(v) is int for v in reg.pairs)
        size = len(reg.xy)
        # One shared object per value: 16 * u, ~(16 * u) on the coarse grid, and -16.
        assert len({id(v) for v in reg.pairs}) <= size + (reg.coarse >> 2) + 1
        rows, pairs = np.array(reg.rows), np.array(reg.pairs).reshape(size, 4, 4)
        left = rows[::4] >= 0  # the rows a walk leaves
        assert (pairs[~left] == -16).all()
        pairs = pairs[left]
        first = np.repeat(rows.reshape(size, 4)[left][:, :, None], 4, axis=2)  # by (d1, d2)
        second = rows[first + np.arange(4)]
        flagged = pairs < 0
        assert (flagged == (first < reg.coarse)).all()
        assert (~pairs[flagged] == 4 * first[flagged]).all()
        assert (pairs[~flagged] == 4 * second[~flagged]).all()

    @pytest.mark.parametrize("n,count", [(1, 400), (2, 200), (3, 60), (4, 20), (5, 8),
                                         (6, 4), (7, 3), (8, 2), (9, 2)])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_patterns_equal_one_draw_walk(self, n, count, variant, monkeypatch):
        stops = _first_draw_stops(monkeypatch, "_coarse_walk")
        r1, r2 = replica_rng(n, 90), replica_rng(n, 90)
        for _ in range(2):
            assert sample_patterns(n, variant, count, r1) == one_draw_patterns(n, variant, count, r2)
            assert r1.bit_generator.state == r2.bit_generator.state
        assert any(stops) is (n >= PATTERN_PAIRS_FROM)

    @pytest.mark.parametrize("n,count", [(1, 200), (2, 100), (3, 40), (4, 20), (5, 8),
                                         (6, 4), (7, 4)])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_sample_crossing_equals_one_draw_walk(self, n, count, variant, monkeypatch):
        stops = _first_draw_stops(monkeypatch, "_walk")
        r1, r2 = replica_rng(n, 91), replica_rng(n, 91)
        for _ in range(count):
            path, levels = one_draw_crossing(n, variant, r2)
            got = sample_crossing(n, variant, r1)
            assert got == path and step_levels(got) == levels
            assert r1.bit_generator.state == r2.bit_generator.state
        assert any(stops)

    @pytest.mark.parametrize("n,count", [(1, 400), (2, 200), (3, 100), (4, 60)])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_attempt_crossing_equals_one_draw_walk(self, n, count, variant, monkeypatch):
        stops = _first_draw_stops(monkeypatch, "_walk")
        r1, r2 = replica_rng(n, 92), replica_rng(n, 92)
        for _ in range(count):
            assert attempt_crossing(n, variant, r1) == one_draw_attempt(n, variant, r2)
        assert r1.bit_generator.state == r2.bit_generator.state
        assert any(stops)


def _mapped_leg_patterns(N, variant, count, rng, max_steps=10**9):
    """Reference for ``sample_patterns``: crossings of the tuple walk, each
    leg mapped onto its target by ``_leg_symmetry``, on one stream with the
    budget of the whole call.  Returns the level-(N-1) coarse view of each
    crossing and the steps walked for them all."""
    walk = _TupleWalk(rng, max_steps=max_steps * count)
    paths = [walk.symmetric(N, variant) for _ in range(count)]
    return [tuple(coarse_grain(p, N - 1)) for p in paths], sum(len(p) - 1 for p in paths)


def _whole_attempt_patterns(N, variant, count, rng):
    """Rejection reference for the law of ``sample_patterns``: whole
    attempts of the tuple walk on one stream, keeping the level-(N-1) coarse
    view of each accepted attempt."""
    walk = _TupleWalk(rng)
    kept = []
    while len(kept) < count:
        path = walk.attempt(N, variant)
        if path is not None:
            kept.append(tuple(coarse_grain(path, N - 1)))
    return kept


class TestPatternSampler:
    """``sample_patterns`` against the tuple walk with mapped legs: the same
    draws give the same patterns and the same step count.  Against whole
    attempts of the tuple walk, which consume the stream differently, the
    gate is on the law."""

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_region_rows_are_ordered_by_grid_level(self, n, variant):
        # One comparison per step finds the level-(N-1) visits, and the
        # level-N stops among them, only if the rows come in this order.
        # The numbering is by descending level: level m or more is the one
        # comparison id < at_least[m], which every eraser stage reads.
        reg = _region(n, variant)
        vertices = region_vertices(reg)
        assert vertices[0] == ORIGIN
        rows = range(0, 4 * len(vertices), 4)
        assert [r < reg.stops for r in rows] == [on_grid(v, n) for v in vertices]
        assert [r < reg.coarse for r in rows] == [on_grid(v, n - 1) for v in vertices]
        levels = np.array([grid_level(v) for v in vertices])
        assert (levels[1:] <= levels[:-1]).all()
        assert reg.at_least == tuple((levels >= m).sum() for m in range(ORIGIN_LEVEL + 1))
        assert 4 * reg.at_least[n] == reg.stops and 4 * reg.at_least[n - 1] == reg.coarse

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_coarse_legs_are_prefixes_of_the_legs(self, n, variant):
        # One table serves both samplers: each image that sample_patterns
        # maps through is the prefix, over the level-(n-1) rows, of the one
        # sample_crossing gathers from, and it stays on the level-(n-1) grid.
        reg = _region(n, variant)
        vertices = region_vertices(reg)
        assert [(start, images.keys()) for start, images in reg.coarse_legs] == [
            (start, images.keys()) for start, images in reg.legs
        ]
        for (_, coarse), (_, images) in zip(reg.coarse_legs, reg.legs):
            for stop, image in images.items():
                assert coarse[stop] == tuple(vertices[k] for k in image[: reg.coarse >> 2])
                assert all(on_grid(v, n - 1) for v in coarse[stop])

    @pytest.mark.parametrize(
        "n,count,seeds", [(1, 40, 4), (2, 30, 4), (3, 20, 3), (4, 8, 3), (5, 3, 2)]
    )
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_patterns_equal_mapped_legs(self, n, count, seeds, variant):
        for seed in range(seeds):
            r1, r2 = replica_rng(seed, 80 + n), replica_rng(seed, 80 + n)
            for _ in range(2):
                ref = _mapped_leg_patterns(n, variant, count, r2)
                assert sample_patterns(n, variant, count, r1) == ref

    @pytest.mark.parametrize(
        "max_steps,exceeded", [(0, True), (1024, True), (3071, True), (3072, False)]
    )
    def test_budget_stops_at_the_same_refill(self, max_steps, exceeded):
        # This call walks 15227 steps, four blocks, against a budget of
        # 4 * max_steps.  A refill raises once the draws already taken
        # exceed the budget: budget 0 stops it at the second refill, 4096
        # at the third, 12284 at the fourth, and 12288 lets it finish.
        outcomes = []
        for sampler in (sample_patterns, _mapped_leg_patterns):
            try:
                outcomes.append(sampler(5, VIA, 4, replica_rng(1, 0), max_steps=max_steps))
            except StepBudgetExceeded:
                outcomes.append("exceeded")
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == "exceeded") is exceeded

    @pytest.mark.parametrize("n,samples", [(1, 3000), (2, 2000), (3, 1000)])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_shape_law_matches_whole_attempts(self, n, samples, variant, table):
        patterns, _ = sample_patterns(n, variant, samples, replica_rng(760 + n, 0))
        shapes = [classify_top_shape(p, n, table) for p in patterns]
        kept = _whole_attempt_patterns(n, variant, samples, replica_rng(770 + n, 0))
        whole = [classify_top_shape(p, n, table) for p in kept]
        ids = sorted(table.column(variant))
        a, b = _shape_counts(shapes), _shape_counts(whole)
        rows = [[a.get(k, 0) for k in ids], [b.get(k, 0) for k in ids]]
        assert chi2_contingency(rows).pvalue > 1e-3


class TestLegwiseSampler:
    """``sample_crossing`` against rejection.  A direct crossing is the first
    whole attempt of the reference's stream, mapped onto the apex, so it
    equals the reference wherever that attempt succeeds; beyond that the
    two are gated by law."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_direct_keeps_the_whole_attempt_stream(self, n):
        kept = 0
        for seed in range(20):
            path = sample_crossing(n, DIRECT, replica_rng(seed, n))
            first = _TupleWalk(replica_rng(seed, n), block=_block(n)).walk(ORIGIN, (1 << n) - 1)
            assert path == [_leg_symmetry(ORIGIN, first[-1], apex(n))(v) for v in first]
            if first[-1] == apex(n):
                kept += 1
                ref = _whole_attempt_crossing(n, DIRECT, replica_rng(seed, n), _block(n))
                assert path == ref
        assert kept > 0

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_path_carries_its_grid_levels(self, n, variant):
        # The levels follow from the numbering of the walked vertices, and
        # only the stop moves to another level: it goes to the leg's target,
        # level n.
        rng = replica_rng(300 + n, 0)
        for _ in range(20 if n < 6 else 3):
            path = sample_crossing(n, variant, rng)
            assert step_levels(path) == bytes(map(grid_level, path))

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_leg_images_keep_the_walked_levels(self, n, variant):
        # A leg walks its start and the vertices inside its two level-n
        # cells that are off the level-n grid before it stops; each image
        # keeps their levels and sends the stop to the target, level n.
        reg = _region(n, variant)
        vertices = region_vertices(reg)
        levels = step_levels(LevelPath(np.arange(len(vertices)), reg.xy, reg.at_least))
        assert levels == bytes(map(grid_level, vertices))
        targets = [apex(n)] if variant is DIRECT else [corner(n), apex(n)]
        for (start, images), t in zip(reg.legs, targets):
            cells = incident_cells(vertices[start >> 2], n)
            walked = [start >> 2] + [
                k
                for k, v in enumerate(vertices)
                if not on_grid(v, n) and any(c.contains(v) for c in cells)
            ]
            for stop, image in images.items():
                assert [grid_level(vertices[image[k]]) for k in walked] == [
                    levels[k] for k in walked
                ]
                assert vertices[image[stop >> 2]] == t and grid_level(t) == n

    @pytest.mark.parametrize("n,samples", [(1, 4000), (2, 3000), (3, 1200), (4, 400)])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_law_matches_legwise_rejection(self, n, samples, variant):
        # Erased lengths by a two-sample chi-square, raw lengths by KS.
        r1, r2 = replica_rng(700 + n, 0), replica_rng(710 + n, 0)
        ours = [sample_crossing(n, variant, r1) for _ in range(samples)]
        ref = _TupleWalk(r2)
        theirs = [ref.crossing(n, variant) for _ in range(samples)]
        erased = [[len(loop_erase(p)) - 1 for p in paths] for paths in (ours, theirs)]
        assert chi2_contingency(_pooled_rows(*erased)).pvalue > 1e-3
        assert ks_2samp([len(p) for p in ours], [len(p) for p in theirs]).pvalue > 1e-3

    @pytest.mark.parametrize("n,samples", [(2, 3000), (3, 1500)])
    def test_via_corner_length_law_matches(self, n, samples):
        r1, r2 = replica_rng(660 + n, 0), replica_rng(670 + n, 0)
        legwise = [len(sample_crossing(n, VIA, r1)) for _ in range(samples)]
        whole = [len(_whole_attempt_crossing(n, VIA, r2)) for _ in range(samples)]
        assert ks_2samp(legwise, whole).pvalue > 1e-3

    @pytest.mark.parametrize("n,samples", [(2, 3000), (3, 1500)])
    def test_via_corner_shape_law_matches(self, n, samples, table):
        r1, r2 = replica_rng(680 + n, 0), replica_rng(690 + n, 0)
        legwise = [
            classify_top_shape(coarse_grain(sample_crossing(n, VIA, r1), n - 1), n, table)
            for _ in range(samples)
        ]
        whole = [
            classify_top_shape(coarse_grain(_whole_attempt_crossing(n, VIA, r2), n - 1), n, table)
            for _ in range(samples)
        ]
        ids = sorted(table.column(VIA))
        a, b = _shape_counts(legwise), _shape_counts(whole)
        rows = [[a.get(k, 0) for k in ids], [b.get(k, 0) for k in ids]]
        assert chi2_contingency(rows).pvalue > 1e-3


def _leg_steps_moments(n):
    """Exact mean and variance of one leg's raw steps at level n.

    Its generating function is f composed n times, f(s) = s**2 / (4 - 3s).
    Each composition is carried as a Taylor series at s = 1 to second
    order, in Fractions; the mean is the first coefficient and the second
    factorial moment twice the second.
    """

    def mul(a, b):
        return (a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[0] * b[2] + a[1] * b[1] + a[2] * b[0])

    def f(x):
        d0, d1, d2 = 4 - 3 * x[0], -3 * x[1], -3 * x[2]
        return mul(mul(x, x), (1 / d0, -d1 / d0**2, (d1 * d1 - d0 * d2) / d0**3))

    x = (Fraction(1), Fraction(1), Fraction(0))  # s itself
    for _ in range(n):
        x = f(x)
    mean = x[1]
    return mean, 2 * x[2] + mean - mean * mean


class TestWalkerClock:
    """Raw steps per sample against the exact exit-time moments.  A
    via-corner crossing is two independent legs.  An accepted whole attempt
    checks, without the leg maps, that conditioning on the stop leaves a
    leg's length law alone (the maps carry stops length for length)."""

    def test_exact_moments(self):
        moments = [_leg_steps_moments(n) for n in range(1, 5)]
        assert moments == [(5**n, v) for n, v in zip(range(1, 5), (12, 360, 9300, 234000))]

    def test_closed_form_is_the_composition(self):
        # The payloads' expectation against the composition of f.
        for n in range(1, 13):
            assert leg_steps_moments(n) == _leg_steps_moments(n)
            assert all(type(m) is int for m in leg_steps_moments(n))

    @staticmethod
    def _assert_moments(steps, n, variant):
        legs = 1 if variant is DIRECT else 2
        mean, var = (legs * m for m in _leg_steps_moments(n))
        x = np.array(steps, dtype=float)
        size = len(x)
        centred = x - x.mean()
        s2 = centred @ centred / (size - 1)
        m4 = np.mean(centred**4)
        z_mean = (x.mean() - float(mean)) / np.sqrt(float(var) / size)
        z_var = (s2 - float(var)) / np.sqrt((m4 - s2 * s2 * (size - 3) / (size - 1)) / size)
        assert abs(z_mean) < 3 and abs(z_var) < 3, (z_mean, z_var)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_sample_crossing(self, n, variant):
        rng = replica_rng(1000 + n, variant is VIA)
        steps = [len(sample_crossing(n, variant, rng)) - 1 for _ in range(3000)]
        self._assert_moments(steps, n, variant)

    @pytest.mark.parametrize("n,accepted", [(1, 3000), (2, 2000), (3, 1000), (4, 400)])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_accepted_attempts(self, n, accepted, variant):
        rng = replica_rng(1100 + n, variant is VIA)
        steps = []
        while len(steps) < accepted:
            path = attempt_crossing(n, variant, rng)
            if path is not None:
                steps.append(len(path) - 1)
        self._assert_moments(steps, n, variant)


def _pooled_rows(a, b, least=10):
    """Two samples as the rows of a contingency table over their values,
    neighbouring values pooled until each column counts ``least``."""
    ca, cb = Counter(a), Counter(b)
    rows, col = [[], []], [0, 0]
    for v in sorted(set(ca) | set(cb)):
        col = [col[0] + ca[v], col[1] + cb[v]]
        if sum(col) >= least:
            rows[0].append(col[0])
            rows[1].append(col[1])
            col = [0, 0]
    rows[0][-1] += col[0]
    rows[1][-1] += col[1]
    return rows


def _shape_counts(shapes) -> dict[str, int]:
    counts: dict[str, int] = {}
    for sid in shapes:
        counts[sid] = counts.get(sid, 0) + 1
    return counts


class TestLockstepKernel:
    """``sample_patterns`` against the exact shape law and against
    ``sample_crossing``.  The two samplers draw blocks of different sizes,
    so they walk different paths on one seed and these gates are on the
    law; ``TestPatternSampler`` gates the paths."""

    @pytest.mark.parametrize("n,samples", [(1, 3000), (2, 3000), (3, 2000), (4, 800)])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_shape_law_matches_exact(self, n, samples, variant, table):
        patterns, _ = sample_patterns(n, variant, samples, replica_rng(610 + n, 0))
        shapes = [classify_top_shape(p, n, table) for p in patterns]
        assert len(shapes) == samples
        expected = {k: float(v) for k, v in table.column(variant).items()}
        _, p_value = chi_square(_shape_counts(shapes), expected)
        assert p_value > 1e-3

    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_small_batches_keep_the_law(self, variant, table):
        # Few samples per call: a sampler that kept the first attempts to
        # finish, not the first to start, would favour short walks here.
        shapes = []
        for r in range(300):
            part, _ = sample_patterns(2, variant, 10, replica_rng(650, r))
            shapes += [classify_top_shape(p, 2, table) for p in part]
        expected = {k: float(v) for k, v in table.column(variant).items()}
        _, p_value = chi_square(_shape_counts(shapes), expected)
        assert p_value > 1e-3

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_shape_law_matches_scalar_rejection(self, n, variant, table):
        samples = 1500
        patterns, _ = sample_patterns(n, variant, samples, replica_rng(620 + n, 0))
        kernel = [classify_top_shape(p, n, table) for p in patterns]
        rng = replica_rng(630 + n, 0)
        scalar = [
            classify_top_shape(coarse_grain(sample_crossing(n, variant, rng), n - 1), n, table)
            for _ in range(samples)
        ]
        ids = sorted(table.column(variant))
        a, b = _shape_counts(kernel), _shape_counts(scalar)
        rows = [[a.get(k, 0) for k in ids], [b.get(k, 0) for k in ids]]
        assert chi2_contingency(rows).pvalue > 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_pattern_structure(self, n, variant):
        patterns, _ = sample_patterns(n, variant, 200, replica_rng(640 + n, 0))
        assert len(patterns) == 200
        for p in patterns:
            assert p[0] == ORIGIN and p[-1] == apex(n)
            assert all(b in neighbors_on_grid(a, n - 1) for a, b in zip(p, p[1:]))
            top = coarse_grain(p, n)
            assert top == ([ORIGIN, apex(n)] if variant is DIRECT else [ORIGIN, corner(n), apex(n)])

    def test_same_stream_same_patterns(self):
        a = sample_patterns(2, VIA, 300, replica_rng(9, 3))
        b = sample_patterns(2, VIA, 300, replica_rng(9, 3))
        c = sample_patterns(2, VIA, 300, replica_rng(9, 4))
        assert a == b
        assert a != c

    def test_step_budget(self):
        # These ten crossings walk 9130 steps, three blocks; a budget of
        # 10 * 100 stops them at the second refill.
        with pytest.raises(StepBudgetExceeded):
            sample_patterns(4, DIRECT, 10, replica_rng(0, 0), max_steps=100)

    def test_step_budget_is_per_sample(self):
        # About 125 draws per sample at N = 3, so 250k for the whole call.
        patterns, _ = sample_patterns(3, DIRECT, 2000, replica_rng(1, 0), max_steps=10**4)
        assert len(patterns) == 2000

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            sample_patterns(0, DIRECT, 10, replica_rng(0, 0))



@pytest.mark.slow
def test_mean_length_growth_band():
    # Raw crossing lengths average 5**N steps (all four first-exit corners
    # are exchangeable, so conditioning leaves the mean hitting time alone),
    # and consecutive levels grow by a factor inside (4.5, 5.5).
    rng = replica_rng(77, 0)
    means = {}
    plan = {2: 1200, 3: 1200, 4: 900, 5: 800, 6: 400}
    for n, cnt in plan.items():
        lens = np.array(
            [len(sample_crossing(n, DIRECT, rng)) - 1 for _ in range(cnt)], dtype=float
        )
        means[n] = lens.mean()
        z = (lens.mean() - 5.0**n) / (lens.std(ddof=1) / cnt**0.5)
        assert abs(z) < 3.5, (n, z)
    for n in (2, 3, 4, 5):
        ratio = means[n + 1] / means[n]
        assert 4.5 < ratio < 5.5, (n, ratio)


def test_replica_rng_reproducible_and_disjoint():
    a1 = replica_rng(9, 0).integers(0, 1 << 30, 8).tolist()
    a2 = replica_rng(9, 0).integers(0, 1 << 30, 8).tolist()
    b = replica_rng(9, 1).integers(0, 1 << 30, 8).tolist()
    assert a1 == a2
    assert a1 != b


def test_unit_chronological_erasure_of_crossing_is_self_avoiding():
    rng = replica_rng(4, 2)
    for _ in range(200):
        p = sample_crossing(1, DIRECT, rng)
        e = chronological_erase(p)
        assert len(set(e)) == len(e)
        assert e[0] == ORIGIN and e[-1] == apex(1)
