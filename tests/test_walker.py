from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, ks_2samp

from gasket_lerw.eraser import chronological_erase
from gasket_lerw.exact import solve_shape_distribution
from gasket_lerw.lattice import (
    ORIGIN,
    apex,
    corner,
    euclid_sq,
    neighbors,
    neighbors_on_grid,
    on_grid,
)
from gasket_lerw.harness import chi_square, classify_top_shape
from gasket_lerw.walker import (
    ACCEPTANCE,
    CrossingVariant,
    StepBudgetExceeded,
    _region,
    attempt_crossing,
    coarse_grain,
    hitting_indices,
    replica_rng,
    sample_crossing,
    sample_patterns,
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
        with pytest.raises(StepBudgetExceeded):
            sample_crossing(4, DIRECT, replica_rng(0, 0), max_steps=10)


class _TupleWalk:
    """Reference walker on vertex tuples: each step looks up
    ``lattice.neighbors`` of the current vertex, and the direction draws
    come ``block`` at a time from one buffer per call, the budget checked
    at each refill against the draws already used up.  It shares no code
    with the walker's region table."""

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
        mask = (1 << N) - 1
        if variant is DIRECT:
            return self.leg(ORIGIN, apex(N), mask)
        return self.leg(ORIGIN, corner(N), mask) + self.leg(corner(N), apex(N), mask)[1:]

    def attempt(self, N, variant):
        mask = (1 << N) - 1
        path = self.walk(ORIGIN, mask)
        if variant is VIA:
            if path[-1] != corner(N):
                return None
            path += self.walk(corner(N), mask)[1:]
        return path if path[-1] == apex(N) else None


def _whole_attempt_crossing(N, variant, rng):
    """Reference sampler: whole attempts of the tuple walk, retried on one
    stream until the event holds."""
    walk = _TupleWalk(rng)
    while (path := walk.attempt(N, variant)) is None:
        pass
    return path


class TestRegionWalker:
    """The region-table walker against the tuple walk it replaced: the same
    draws give the same paths, call after call on one stream."""

    @pytest.mark.parametrize("n,seeds", [(1, 12), (2, 12), (3, 8), (4, 6), (5, 4), (6, 3)])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_sample_crossing_equals_tuple_walk(self, n, seeds, variant):
        for seed in range(seeds):
            r1, r2 = replica_rng(seed, 40 + n), replica_rng(seed, 40 + n)
            for _ in range(2):
                ref = _TupleWalk(r2).crossing(n, variant)
                assert sample_crossing(n, variant, r1) == ref

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_attempt_crossing_equals_tuple_walk(self, n, variant):
        # Trials draw blocks sized to the trial: 64 draws at level 1, five
        # times more per level, at most 4096.
        r1, r2 = replica_rng(70 + n, 0), replica_rng(70 + n, 0)
        for _ in range(200 if n < 4 else 40):
            ref = _TupleWalk(r2, block=min(4096, 64 * 5 ** (n - 1))).attempt(n, variant)
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
            lambda rng: sample_crossing(4, VIA, rng, max_steps),
            lambda rng: _TupleWalk(rng, max_steps=max_steps).crossing(4, VIA),
        ):
            try:
                outcomes.append(sampler(replica_rng(3, 0)))
            except StepBudgetExceeded:
                outcomes.append("exceeded")
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == "exceeded") is exceeded


def _whole_attempt_patterns(N, variant, count, rng, max_steps=10**9):
    """Reference for ``sample_patterns``: whole attempts of the tuple walk on
    one stream, with the budget of the whole call, keeping the level-(N-1)
    coarse view of each accepted attempt."""
    walk = _TupleWalk(rng, max_steps=max_steps * count)
    kept, attempts = [], 0
    while len(kept) < count:
        attempts += 1
        path = walk.attempt(N, variant)
        if path is not None:
            kept.append(tuple(coarse_grain(path, N - 1)))
    return kept, attempts


class TestPatternSampler:
    """``sample_patterns`` against whole attempts of the tuple walk: the same
    draws give the same patterns and the same attempt count."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_region_rows_are_ordered_by_grid_level(self, n, variant):
        # One comparison per step finds the level-(N-1) visits, and the
        # level-N stops among them, only if the rows come in this order.
        reg = _region(n, variant)
        assert reg.vertices[0] == ORIGIN
        rows = range(0, 4 * len(reg.vertices), 4)
        assert [r < reg.stops for r in rows] == [on_grid(v, n) for v in reg.vertices]
        assert [r < reg.coarse for r in rows] == [on_grid(v, n - 1) for v in reg.vertices]

    @pytest.mark.parametrize(
        "n,count,seeds", [(1, 40, 4), (2, 30, 4), (3, 20, 3), (4, 8, 3), (5, 3, 2)]
    )
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_patterns_equal_whole_attempts(self, n, count, seeds, variant):
        for seed in range(seeds):
            r1, r2 = replica_rng(seed, 80 + n), replica_rng(seed, 80 + n)
            for _ in range(2):
                ref = _whole_attempt_patterns(n, variant, count, r2)
                assert sample_patterns(n, variant, count, r1) == ref

    @pytest.mark.parametrize(
        "max_steps,exceeded", [(0, True), (1024, True), (3071, True), (3072, False)]
    )
    def test_budget_stops_at_the_same_refill(self, max_steps, exceeded):
        # This call draws four blocks against a budget of 4 * max_steps.  A
        # refill raises once the draws already taken exceed the budget:
        # budget 0 stops it at the second refill, 4096 at the third, 12284
        # at the fourth, and 12288 lets it finish.
        outcomes = []
        for sampler in (sample_patterns, _whole_attempt_patterns):
            try:
                outcomes.append(sampler(3, VIA, 4, replica_rng(3, 0), max_steps=max_steps))
            except StepBudgetExceeded:
                outcomes.append("exceeded")
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == "exceeded") is exceeded


class TestLegwiseSampler:
    """``sample_crossing`` against whole-attempt rejection.  Direct crossings
    have one leg, so they keep the reference's stream path for path; the
    via-corner legs are retried separately, so that law is gated by law."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_direct_keeps_the_whole_attempt_stream(self, n):
        for seed in range(20):
            assert sample_crossing(n, DIRECT, replica_rng(seed, n)) == _whole_attempt_crossing(
                n, DIRECT, replica_rng(seed, n)
            )

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


def _shape_counts(shapes) -> dict[str, int]:
    counts: dict[str, int] = {}
    for sid in shapes:
        counts[sid] = counts.get(sid, 0) + 1
    return counts


class TestLockstepKernel:
    """``sample_patterns`` against the exact shape law and against
    ``sample_crossing``.  The two samplers consume the stream in different
    orders (whole attempts against legs retried on their own), so these
    gates are on the law; ``TestPatternSampler`` gates the paths."""

    @pytest.mark.parametrize("n,samples", [(1, 3000), (2, 3000), (3, 2000), (4, 800)])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_shape_law_matches_exact(self, n, samples, variant, table):
        shapes, _ = sample_patterns(
            n, variant, samples, replica_rng(610 + n, 0),
            keep=lambda p: classify_top_shape(p, n, table),
        )
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
            part, _ = sample_patterns(
                2, variant, 10, replica_rng(650, r), keep=lambda p: classify_top_shape(p, 2, table)
            )
            shapes += part
        expected = {k: float(v) for k, v in table.column(variant).items()}
        _, p_value = chi_square(_shape_counts(shapes), expected)
        assert p_value > 1e-3

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_shape_law_matches_scalar_rejection(self, n, variant, table):
        samples = 1500
        kernel, _ = sample_patterns(
            n, variant, samples, replica_rng(620 + n, 0),
            keep=lambda p: classify_top_shape(p, n, table),
        )
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
        patterns, attempts = sample_patterns(n, variant, 200, replica_rng(640 + n, 0))
        assert len(patterns) == 200 and attempts >= 200
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
        with pytest.raises(StepBudgetExceeded):
            sample_patterns(4, DIRECT, 10, replica_rng(0, 0), max_steps=1000)

    def test_step_budget_is_per_sample(self):
        # About 520 draws per sample at N = 3, so 1M for the whole call.
        patterns, _ = sample_patterns(3, DIRECT, 2000, replica_rng(1, 0), max_steps=10**4)
        assert len(patterns) == 2000

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            sample_patterns(0, DIRECT, 10, replica_rng(0, 0))

    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_acceptance_is_the_exact_event_probability(self, variant):
        assert ACCEPTANCE[variant] == solve_shape_distribution(variant).event_probability


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
