from __future__ import annotations

from collections import Counter
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gasket_lerw.eraser import (
    NotACrossing,
    Skeleton,
    UnknownShape,
    _stage_visits,
    chronological_erase,
    classify_shape,
    crossing_level,
    erase_scale,
    erase_to_scale,
    loop_erase,
    skeleton,
)
from gasket_lerw.exact import PARENT_LAWS, compose_level
from gasket_lerw.harness import chi_square
from gasket_lerw.lattice import (
    ORIGIN,
    TriangleId,
    apex,
    corner,
    grid_level,
    incident_cells,
    neighbors,
)
from gasket_lerw.walker import CrossingVariant, replica_rng, sample_crossing
from oracles import (
    coarse_grain,
    has_loops_at_or_above,
    has_scale_loop,
    hitting_indices,
    is_self_avoiding,
    stack_erase,
)

DIRECT = CrossingVariant.DIRECT
VIA = CrossingVariant.VIA_CORNER
# Origin to apex, but back at the origin after the right corner: the
# level-1 visits O, b_1, O, a_1 are no crossing pattern.
_BACK_TO_ORIGIN = [(0, 0), (1, 0), (2, 0), (1, 0), (0, 0), (0, 1), (0, 2)]


def walk_from_dirs(dirs):
    path = [ORIGIN]
    for d in dirs:
        path.append(neighbors(path[-1])[d])
    return path


class TestChronologicalErase:
    def test_single_loop(self):
        w = [(0, 0), (1, 0), (0, 1), (1, 0), (1, 1)]
        assert chronological_erase(w) == [(0, 0), (1, 0), (1, 1)]

    def test_identity_on_self_avoiding(self):
        w = [(0, 0), (1, 0), (1, 1), (0, 2)]
        assert chronological_erase(w) == w

    def test_exhaustive_four_steps_matches_stack_erasure(self):
        # All 4**4 short walks: the last-occurrence jump rule and the stack
        # rule are two definitions of the same map.
        for dirs in product(range(4), repeat=4):
            w = walk_from_dirs(dirs)
            assert chronological_erase(w) == stack_erase(w)

    @given(st.lists(st.integers(0, 3), min_size=0, max_size=60))
    def test_random_walks_match_and_are_self_avoiding(self, dirs):
        w = walk_from_dirs(dirs)
        e = chronological_erase(w)
        assert e == stack_erase(w)
        assert is_self_avoiding(e)
        assert e[0] == w[0] and e[-1] == w[-1]
        assert chronological_erase(e) == e


class TestSkeleton:
    def test_two_one_visit_cells(self):
        sk = skeleton([(0, 0), (0, 1), (0, 2)], 0)
        assert [(e.triangle, e.kind) for e in sk.entries] == [
            (TriangleId((0, 0), 0), 1),
            (TriangleId((0, 1), 0), 1),
        ]
        assert sk.s_counts() == (2, 0)

    def test_two_visit_then_one_visit(self):
        sk = skeleton([(0, 0), (1, 0), (0, 1), (0, 2)], 0)
        assert [(e.triangle, e.kind) for e in sk.entries] == [
            (TriangleId((0, 0), 0), 2),
            (TriangleId((0, 1), 0), 1),
        ]

    def test_single_doubled_cell(self):
        sk = skeleton([(0, 0), (1, 0), (1, 1), (0, 2)], 1)
        assert [(e.triangle, e.kind) for e in sk.entries] == [(TriangleId((0, 0), 1), 1)]

    def test_entries_chain_and_exit_indices_increase(self):
        rng = replica_rng(12, 0)
        for _ in range(50):
            p = sample_crossing(2, VIA, rng)
            sk = skeleton(p, 1)
            assert all(a.exit == b.entry for a, b in zip(sk.entries, sk.entries[1:]))
            idx = [e.exit_index for e in sk.entries]
            assert idx == sorted(idx) and len(set(idx)) == len(idx)
            assert idx[-1] == len(p) - 1

    def test_requires_grid_endpoints(self):
        with pytest.raises(ValueError):
            skeleton([(0, 0), (1, 0)], 1)


class TestEraseScale:
    def test_self_avoiding_input_is_fixed(self):
        w = [(0, 0), (1, 0), (1, 1), (0, 2)]
        assert erase_scale(w, 1) == w

    def test_top_stage_makes_coarse_view_loop_free(self):
        rng = replica_rng(13, 0)
        for _ in range(200):
            p = sample_crossing(2, DIRECT, rng)
            staged = erase_scale(p, 2)
            assert is_self_avoiding(coarse_grain(staged, 1))
            # The fully coarse structure is untouched.
            assert coarse_grain(staged, 2) == coarse_grain(p, 2)


class TestLoopErase:
    def test_identity_on_self_avoiding(self):
        w = [(0, 0), (1, 0), (1, 1), (0, 2)]
        assert loop_erase(w) == w

    def test_unit_level_equals_chronological(self):
        # The staged operator degenerates to plain chronological erasure at
        # the bottom level; checked on ten thousand draws of each variant.
        rng = replica_rng(15, 0)
        for variant in (DIRECT, VIA):
            for _ in range(10_000):
                p = sample_crossing(1, variant, rng)
                assert loop_erase(p) == chronological_erase(p)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_idempotent_self_avoiding_and_lengths(self, n, variant):
        rng = replica_rng(16 + n, 0)
        for _ in range(300):
            p = sample_crossing(n, variant, rng)
            e = loop_erase(p)
            assert is_self_avoiding(e)
            assert e[0] == ORIGIN and e[-1] == apex(n)
            assert loop_erase(e) == e
            s1, s2 = skeleton(e, 0).s_counts()
            assert len(e) - 1 == s1 + 2 * s2

    def test_crossing_level_validation(self):
        assert crossing_level([(0, 0), (0, 1), (0, 2)]) == (1, DIRECT)
        p = [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)]
        assert crossing_level(p) == (1, VIA)
        with pytest.raises(NotACrossing):
            crossing_level([(1, 0), (0, 1)])
        with pytest.raises(NotACrossing):
            crossing_level([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(NotACrossing):
            crossing_level(_BACK_TO_ORIGIN)

    @pytest.mark.parametrize(
        "path", [[(1, 0), (0, 1)], [(0, 0), (1, 0), (2, 0)], _BACK_TO_ORIGIN]
    )
    def test_erasure_rejects_what_crossing_level_rejects(self, path):
        # The top stage checks the pattern; down_to = 1 runs no stage.
        with pytest.raises(NotACrossing):
            loop_erase(path)
        for down_to in (0, 1):
            with pytest.raises(NotACrossing):
                erase_to_scale(path, down_to)

    def test_skeleton_invariance_across_stages(self):
        # Once a scale is erased its skeleton never changes: triangles and
        # entry/exit points frozen, kinds at most flip two-visit -> one-visit.
        rng = replica_rng(19, 0)
        flips = 0
        for _ in range(300):
            p = sample_crossing(2, DIRECT, rng)
            stage = skeleton(erase_to_scale(p, 1), 1)
            final = skeleton(loop_erase(p), 1)
            assert stage.triangles() == final.triangles()
            for a, b in zip(stage.entries, final.entries):
                assert (a.entry, a.exit) == (b.entry, b.exit)
                assert a.kind == b.kind or (a.kind, b.kind) == (2, 1)
                flips += a.kind != b.kind
        assert flips > 0  # the flip is a real phenomenon, not a dead branch

    @pytest.mark.parametrize("n,runs", [(3, 4000), (4, 2000), (5, 800)])
    @pytest.mark.parametrize("variant", PARENT_LAWS)
    def test_depth_two_skeleton_follows_the_joint_law(self, n, runs, variant, phi_theta):
        # The level-(n-2) skeleton counts of a level-n crossing, read right
        # after the stage that erases that scale, against Phi (direct) or
        # Theta (via-corner) composed twice.  Later stages may reread a
        # two-visit cell as one-visit, so the fully erased path would not do.
        law = compose_level(*phi_theta, 2)[PARENT_LAWS.index(variant)]
        rng = replica_rng(71, n)
        observed: Counter[str] = Counter()
        for _ in range(runs):
            path = erase_to_scale(sample_crossing(n, variant, rng), n - 2)
            s1, s2 = skeleton(path, n - 2).s_counts()
            observed[f"{s1},{s2}"] += 1
        expected = {f"{s1},{s2}": float(p) for (s1, s2), p in law.coeffs.items()}
        _, p_value = chi_square(observed, expected)
        assert p_value > 1e-3, p_value


def _two_scan_skeleton(path, level):
    """Reference skeleton: (triangle, entry index, exit index) per crossed
    cell, from one scan at the skeleton's level and a search over the cells
    incident to each entry."""
    ht = hitting_indices(path, level)
    out, n, m = [], 0, len(ht) - 1
    while n < m:
        u, v = path[ht[n]], path[ht[n + 1]]
        (tri,) = [c for c in incident_cells(u, level) if c.contains(v)]
        j = n + 1
        while j < m and tri.contains(path[ht[j + 1]]):
            j += 1
        out.append((tri, ht[n], ht[j]))
        n = j
    return out


def _two_scan_erase_scale(path, level):
    """Reference stage: the skeleton scan, then a copy of each triangle's
    segment scanned again one level down and chronologically erased."""
    out = [path[0]]
    prev = 0
    for _, _, exit_index in _two_scan_skeleton(path, level):
        seg = list(path[prev : exit_index + 1])
        prev = exit_index
        ht = hitting_indices(seg, level - 1)
        coarse = [seg[t] for t in ht]
        last = {v: k for k, v in enumerate(coarse)}
        keep = [last[coarse[0]]]
        while keep[-1] < len(coarse) - 1:
            keep.append(last[coarse[keep[-1] + 1]])
        first = True
        for i in range(len(keep) - 1):
            chunk = seg[ht[keep[i]] : ht[keep[i] + 1]]
            out.extend(chunk[1:] if first else chunk)
            first = False
        out.append(seg[ht[keep[-1]]])
    return out


HAND_BUILT = [
    [(0, 0), (1, 0), (1, 1), (0, 2)],
    [(0, 0), (1, 0), (0, 1), (0, 2)],
    [(0, 0), (1, 0), (0, 1), (1, 0), (1, 1), (0, 2)],
    [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)],
    [(0, 0), (1, 0), (0, 1), (1, 0), (0, 1), (1, 1), (0, 2)],
]


class TestOneScanStage:
    """The stage that scans the path once against the two-scan stage it
    replaced, output for output."""

    def _check(self, p):
        n = (p[-1][1]).bit_length() - 1
        ref = list(p)
        assert erase_to_scale(p, n) == ref
        for m in range(n, 0, -1):
            assert [(e.triangle, e.exit_index) for e in skeleton(ref, m).entries] == [
                (tri, x) for tri, _, x in _two_scan_skeleton(ref, m)
            ]
            ref = _two_scan_erase_scale(ref, m)
            assert erase_to_scale(p, m - 1) == ref
        assert loop_erase(p) == ref

    @given(st.lists(st.integers(0, 3), max_size=80), st.integers(0, 3))
    def test_stage_scan_is_the_hitting_scan(self, dirs, m):
        # One scan gives the once-in-a-row visits of two grids: a stage
        # reads both, and ``skeleton`` and ``crossing_level`` the finer one.
        w = walk_from_dirs(dirs)
        fine, top = _stage_visits(w, m + 1)
        assert fine == hitting_indices(w, m)
        assert [fine[k] for k in top] == hitting_indices(w, m + 1)

    def test_hand_built_paths(self):
        for p in HAND_BUILT:
            self._check(p)
            assert erase_scale(p, 1) == _two_scan_erase_scale(p, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_sampled_crossings(self, n, variant):
        rng = replica_rng(90 + n, 0)
        for _ in range(200):
            self._check(sample_crossing(n, variant, rng))


class TestCarriedLevels:
    """Stages read the grid levels a sampled path carries and pass them on
    sliced with the path; a plain list has them recomputed."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_every_stage_carries_its_grid_levels(self, n, variant):
        rng = replica_rng(400 + n, 0)
        for _ in range(10 if n < 6 else 2):
            p = sample_crossing(n, variant, rng)
            for m in range(n + 1):
                out = erase_to_scale(p, m)
                assert out.levels == bytes(map(grid_level, out))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_carried_and_recomputed_levels_agree(self, n, variant):
        rng = replica_rng(500 + n, 0)
        for _ in range(10 if n < 5 else 3):
            p = sample_crossing(n, variant, rng)
            plain = list(p)
            assert crossing_level(p) == crossing_level(plain)
            for m in range(n + 1):
                out = erase_to_scale(p, m)
                assert out == erase_to_scale(plain, m)
                assert skeleton(p, m) == skeleton(plain, m)
                assert skeleton(out, m) == skeleton(list(out), m)


class TestScaleLoopPredicate:
    def test_explicit_unit_scale_loop(self):
        w = [(0, 0), (1, 0), (0, 1), (1, 0), (1, 1), (0, 2)]
        # Loop based at (1, 0), a level-0 vertex, diameter 1.
        assert has_scale_loop(w, 0, working_level=1)
        assert not has_scale_loop(w, 1, working_level=1)

    def test_erased_paths_have_no_scale_loops(self):
        rng = replica_rng(21, 0)
        for _ in range(100):
            p = sample_crossing(2, DIRECT, rng)
            e = loop_erase(p)
            for m in range(3):
                assert not has_scale_loop(e, m, working_level=2)

    def test_partial_erasure_kills_scales_top_down(self):
        rng = replica_rng(22, 0)
        for _ in range(150):
            p = sample_crossing(3, DIRECT, rng)
            staged = erase_to_scale(p, 1)
            assert not has_loops_at_or_above(staged, 1)
            # Scale-classified loops at the erased levels are gone too.
            for m in (1, 2, 3):
                assert not has_scale_loop(staged, m, working_level=3)


class TestClassifyShape:
    def test_named_shapes(self, table):
        assert classify_shape([(0, 0), (0, 1), (0, 2)], table) == "w1"
        assert classify_shape([(0, 0), (1, 0), (1, 1), (0, 2)], table) == "w7"
        assert classify_shape([(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)], table) == "w8"

    def test_shape_statistics(self, table):
        w8 = table.by_id["w8"]
        assert (w8.s1, w8.s2) == (2, 1)
        w7 = table.by_id["w7"]
        assert (w7.s1, w7.s2) == (3, 0)

    def test_unknown_shape(self, table):
        with pytest.raises(UnknownShape):
            classify_shape([(0, 0), (1, 0), (0, 1), (0, 2), (0, 3)], table)

    def test_lazy_table_lookup(self):
        assert classify_shape([(0, 0), (0, 1), (0, 2)]) == "w1"


def test_skeleton_type_counts_reject_multi_visit():
    # A loopy path can revisit a cell more than twice; s-counts then refuse.
    w = [(0, 0), (1, 0), (0, 1), (1, 0), (0, 1), (1, 1), (0, 2)]
    sk = skeleton(w, 0)
    if any(e.kind is None for e in sk.entries):
        with pytest.raises(ValueError):
            sk.s_counts()
    else:
        sk.s_counts()


def test_skeleton_dataclass_shape():
    sk = Skeleton(level=0, entries=())
    assert sk.triangles() == ()
