from __future__ import annotations

from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gasket_lerw.eraser import (
    NotACrossing,
    Skeleton,
    UnknownShape,
    _as_ids,
    _crossed_cells,
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
    incident_cells,
    neighbors,
    on_grid,
)
from gasket_lerw.walker import CrossingVariant, replica_rng, sample_crossing
from oracles import (
    coarse_grain,
    grid_level,
    has_loops_at_or_above,
    has_scale_loop,
    hitting_indices,
    is_self_avoiding,
    stack_erase,
    step_levels,
    tuple_erase_scale,
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

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sampled_path_requires_grid_endpoints(self, m):
        # A sampled path is checked on its numbering: a slice that starts or
        # ends off the level-m grid is rejected, and one that ends on it
        # reads as the same vertices as a list.
        path = sample_crossing(3, VIA, replica_rng(17, 0))
        on = [k for k, v in enumerate(path) if on_grid(v, m)]
        off = [k for k, v in enumerate(path) if not on_grid(v, m)]
        for k in off[:5] + off[-5:]:
            for cut in (path[: k + 1], path[k:]):
                with pytest.raises(ValueError):
                    erase_scale(cut, m)
                with pytest.raises(ValueError):
                    skeleton(cut, m)
        for k in on[1:6] + on[-5:]:
            cut = path[: k + 1]
            assert erase_scale(cut, m) == erase_scale(list(cut), m)
            assert skeleton(cut, m) == skeleton(list(cut), m)


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
        w = _as_ids(walk_from_dirs(dirs))
        fine, ids, top = _stage_visits(w, m + 1)
        assert ids.tolist() == w.ids[fine].tolist()
        assert fine.tolist() == hitting_indices(w, m)
        assert fine[top].tolist() == hitting_indices(w, m + 1)

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
    """Stages read the grid levels off a sampled path's numbering and keep
    it; a plain list is numbered afresh."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_every_stage_carries_its_grid_levels(self, n, variant):
        rng = replica_rng(400 + n, 0)
        for _ in range(10 if n < 6 else 2):
            p = sample_crossing(n, variant, rng)
            for m in range(n + 1):
                out = erase_to_scale(p, m)
                assert step_levels(out) == bytes(map(grid_level, out))

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


# Level-2 crossings whose stages reach the corner cases of the eraser's
# search for last visits.
STAGE_CORNER_CASES = {
    # The entry of the unit triangle at the origin recurs after every other
    # vertex of its segment but the way out.
    "entry recurs last": [
        (0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (0, 1), (0, 2), (0, 3), (0, 4)
    ],
    # The same at the top stage: the level-1 visits O, b_1, O.
    "entry recurs last at the top": [
        (0, 0), (1, 0), (2, 0), (1, 0), (0, 0), (0, 1), (0, 2), (0, 3), (0, 4)
    ],
    # From the corner b_1 round the three midpoints of the unit triangle at
    # b_1 and back: the level-1 visits fold it, so the segment of the
    # triangle at the origin holds that triangle's midpoints.
    "excursion into the neighbour": [
        (0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (2, 1), (2, 0), (1, 1), (0, 2), (0, 3), (0, 4)
    ],
    # The level-1 visits O, b_1, O, b_1, a_1 in one unit triangle: kind None
    # at stage 1 when that stage runs alone.
    "more than two visits": [
        (0, 0), (1, 0), (2, 0), (1, 0), (0, 0), (1, 0), (2, 0), (1, 1), (0, 2), (0, 3), (0, 4)
    ],
}


class TestTupleEraser:
    """The eraser on vertex ids against the staged eraser on vertex tuples
    it replaced, kept in ``oracles``: every stage's output, vertex for
    vertex and grid level for grid level."""

    @staticmethod
    def _check(p, levels=None):
        # The tuple stages run once each, from the top down.
        path = list(p)
        kept = bytes(map(grid_level, path)) if levels is None else levels
        for m in range(p[-1][1].bit_length() - 1, -1, -1):
            out = erase_to_scale(p, m)
            assert list(out) == path and step_levels(out) == kept
            if m:
                path, kept = tuple_erase_scale(path, kept, m)
        out = loop_erase(p)
        assert list(out) == path and step_levels(out) == kept

    @staticmethod
    def _check_alone(p):
        # Each stage run alone on the whole path.
        levels = bytes(map(grid_level, p))
        for m in range(1, p[-1][1].bit_length()):
            path, kept = tuple_erase_scale(list(p), levels, m)
            out = erase_scale(p, m)
            assert list(out) == path and step_levels(out) == kept

    def test_hand_built_paths(self):
        for p in HAND_BUILT:
            self._check(p)

    @pytest.mark.parametrize("name", list(STAGE_CORNER_CASES))
    def test_stage_corner_cases(self, name):
        p = STAGE_CORNER_CASES[name]
        assert all(b in neighbors(a) for a, b in zip(p, p[1:]))
        self._check(p)
        self._check_alone(p)

    def test_corner_cases_reach_their_branch(self):
        def segment(name, m):
            # The level-(m-1) visits inside the first triangle at stage m.
            p = _as_ids(STAGE_CORNER_CASES[name])
            _, ids, top = _stage_visits(p, m)
            out = top[_crossed_cells(p.xy[ids[top]])[1][0]]
            return list(map(tuple, p.xy[ids[: out + 1]].tolist()))

        assert segment("entry recurs last", 1)[-3:] == [(0, 0), (0, 1), (0, 2)]
        assert segment("entry recurs last at the top", 2)[:3] == [(0, 0), (2, 0), (0, 0)]
        assert {(3, 0), (3, 1), (2, 1)} <= set(segment("excursion into the neighbour", 1))
        (cell, _) = skeleton(STAGE_CORNER_CASES["more than two visits"], 1).entries
        assert cell.kind is None

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_stage_that_erases_nothing_returns_its_input(self, n, variant):
        rng = replica_rng(610 + n, 0)
        for _ in range(20):
            erased = loop_erase(sample_crossing(n, variant, rng))
            for m in range(1, n + 1):
                assert erase_scale(erased, m) is erased
            self._check(erased, step_levels(erased))
        w = _as_ids(HAND_BUILT[0])
        assert erase_scale(w, 1) is w and erase_scale(HAND_BUILT[0], 1) == w

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_sampled_crossings(self, n, variant):
        rng = replica_rng(400 + n, 0)
        for _ in range(40 if n < 6 else 5 if n < 7 else 2):
            p = sample_crossing(n, variant, rng)
            self._check(p, step_levels(p))

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_a_segment_holds_at_most_15_vertices(self, n, variant):
        # A triangle's 6 level-(M-1) vertices, and the 3 midpoints of the
        # neighbour at each corner that a folded excursion enters: the bound
        # that keeps the stage's search for last visits linear.
        rng = replica_rng(600 + n, 0)
        widest = 0
        for _ in range(40 if n < 6 else 5):
            path = sample_crossing(n, variant, rng)
            for m in range(n, 0, -1):
                _, ids, top = _stage_visits(path, m)
                cells = _crossed_cells(path.xy.take(ids[top], axis=0))
                for a, b in zip(*cells):
                    widest = max(widest, len(set(ids[top[a] : top[b] + 1].tolist())))
                path = erase_scale(path, m)
        assert 6 < widest <= 15


class TestPathSequence:
    """Sampled and erased paths hold vertex ids but read as sequences of
    (i, j) tuples, which the benchmark's traced check relies on."""

    @pytest.mark.parametrize("variant", [DIRECT, VIA])
    def test_paths_read_as_vertex_tuples(self, variant):
        rng = replica_rng(31, 0)
        for _ in range(30):
            raw = sample_crossing(3, variant, rng)
            for path in (raw, loop_erase(raw)):
                vertices = list(path)
                assert all(type(v) is tuple and list(map(type, v)) == [int, int] for v in vertices)
                assert len(path) == len(vertices)
                assert [path[k] for k in range(len(path))] == vertices
                assert path[-1] == vertices[-1] == apex(3) and path[0] == ORIGIN
                assert path == vertices and vertices == path and path == tuple(vertices)
                assert path != vertices[:-1] and path != vertices[::-1] and path != "path"
                assert path[2:9] == vertices[2:9] and list(path[1::3]) == vertices[1::3]
                assert step_levels(path[2:9]) == step_levels(path)[2:9]
                assert set(path) == set(vertices) and all(v in path for v in vertices)
                assert (5, 5) not in path
                assert all(b in neighbors(a) for a, b in zip(path, path[1:]))

    def test_traced_benchmark_check_passes(self, monkeypatch):
        # perfbench's traced runs check every (raw, erased) pair they see.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import checks

        rng = replica_rng(32, 0)
        for n, variant in [(1, DIRECT), (2, VIA), (4, DIRECT), (4, VIA)]:
            raw = sample_crossing(n, variant, rng)
            checks.check_erased_path(raw, loop_erase(raw), n)


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
