from __future__ import annotations

import dataclasses
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import sqrt

import numpy as np
import pytest
from scipy.stats import ks_2samp

from gasket_lerw import limit
from gasket_lerw.exact import (
    PARENT_LAWS,
    build_phi_theta,
    compose_level,
    moment_table,
    shape_table,
    spectral_data,
    type_count_mean,
)
from gasket_lerw.harness import RunConfig, _dimension_worker, chi_square
from gasket_lerw.limit import (
    ANCESTOR,
    InsufficientDepth,
    RefinedPath,
    SkeletonCell,
    box_count_dimension,
    refinement_table,
    sample_branching_counts,
    sample_limit_path,
    sample_refined_family,
)
from gasket_lerw.walker import CrossingVariant, replica_rng
from oracles import _corner, _reference_coarse_grain, _reference_projects_onto

F = Fraction


# Per-cell reference for the level-at-once sampler: one buffered uniform per
# parent in skeleton order, a linear scan of the cumulative law, and each
# child placed by its own affine map.
class _UniformSource:
    def __init__(self, rng):
        self._rng = rng
        self._buf: list[float] = []
        self._k = 0

    def draw(self) -> float:
        if self._k >= len(self._buf):
            self._buf = self._rng.random(4096).tolist()
            self._k = 0
        self._k += 1
        return self._buf[self._k - 1]


def _map_child(cell, parent):
    (ei, ej), (xi, xj), (ti, tj) = parent.entry, parent.exit, parent.third

    def place(p):
        a, b = p
        return (2 * ei + a * (ti - ei) + b * (xi - ei), 2 * ej + a * (tj - ej) + b * (xj - ej))

    return SkeletonCell(place(cell.entry), place(cell.exit), place(cell.third), cell.kind)


def _reference_family(depth, rng, table):
    # Each kind's law is read off the table rows here, not through
    # ``ShapeTable.law``, so the reference shares no selection with the sampler.
    laws = {}
    for kind in (1, 2):
        cum = []
        acc = 0.0
        for shape in table.shapes:
            p = shape.p_direct if kind == 1 else shape.p_via
            if not p:
                continue
            acc += float(p)
            cum.append((acc, [SkeletonCell(*child) for child in shape.children]))
        cum[-1] = (1.0, cum[-1][1])
        laws[kind] = cum
    uniforms = _UniformSource(rng)
    cells = (ANCESTOR,)
    counts = [(1, 0)]
    family = [(cells, tuple(counts))]
    for _ in range(depth):
        nxt = []
        for parent in cells:
            r = uniforms.draw()
            children = next(ch for cum, ch in laws[parent.kind] if r <= cum)
            nxt.extend(_map_child(child, parent) for child in children)
        cells = tuple(nxt)
        s1 = sum(1 for c in cells if c.kind == 1)
        counts.append((s1, len(cells) - s1))
        family.append((cells, tuple(counts)))
    return family


# The seven-column layout the sampler refined in before its rows went
# compact, kept as the pathwise reference: one int64 row (entry i, j, exit
# i, j, third i, j, kind) per cell, children placed by an affine map of the
# parent's three corners.
def _cell_array(cells):
    rows = [(*entry, *exit_, *third, kind) for entry, exit_, third, kind in cells]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 7)


def _cell_corners(cells):
    """Lower-left corner (i, j) of each row of a seven-column array."""
    return np.minimum(np.minimum(cells[:, 0:2], cells[:, 2:4]), cells[:, 4:6])


def _seven_column_place(frames, parents, rows, sizes):
    frame = frames[rows]
    parent = np.repeat(parents, sizes, axis=0)
    entry = parent[:, 0:2]
    to_exit = parent[:, 2:4] - entry
    to_third = parent[:, 4:6] - entry
    out = np.empty_like(frame)
    for col in (0, 2, 4):
        a, b = frame[:, col : col + 1], frame[:, col + 1 : col + 2]
        out[:, col : col + 2] = 2 * entry + a * to_third + b * to_exit
    out[:, 6] = frame[:, 6]
    return out


def _seven_column_family(depth, rng, table):
    """The seven-column arrays of levels 0..depth, drawn by the sampler's
    own ``draw`` and placed by the affine map."""
    frames = _cell_array(
        [child for v in PARENT_LAWS for _, shape in table.law(v) for child in shape.children]
    )
    law = refinement_table()
    cells = _cell_array((ANCESTOR,))
    family = [cells]
    for _ in range(depth):
        cells = _seven_column_place(frames, cells, *law.draw(cells[:, 6], rng.random(len(cells))))
        family.append(cells)
    return family


def _expand(rows):
    """A path's compact rows in the seven-column layout."""
    points = rows[:, None, 0:2].astype(np.int64) + limit.ORIENTATIONS[rows[:, 2]]
    return np.column_stack((points.reshape(-1, 6), rows[:, 3]))


def _compact(cells):
    """Compact rows of a seven-column array."""
    return limit._compact(cells[:, 0:6].reshape(-1, 3, 2), cells[:, 6])


# Per-cell reference for the array polyline: the path accumulated junction
# by junction.
def _reference_polyline(path):
    dt = float(limit.growth_rate()) ** -path.depth
    scale = 0.5**path.depth
    root3_half = sqrt(3.0) / 2.0

    def emb(p):
        return ((p[0] + 0.5 * p[1]) * scale, p[1] * root3_half * scale)

    pts = [(0.0, *emb(path.cells[0].entry))]
    t = 0.0
    for cell in path.cells:
        if cell.kind == 2:
            t += dt
            pts.append((t, *emb(cell.third)))
        t += dt
        pts.append((t, *emb(cell.exit)))
    return pts


class TestRefinementTable:
    def test_kernel_sizes(self, table):
        assert len(table.law(CrossingVariant.DIRECT)) == 7
        assert len(table.law(CrossingVariant.VIA_CORNER)) == 10

    def test_kernels_normalize(self, table):
        for variant in CrossingVariant:
            assert sum(p for p, _ in table.law(variant)) == 1

    def test_simplest_shape_has_half_mass(self, table):
        (p, shape), = [(p, s) for p, s in table.law(CrossingVariant.DIRECT) if s.shape_id == "w1"]
        assert p == F(1, 2)
        assert [kind for *_, kind in shape.children] == [1, 1]

    def test_children_chain_inside_frame(self, table):
        for variant in CrossingVariant:
            for _, shape in table.law(variant):
                cells = [SkeletonCell(*child) for child in shape.children]
                assert cells[0].entry == (0, 0)
                assert cells[-1].exit == (0, 2)
                assert all(a.exit == b.entry for a, b in zip(cells, cells[1:]))


def _use_w1_only(table, monkeypatch):
    """Switch ``limit.refinement_table`` to the shape table with its direct
    law moved onto w1 alone, so that every one-visit cell refines into two
    one-visit cells; returns that table."""
    w1_only = dataclasses.replace(
        table,
        shapes=tuple(
            dataclasses.replace(s, p_direct=F(1) if s.shape_id == "w1" else F(0))
            for s in table.shapes
        ),
    )
    law = limit._LevelLaw.of(w1_only)
    monkeypatch.setattr(limit, "refinement_table", lambda: law)
    return w1_only


def _tables(table, monkeypatch):
    """The shape table the sampler runs on: the real one, then the w1-only one."""
    yield table
    yield _use_w1_only(table, monkeypatch)


class TestSampling:
    @pytest.mark.parametrize("seed", [12094959, 1, 2, 3, 41])
    def test_matches_seven_column_reference(self, table, seed):
        # Every level of a depth-15 family, and every shallower family.
        got = sample_refined_family(15, replica_rng(seed, 0))
        want = _seven_column_family(15, replica_rng(seed, 0), table)
        for member, cells in zip(got, want, strict=True):
            assert member.rows.dtype == np.int32
            assert np.array_equal(_expand(member.rows), cells)
            assert np.array_equal(_compact(cells), member.rows)
        for depth in range(15):
            assert sample_refined_family(depth, replica_rng(seed, 0)) == got[: depth + 1]

    def test_cells_are_the_expanded_rows(self):
        for member in sample_refined_family(8, replica_rng(12094959, 0)):
            want = [
                (tuple(c[0:2]), tuple(c[2:4]), tuple(c[4:6]), c[6])
                for c in _expand(member.rows).tolist()
            ]
            assert [tuple(c) for c in member.cells] == want
            assert all(isinstance(c, SkeletonCell) for c in member.cells)

    def test_orientations_are_the_corner_permutations(self):
        corners = [(0, 0), (1, 0), (0, 1)]
        seen = {tuple(map(tuple, o)) for o in limit.ORIENTATIONS.tolist()}
        assert len(seen) == 6
        assert all(sorted(o) == sorted(corners) for o in seen)

    def test_compact_rejects_cells_that_are_not_upward_unit_triangles(self):
        for cell in ([0, 0, 1, 1, 0, 1, 1], [0, 0, 2, 0, 0, 2, 1], [1, 0, 0, 1, 1, 1, 1]):
            with pytest.raises(ValueError):
                _compact(np.array([cell]))

    @pytest.mark.parametrize("seed", [12094959, 1, 2, 3, 41])
    def test_matches_per_cell_reference(self, table, monkeypatch, seed):
        for law in _tables(table, monkeypatch):
            got = sample_refined_family(10, replica_rng(seed, 0))
            want = _reference_family(10, replica_rng(seed, 0), law)
            assert [(p.cells, p.level_counts) for p in got] == want
            for depth in (0, 3, 7):
                shallow = sample_refined_family(depth, replica_rng(seed, 0))
                assert shallow == got[: depth + 1]

    def test_law_is_built_once(self, monkeypatch):
        sample_refined_family(1, replica_rng(0, 0))
        built = []
        real = limit._LevelLaw.of
        monkeypatch.setattr(limit._LevelLaw, "of", lambda t: built.append(t) or real(t))
        sample_refined_family(4, replica_rng(0, 0))
        sample_branching_counts(4, 3, replica_rng(0, 0))
        assert built == []

    def test_depth_zero_is_the_ancestor(self):
        path = sample_limit_path(0, replica_rng(0, 0))
        assert path.cells == (ANCESTOR,)
        assert path.level_counts == ((1, 0),)
        poly = path.polyline().tolist()
        assert poly[0] == [0.0, 0.0, 0.0]
        assert poly[-1][0] == pytest.approx(1.0)
        assert (poly[-1][1], poly[-1][2]) == (pytest.approx(0.5), pytest.approx(sqrt(3) / 2))

    def test_projective_family(self):
        fam = sample_refined_family(8, replica_rng(42, 0))
        for m in range(1, 9):
            assert _reference_projects_onto(fam[m], fam[m - 1])

    def test_triangles_distinct_and_chained(self):
        fam = sample_refined_family(8, replica_rng(43, 0))
        for member in fam:
            corners = [_corner(c) for c in member.cells]
            assert len(set(corners)) == len(corners)
            assert member.repeated_junctions() == 0
            assert all(a.exit == b.entry for a, b in zip(member.cells, member.cells[1:]))
            assert member.cells[0].entry == (0, 0)
            assert member.cells[-1].exit == (0, 1 << member.depth)

    def test_same_stream_reproduces(self):
        a = sample_limit_path(6, replica_rng(7, 3))
        b = sample_limit_path(6, replica_rng(7, 3))
        assert a == b

    def test_coarse_grain_rereads_kinds_monotonically(self):
        # A two-visit parent keeps its kind when its children pass its third
        # corner and rereads as one-visit when they avoid it; both happen.
        fam = sample_refined_family(7, replica_rng(11, 0))
        changed = kept = 0
        for m in range(1, 8):
            got, _ = _reference_coarse_grain(fam[m])
            for a, b in zip(got, fam[m - 1].cells):
                assert (a.entry, a.exit, a.third) == (b.entry, b.exit, b.third)
                assert a.kind == b.kind or (b.kind, a.kind) == (2, 1)
                changed += a.kind != b.kind
                kept += a.kind == b.kind == 2
        assert changed > 0 and kept > 0


def _with_cells(member, cells):
    """``member`` with its cells replaced by a seven-column array."""
    return RefinedPath(depth=member.depth, rows=_compact(cells), level_counts=member.level_counts)


class TestArrayChecks:
    """The array polyline against its per-cell reference, path for path, and
    the per-cell coupling check against broken coarse members."""

    @pytest.mark.parametrize("seed", [12094959, 1, 2, 3, 41])
    def test_match_per_cell_reference(self, table, monkeypatch, seed):
        for _ in _tables(table, monkeypatch):
            fam = sample_refined_family(10, replica_rng(seed, 0))
            for member in fam:
                assert member.polyline().tolist() == [list(p) for p in _reference_polyline(member)]

    @pytest.fixture
    def pair(self):
        fam = sample_refined_family(7, replica_rng(11, 0))
        return fam[7], fam[6]

    def test_moved_exit_fails(self, pair):
        fine, coarse = pair
        original = _expand(coarse.rows)
        cells = original.copy()
        cells[3, 2:4], cells[3, 4:6] = original[3, 4:6], original[3, 2:4]
        assert not _reference_projects_onto(fine, _with_cells(coarse, cells))

    def test_kind_upgrade_fails(self, pair):
        # The fine chain passes the third corner of a cell the coarse member
        # records as one-visit: kinds may not go from one- to two-visit.
        fine, coarse = pair
        reread = np.array([c.kind for c in _reference_coarse_grain(fine)[0]])
        k = int(np.flatnonzero(reread == 2)[0])
        cells = _expand(coarse.rows)
        cells[k, 6] = 1
        assert not _reference_projects_onto(fine, _with_cells(coarse, cells))

    def test_two_visit_reread_as_one_visit_passes(self, pair):
        fine, coarse = pair
        reread = np.array([c.kind for c in _reference_coarse_grain(fine)[0]])
        k = int(np.flatnonzero(reread == 1)[0])
        cells = _expand(coarse.rows)
        cells[k, 6] = 2
        assert _reference_projects_onto(fine, _with_cells(coarse, cells))

    def test_cell_count_mismatch_fails(self, pair):
        fine, coarse = pair
        assert not _reference_projects_onto(fine, _with_cells(coarse, _expand(coarse.rows)[:-1]))

    def test_non_adjacent_depths_rejected(self):
        fam = sample_refined_family(3, replica_rng(11, 0))
        with pytest.raises(ValueError):
            _reference_projects_onto(fam[3], fam[1])

    def test_repeated_junction_counted(self):
        # Depth 1, the shape (0,0) (1,0) (1,1) (0,2) with its first and last
        # cells both passing their common third corner (0, 1).
        cells = np.array(
            [[0, 0, 1, 0, 0, 1, 2], [1, 0, 1, 1, 2, 0, 1], [1, 1, 0, 2, 0, 1, 2]]
        )
        path = RefinedPath(depth=1, rows=_compact(cells), level_counts=((1, 0), (1, 2)))
        assert path.repeated_junctions() == 1
        cells[2, 6] = 1
        path = RefinedPath(depth=1, rows=_compact(cells), level_counts=((1, 0), (1, 2)))
        assert path.repeated_junctions() == 0


JOINT_LAW_RUNS = [(1, 20_000), (2, 20_000), (3, 10_000), (4, 5_000)]


@lru_cache(maxsize=None)
def _joint_law(depth):
    """Phi and Theta composed to ``depth``, as float masses keyed "s1,s2".

    Cached on the depth alone: polynomials are not hashable."""
    return tuple(
        {f"{s1},{s2}": float(p) for (s1, s2), p in poly.coeffs.items()}
        for poly in compose_level(*build_phi_theta(shape_table()), depth)
    )


class TestBranchingStatistics:
    def test_one_step_offspring_frequencies(self, table):
        # 1e5 refinement draws per parent kind against the exact laws.  Each
        # parent's shape is read back from the first frame row drawn for it;
        # shapes are numbered over both laws, the one-visit law first.
        law = refinement_table()
        ids = [s.shape_id for v in PARENT_LAWS for _, s in table.law(v)]
        rng = np.random.default_rng(5)
        n = 100_000
        for kind, variant in zip((1, 2), PARENT_LAWS):
            rows, sizes = law.draw(np.full(n, kind), rng.random(n))
            shapes = np.searchsorted(law.first, rows[np.cumsum(sizes) - sizes])
            observed = Counter(ids[k] for k in shapes.tolist())
            expected = {s.shape_id: float(p) for p, s in table.law(variant)}
            _, p_value = chi_square(observed, expected)
            assert p_value > 1e-3, (kind, p_value)

    @pytest.mark.parametrize("depth,runs", JOINT_LAW_RUNS)
    def test_level_counts_follow_the_joint_law(self, depth, runs):
        # The (S1, S2) counts at an inner level of a deeper history, as a
        # box-counting fit reads them, against Phi composed to that level:
        # the levels drawn after it must not disturb it.
        counts = sample_branching_counts(depth + 2, runs, replica_rng(61, depth))
        observed = Counter(f"{s1},{s2}" for s1, s2 in counts[depth].tolist())
        _, p_value = chi_square(observed, _joint_law(depth)[0])
        assert p_value > 1e-3, p_value

    @pytest.mark.parametrize("depth,runs", JOINT_LAW_RUNS)
    @pytest.mark.parametrize("ancestor", [(1, 0), (0, 1)], ids=["one-visit", "two-visit"])
    def test_branching_counts_follow_the_joint_law(self, depth, runs, ancestor):
        # From a one-visit ancestor the counts follow Phi composed to the
        # depth, from a two-visit one Theta.
        rng = replica_rng(67, depth)
        counts = sample_branching_counts(depth, runs, rng, ancestor)[-1]
        observed = Counter(f"{s1},{s2}" for s1, s2 in counts.tolist())
        _, p_value = chi_square(observed, _joint_law(depth)[ancestor[1]])
        assert p_value > 1e-3, p_value

    @pytest.mark.parametrize("ancestor", [(1, 0), (0, 1)], ids=["one-visit", "two-visit"])
    def test_every_level_follows_the_joint_law(self, ancestor):
        # Every level m of one depth-4 history, against Phi or Theta
        # composed to m: the levels a box-counting fit reads.
        counts = sample_branching_counts(4, 5_000, replica_rng(71, ancestor[1]), ancestor)
        assert np.all(counts[0] == ancestor)
        for m in range(1, 5):
            observed = Counter(f"{s1},{s2}" for s1, s2 in counts[m].tolist())
            _, p_value = chi_square(observed, _joint_law(m)[ancestor[1]])
            assert p_value > 1e-3, (m, p_value)

    def test_population_mean_matches_matrix_power(self):
        rng = np.random.default_rng(17)
        runs = 40_000
        for depth in (1, 2, 4, 6):
            counts = sample_branching_counts(depth, runs, rng)[-1]
            want = type_count_mean(depth)
            for j in (0, 1):
                got = counts[:, j].mean()
                se = counts[:, j].std(ddof=1) / sqrt(runs)
                assert abs(got - want[j]) < 3.5 * se, (depth, j)

    def test_geometric_sampler_matches_count_sampler_mean(self):
        # The path sampler's per-level counts follow the same branching law.
        rng = replica_rng(23, 0)
        depth = 5
        counts = np.array(
            [sample_limit_path(depth, rng).s_counts() for _ in range(3000)], dtype=float
        )
        want = type_count_mean(depth)
        for j in (0, 1):
            se = counts[:, j].std(ddof=1) / sqrt(len(counts))
            assert abs(counts[:, j].mean() - want[j]) < 3.5 * se

    def test_martingale_mean_is_flat(self, eig):
        rng = np.random.default_rng(29)
        lam = float(eig.lam)
        u = (float(eig.u[0]), float(eig.u[1]))
        runs = 30_000
        base = None
        for depth in (2, 4, 8):
            counts = sample_branching_counts(depth, runs, rng)[-1]
            vals = (counts[:, 0] * u[0] + counts[:, 1] * u[1]) * lam**-depth
            se = vals.std(ddof=1) / sqrt(runs)
            if base is None:
                base = vals.mean()
            else:
                assert abs(vals.mean() - base) < 3.5 * se

    def test_branching_counts_are_pinned(self):
        # Counts at these seeds since the count sampler was written.
        counts = sample_branching_counts(6, 4, replica_rng(7, 0))[-1]
        assert counts.tolist() == [[191, 55], [140, 36], [105, 31], [98, 26]]
        counts = sample_branching_counts(3, 4, replica_rng(7, 1), ancestor=(0, 1))[-1]
        assert counts.tolist() == [[12, 2], [14, 3], [14, 4], [8, 1]]

    def test_ancestor_type_two_starts_from_via_law(self):
        rng = np.random.default_rng(31)
        counts = sample_branching_counts(1, 30_000, rng, ancestor=(0, 1))[-1]
        want = type_count_mean(1, ancestor=(0, 1))
        for j in (0, 1):
            se = counts[:, j].std(ddof=1) / sqrt(len(counts))
            assert abs(counts[:, j].mean() - want[j]) < 3.5 * se


class TestLengthStatistics:
    def test_mean_and_variance_against_moment_table(self, eig):
        # Depth-10 geometric samples of lambda**-M (S1 + 2 S2) against the
        # branching-limit mean and variance, with A7's z-scores.
        rng = replica_rng(37, 0)
        vals = np.array([sample_limit_path(10, rng).scaled_length() for _ in range(400)])
        mt = moment_table(2)
        n = len(vals)
        z_mean = (vals.mean() - float(mt.w_prime_mean)) / (vals.std(ddof=1) / sqrt(n))
        var = vals.var(ddof=1)
        centered = vals - vals.mean()
        se_var = sqrt(max((centered**4).mean() - var * var, 0.0) / n)
        z_var = (var - float(mt.w_prime_variance)) / se_var
        assert abs(z_mean) < 3.5
        assert abs(z_var) < 3.5
        assert vals.min() > 0


class TestBoxCounting:
    def test_deterministic_two_child_refinement_has_slope_one(self, table, monkeypatch):
        _use_w1_only(table, monkeypatch)
        path = sample_limit_path(8, replica_rng(0, 0))
        assert box_count_dimension(path.level_counts) == pytest.approx(1.0)
        assert path.level_counts[-1] == (2**8, 0)

    def test_insufficient_depth(self):
        with pytest.raises(InsufficientDepth):
            box_count_dimension(sample_limit_path(3, replica_rng(0, 0)).level_counts)

    def test_average_slope_near_dimension(self):
        target = float(spectral_data().dim)
        slopes = [
            box_count_dimension(sample_limit_path(10, replica_rng(50, k)).level_counts)
            for k in range(60)
        ]
        assert abs(np.mean(slopes) - target) < 0.05

    def test_dimension_slopes_match_the_geometric_sampler(self):
        # dimension's count-only slopes at depth 10 against box counting on
        # the geometric sampler's level counts, the ground truth.
        runs = 800
        config = RunConfig(command="dimension", level=10, samples=runs, seed=79)
        slopes = _dimension_worker(config, 0, runs)
        rng = replica_rng(83, 0)
        geometric = [
            box_count_dimension(sample_refined_family(10, rng)[-1].level_counts)
            for _ in range(runs)
        ]
        assert ks_2samp(slopes, geometric).pvalue > 1e-3


def test_cell_corners():
    member = sample_limit_path(6, replica_rng(3, 0))
    want = [list(_corner(c)) for c in member.cells]
    assert member.rows[:, 0:2].tolist() == want
    assert _cell_corners(_expand(member.rows)).tolist() == want
