from __future__ import annotations

from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from gasket_lerw import limit
from gasket_lerw.exact import moment_table, spectral_data, type_count_mean
from gasket_lerw.harness import chi_square
from gasket_lerw.limit import (
    ANCESTOR,
    InsufficientDepth,
    RefinementKernels,
    RefinedPath,
    SkeletonCell,
    box_count_dimension,
    cell_corners,
    coarse_grain_refined,
    projects_onto,
    refinement_table,
    sample_branching_counts,
    sample_limit_path,
    sample_refined_family,
)
from gasket_lerw.walker import replica_rng

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


def _reference_family(depth, rng, kernels):
    laws = {}
    for kind in (1, 2):
        cum = []
        acc = 0.0
        for p, shape in kernels.law(kind):
            acc += float(p)
            cum.append((acc, shape.children))
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


# Per-cell references for the array checks: coarse-graining one cell at a
# time, the projective check on the tuples it returns, and the polyline
# accumulated junction by junction.
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
    """(cells, level_counts) of ``coarse_grain_refined(path)``."""
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
    def test_kernel_sizes(self, kernels):
        assert len(kernels.type_one) == 7
        assert len(kernels.type_two) == 10

    def test_kernels_normalize(self, kernels):
        assert sum(p for p, _ in kernels.type_one) == 1
        assert sum(p for p, _ in kernels.type_two) == 1

    def test_simplest_shape_has_half_mass(self, kernels):
        (p, shape), = [(p, s) for p, s in kernels.type_one if s.shape_id == "w1"]
        assert p == F(1, 2)
        assert [c.kind for c in shape.children] == [1, 1]

    def test_children_chain_inside_frame(self, kernels):
        for law in (kernels.type_one, kernels.type_two):
            for _, shape in law:
                cells = shape.children
                assert cells[0].entry == (0, 0)
                assert cells[-1].exit == (0, 2)
                assert all(a.exit == b.entry for a, b in zip(cells, cells[1:]))


def _deterministic_kernels(kernels):
    w1 = next(s for p, s in kernels.type_one if s.shape_id == "w1")
    return RefinementKernels(type_one=((F(1), w1),), type_two=kernels.type_two)


class TestSampling:
    @pytest.mark.parametrize("seed", [12094959, 1, 2, 3, 41])
    def test_matches_per_cell_reference(self, kernels, seed):
        for law in (kernels, _deterministic_kernels(kernels)):
            got = sample_refined_family(10, replica_rng(seed, 0), law)
            want = _reference_family(10, replica_rng(seed, 0), law)
            assert [(p.cells, p.level_counts) for p in got] == want
            for depth in (0, 3, 7):
                shallow = sample_refined_family(depth, replica_rng(seed, 0), law)
                assert shallow == got[: depth + 1]

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
            assert projects_onto(fam[m], fam[m - 1])

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
            got = coarse_grain_refined(fam[m])
            for a, b in zip(got.cells, fam[m - 1].cells):
                assert (a.entry, a.exit, a.third) == (b.entry, b.exit, b.third)
                assert a.kind == b.kind or (b.kind, a.kind) == (2, 1)
                changed += a.kind != b.kind
                kept += a.kind == b.kind == 2
        assert changed > 0 and kept > 0

    def test_coarse_grain_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            coarse_grain_refined(sample_limit_path(0, replica_rng(0, 0)))


def _with_cells(member, cells):
    return RefinedPath(depth=member.depth, cell_array=cells, level_counts=member.level_counts)


class TestArrayChecks:
    """The array coarse-graining, projective check and polyline against the
    per-cell references above, path for path."""

    @pytest.mark.parametrize("seed", [12094959, 1, 2, 3, 41])
    def test_match_per_cell_reference(self, kernels, seed):
        for law in (kernels, _deterministic_kernels(kernels)):
            fam = sample_refined_family(10, replica_rng(seed, 0), law)
            for m in range(1, 11):
                got = coarse_grain_refined(fam[m])
                assert (got.cells, got.level_counts) == _reference_coarse_grain(fam[m])
                assert projects_onto(fam[m], fam[m - 1])
                assert _reference_projects_onto(fam[m], fam[m - 1])
            for member in fam:
                assert member.polyline().tolist() == [list(p) for p in _reference_polyline(member)]

    @pytest.fixture
    def pair(self):
        fam = sample_refined_family(7, replica_rng(11, 0))
        return fam[7], fam[6]

    @staticmethod
    def _both(fine, coarse):
        got = projects_onto(fine, coarse)
        assert got == _reference_projects_onto(fine, coarse)
        return got

    def test_moved_exit_fails(self, pair):
        fine, coarse = pair
        cells = coarse.cell_array.copy()
        cells[3, 2:4], cells[3, 4:6] = coarse.cell_array[3, 4:6], coarse.cell_array[3, 2:4]
        assert not self._both(fine, _with_cells(coarse, cells))

    def test_kind_upgrade_fails(self, pair):
        # The fine chain passes the third corner of a cell the coarse member
        # records as one-visit: kinds may not go from one- to two-visit.
        fine, coarse = pair
        reread = coarse_grain_refined(fine).cell_array[:, 6]
        k = int(np.flatnonzero(reread == 2)[0])
        cells = coarse.cell_array.copy()
        cells[k, 6] = 1
        assert not self._both(fine, _with_cells(coarse, cells))

    def test_two_visit_reread_as_one_visit_passes(self, pair):
        fine, coarse = pair
        reread = coarse_grain_refined(fine).cell_array[:, 6]
        k = int(np.flatnonzero(reread == 1)[0])
        cells = coarse.cell_array.copy()
        cells[k, 6] = 2
        assert self._both(fine, _with_cells(coarse, cells))

    def test_cell_count_mismatch_fails(self, pair):
        fine, coarse = pair
        assert not self._both(fine, _with_cells(coarse, coarse.cell_array[:-1]))

    def test_non_adjacent_depths_rejected(self):
        fam = sample_refined_family(3, replica_rng(11, 0))
        for check in (projects_onto, _reference_projects_onto):
            with pytest.raises(ValueError):
                check(fam[3], fam[1])

    def test_repeated_junction_counted(self):
        # Depth 1, the shape (0,0) (1,0) (1,1) (0,2) with its first and last
        # cells both passing their common third corner (0, 1).
        cells = np.array(
            [[0, 0, 1, 0, 0, 1, 2], [1, 0, 1, 1, 2, 0, 1], [1, 1, 0, 2, 0, 1, 2]]
        )
        path = RefinedPath(depth=1, cell_array=cells, level_counts=((1, 0), (1, 2)))
        assert path.repeated_junctions() == 1
        cells[2, 6] = 1
        assert path.repeated_junctions() == 0


class TestBranchingStatistics:
    def test_one_step_offspring_frequencies(self, table):
        # 1e5 refinement draws per parent kind against the exact kernels.
        rng = np.random.default_rng(5)
        for kind in (1, 2):
            law = [
                (s.shape_id, float(s.p_direct if kind == 1 else s.p_via))
                for s in table.shapes
                if (s.p_direct if kind == 1 else s.p_via)
            ]
            probs = np.array([p for _, p in law])
            draws = rng.multinomial(100_000, probs / probs.sum())
            observed = {sid: int(c) for (sid, _), c in zip(law, draws)}
            expected = {sid: p for sid, p in law}
            _, p_value = chi_square(observed, expected)
            assert p_value > 1e-3

    def test_population_mean_matches_matrix_power(self):
        rng = np.random.default_rng(17)
        runs = 40_000
        for depth in (1, 2, 4, 6):
            counts = sample_branching_counts(depth, runs, rng)
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
            counts = sample_branching_counts(depth, runs, rng)
            vals = (counts[:, 0] * u[0] + counts[:, 1] * u[1]) * lam**-depth
            se = vals.std(ddof=1) / sqrt(runs)
            if base is None:
                base = vals.mean()
            else:
                assert abs(vals.mean() - base) < 3.5 * se

    def test_ancestor_type_two_starts_from_via_law(self):
        rng = np.random.default_rng(31)
        counts = sample_branching_counts(1, 30_000, rng, ancestor=(0, 1))
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
        mt = moment_table(2, eig)
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
    def test_deterministic_two_child_refinement_has_slope_one(self, kernels):
        path = sample_limit_path(8, replica_rng(0, 0), _deterministic_kernels(kernels))
        assert box_count_dimension(path) == pytest.approx(1.0)
        assert path.level_counts[-1] == (2**8, 0)

    def test_insufficient_depth(self):
        with pytest.raises(InsufficientDepth):
            box_count_dimension(sample_limit_path(3, replica_rng(0, 0)))

    def test_average_slope_near_dimension(self):
        target = float(spectral_data().dim)
        slopes = [
            box_count_dimension(sample_limit_path(10, replica_rng(50, k))) for k in range(60)
        ]
        assert abs(np.mean(slopes) - target) < 0.05


def test_cell_corners():
    member = sample_limit_path(6, replica_rng(3, 0))
    assert cell_corners(member.cell_array).tolist() == [list(_corner(c)) for c in member.cells]
