"""Geometry tests, checked against a recursive-construction oracle.

The oracle below builds the finite gaskets the way they are defined (three
shifted copies per generation, then a mirror half) and never consults the
bit test, so membership, neighborhoods and triangle counts are verified by
two independent routes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasket_lerw import lattice
from gasket_lerw.lattice import (
    ORIGIN,
    ORIGIN_LEVEL,
    NoCommonCell,
    TriangleId,
    apex,
    cell_of_step,
    corner,
    neighbors,
    on_grid,
    up_triangle_exists,
)
from gasket_lerw.walker import by_grid_level
from oracles import euclid_sq, is_vertex, iter_vertices, neighbors_on_grid, vertex_level


def right_half_corners(n: int) -> set[tuple[int, int]]:
    """Unit up-triangle corners of generation n, by the recursive construction."""
    tris = {(0, 0)}
    for level in range(n):
        s = 1 << level
        tris = tris | {(i, j + s) for i, j in tris} | {(i + s, j) for i, j in tris}
    return tris


def doubled_corners(n: int) -> set[tuple[int, int]]:
    """Right half plus its mirror across the y-axis (unit triangle corners)."""
    right = right_half_corners(n)
    mirrored = {(-i - j - 1, j) for i, j in right}
    return right | mirrored


def oracle_neighbors(v, corners):
    """Neighbor set derived from an explicit triangle-corner collection."""
    i, j = v
    out = set()
    for c in ((i, j), (i - 1, j), (i, j - 1)):
        if c in corners:
            ci, cj = c
            out |= {(ci, cj), (ci + 1, cj), (ci, cj + 1)}
    out.discard(v)
    return out


class TestMembership:
    def test_base_triangle(self):
        assert up_triangle_exists((0, 0), 0)

    def test_central_hole(self):
        # (1, 1) is the hole in the middle of the second generation.
        assert (1, 1) not in right_half_corners(2)
        assert not up_triangle_exists((1, 1), 0)

    def test_mirror_of_base(self):
        assert ((-1) - 0 - 0, 0) == (-1, 0)
        assert up_triangle_exists((-1, 0), 0)

    @pytest.mark.parametrize("n", range(7))
    def test_bit_test_equals_recursion(self, n):
        corners = doubled_corners(n)
        lim = 1 << n
        for j in range(lim):
            for i in range(-lim, lim - j):
                assert up_triangle_exists((i, j), 0) == ((i, j) in corners), (i, j)

    def test_scaled_levels_match_scaled_corners(self):
        # A side-2**m triangle is filled iff its shrunk copy is a filled unit one.
        for m in (1, 2, 3):
            s = 1 << m
            for j in range(0, 4 * s, s):
                for i in range(-4 * s, 4 * s, s):
                    expect = up_triangle_exists((i // s, j // s), 0)
                    assert up_triangle_exists((i, j), m) == expect

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            up_triangle_exists((0, -1), 0)
        with pytest.raises(ValueError):
            up_triangle_exists((1, 0), 1)


class TestCounts:
    @pytest.mark.parametrize("n,expected", [(0, 2), (1, 6), (2, 18)])
    def test_small_generations(self, n, expected):
        assert len(doubled_corners(n)) == expected

    @pytest.mark.parametrize("n", range(9))
    def test_power_law(self, n):
        assert len(doubled_corners(n)) == 2 * 3**n


class TestNeighbors:
    @pytest.mark.parametrize(
        "v,expected",
        [
            ((0, 0), {(1, 0), (0, 1), (-1, 0), (-1, 1)}),
            ((1, 0), {(0, 0), (0, 1), (2, 0), (1, 1)}),
            ((1, 1), {(0, 1), (0, 2), (1, 0), (2, 0)}),
        ],
    )
    def test_examples_match_oracle(self, v, expected):
        corners = doubled_corners(3)
        assert oracle_neighbors(v, corners) == expected
        assert set(neighbors(v)) == expected

    def test_every_vertex_has_two_cells_and_four_neighbors(self):
        corners = doubled_corners(6)
        interior = [
            v
            for v in iter_vertices(6)
            # Exclude the outer boundary, whose triangles live in generation 7.
            if euclid_sq(v, ORIGIN) < 4**6
        ]
        assert len(interior) > 500
        for v in interior:
            assert len(lattice.incident_cells(v, 0)) == 2
            assert set(neighbors(v)) == oracle_neighbors(v, corners)

    def test_symmetry(self):
        for v in iter_vertices(4):
            if euclid_sq(v, ORIGIN) < 4**4:
                for u in neighbors(v):
                    assert v in neighbors(u)

    def test_non_vertex_rejected(self):
        assert not is_vertex((3, 3))
        assert not is_vertex((0, -1))
        with pytest.raises(ValueError):
            neighbors((3, 3))

    def test_scaled_neighbors(self):
        assert set(neighbors_on_grid((0, 0), 2)) == {
            (4, 0),
            (0, 4),
            (-4, 0),
            (-4, 4),
        }


class TestVertexLevel:
    @pytest.mark.parametrize("v,m", [((1, 0), 0), ((0, 2), 1), ((4, 0), 2)])
    def test_examples(self, v, m):
        assert vertex_level(v) == m

    def test_origin_saturates(self):
        assert vertex_level(ORIGIN, cap=5) == 5

    def test_grid_membership_is_level_threshold(self):
        for v in iter_vertices(4):
            for m in range(5):
                assert on_grid(v, m) == (vertex_level(v) >= m)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_frame_corners_have_exact_level(self, n):
        assert vertex_level(apex(n)) == n
        assert vertex_level(corner(n)) == n

    def test_grid_level_is_the_vertex_level(self):
        # The level a path's numbering carries for a vertex, both halves:
        # the oracle's, with the origin saturated at one byte.  The rows
        # come by descending level, stable within a level.
        vertices = list(iter_vertices(5))
        assert min(i for i, _ in vertices) < 0
        order, at_least = by_grid_level(np.array(vertices))
        levels = [vertex_level(v, cap=ORIGIN_LEVEL) for v in vertices]
        assert order.tolist() == sorted(range(len(vertices)), key=lambda k: -levels[k])
        assert at_least == tuple(sum(lv >= m for lv in levels) for m in range(ORIGIN_LEVEL + 1))



class TestCellOfStep:
    def test_examples(self):
        assert cell_of_step((0, 0), (0, 1), 0) == TriangleId((0, 0), 0)
        assert cell_of_step((0, 0), (2, 0), 1) == TriangleId((0, 0), 1)
        assert cell_of_step((2, 0), (1, 1), 0) == TriangleId((1, 0), 0)

    def test_no_common_cell(self):
        with pytest.raises(NoCommonCell):
            cell_of_step((0, 0), (2, 0), 0)

    def test_unique_over_coarse_edges(self):
        # Every coarse step from a grid vertex lands in exactly one filled cell.
        for m in (0, 1, 2):
            for v in [(0, 0), (1 << m, 0), (0, 1 << m), (-(1 << m), 0)]:
                for u in neighbors_on_grid(v, m):
                    cell = cell_of_step(v, u, m)
                    assert cell.contains(v) and cell.contains(u)
                    assert up_triangle_exists(cell.corner, m)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_incident_cell_search(self, m):
        # Over all pairs of distinct grid vertices of a doubled generation-4
        # region, the lower-left-corner lookup finds exactly the cell that a
        # search over the filled cells incident to u finds, and raises
        # NoCommonCell exactly when that search finds none.
        s, n = 1 << m, 1 << 4
        cells = [
            TriangleId((i, j), m)
            for j in range(0, n, s)
            for i in range(-n, n, s)
            if up_triangle_exists((i, j), m)
        ]
        grid = sorted({c for cell in cells for c in cell.corners()})
        shared = 0
        for u in grid:
            for v in grid:
                if u == v:
                    continue
                found = [c for c in lattice.incident_cells(u, m) if c.contains(v)]
                assert len(found) <= 1
                if found:
                    assert cell_of_step(u, v, m) == found[0]
                    shared += 1
                else:
                    with pytest.raises(NoCommonCell):
                        cell_of_step(u, v, m)
        assert shared == 6 * len(cells)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_walks_stay_on_vertices(dirs):
    v = ORIGIN
    for d in dirs:
        v = neighbors(v)[d]
        assert is_vertex(v)
