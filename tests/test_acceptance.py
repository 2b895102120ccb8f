"""Acceptance suite: one test per criterion, printed pass lines included.

Statistical thresholds here are the repo conventions (p > 0.001 chi-square
gates, 3-sigma bands) at the stated sample sizes; exact claims are asserted
as exact equalities of rationals.  Run with ``pytest -s`` to see the lines.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import sqrt

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from gasket_lerw import eraser, exact, harness, limit
from gasket_lerw.eraser import chronological_erase, loop_erase, skeleton
from gasket_lerw.harness import chi_square, classify_top_shape
from gasket_lerw.walker import CrossingVariant, attempt_crossing, replica_rng, sample_crossing
from oracles import _reference_projects_onto, coarse_grain, is_self_avoiding

F = Fraction
DIRECT = CrossingVariant.DIRECT
VIA = CrossingVariant.VIA_CORNER

DIRECT_MASSES = [F(1, 2), F(2, 15), F(2, 15), F(1, 30), F(1, 30), F(1, 30), F(2, 15)]
VIA_MASSES = [
    F(1, 9),
    F(11, 90),
    F(11, 90),
    F(2, 45),
    F(2, 45),
    F(2, 45),
    F(8, 45),
    F(2, 9),
    F(1, 18),
    F(1, 18),
]


def test_a1_exact_shape_laws():
    started = time.perf_counter()
    direct = exact.solve_shape_distribution(DIRECT)
    via = exact.solve_shape_distribution(VIA)
    table = exact.shape_table()
    elapsed = time.perf_counter() - started

    assert direct.event_probability == F(1, 4)
    assert via.event_probability == F(1, 16)
    assert [s.p_direct for s in table.shapes[:7]] == DIRECT_MASSES
    assert all(s.p_direct == 0 for s in table.shapes[7:])
    assert [s.p_via for s in table.shapes] == VIA_MASSES
    assert elapsed < 1.0
    print(f"\nA1 PASS: 7+10 exact shape masses reproduced ({elapsed:.3f}s)")


def test_a2_generating_functions(table):
    started = time.perf_counter()
    phi, theta = exact.build_phi_theta(table)
    assert phi == exact.PHI_REFERENCE
    assert theta == exact.THETA_REFERENCE
    assert phi(F(1), F(1)) == 1 and theta(F(1), F(1)) == 1
    for n in (1, 2, 3, 4):
        pn, tn = exact.compose_level(phi, theta, n)
        assert pn(F(1), F(1)) == 1
        assert tn(F(1), F(1)) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"A2 PASS: generating functions exact, composed mass 1 to level 4 ({elapsed:.3f}s)")


def test_a3_spectral_data(phi_theta, eig):
    started = time.perf_counter()
    m = exact.mean_matrix(*phi_theta)
    # Second column (2/5, 13/15): the only values compatible with the
    # eigenvalue pair asserted just below.
    assert m == ((F(9, 5), F(2, 5)), (F(26, 15), F(13, 15)))
    with mpmath.workdps(60):
        root = mpmath.sqrt(mpf(205))
        assert abs(eig.lam - (20 + root) / 15) < mpf(10) ** -30
        assert abs(eig.lam_prime - (20 - root) / 15) < mpf(10) ** -30
        assert abs(eig.dim - mpf("1.1939")) < 2e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"A3 PASS: mean matrix + lambda={float(eig.lam):.6f}, "
        f"dim={float(eig.dim):.6f} ({elapsed:.3f}s)"
    )


def test_a4_sampler_against_exact_level_one(table):
    n_attempts = 100_000
    rng = replica_rng(2024, 0)
    acc = sum(attempt_crossing(1, DIRECT, rng) is not None for _ in range(n_attempts)) / n_attempts
    sd = sqrt(0.25 * 0.75 / n_attempts)
    assert abs(acc - 0.25) < 3 * sd
    acc_via = (
        sum(attempt_crossing(1, VIA, rng) is not None for _ in range(n_attempts)) / n_attempts
    )
    p = 1 / 16
    sd_via = sqrt(p * (1 - p) / n_attempts)
    assert abs(acc_via - p) < 3 * sd_via

    n = 100_000
    p_values = {}
    for variant in (DIRECT, VIA):
        counts: dict[str, int] = {}
        for _ in range(n):
            path = sample_crossing(1, variant, rng)
            sid = eraser.classify_shape(loop_erase(path), table)
            counts[sid] = counts.get(sid, 0) + 1
        expected = {k: float(v) for k, v in table.column(variant).items()}
        _, p_value = chi_square(counts, expected)
        assert p_value > 1e-3
        p_values[variant.value] = p_value
    print(
        f"A4 PASS: acceptance {acc:.4f}/{acc_via:.4f}, shape chi-square p="
        f"{p_values['direct']:.3f}/{p_values['via-corner']:.3f} at 1e5 samples"
    )


def test_a5_recursion_consistency(table):
    n = 10_000
    rng = replica_rng(515, 0)
    counts: dict[str, int] = {}
    svals = np.empty((n, 2))
    for k in range(n):
        path = sample_crossing(2, DIRECT, rng)
        sid = classify_top_shape(coarse_grain(path, 1), 2, table)
        counts[sid] = counts.get(sid, 0) + 1
        svals[k] = skeleton(loop_erase(path), 0).s_counts()
    expected = {k: float(v) for k, v in table.column(DIRECT).items()}
    _, p_value = chi_square(counts, expected)
    assert p_value > 1e-3

    want = exact.type_count_mean(2)  # (1, 0) M^2, exact rationals
    zs = []
    for j in (0, 1):
        se = svals[:, j].std(ddof=1) / sqrt(n)
        z = (svals[:, j].mean() - float(want[j])) / se
        zs.append(z)
        assert abs(z) < 3.0
    print(f"A5 PASS: level-2 shape law p={p_value:.3f}, (s1, s2) z=({zs[0]:.2f}, {zs[1]:.2f})")


def test_a6_length_scaling(eig):
    lam = float(eig.lam)
    rng = replica_rng(606, 0)
    n = 1000
    means = {}
    for level in (3, 4, 5, 6):
        total = 0
        for _ in range(n):
            path = sample_crossing(level, DIRECT, rng)
            total += len(loop_erase(path)) - 1
        means[level] = total / n
    ratios = [means[k + 1] / means[k] for k in (3, 4, 5)]
    for r in ratios:
        assert abs(r / lam - 1) < 0.05
    pretty = ", ".join(f"{r:.3f}" for r in ratios)
    print(f"A6 PASS: erased-length ratios ({pretty}) within 5% of lambda={lam:.5f}")


def test_a7_branching_limit(eig):
    runs = 10_000
    depth = 12
    rng = np.random.default_rng(np.random.SeedSequence(entropy=707))
    counts = limit.sample_branching_counts(depth, runs, rng)[-1]
    lam = float(eig.lam)
    vals = (counts[:, 0] + 2 * counts[:, 1]) * lam**-depth

    mt = exact.moment_table(2)
    want_mean = float(mt.w_prime_mean)  # (v1 + 2 v2) u1 / (v . u)
    want_var = float(mt.w_prime_variance)

    se_mean = vals.std(ddof=1) / sqrt(runs)
    z_mean = (vals.mean() - want_mean) / se_mean
    assert abs(z_mean) < 3.0

    var = vals.var(ddof=1)
    centered = vals - vals.mean()
    se_var = sqrt(max((centered**4).mean() - var * var, 0.0) / runs)
    z_var = (var - want_var) / se_var
    assert abs(z_var) < 3.0
    print(
        f"A7 PASS: depth-12 scaled length mean z={z_mean:.2f}, variance z={z_var:.2f} "
        f"(normalization E[B_i] = u_i/(v.u) validated)"
    )


def test_a8_moment_functional_equation(eig):
    started = time.perf_counter()
    mt = exact.moment_table(8)
    worst = 0.0
    remainders = []
    for t in (-0.5, -0.1, 0.1):
        r1, r2, rem = exact.functional_equation_residual(mt, t)
        worst = max(worst, float(r1), float(r2))
        remainders.append(float(rem))
    assert worst < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"A8 PASS: K=8 fixed-point residual {worst:.2e} < 1e-9 "
        f"(truncation remainder estimates up to {max(remainders):.1e}) ({elapsed:.3f}s)"
    )


def test_a9_limit_path_properties(eig):
    depth = 10
    slopes = []
    for k in range(100):
        family = limit.sample_refined_family(depth, replica_rng(909, k))
        for m in range(1, depth + 1):
            assert _reference_projects_onto(family[m], family[m - 1])
        for member in family:
            corners = member.rows[:, 0:2].astype(np.int64)
            keys = np.sort((corners[:, 0] << 32) | corners[:, 1])
            assert np.all(keys[1:] != keys[:-1])
            assert member.repeated_junctions() == 0
        slopes.append(limit.box_count_dimension(family[-1].level_counts))
    mean_slope = float(np.mean(slopes))
    assert abs(mean_slope - 1.1939) < 0.05
    print(
        "A9 PASS: 100 coupled depth-10 families projective, distinct cells, no repeated"
        f" junction, slope {mean_slope:.4f}"
    )


def test_a10_operator_laws():
    rng = replica_rng(1010, 0)
    checked = flips = 0
    for level in (2, 3):
        for _ in range(1000):
            path = sample_crossing(level, DIRECT, rng)
            erased = loop_erase(path)
            assert is_self_avoiding(erased)
            assert loop_erase(erased) == erased
            s1, s2 = skeleton(erased, 0).s_counts()
            assert len(erased) - 1 == s1 + 2 * s2
            for k in range(1, level):
                stage = skeleton(eraser.erase_to_scale(path, k), k)
                final = skeleton(erased, k)
                assert stage.triangles() == final.triangles()
                for a, b in zip(stage.entries, final.entries):
                    assert (a.entry, a.exit) == (b.entry, b.exit)
                    assert a.kind == b.kind or (a.kind, b.kind) == (2, 1)
                    flips += a.kind != b.kind
            checked += 1
    assert checked == 2000 and flips > 0
    print(f"A10 PASS: idempotence, self-avoidance, skeleton invariance on {checked} paths")
