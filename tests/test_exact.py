from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from gasket_lerw import eraser, exact
from gasket_lerw.exact import (
    PHI_REFERENCE,
    THETA_REFERENCE,
    BivariatePoly,
    CompositionCapExceeded,
    GeneratingFunctionMismatch,
    CrossingLaw,
    build_phi_theta,
    compose_level,
    eigen_data,
    exact_report,
    functional_equation_residual,
    length_mean,
    length_variance,
    mat_pow,
    mean_matrix,
    moment_table,
    shape_table,
    solve_shape_distribution,
    spectral_data,
    type_count_mean,
)
from gasket_lerw.walker import CrossingVariant, replica_rng, sample_crossing
from oracles import enumerate_self_avoiding_crossings

F = Fraction

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


class TestShapeLaws:
    def test_event_probabilities(self):
        assert solve_shape_distribution(CrossingVariant.DIRECT).event_probability == F(1, 4)
        assert solve_shape_distribution(CrossingVariant.VIA_CORNER).event_probability == F(1, 16)

    def test_direct_masses(self, table):
        assert [s.p_direct for s in table.shapes[:7]] == DIRECT_MASSES
        assert all(s.p_direct == 0 for s in table.shapes[7:])

    def test_via_masses(self, table):
        assert [s.p_via for s in table.shapes] == VIA_MASSES

    def test_columns_normalize(self, table):
        assert sum(s.p_direct for s in table.shapes) == 1
        assert sum(s.p_via for s in table.shapes) == 1

    def test_supports_match_enumeration_oracle(self, table):
        direct_support = {s.path for s in table.shapes if s.p_direct}
        via_support = {s.path for s in table.shapes if s.p_via}
        assert direct_support == enumerate_self_avoiding_crossings(allow_corner=False)
        assert via_support == enumerate_self_avoiding_crossings(allow_corner=True)
        assert direct_support < via_support

    def test_shapes_are_self_avoiding_crossings(self, table):
        from oracles import is_self_avoiding

        for s in table.shapes:
            assert is_self_avoiding(s.path)
            assert s.path[0] == (0, 0) and s.path[-1] == (0, 2)
            assert len(s.path) - 1 == s.s1 + 2 * s.s2

    def test_column_is_the_law(self, table):
        for variant in CrossingVariant:
            law = table.law(variant)
            assert table.column(variant) == {s.shape_id: p for p, s in law}
            positions = [table.shapes.index(s) for _, s in law]
            assert positions == sorted(positions)

    def test_children_are_the_level_zero_skeleton(self, table):
        for s in table.shapes:
            kinds = [kind for *_, kind in s.children]
            assert (kinds.count(1), kinds.count(2)) == (s.s1, s.s2)
            assert s.children[0][0] == (0, 0) and s.children[-1][1] == (0, 2)
            assert all(a[1] == b[0] for a, b in zip(s.children, s.children[1:]))
            entries = eraser.skeleton(s.path, 0).entries
            assert s.children == tuple((e.entry, e.exit, e.third_corner, e.kind) for e in entries)


def _plain_substitute(outer, px, py):
    """Ground truth for composition: x -> px, y -> py on coefficient dicts,
    term by term in Fractions, sharing no code with the exact layer."""

    def mul(p, q):
        out = {}
        for (a, b), c in p.items():
            for (a2, b2), c2 in q.items():
                key = (a + a2, b + b2)
                out[key] = out.get(key, F(0)) + c * c2
        return out

    def power(p, n):
        out = {(0, 0): F(1)}
        for _ in range(n):
            out = mul(out, p)
        return out

    total = {}
    for (a, b), c in outer.items():
        for key, v in mul(power(px, a), power(py, b)).items():
            total[key] = total.get(key, F(0)) + c * v
    return {k: v for k, v in total.items() if v}


def _both_products(monkeypatch):
    """Run a block twice: as the package runs it, where small packed
    products take int * int, then with every packed product on _fft_mul."""
    for threshold in (exact.FFT_MIN_BITS, 0):
        monkeypatch.setattr(exact, "FFT_MIN_BITS", threshold)
        yield threshold


def _signed(rng, nbits):
    """A nonzero int of exactly `nbits` bits with a random sign."""
    value = rng.getrandbits(nbits) | 1 << (nbits - 1)
    return value if rng.random() < 0.5 else -value


class TestFftProduct:
    def test_random_signed_factors(self):
        rng = random.Random(20121)
        edge = exact.FFT_MIN_BITS
        widths = [(1, 1), (8, 8), (9, 17), (edge - 8, edge), (edge, edge + 1), (edge + 8, edge + 9)]
        # The convolution has la + lb - 1 limbs: land it on, just below and
        # just above a power-of-two FFT length, with odd byte counts.
        for la in (2**12 - 1, 2**12 + 1, 2**14 + 3):
            for lb in (la, la + 1, la + 2, la + 3):
                widths.append((8 * la, 8 * lb))
        for wa, wb in widths:
            for _ in range(3):
                a, b = _signed(rng, wa), _signed(rng, wb)
                assert exact._fft_mul(a, b) == a * b
                assert exact._fft_mul(b, a) == a * b

    @pytest.mark.parametrize("nbits", [500_001, 1_000_000])
    def test_all_ones_factors(self, nbits):
        # Every limb 0xFF gives the largest convolution sums, hence the
        # widest rounding margin needed.
        ones = (1 << nbits) - 1
        assert exact._fft_mul(ones, ones) == ones * ones
        assert exact._fft_mul(-ones, ones >> 3) == -ones * (ones >> 3)


class TestGeneratingFunctions:
    def test_reference_forms(self, phi_theta):
        phi, theta = phi_theta
        assert phi == PHI_REFERENCE
        assert theta == THETA_REFERENCE

    def test_normalization(self, phi_theta):
        phi, theta = phi_theta
        assert phi(F(1), F(1)) == 1
        assert theta(F(1), F(1)) == 1

    def test_minimum_degree_two_and_nonnegative(self, phi_theta):
        # Every offspring draw yields at least two cells; this is what makes
        # the limit variables almost surely positive.
        phi, theta = phi_theta
        assert all(c > 0 for c in phi.coeffs.values())
        assert all(c > 0 for c in theta.coeffs.values())

    def test_mismatch_is_fatal(self, table):
        import dataclasses

        bad = dataclasses.replace(
            table.shapes[0], p_direct=table.shapes[0].p_direct + F(1, 90)
        )
        tampered = exact.ShapeTable(shapes=(bad,) + table.shapes[1:])
        with pytest.raises(GeneratingFunctionMismatch):
            build_phi_theta(tampered)

    def test_composition_base_and_normalization(self, phi_theta):
        phi, theta = phi_theta
        p1, t1 = compose_level(phi, theta, 1)
        assert p1 == phi and t1 == theta
        for n in (2, 3, 4):
            pn, tn = compose_level(phi, theta, n)
            assert pn(F(1), F(1)) == 1
            assert tn(F(1), F(1)) == 1

    def test_composition_cap(self, phi_theta):
        phi, theta = phi_theta
        with pytest.raises(CompositionCapExceeded):
            compose_level(phi, theta, 5)

    def test_both_composition_orders_agree(self, phi_theta):
        # Substituting at the root or at the leaves is the same semigroup map.
        phi, theta = phi_theta
        p2, t2 = compose_level(phi, theta, 2)
        assert p2 == phi.compose(phi, theta).compose(
            BivariatePoly({(1, 0): 1}), BivariatePoly({(0, 1): 1})
        )
        assert p2 == phi.compose(phi, theta)
        assert t2 == theta.compose(phi, theta)

    def test_composition_matches_plain_fraction_substitution(self, phi_theta, monkeypatch):
        phi, theta = phi_theta
        pn, tn = phi.coeffs, theta.coeffs
        levels = []
        for n in (2, 3):
            pn, tn = _plain_substitute(phi.coeffs, pn, tn), _plain_substitute(theta.coeffs, pn, tn)
            levels.append((n, pn, tn))
        for _ in _both_products(monkeypatch):
            for n, pn, tn in levels:
                got_p, got_t = compose_level(phi, theta, n)
                assert got_p.coeffs == pn
                assert got_t.coeffs == tn

    def test_composition_with_signed_coefficients(self, monkeypatch):
        outer = {(0, 0): F(-3, 7), (0, 1): F(1, 3), (2, 1): F(5, 2), (1, 3): F(-1)}
        px = {(0, 0): F(1), (1, 0): F(-2, 3), (0, 2): F(7, 5)}
        py = {(3, 0): F(2), (1, 1): F(-1, 4)}
        x_minus_y = BivariatePoly({(1, 0): 1, (0, 1): -1})
        for _ in _both_products(monkeypatch):
            got = BivariatePoly(outer).compose(BivariatePoly(px), BivariatePoly(py))
            assert got.coeffs == _plain_substitute(outer, px, py)
            assert x_minus_y.compose(BivariatePoly(py), BivariatePoly(py)) == BivariatePoly()

    def test_composition_at_the_coefficient_width_bound(self, monkeypatch):
        # Squaring three 7-bit coefficients gives 3 * 127**2 > 2**15 in the
        # middle term: the widest coefficient two 7-bit factors allow.
        square = BivariatePoly({(2, 0): 1})
        y = BivariatePoly({(0, 1): 1})
        for _ in _both_products(monkeypatch):
            for sign in (1, -1):
                px = {(0, 0): F(sign * 127), (1, 0): F(sign * 127), (2, 0): F(sign * 127)}
                got = square.compose(BivariatePoly(px), y)
                assert got.coeffs == _plain_substitute(square.coeffs, px, y.coeffs)
                assert got.coeffs[2, 0] == 3 * 127**2

    def test_level_four_composition_is_pinned(self, phi_theta):
        # Digest read before the large packed products moved to _fft_mul:
        # every coefficient of Phi_4 and Theta_4 must stay.
        level_four = compose_level(*phi_theta, 4)
        data = json.dumps([exact._poly_json(p) for p in level_four], sort_keys=True)
        assert len(data) == 487_364
        assert (
            hashlib.sha256(data.encode()).hexdigest()
            == "6544b8595d10d271fed5077d70839f08db2e944a8e4c1b8559f4fe68a28205d4"
        )

    def test_gradients_are_matrix_powers(self, phi_theta):
        phi, theta = phi_theta
        m = mean_matrix(phi, theta)
        for n in (1, 2, 3, 4):
            pn, tn = compose_level(phi, theta, n)
            assert (pn.gradient_at_one(), tn.gradient_at_one()) == mat_pow(m, n)


class TestMeanMatrix:
    def test_entries(self, phi_theta):
        m = mean_matrix(*phi_theta)
        assert m == ((F(9, 5), F(2, 5)), (F(26, 15), F(13, 15)))

    def test_first_entry_is_mean_one_visit_count(self, table, phi_theta):
        m = mean_matrix(*phi_theta)
        assert m[0][0] == sum(s.p_direct * s.s1 for s in table.shapes) == F(9, 5)

    def test_row_sums_are_expected_cell_counts(self, table, phi_theta):
        m = mean_matrix(*phi_theta)
        assert m[0][0] + m[0][1] == sum(s.p_direct * (s.s1 + s.s2) for s in table.shapes)
        assert m[1][0] + m[1][1] == sum(s.p_via * (s.s1 + s.s2) for s in table.shapes)

    def test_upper_right_entry_is_forced_by_the_eigenvalue(self, phi_theta):
        # The Perron eigenvalue (20 + sqrt(205))/15 pins this entry to 2/5
        # (trace 8/3, determinant 13/15, discriminant 4*205/225); a 2/15
        # there would put the top of the spectrum at (20 + sqrt(101))/15.
        m = mean_matrix(*phi_theta)
        tr = m[0][0] + m[1][1]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert tr == F(8, 3)
        assert det == F(13, 15)
        assert tr * tr - 4 * det == F(4 * 205, 225)
        assert m[0][1] == F(2, 5) != F(2, 15)


class TestEigenData:
    def test_closed_forms(self, eig):
        with mpmath.workdps(60):
            root = mpmath.sqrt(mpf(205))
            assert abs(eig.lam - (20 + root) / 15) < mpf(10) ** -30
            assert abs(eig.lam_prime - (20 - root) / 15) < mpf(10) ** -30
            assert abs(eig.dim - mpmath.log(eig.lam) / mpmath.log(2)) == 0
            assert abs(eig.dim - mpf("1.1939")) < 2e-4

    def test_eigen_identities(self, eig):
        m = [[float(x) for x in row] for row in eig.mean_matrix]
        with mpmath.workdps(60):
            mm = [[exact._to_mpf(x) for x in row] for row in eig.mean_matrix]
            for i in range(2):
                mu = mm[i][0] * eig.u[0] + mm[i][1] * eig.u[1]
                assert abs(mu - eig.lam * eig.u[i]) < mpf(10) ** -30
                vm = eig.v[0] * mm[0][i] + eig.v[1] * mm[1][i]
                assert abs(vm - eig.lam * eig.v[i]) < mpf(10) ** -30
            assert abs(eig.u[0] ** 2 + eig.u[1] ** 2 - 1) < mpf(10) ** -30
            assert abs(eig.v[0] ** 2 + eig.v[1] ** 2 - 1) < mpf(10) ** -30
        assert 1 < float(eig.lam) < 3 and 0 < float(eig.lam_prime) < 1
        assert m[0][0] > 0

    def test_right_eigenvector_direction(self, eig):
        # (M - lam I) u = 0 gives u2/u1 = (15 lam - 27)/6 for this matrix.
        with mpmath.workdps(60):
            ratio = eig.u[1] / eig.u[0]
            assert abs(ratio - (15 * eig.lam - 27) / 6) < mpf(10) ** -30

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            eigen_data(((F(1), F(0)), (F(1), F(1))))


# The Taylor composition as whole series, kept as the reference for the
# moment solve, which sums one order at a time: every coefficient must come
# out bit for bit as these give it.
def _series_mul(a, b, K):
    out = [mpf(0)] * (K + 1)
    for i, ai in enumerate(a):
        if i > K:
            break
        for j, bj in enumerate(b):
            if i + j > K:
                break
            out[i + j] += ai * bj
    return out


def _series_compose(poly, f, g, K):
    """Taylor coefficients of poly(f(t), g(t)) through order K."""
    powers_f = {0: [mpf(1)] + [mpf(0)] * K}
    powers_g = {0: [mpf(1)] + [mpf(0)] * K}

    def power(table, base, n):
        while n not in table:
            k = max(table)
            table[k + 1] = _series_mul(table[k], base, K)
        return table[n]

    out = [mpf(0)] * (K + 1)
    for (a, b), c in sorted(poly.coeffs.items()):
        term = _series_mul(power(powers_f, f, a), power(powers_g, g, b), K)
        cm = mpf(c.numerator) / mpf(c.denominator)
        for i in range(K + 1):
            out[i] += cm * term[i]
    return out


def _reference_solve(eig, phi, theta, K):
    """The moment solve recomposing both series at every order: the Taylor
    coefficients f and g it solves, the compositions (r1, r2) at each order
    2..K+1 with a_k = 0, and the moments 1..K+1."""
    with mpmath.workdps(60):
        m = [[mpf(x.numerator) / mpf(x.denominator) for x in row] for row in eig.mean_matrix]
        mb = eig.mean_b
        f = [mpf(1), mb[0]]
        g = [mpf(1), mb[1]]
        fact = mpf(1)
        rs = {}
        moments = [mb]
        for k in range(2, K + 2):
            fact *= k
            f.append(mpf(0))
            g.append(mpf(0))
            r1 = _series_compose(phi, f, g, k)[k]
            r2 = _series_compose(theta, f, g, k)[k]
            rs[k] = (r1, r2)
            lk = eig.lam**k
            a11, a12, a21, a22 = lk - m[0][0], -m[0][1], -m[1][0], lk - m[1][1]
            det = a11 * a22 - a12 * a21
            f[k] = (r1 * a22 - a12 * r2) / det
            g[k] = (a11 * r2 - r1 * a21) / det
            moments.append((f[k] * fact, g[k] * fact))
    return f, g, rs, moments


class TestMoments:
    def test_solve_matches_the_reference_composition(self, eig, phi_theta):
        # Each order's Phi and Theta coefficients, summed once from the kept
        # powers, equal the whole-series composition bit for bit at every
        # order 2..13, and so do the moments they solve for.
        phi, theta = phi_theta
        f, g, rs, moments = _reference_solve(eig, phi, theta, 12)
        with mpmath.workdps(60):
            fs, gs = f[:2], g[:2]
            series = exact._Composition(phi_theta, fs, gs)
            series.coefficient(0)
            series.coefficient(1)
            for k in range(2, 14):
                fs.append(mpf(0))
                gs.append(mpf(0))
                assert series.coefficient(k) == list(rs[k]), k
                fs[k], gs[k] = f[k], g[k]
                series.coefficient(k)
        mt = moment_table(12)
        assert list(mt.moments) + [mt.next_moment] == moments

    @pytest.mark.parametrize("K", [1, 5, 12])
    def test_residual_series_matches_the_reference_composition(self, phi_theta, K):
        phi, theta = phi_theta
        f, g, comp1, comp2, _ = moment_table(K).residual_series
        with mpmath.workdps(60):
            assert comp1 == _series_compose(phi, f, g, K)
            assert comp2 == _series_compose(theta, f, g, K)

    def test_residual_series_ignores_the_callers_precision(self):
        # Read first at mpmath's default 15 digits, the series is still the
        # one functional_equation_residual composes at 60.
        assert mpmath.mp.dps < exact.PRECISION_DPS
        early = moment_table(12)
        early.residual_series
        late = moment_table(12)
        assert functional_equation_residual(early, -0.5) == functional_equation_residual(late, -0.5)
        r1, r2, _ = functional_equation_residual(early, -0.5)
        assert r1 < 1e-50 and r2 < 1e-50

    def test_first_moment_is_normalized_eigenvector(self, eig):
        mt = moment_table(3)
        m1 = mt.moment(1)
        with mpmath.workdps(60):
            assert abs(m1[0] - eig.u[0] / eig.c) < mpf(10) ** -30
            assert abs(m1[1] - eig.u[1] / eig.c) < mpf(10) ** -30

    def test_moments_positive(self):
        mt = moment_table(8)
        for k in range(1, 9):
            a, b = mt.moment(k)
            assert a > 0 and b > 0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            moment_table(0)
        with pytest.raises(ValueError):
            moment_table(13)

    def test_residuals_tiny_under_truncation(self):
        mt = moment_table(8)
        for t in (-0.5, -0.1, 0.1):
            r1, r2, remainder = functional_equation_residual(mt, t)
            assert r1 < 1e-9 and r2 < 1e-9
            assert remainder >= 0

    def test_remainder_is_the_first_dropped_term(self, eig, phi_theta):
        # At the cap K = 12 too, the remainder is a_13 (lambda t)^13, where
        # a_13 = m_13 / 13! solves the order-13 Taylor matching of
        # phi1(lambda t) = Phi(phi1(t), phi2(t)) and of its twin for phi2.
        phi, theta = phi_theta
        t = -0.5
        mt = moment_table(12)
        with mpmath.workdps(60):
            raw = [mt.moment(k) for k in range(1, 13)] + [mt.next_moment]
            f = [mpf(1)] + [m[0] / mpmath.factorial(k) for k, m in enumerate(raw, 1)]
            g = [mpf(1)] + [m[1] / mpmath.factorial(k) for k, m in enumerate(raw, 1)]
            lam13 = eig.lam**13
            for poly, coeffs in ((phi, f), (theta, g)):
                lhs = lam13 * coeffs[13]
                assert abs(_series_compose(poly, f, g, 13)[13] - lhs) < 1e-30 * lhs
            term = abs(f[13] * (eig.lam * t) ** 13)
        rem12 = functional_equation_residual(mt, t)[2]
        rem11 = functional_equation_residual(moment_table(11), t)[2]
        assert abs(rem12 - term) < 1e-30 * term
        assert rem12 != rem11

    def test_w_prime_mean_value(self, eig):
        mt = moment_table(2)
        v1, v2 = eig.v
        with mpmath.workdps(60):
            assert abs(mt.w_prime_mean - (v1 + 2 * v2) * eig.u[0] / eig.c) < mpf(10) ** -30
        assert abs(float(mt.w_prime_mean) - 1.16351) < 1e-4


class TestRationalCountMoments:
    def test_depth_one_matches_direct_summation(self, table):
        mean_ell = sum(s.p_direct * (s.s1 + 2 * s.s2) for s in table.shapes)
        sq = sum(s.p_direct * (s.s1 + 2 * s.s2) ** 2 for s in table.shapes)
        assert length_mean(1) == mean_ell == F(13, 5)
        assert length_variance(1) == sq - mean_ell * mean_ell

    def test_length_variance_is_pinned(self):
        # Values at depth 5 since the count moments were first computed; the
        # others were read from the second-moment recursion.
        assert length_variance(0) == 0
        assert length_variance(5) == F(97182608453, 307546875)
        assert length_variance(5, ancestor=(0, 1)) == F(138891638912, 307546875)
        assert length_variance(4, ancestor=(2, 3)) == F(2613919244, 6834375)
        assert length_variance(12) == F(
            3883871968472017911891636964, 114920872591552734375
        )
        assert length_variance(12, ancestor=(0, 1)) == F(
            5555402705220258181195600852, 114920872591552734375
        )

    @pytest.mark.parametrize(
        "variant,depth,samples",
        [
            (CrossingVariant.DIRECT, 2, 5000),
            (CrossingVariant.DIRECT, 3, 3000),
            (CrossingVariant.DIRECT, 4, 2000),
            (CrossingVariant.VIA_CORNER, 3, 2000),
        ],
    )
    def test_length_variance_matches_monte_carlo(self, variant, depth, samples):
        # Erased lengths of sampled crossings against the exact variance, by
        # a z score whose standard error comes from the sample's fourth
        # central moment.
        ancestor = (1, 0) if variant is CrossingVariant.DIRECT else (0, 1)
        rng = replica_rng(2900 + depth, variant is CrossingVariant.VIA_CORNER)
        lengths = [
            len(eraser.loop_erase(sample_crossing(depth, variant, rng))) - 1
            for _ in range(samples)
        ]
        mean = sum(lengths) / samples
        centred = [x - mean for x in lengths]
        s2 = sum(c * c for c in centred) / (samples - 1)
        m4 = sum(c**4 for c in centred) / samples
        se = ((m4 - s2 * s2 * (samples - 3) / (samples - 1)) / samples) ** 0.5
        z = (s2 - float(length_variance(depth, ancestor))) / se
        assert abs(z) < 3, z

    def test_mean_is_matrix_power_row(self, phi_theta):
        m = mean_matrix(*phi_theta)
        assert type_count_mean(2) == (
            m[0][0] * m[0][0] + m[0][1] * m[1][0],
            m[0][0] * m[0][1] + m[0][1] * m[1][1],
        )

    def test_rescaled_moments_converge_to_limit_engine(self, eig):
        # Exact rational finite-depth moments against the functional-equation
        # moments: two independent routes to the same limit.
        mt = moment_table(2)
        with mpmath.workdps(60):
            lam = eig.lam
            for depth in (16, 20):
                mean = exact._to_mpf(length_mean(depth)) / lam**depth
                var = exact._to_mpf(length_variance(depth)) / lam ** (2 * depth)
                assert abs(mean - mt.w_prime_mean) < 1e-9
                assert abs(var - mt.w_prime_variance) < 1e-5
            gap = abs(
                exact._to_mpf(length_variance(12)) / lam**24 - mt.w_prime_variance
            )
            assert gap < 1e-3


class TestReport:
    def test_report_round_trips_and_is_deterministic(self):
        r1 = exact_report(moment_order=4)
        r2 = exact_report(moment_order=4)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert len(r1["shapes"]) == 10  # 7 direct-law rows plus 3 via-only rows
        assert r1["mean_matrix"] == [["9/5", "2/5"], ["26/15", "13/15"]]
        assert r1["lambda"].startswith("2.2878547375517")
        assert r1["dim"].startswith("1.1939")

    def test_crossing_law_dataclass(self):
        law = solve_shape_distribution(CrossingVariant.DIRECT)
        assert isinstance(law, CrossingLaw)
        assert sum(law.masses.values()) == 1
