"""Exact rational computation of the loop-erased crossing laws.

The level-1 conditioned walks take values in two glued cells, so the pair
(current loop-erased path from the origin, conditioning phase) is a finite
Markov chain: one uniform neighbor step followed by stack-erasure
truncation, absorbed at the surrounding coarse vertices.  Expected visit
counts of every transient state are solved by Gaussian elimination over
exact rationals; reading off the absorbing steps gives the unnormalized law
of each final self-avoiding shape, and dividing by the probability of the
conditioning event (exactly 1/4, or 1/16 via the corner) gives the two
shape distributions.  Nothing is transcribed from a drawing: the shapes are
whatever the chain produces, and an independent path enumeration in the
tests pins the supports.

The shape table is the one home of the two offspring laws: each row holds a
shape's two masses and its level-0 skeleton cells, and ``ShapeTable.law``
gives the direct law (refining a one-visit cell) or the via-corner law
(refining a two-visit cell) as (mass, shape) pairs.  Every consumer reads
the laws there: the refinement sampler and the branching counts in
``limit.py``, and here the bivariate generating functions of the
one-visit/two-visit cell counts, their composition across levels, the
finite-depth count moments, and the 2x2 mean matrix with its Perron
eigenvalue

   lambda = (20 + sqrt(205)) / 15 = 2.28785...,

and the moments of the almost-sure branching limits, obtained by matching
Taylor coefficients in the fixed-point equations of the Laplace transforms,
phi1(lambda t) = Phi(phi1(t), phi2(t)) and the analogous equation for phi2.

The mean matrix is always the derivative pair of Phi and Theta at (1, 1);
its second column is (2/5, 13/15), the values forced by trace 8/3 and
determinant 13/15 of the eigenvalue pair above and confirmed by every Monte
Carlo gate in the test suite.

Composition stays in exact rationals: polynomial products are packed into
single integers (Kronecker substitution), and a packed product whose two
factors are both wider than ``FFT_MIN_BITS`` is a float64 numpy FFT
convolution of 8-bit limbs.  Each convolution sum is below 2^16 times the
FFT length, so rounding each one to the nearest integer is exact; the
worst case, all-0xFF factors, deviates from integers by 1.9e-6 at 500 kbit
and 1.5e-4 at 30 Mbit, and any deviation above 1/8 raises ArithmeticError.
At level 4 six products of 116-532 kbit factors take this path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import mpmath
import numpy as np
from mpmath import mpf

from . import eraser
from .lattice import ORIGIN, Vertex, apex, corner, neighbors, on_grid
from .walker import CrossingVariant

Matrix2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
IntPoly = dict[tuple[int, int], int]

PRECISION_DPS = 60
COMPOSITION_CAP = 4  # highest level compose_level expands exactly
MAX_MOMENT_ORDER = 12  # highest moment order K a report or table asks for
# Packed products with both factors wider than this many bits go through
# _fft_mul.  Measured on equal factors, int * int wins up to 25 kbit and
# _fft_mul from 30 kbit on (1.2x there, 1.9x at 60 kbit, 3.7x at 500 kbit).
FFT_MIN_BITS = 30_000
# The offspring law of a one-visit parent cell, then of a two-visit one.
PARENT_LAWS = (CrossingVariant.DIRECT, CrossingVariant.VIA_CORNER)


class SingularSystem(RuntimeError):
    """The absorption system lost rank; indicates a broken chain invariant."""


class GeneratingFunctionMismatch(RuntimeError):
    """A reconstructed generating function differs from its reference form."""


class CompositionCapExceeded(ValueError):
    """Exact composition was requested beyond ``COMPOSITION_CAP``."""


class IllConditionedSystem(RuntimeError):
    """A moment system pivot fell below tolerance (cannot happen for lambda > 1)."""


# ---------------------------------------------------------------------------
# Bivariate polynomials over the rationals
# ---------------------------------------------------------------------------


class BivariatePoly:
    """A finitely supported map (deg_x, deg_y) -> Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], Fraction | int] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for key, c in coeffs.items():
                c = Fraction(c)
                if c:
                    clean[key] = c
        self.coeffs = clean

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariatePoly) and self.coeffs == other.coeffs

    def __repr__(self):
        terms = [f"{c}*x^{a}*y^{b}" for (a, b), c in sorted(self.coeffs.items())]
        return "BivariatePoly(" + " + ".join(terms) + ")"

    def _as_integers(self) -> tuple[int, IntPoly]:
        """(den, numerators): self == numerators / den, den the least common one."""
        den = math.lcm(*(c.denominator for c in self.coeffs.values()))
        return den, {k: c.numerator * (den // c.denominator) for k, c in self.coeffs.items()}

    def __call__(self, x, y):
        return sum(c * x**a * y**b for (a, b), c in self.coeffs.items())

    def compose(self, px: "BivariatePoly", py: "BivariatePoly") -> "BivariatePoly":
        """Substitute x -> px, y -> py, exactly.

        Goes through the same routine as `compose_level`: a table of the
        monomials px^a * py^b kept as integer polynomials over powers of the
        common denominators of px and py, and one integer accumulator over a
        common denominator, divided out once at the end.
        """
        return _substitute((self,), px, py)[0]

    def gradient_at_one(self) -> tuple[Fraction, Fraction]:
        """(d/dx, d/dy) evaluated at (1, 1)."""
        gx = sum((c * a for (a, b), c in self.coeffs.items()), Fraction(0))
        gy = sum((c * b for (a, b), c in self.coeffs.items()), Fraction(0))
        return gx, gy


def _fft_mul(a: int, b: int) -> int:
    """a * b for nonzero ints, by a float64 FFT convolution of 8-bit limbs.

    The magnitudes' little-endian bytes are convolved with numpy's real FFT
    at a length n >= len(a) + len(b) - 1 of the form 2^k times 1, 3, 5, 9 or
    15.  Each convolution sum is below 2^16 * n, far inside float64's 53-bit
    mantissa, so rounding each to the nearest integer is exact: the worst
    case, all-0xFF operands, deviates from integers by 1.9e-6 at 500 kbit.
    A deviation above 1/8 raises ArithmeticError; there is no fallback.
    The sums fit in uint64 words, and word k belongs at bit 8 * k: the
    words j, j + 8, j + 16, ... form one integer of consecutive 64-bit
    digits, shifted by 8 * j bits, and the eight such rows add up to the
    product.
    """
    negative = (a < 0) != (b < 0)
    a, b = abs(a), abs(b)
    x = np.frombuffer(a.to_bytes((a.bit_length() + 7) // 8, "little"), np.uint8)
    y = np.frombuffer(b.to_bytes((b.bit_length() + 7) // 8, "little"), np.uint8)
    m = len(x) + len(y) - 1
    n = min(f << (-(-m // f) - 1).bit_length() for f in (1, 3, 5, 9, 15))
    conv = np.fft.irfft(np.fft.rfft(x, n) * np.fft.rfft(y, n), n)[:m]
    sums = np.rint(conv)
    deviation = float(np.max(np.abs(conv - sums)))
    if deviation > 0.125:
        raise ArithmeticError(f"FFT product sums deviate from integers by {deviation}")
    words = np.zeros(-(-m // 8) * 8, np.uint64)
    words[:m] = sums
    product = sum(int.from_bytes(words[j::8].tobytes(), "little") << (8 * j) for j in range(8))
    return -product if negative else product


def _int_mul(left: IntPoly, right: IntPoly) -> IntPoly:
    """Product of two integer polynomials by Kronecker substitution.

    Exponent pair (a, b) becomes slot a * stride + b, with stride above every
    y-degree of the product, and each polynomial becomes one integer with its
    coefficients in fixed-width slots.  One big-integer product then does all
    the term products, and the slots of the result are read back.  That
    product is `_fft_mul` when both packed factors are wider than
    `FFT_MIN_BITS`, and CPython's int * int otherwise.
    """
    if not left or not right:
        return {}
    stride = max(b for _, b in left) + max(b for _, b in right) + 1
    # At most min(len) term products meet in one slot, so every coefficient
    # of the product has absolute value below 2**(width - 1).
    width = (
        max(map(abs, left.values())).bit_length()
        + max(map(abs, right.values())).bit_length()
        + min(len(left), len(right)).bit_length()
        + 1
    )
    nbytes = (width + 7) // 8

    def pack(p: IntPoly) -> int:
        size = (max(a for a, _ in p) + 1) * stride * nbytes
        pos, neg = bytearray(size), bytearray(size)
        for (a, b), c in p.items():
            i = (a * stride + b) * nbytes
            (pos if c > 0 else neg)[i : i + nbytes] = abs(c).to_bytes(nbytes, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    slots = (max(a for a, _ in left) + max(a for a, _ in right) + 1) * stride
    # Half a slot added to every slot makes each one nonnegative, so signed
    # coefficients read back without borrows between slots.
    half = 1 << (8 * nbytes - 1)
    offset = int.from_bytes(half.to_bytes(nbytes, "little") * slots, "little")
    a, b = pack(left), pack(right)
    product = _fft_mul(a, b) if min(a.bit_length(), b.bit_length()) > FFT_MIN_BITS else a * b
    raw = (product + offset).to_bytes(slots * nbytes, "little")
    out: IntPoly = {}
    for i in range(slots):
        c = int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") - half
        if c:
            out[divmod(i, stride)] = c
    return out


def _substitute(
    outers: Sequence[BivariatePoly], px: BivariatePoly, py: BivariatePoly
) -> list[BivariatePoly]:
    """Substitute x -> px, y -> py into every polynomial of `outers`, exactly.

    With px = nx / dx and py = ny / dy over their common denominators, the
    monomial px^a * py^b is the integer polynomial nx^a * ny^b over
    dx^a * dy^b.  One table of these monomials serves every outer
    polynomial.  An outer polynomial sum c_ab x^a y^b with common
    denominator d and largest degrees A, B is then the integer sum of
    (d * c_ab) * dx^(A-a) * dy^(B-b) * nx^a * ny^b over d * dx^A * dy^B, so
    each output coefficient is reduced to a Fraction once, at the end.
    """
    dx, nx = px._as_integers()
    dy, ny = py._as_integers()
    # Products by the constant 1 are skipped: the first powers and the pure
    # powers are reused as they are.
    x_powers: list[IntPoly] = [{(0, 0): 1}, nx]
    y_powers: list[IntPoly] = [{(0, 0): 1}, ny]
    monomials: dict[tuple[int, int], IntPoly] = {}
    out = []
    for outer in outers:
        d, coeffs = outer._as_integers()
        top_a = max((a for a, _ in coeffs), default=0)
        top_b = max((b for _, b in coeffs), default=0)
        acc: IntPoly = {}
        get = acc.get
        for (a, b), c in coeffs.items():
            mono = monomials.get((a, b))
            if mono is None:
                while len(x_powers) <= a:
                    x_powers.append(_int_mul(x_powers[-1], nx))
                while len(y_powers) <= b:
                    y_powers.append(_int_mul(y_powers[-1], ny))
                if a and b:
                    mono = _int_mul(x_powers[a], y_powers[b])
                else:
                    mono = x_powers[a] if a else y_powers[b]
                monomials[a, b] = mono
            w = c * dx ** (top_a - a) * dy ** (top_b - b)
            for key, v in mono.items():
                acc[key] = get(key, 0) + w * v
        den = d * dx**top_a * dy**top_b
        res = BivariatePoly()
        res.coeffs = {k: Fraction(n, den) for k, n in sorted(acc.items()) if n}
        out.append(res)
    return out


# ---------------------------------------------------------------------------
# The absorbing chain on loop-erased states
# ---------------------------------------------------------------------------


def _erased_step(path: tuple[Vertex, ...], v: Vertex) -> tuple[Vertex, ...]:
    """One stack-erasure update of a self-avoiding path."""
    if v in path:
        return path[: path.index(v) + 1]
    return path + (v,)


@dataclass(frozen=True)
class CrossingLaw:
    """Exact law of the loop-erased outcome of one conditioned crossing."""

    variant: CrossingVariant
    event_probability: Fraction
    masses: dict[tuple[Vertex, ...], Fraction]  # conditional, sums to 1


def solve_shape_distribution(variant: CrossingVariant) -> CrossingLaw:
    """Solve the absorbing chain for the loop-erased crossing law at level 1.

    States are (loop-erased path from the origin, phase); the phase flips
    when the via-corner walk registers its visit to b_1.  Transitions apply
    one uniform neighbor step followed by stack-erasure truncation.  One
    pass explores the states and records each step between two of them and
    each step onto a_1 that completes the conditioning event.
    """
    via = variant is CrossingVariant.VIA_CORNER
    a1, b1 = apex(1), corner(1)
    index: dict[tuple, int] = {}
    states: list[tuple] = []

    def number(state: tuple) -> int:
        j = index.get(state)
        if j is None:
            j = index[state] = len(states)
            states.append(state)
        return j

    number(((ORIGIN,), 0))
    edges: list[tuple[int, int]] = []  # (state, successor)
    hits: list[tuple[int, tuple[Vertex, ...]]] = []  # (state, shape)
    # The loop also visits the states numbered while it runs.
    for s, (path, phase) in enumerate(states):
        for u in neighbors(path[-1]):
            if on_grid(u, 1) and u != (b1 if phase else ORIGIN):
                if via and not phase and u == b1:
                    edges.append((s, number((_erased_step(path, u), 1))))
                elif u == a1 and phase == via:  # a via-corner crossing ends in phase 1
                    hits.append((s, _erased_step(path, u)))
            else:
                edges.append((s, number((_erased_step(path, u), phase))))

    n = len(states)
    quarter = Fraction(1, 4)
    # Expected visit counts nu solve nu = delta_start + nu T, i.e. per state s:
    # nu_s - sum_{p -> s} nu_p / 4 = [s == start].
    rows: list[dict[int, Fraction]] = [{s: Fraction(1)} for s in range(n)]
    for p, j in edges:
        rows[j][p] = rows[j].get(p, Fraction(0)) - quarter
    rhs = [Fraction(0)] * n
    rhs[0] = Fraction(1)
    visits = _solve_sparse(rows, rhs)

    raw: Counter[tuple[Vertex, ...]] = Counter()
    for s, shape in hits:
        raw[shape] += visits[s] * quarter
    event = sum(raw.values(), Fraction(0))
    if event == 0:
        raise SingularSystem("conditioning event has zero mass")
    masses = {shape: w / event for shape, w in sorted(raw.items())}
    return CrossingLaw(variant=variant, event_probability=event, masses=masses)


def _solve_sparse(rows: list[dict[int, Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination on sparse rational rows (pivot by row sparsity)."""
    n = len(rows)
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    used = [False] * n
    pivots: list[tuple[int, int]] = []
    for col in range(n):
        best = -1
        for r in range(n):
            if not used[r] and rows[r].get(col):
                if best < 0 or len(rows[r]) < len(rows[best]):
                    best = r
        if best < 0:
            raise SingularSystem(f"no pivot for column {col}")
        used[best] = True
        pivots.append((col, best))
        prow, pval = rows[best], rows[best][col]
        for r in range(n):
            if used[r]:
                continue
            c = rows[r].get(col)
            if not c:
                continue
            f = c / pval
            for k, v in prow.items():
                s = rows[r].get(k, Fraction(0)) - f * v
                if s:
                    rows[r][k] = s
                else:
                    rows[r].pop(k, None)
            rhs[r] -= f * rhs[best]
    x = [Fraction(0)] * n
    for col, r in reversed(pivots):
        acc = rhs[r]
        for k, v in rows[r].items():
            if k != col:
                acc -= v * x[k]
        x[col] = acc / rows[r][col]
    return x


# ---------------------------------------------------------------------------
# Shape table
# ---------------------------------------------------------------------------


# One child cell of a shape in its side-2 frame: entry, exit, third corner, kind.
Child = tuple[Vertex, Vertex, Vertex, int]


@dataclass(frozen=True)
class ShapeInfo:
    shape_id: str
    path: tuple[Vertex, ...]
    s1: int
    s2: int
    p_direct: Fraction
    p_via: Fraction
    children: tuple[Child, ...]  # the level-0 skeleton, in path order


@dataclass(frozen=True)
class ShapeTable:
    shapes: tuple[ShapeInfo, ...]

    # Built once per table: ``classify_shape`` reads ``by_path`` per sample.
    @cached_property
    def by_path(self) -> dict[tuple[Vertex, ...], ShapeInfo]:
        return {s.path: s for s in self.shapes}

    @cached_property
    def by_id(self) -> dict[str, ShapeInfo]:
        return {s.shape_id: s for s in self.shapes}

    def law(self, variant: CrossingVariant) -> tuple[tuple[Fraction, ShapeInfo], ...]:
        """The shapes with nonzero mass under one crossing law, as (mass,
        shape) pairs in table order: the offspring law of a one-visit cell
        (direct) or of a two-visit cell (via-corner)."""
        direct = variant is CrossingVariant.DIRECT
        masses = ((s.p_direct if direct else s.p_via, s) for s in self.shapes)
        return tuple((p, s) for p, s in masses if p)

    def column(self, variant: CrossingVariant) -> dict[str, Fraction]:
        return {s.shape_id: p for p, s in self.law(variant)}


def _shape_rank(path: tuple[Vertex, ...], s: tuple[int, int]) -> tuple:
    via = corner(1) in path
    if via:
        rank = {(2, 1): 0, (1, 2): 1}[s]
    else:
        rank = {(2, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 2, (3, 0): 3}[s]
    return (via, rank, path)


def _children(path: tuple[Vertex, ...]) -> tuple[Child, ...]:
    """The cells of a shape's level-0 skeleton.

    Every cell is one- or two-visit and stays inside the closed side-2
    frame; both are asserted here rather than assumed by the refinement.
    """
    cells = []
    for e in eraser.skeleton(path, 0).entries:
        if e.kind is None:
            raise AssertionError("crossing shapes have one- or two-visit cells only")
        cell = (e.entry, e.exit, e.third_corner, e.kind)
        for p in cell[:3]:
            if not (p[0] >= 0 and p[1] >= 0 and p[0] + p[1] <= 2):
                raise AssertionError(f"shape {path} leaves its frame at {p}")
        cells.append(cell)
    return tuple(cells)


@lru_cache(maxsize=None)
def shape_table() -> ShapeTable:
    """The 17-row table of loop-erased crossing shapes and their two laws.

    Seven shapes avoid b_1 and carry the direct law; all ten carry the
    via-corner law (erasure can remove the b_1 visit together with a loop).
    Each shape's skeleton is read once, here, and gives its (s1, s2).
    """
    direct = solve_shape_distribution(CrossingVariant.DIRECT)
    via = solve_shape_distribution(CrossingVariant.VIA_CORNER)
    rows = []
    for path in set(direct.masses) | set(via.masses):
        children = _children(path)
        kinds = [kind for *_, kind in children]
        rows.append((path, kinds.count(eraser.TYPE_ONE), kinds.count(eraser.TYPE_TWO), children))
    rows.sort(key=lambda row: _shape_rank(row[0], row[1:3]))
    return ShapeTable(
        shapes=tuple(
            ShapeInfo(
                shape_id=f"w{k}",
                path=path,
                s1=s1,
                s2=s2,
                p_direct=direct.masses.get(path, Fraction(0)),
                p_via=via.masses.get(path, Fraction(0)),
                children=children,
            )
            for k, (path, s1, s2, children) in enumerate(rows, start=1)
        )
    )


# ---------------------------------------------------------------------------
# Generating functions
# ---------------------------------------------------------------------------

PHI_REFERENCE = BivariatePoly(
    {
        (2, 0): Fraction(15, 30),
        (1, 1): Fraction(8, 30),
        (0, 2): Fraction(1, 30),
        (2, 1): Fraction(2, 30),
        (3, 0): Fraction(4, 30),
    }
)

THETA_REFERENCE = BivariatePoly(
    {
        (2, 0): Fraction(5, 45),
        (1, 1): Fraction(11, 45),
        (0, 2): Fraction(2, 45),
        (2, 1): Fraction(14, 45),
        (3, 0): Fraction(8, 45),
        (1, 2): Fraction(5, 45),
    }
)


@lru_cache(maxsize=None)
def build_phi_theta(table: ShapeTable) -> tuple[BivariatePoly, BivariatePoly]:
    """Generating functions of (s1, s2) under the two laws, checked against
    their reference closed forms (a mismatch is a fatal error, not a fallback).
    Cached per table: every caller shares one checked pair."""

    def generating_function(variant: CrossingVariant) -> BivariatePoly:
        coeffs: Counter[tuple[int, int]] = Counter()
        for p, s in table.law(variant):
            coeffs[s.s1, s.s2] += p
        return BivariatePoly(coeffs)

    phi, theta = map(generating_function, PARENT_LAWS)
    if phi != PHI_REFERENCE:
        raise GeneratingFunctionMismatch(f"direct generating function {phi!r}")
    if theta != THETA_REFERENCE:
        raise GeneratingFunctionMismatch(f"via-corner generating function {theta!r}")
    return phi, theta


def compose_level(
    phi: BivariatePoly, theta: BivariatePoly, N: int
) -> tuple[BivariatePoly, BivariatePoly]:
    """Exact level-N generating functions by iterated substitution.

    Uses the one-step-at-the-root form of the recursion (substitute the
    level-N pair into the base pair), which composes the small polynomial
    with the large one; the result is the same chain of substitutions.
    Phi and Theta are substituted together: they share one table of the
    monomials Phi_N^a * Theta_N^b, held as integer polynomials over powers
    of the common denominators of Phi_N and Theta_N, and each sum is kept
    as integers over one common denominator until a single final division.
    The monomial products are `_int_mul`'s packed integer products; from
    N = 4 on the widest of them run through `_fft_mul` (both factors
    above `FFT_MIN_BITS`), exactly, like every other product.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > COMPOSITION_CAP:
        raise CompositionCapExceeded(f"exact composition capped at level {COMPOSITION_CAP}")
    phi_n, theta_n = phi, theta
    for _ in range(N - 1):
        phi_n, theta_n = _substitute((phi, theta), phi_n, theta_n)
    return phi_n, theta_n


def mean_matrix(phi: BivariatePoly, theta: BivariatePoly) -> Matrix2:
    """Formal partial derivatives at (1, 1): expected per-cell offspring counts."""
    return (phi.gradient_at_one(), theta.gradient_at_one())


def mat_pow(m: Matrix2, n: int) -> Matrix2:
    out: Matrix2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for _ in range(n):
        out = tuple(  # type: ignore[assignment]
            tuple(r[0] * m[0][j] + r[1] * m[1][j] for j in range(2)) for r in out
        )
    return out


# ---------------------------------------------------------------------------
# Spectral data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenData:
    mean_matrix: Matrix2
    lam: mpf
    lam_prime: mpf
    u: tuple[mpf, mpf]  # right eigenvector, |u| = 1
    v: tuple[mpf, mpf]  # left eigenvector, |v| = 1
    c: mpf  # v . u
    dim: mpf  # log(lam) / log(2)

    @property
    def mean_b(self) -> tuple[mpf, mpf]:
        """Means of the per-type branching limits: u_i / (v . u).

        Unit-norm eigenvectors force this normalization; it is the one the
        Monte Carlo acceptance run validates.
        """
        return (self.u[0] / self.c, self.u[1] / self.c)


def _to_mpf(q: Fraction) -> mpf:
    return mpf(q.numerator) / mpf(q.denominator)


def eigen_data(m: Matrix2) -> EigenData:
    """Closed-form spectral data of a strictly positive 2x2 rational matrix."""
    if any(entry <= 0 for row in m for entry in row):
        raise ValueError("mean matrix must be strictly positive")
    with mpmath.workdps(PRECISION_DPS):
        tr = m[0][0] + m[1][1]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        disc = tr * tr - 4 * det
        root = mpmath.sqrt(_to_mpf(disc))
        lam = (_to_mpf(tr) + root) / 2
        lam_prime = (_to_mpf(tr) - root) / 2
        # Right eigenvector (M12, lam - M11); left eigenvector (M21, lam - M11).
        u_raw = (_to_mpf(m[0][1]), lam - _to_mpf(m[0][0]))
        v_raw = (_to_mpf(m[1][0]), lam - _to_mpf(m[0][0]))
        u_norm = mpmath.sqrt(u_raw[0] ** 2 + u_raw[1] ** 2)
        v_norm = mpmath.sqrt(v_raw[0] ** 2 + v_raw[1] ** 2)
        u = (u_raw[0] / u_norm, u_raw[1] / u_norm)
        v = (v_raw[0] / v_norm, v_raw[1] / v_norm)
        c = u[0] * v[0] + u[1] * v[1]
        dim = mpmath.log(lam) / mpmath.log(2)
    return EigenData(mean_matrix=m, lam=lam, lam_prime=lam_prime, u=u, v=v, c=c, dim=dim)


@lru_cache(maxsize=None)
def spectral_data() -> EigenData:
    """Eigen data of the crossing-law mean matrix (cached)."""
    phi, theta = build_phi_theta(shape_table())
    return eigen_data(mean_matrix(phi, theta))


# ---------------------------------------------------------------------------
# Moments of the branching limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentTable:
    """Raw moments m_k = (E[B1^k], E[B2^k]) for k = 1..K, and m_(K+1) for
    the remainder estimate of ``functional_equation_residual``."""

    K: int
    moments: tuple[tuple[mpf, mpf], ...]
    next_moment: tuple[mpf, mpf]
    eig: EigenData

    def moment(self, k: int) -> tuple[mpf, mpf]:
        return self.moments[k - 1]

    @property
    def w_prime_mean(self) -> mpf:
        """Mean of the limiting rescaled path length, (v1 + 2 v2) E[B1]."""
        v1, v2 = self.eig.v
        return (v1 + 2 * v2) * self.moments[0][0]

    @property
    def w_prime_variance(self) -> mpf:
        v1, v2 = self.eig.v
        m1, m2 = self.moments[0][0], self.moments[1][0]
        return (v1 + 2 * v2) ** 2 * (m2 - m1 * m1)

    @cached_property
    def residual_series(self) -> tuple[list[mpf], list[mpf], list[mpf], list[mpf], mpf]:
        """The t-free part of ``functional_equation_residual``: the Taylor
        coefficients of phi1 and phi2 through order K, of their compositions
        by Phi and Theta, and a_(K+1) of phi1, at ``PRECISION_DPS`` whatever
        the caller's precision."""
        K = self.K
        with mpmath.workdps(PRECISION_DPS):
            fact = [mpf(1)]
            for k in range(1, K + 2):
                fact.append(fact[-1] * k)
            f = [mpf(1)] + [self.moments[k - 1][0] / fact[k] for k in range(1, K + 1)]
            g = [mpf(1)] + [self.moments[k - 1][1] / fact[k] for k in range(1, K + 1)]
            series = _Composition(build_phi_theta(shape_table()), f, g)
            orders = [series.coefficient(n) for n in range(K + 1)]
            comp1 = [phi_n for phi_n, _ in orders]
            comp2 = [theta_n for _, theta_n in orders]
            return f, g, comp1, comp2, self.next_moment[0] / fact[K + 1]


class _Composition:
    """Taylor coefficients of polynomials in two series, one order at a time.

    ``coefficient(n)`` reads f[0..n] and g[0..n] and returns coefficient n of
    each poly(f(t), g(t)).  It keeps coefficient n of every power f^a, g^b
    and product f^a g^b the polynomials use, so each order is summed once;
    calling it again for the same n, after f[n] or g[n] changed, overwrites
    that order.  Every coefficient is summed term by term in the order of a
    series product, f^a = f^(a-1) f and then f^a g^b, starting from zero.
    """

    def __init__(self, polys: Sequence[BivariatePoly], f: list[mpf], g: list[mpf]):
        self.terms = [[(a, b, _to_mpf(c)) for (a, b), c in sorted(p.coeffs.items())] for p in polys]
        monomials = sorted({(a, b) for p in polys for a, b in p.coeffs})
        self.f_pow = [[mpf(1)]] + [[] for _ in range(max(a for a, _ in monomials))]
        self.g_pow = [[mpf(1)]] + [[] for _ in range(max(b for _, b in monomials))]
        self.products = {ab: [] for ab in monomials}
        self.f, self.g = f, g

    @staticmethod
    def _put(coeffs: list[mpf], n: int, value: mpf) -> None:
        if n < len(coeffs):
            coeffs[n] = value
        else:
            coeffs.append(value)

    @staticmethod
    def _product_at(left: list[mpf], right: list[mpf], n: int) -> mpf:
        acc = mpf(0)
        for i in range(n + 1):
            acc += left[i] * right[n - i]
        return acc

    def coefficient(self, n: int) -> list[mpf]:
        for powers, base in ((self.f_pow, self.f), (self.g_pow, self.g)):
            if n:
                self._put(powers[0], n, mpf(0))
            for a in range(1, len(powers)):
                self._put(powers[a], n, self._product_at(powers[a - 1], base, n))
        for (a, b), coeffs in self.products.items():
            self._put(coeffs, n, self._product_at(self.f_pow[a], self.g_pow[b], n))
        out = []
        for terms in self.terms:
            acc = mpf(0)
            for a, b, c in terms:
                acc += c * self.products[a, b][n]
            out.append(acc)
        return out


def moment_table(K: int) -> MomentTable:
    """Solve for moments of the limits by Taylor matching in the fixed-point
    equations of their Laplace transforms.

    Order k >= 2 gives the linear system (lambda^k I - M) m_k = r_k with r_k
    a polynomial in lower moments; it is solvable because lambda^k exceeds
    the spectral radius.  The first moment is the eigenvector normalization
    u / (v . u).  Order K + 1 is solved too, as ``next_moment``: the cap
    bounds the K asked for, not this extra order.
    """
    if not 1 <= K <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in 1..{MAX_MOMENT_ORDER}")
    eig = spectral_data()
    phi, theta = build_phi_theta(shape_table())
    m = eig.mean_matrix
    with mpmath.workdps(PRECISION_DPS):
        lam = eig.lam
        mb = eig.mean_b
        # Taylor coefficients a_k = m_k / k!.
        f = [mpf(1), mb[0]]
        g = [mpf(1), mb[1]]
        series = _Composition((phi, theta), f, g)
        series.coefficient(0)
        series.coefficient(1)
        fact = mpf(1)
        moments: list[tuple[mpf, mpf]] = [(mb[0], mb[1])]
        for k in range(2, K + 2):
            fact *= k
            # Order k of the compositions with a_k = 0 is r_k; the a_k it
            # solves for then refill order k of the powers.
            f.append(mpf(0))
            g.append(mpf(0))
            r1, r2 = series.coefficient(k)
            lk = lam**k
            a11 = lk - _to_mpf(m[0][0])
            a12 = -_to_mpf(m[0][1])
            a21 = -_to_mpf(m[1][0])
            a22 = lk - _to_mpf(m[1][1])
            det = a11 * a22 - a12 * a21
            if abs(det) < mpf(10) ** (-30):
                raise IllConditionedSystem(f"moment system at order {k}")
            x1 = (r1 * a22 - a12 * r2) / det
            x2 = (a11 * r2 - r1 * a21) / det
            f[k] = x1
            g[k] = x2
            series.coefficient(k)
            moments.append((x1 * fact, x2 * fact))
    return MomentTable(K=K, moments=tuple(moments[:K]), next_moment=moments[K], eig=eig)


def functional_equation_residual(table: MomentTable, t: float | mpf) -> tuple[mpf, mpf, mpf]:
    """|phi_i(lambda t) - composition(phi1(t), phi2(t))| with both sides
    truncated at the table's order, plus a one-extra-term remainder estimate.

    The truncation matches coefficients, so the residual isolates numerical
    error in the moment solve; the estimate reports how far the degree-K
    polynomials can sit from the true entire functions at this t.  The
    parts that do not depend on t are composed once per table.
    """
    K = table.K
    with mpmath.workdps(PRECISION_DPS):
        f, g, comp1, comp2, dropped = table.residual_series
        t = mpf(t)
        lam = table.eig.lam
        lhs1 = sum(f[k] * (lam * t) ** k for k in range(K + 1))
        lhs2 = sum(g[k] * (lam * t) ** k for k in range(K + 1))
        rhs1 = sum(comp1[k] * t**k for k in range(K + 1))
        rhs2 = sum(comp2[k] * t**k for k in range(K + 1))
        # Remainder scale: the first dropped Taylor term of the larger argument.
        remainder = abs(dropped * (lam * t) ** (K + 1))
        return abs(lhs1 - rhs1), abs(lhs2 - rhs2), remainder


# ---------------------------------------------------------------------------
# Exact finite-depth count moments (rational cross-checks for Monte Carlo)
# ---------------------------------------------------------------------------


def type_count_mean(depth: int, ancestor: tuple[int, int] = (1, 0)) -> tuple[Fraction, Fraction]:
    """Exact E[(S1, S2)] after ``depth`` refinements: ancestor row times M^depth."""
    mn = mat_pow(spectral_data().mean_matrix, depth)
    a1, a2 = ancestor
    return (a1 * mn[0][0] + a2 * mn[1][0], a1 * mn[0][1] + a2 * mn[1][1])


def length_mean(depth: int, ancestor: tuple[int, int] = (1, 0)) -> Fraction:
    s1, s2 = type_count_mean(depth, ancestor)
    return s1 + 2 * s2


def length_variance(depth: int, ancestor: tuple[int, int] = (1, 0)) -> Fraction:
    """Exact Var[S1 + 2 S2] after ``depth`` refinements.

    By the law of total variance over the generations: a generation-k cell
    of kind i adds the variance of s1 u1 + s2 u2 under its offspring law,
    where u = M^(depth-1-k) w, w = (1, 2), is the mean length a
    generation-(k+1) cell of each kind grows into; generation k holds
    (ancestor M^k)_i cells of kind i on average.
    """
    m = spectral_data().mean_matrix
    laws = [shape_table().law(v) for v in PARENT_LAWS]
    grown = [(Fraction(1), Fraction(2))]  # grown[j] = M^j w
    for _ in range(depth - 1):
        u1, u2 = grown[-1]
        grown.append((m[0][0] * u1 + m[0][1] * u2, m[1][0] * u1 + m[1][1] * u2))
    var = Fraction(0)
    mu1, mu2 = ancestor  # ancestor M^k
    for k in range(depth):
        u1, u2 = grown[depth - 1 - k]
        for count, law in zip((mu1, mu2), laws):
            xs = [(p, s.s1 * u1 + s.s2 * u2) for p, s in law]
            mean = sum(p * x for p, x in xs)
            var += count * (sum(p * x * x for p, x in xs) - mean * mean)
        mu1, mu2 = mu1 * m[0][0] + mu2 * m[1][0], mu1 * m[0][1] + mu2 * m[1][1]
    return var


# ---------------------------------------------------------------------------
# Report assembly (CLI surface)
# ---------------------------------------------------------------------------


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _poly_json(p: BivariatePoly) -> dict[str, str]:
    return {f"{a},{b}": _frac_str(c) for (a, b), c in sorted(p.coeffs.items())}


def exact_report(moment_order: int = 8) -> dict:
    """Everything the exact layer knows, JSON-ready and deterministic."""
    table = shape_table()
    phi, theta = build_phi_theta(table)
    eig = spectral_data()
    moments = moment_table(moment_order)
    with mpmath.workdps(PRECISION_DPS):
        report = {
            "shapes": [
                {
                    "id": s.shape_id,
                    "path": [list(v) for v in s.path],
                    "s1": s.s1,
                    "s2": s.s2,
                    "p_direct": _frac_str(s.p_direct),
                    "p_via": _frac_str(s.p_via),
                }
                for s in table.shapes
            ],
            "phi": _poly_json(phi),
            "theta": _poly_json(theta),
            "mean_matrix": [[_frac_str(c) for c in row] for row in eig.mean_matrix],
            "lambda": mpmath.nstr(eig.lam, 50),
            "lambda_prime": mpmath.nstr(eig.lam_prime, 50),
            "u": [mpmath.nstr(x, 50) for x in eig.u],
            "v": [mpmath.nstr(x, 50) for x in eig.v],
            "c": mpmath.nstr(eig.c, 50),
            "dim": mpmath.nstr(eig.dim, 50),
            "moments": {
                str(k): [mpmath.nstr(x, 40) for x in moments.moment(k)]
                for k in range(1, moments.K + 1)
            },
            "w_prime_mean": mpmath.nstr(moments.w_prime_mean, 40),
        }
    return report
