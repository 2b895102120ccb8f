"""Reference values for the benchmark's checks, kept apart from the program.

The shape masses are the paper's two laws of the loop-erased crossing one
level below the apex, keyed by vertex path in the unit frame (origin (0, 0),
right corner (2, 0), apex (0, 2)).  ``test_checks.py`` derives them again
with an exact solver that shares no code with the program.  The mean matrix,
lambda, the dimension and the mean erased lengths follow from closed forms.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction as F

DIRECT_MASSES = {
    ((0, 0), (0, 1), (0, 2)): F(1, 2),
    ((0, 0), (0, 1), (1, 1), (0, 2)): F(2, 15),
    ((0, 0), (1, 0), (0, 1), (0, 2)): F(2, 15),
    ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2)): F(1, 30),
    ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2)): F(1, 30),
    ((0, 0), (1, 0), (1, 1), (0, 1), (0, 2)): F(1, 30),
    ((0, 0), (1, 0), (1, 1), (0, 2)): F(2, 15),
}

VIA_MASSES = {
    ((0, 0), (0, 1), (0, 2)): F(1, 9),
    ((0, 0), (0, 1), (1, 1), (0, 2)): F(11, 90),
    ((0, 0), (1, 0), (0, 1), (0, 2)): F(11, 90),
    ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2)): F(2, 45),
    ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2)): F(2, 45),
    ((0, 0), (1, 0), (1, 1), (0, 1), (0, 2)): F(2, 45),
    ((0, 0), (1, 0), (1, 1), (0, 2)): F(8, 45),
    ((0, 0), (1, 0), (2, 0), (1, 1), (0, 2)): F(2, 9),
    ((0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2)): F(1, 18),
    ((0, 0), (1, 0), (2, 0), (1, 1), (0, 1), (0, 2)): F(1, 18),
}

# Expected (one-visit, two-visit) offspring of a one-visit (row 0) and a
# two-visit (row 1) cell.
M = ((F(9, 5), F(2, 5)), (F(26, 15), F(13, 15)))

ACCEPTANCE = {"direct": F(1, 4), "via-corner": F(1, 16)}


def mat_pow(m, n: int):
    out = ((F(1), F(0)), (F(0), F(1)))
    for _ in range(n):
        out = tuple(
            tuple(sum(out[i][k] * m[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )
    return out


def length_mean(level: int, ancestor: tuple[int, int]) -> F:
    """E[erased length at level N] = ancestor . M**N . (1, 2)^T."""
    mn = mat_pow(M, level)
    return sum(ancestor[i] * (mn[i][0] + 2 * mn[i][1]) for i in range(2))


def lam_and_dim(digits: int = 60) -> tuple[Decimal, Decimal]:
    """lambda = (20 + sqrt(205)) / 15 and dim = log lambda / log 2."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        lam = (20 + Decimal(205).sqrt()) / 15
        dim = lam.ln() / Decimal(2).ln()
        return +lam, +dim
