"""Checks of the program's outputs against the reference values.

Each check raises ``CheckFailed`` with a reason.  The per-operation checks
test what must hold for every seed; the distributional gates (chi-square at
p > 1e-3, 3 sigma) are applied only to the fixed-seed round (see workloads.py), so
their verdict does not depend on the seed a run is given.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import isfinite, sqrt

import reference as ref

P_FLOOR = 1e-3
SIGMAS = 3.0
DIMENSION_TOLERANCE = 0.05


class CheckFailed(Exception):
    pass


class KnownFault(CheckFailed):
    """The output shows a fault of the program that is known and counted,
    exactly as known, and is otherwise correct."""


def require(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


def masses(variant: str) -> dict:
    return ref.DIRECT_MASSES if variant == "direct" else ref.VIA_MASSES


# ---------------------------------------------------------------------------
# Shape laws
# ---------------------------------------------------------------------------


def check_mass_table(rows) -> dict[str, tuple]:
    """``rows`` are (shape_id, path, p_direct, p_via) from the program's
    shape table; returns shape_id -> path once every mass matches."""
    ids = {}
    for shape_id, path, p_direct, p_via in rows:
        path = tuple(tuple(v) for v in path)
        require(path in ref.VIA_MASSES, f"{shape_id}: {path} is not a crossing shape")
        require(
            Fraction(p_direct) == ref.DIRECT_MASSES.get(path, 0),
            f"{shape_id}: direct mass {p_direct} differs from the paper's",
        )
        require(
            Fraction(p_via) == ref.VIA_MASSES[path],
            f"{shape_id}: via-corner mass {p_via} differs from the paper's",
        )
        ids[shape_id] = path
    require(sorted(ids.values()) == sorted(ref.VIA_MASSES), "shape table is not the 10 shapes")
    return ids


def chi_square_p(counts: dict, law: dict, min_expected: float = 5.0) -> float:
    """Pearson p-value of path counts against a law, pooling the cells with
    the smallest expected counts until each expects at least ``min_expected``."""
    n = sum(counts.values())
    require(n > 0, "no samples")
    cells = sorted((float(p) * n, float(counts.get(k, 0))) for k, p in law.items())
    while len(cells) > 2 and cells[0][0] < min_expected:
        (e0, o0), (e1, o1) = cells[0], cells[1]
        cells = sorted([(e0 + e1, o0 + o1)] + cells[2:])
    stat = sum((o - e) ** 2 / e for e, o in cells)
    from scipy.stats import chi2  # imported late so that set-up timing sees the program's import

    return float(chi2.sf(stat, len(cells) - 1))


def check_shapes_report(payload: dict, variant: str, samples: int, ids: dict) -> dict:
    """Structure of an ``mc-shapes`` result; returns its counts by path."""
    law = masses(variant)
    require(payload["samples"] == samples, f"{payload['samples']} samples, asked {samples}")
    counts = {}
    for shape_id, c in payload["counts"].items():
        path = ids.get(shape_id)
        require(path in law, f"{variant} crossing classified as {shape_id}")
        require(isinstance(c, int) and c >= 0, f"count {c!r} for {shape_id}")
        counts[path] = c
    require(sum(counts.values()) == samples, "counts do not add up to the samples")
    for shape_id, p in payload["expected"].items():
        require(abs(p - float(law[ids[shape_id]])) < 1e-12, f"expected mass of {shape_id}")
    return counts


def gate_shapes(counts: dict, variant: str) -> None:
    p = chi_square_p(counts, masses(variant))
    require(p > P_FLOOR, f"{variant} shape counts: chi-square p = {p:.3g}")


def gate_acceptance(accepted: int, attempted: int, variant: str) -> None:
    p = float(ref.ACCEPTANCE[variant])
    z = (accepted - p * attempted) / sqrt(attempted * p * (1 - p))
    require(abs(z) <= SIGMAS, f"{variant} acceptance {accepted}/{attempted}: z = {z:.2f}")


# ---------------------------------------------------------------------------
# Erased crossings
# ---------------------------------------------------------------------------


def check_length_report(payload: dict, level: int, ancestor, samples: int) -> None:
    require(payload["samples"] == samples, f"{payload['samples']} samples, asked {samples}")
    target = float(ref.length_mean(level, ancestor))
    require(abs(payload["exact_mean"] - target) <= 1e-12 * target, "exact mean differs")
    lam = float(ref.lam_and_dim()[0])
    require(abs(payload["growth_rate"] - lam) <= 1e-12, "growth rate differs from lambda")
    mean, se = payload["mean_length"], payload["stderr"]
    require(isfinite(mean) and mean >= 2**level, f"mean erased length {mean}")
    require(isfinite(se) and se >= 0, f"standard error {se}")
    scaled = mean * lam**-level
    require(abs(payload["scaled_mean"] - scaled) <= 1e-9 * scaled, "scaled mean")


def gate_length(payload: dict, level: int, ancestor) -> None:
    target = float(ref.length_mean(level, ancestor))
    z = (payload["mean_length"] - target) / payload["stderr"]
    require(abs(z) <= SIGMAS, f"level-{level} mean erased length: z = {z:.2f}")


def up_triangle(c) -> bool:
    """Whether the unit up-triangle with lower-left corner c is in the gasket."""
    return c[0] >= 0 and c[1] >= 0 and (c[0] & c[1]) == 0


def corners(c):
    return (c, (c[0] + 1, c[1]), (c[0], c[1] + 1))


def neighbours(u, v) -> bool:
    """Whether u and v are distinct corners of one filled unit up-triangle."""
    if u == v:
        return False
    for c in ((u[0], u[1]), (u[0] - 1, u[1]), (u[0], u[1] - 1)):
        if v in corners(c) and up_triangle(c):
            return True
    return False


def check_erased_path(raw, erased, level: int) -> None:
    """``level`` is the one the command asked for."""
    side = 1 << level
    require(raw[0] == (0, 0) and raw[-1] == (0, side),
            f"raw walk runs from {raw[0]} to {raw[-1]}, not a level-{level} crossing")
    require(erased[0] == (0, 0), f"erased path starts at {erased[0]}")
    require(erased[-1] == (0, side), f"erased path ends at {erased[-1]}")
    require(len(set(erased)) == len(erased), "erased path has a loop")
    require(set(erased) <= set(raw), "erased path leaves its raw walk")
    for v in erased:
        require(v[0] >= 0 and v[1] >= 0 and v[0] + v[1] <= side, f"{v} is outside the frame")
    for u, v in zip(erased, erased[1:]):
        require(neighbours(u, v), f"erased path jumps from {u} to {v}")


# ---------------------------------------------------------------------------
# Exact layer
# ---------------------------------------------------------------------------


def check_compose(phi: dict, theta: dict, level: int) -> None:
    """Phi_N(1,1) = Theta_N(1,1) = 1 and the gradients at (1,1) are the rows
    of M**N.  Coefficients are {(a, b): Fraction}."""
    mn = ref.mat_pow(ref.M, level)
    for name, poly, row in (("Phi", phi, mn[0]), ("Theta", theta, mn[1])):
        require(sum(poly.values()) == 1, f"{name}_{level}(1,1) != 1")
        grad = (
            sum(a * c for (a, _), c in poly.items()),
            sum(b * c for (_, b), c in poly.items()),
        )
        require(grad == row, f"{name}_{level} mean {grad} differs from M^{level} row {row}")


def check_exact_report(rep: dict, ids: dict) -> None:
    lam, dim = ref.lam_and_dim()
    tol = Decimal(10) ** -39
    require(abs(Decimal(rep["lambda"]) - lam) < tol, "lambda differs in the first 40 digits")
    require(abs(Decimal(rep["dim"]) - dim) < tol, "dim differs in the first 40 digits")
    matrix = tuple(tuple(Fraction(x) for x in row) for row in rep["mean_matrix"])
    require(matrix == ref.M, f"mean matrix {matrix}")
    rows = [(s["id"], s["path"], Fraction(s["p_direct"]), Fraction(s["p_via"])) for s in rep["shapes"]]
    require(check_mass_table(rows) == ids, "shape ids differ from the shape table")


def check_moments_report(payload: dict, order: int) -> None:
    require(payload["order"] == order, f"asked for {order} moments, got order {payload['order']}")
    require(sorted(payload["moments"], key=int) == [str(k) for k in range(1, order + 1)], "moments")
    for t, r in payload["residuals"].items():
        require(max(r["phi1"], r["phi2"]) < payload["tolerance"], f"residual at t={t}")


REWRITTEN_ORDER = 8  # harness._run_moments runs K = 1 as K = 8


def check_moments_one(payload: dict) -> None:
    """``moments 1``.  The program rewrites K = 1 to K = 8; a report that is
    a correct order-8 report is that known fault, anything else wrong is an
    ordinary failure."""
    if payload["order"] == REWRITTEN_ORDER:
        check_moments_report(payload, REWRITTEN_ORDER)
        raise KnownFault("moments 1 reports order 8")
    check_moments_report(payload, 1)


# ---------------------------------------------------------------------------
# Limit layer
# ---------------------------------------------------------------------------


def check_dimension_report(payload: dict, depth: int, samples: int) -> None:
    require(payload["samples"] == samples and payload["depth"] == depth, "dimension run size")
    target = float(ref.lam_and_dim()[1])
    slope = payload["mean_slope"]
    require(
        abs(slope - target) <= DIMENSION_TOLERANCE,
        f"mean slope {slope} is more than {DIMENSION_TOLERANCE} from {target}",
    )


def check_skeleton(records: list, depth: int, one_visit: int, two_visit: int) -> None:
    """The limit-path skeleton is a chain of gasket cells from (0, 0) to
    (0, 2**depth) whose junctions never repeat."""
    require(len(records) > 0, "empty skeleton")
    require(tuple(records[0]["entry"]) == (0, 0), "skeleton does not start at the origin")
    require(tuple(records[-1]["exit"]) == (0, 1 << depth), "skeleton does not end at the apex")
    seen = {(0, 0)}
    kinds = {1: 0, 2: 0}
    prev_exit = (0, 0)
    for k, r in enumerate(records):
        c, entry, exit_ = tuple(r["corner"]), tuple(r["entry"]), tuple(r["exit"])
        require(entry == prev_exit, f"cell {k} does not start where cell {k - 1} ends")
        tri = corners(c)
        require(up_triangle(c) and entry in tri and exit_ in tri, f"cell {k} is not a gasket cell")
        require(entry != exit_ and r["kind"] in kinds, f"cell {k} has kind {r['kind']}")
        kinds[r["kind"]] += 1
        visits = [exit_]
        if r["kind"] == 2:
            (third,) = set(tri) - {entry, exit_}
            visits.insert(0, third)
        for v in visits:
            require(v not in seen, f"junction {v} repeats at cell {k}")
            seen.add(v)
        prev_exit = exit_
    require((kinds[1], kinds[2]) == (one_visit, two_visit), "cell kinds differ from the counts")
