"""Tests of the benchmark's own checks: each must reject a wrong input.

    python3 -m pytest -q perfbench/test_checks.py

The reference shape masses are derived again here by an exact solver that
shares no code with the program.
"""

from __future__ import annotations

import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference as ref  # noqa: E402

# ---------------------------------------------------------------------------
# Shape laws from first principles
# ---------------------------------------------------------------------------

O, P, B, Q, R, A = (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)


def _cell(corner, left, right, name):
    """Unit triangles of a level-1 cell given its three corners; midpoints
    outside the frame get symbolic names."""
    m1, m2, m3 = (name, 1), (name, 2), (name, 3)
    return [(corner, m1, m2), (m1, left, m3), (m2, m3, right)]


TRIANGLES = [(O, P, Q), (P, B, R), (Q, R, A)]
TRIANGLES += _cell(O, ("L", "x"), ("L", "y"), "L")  # the other cell at the origin
TRIANGLES += _cell(B, ("R", "x"), ("R", "y"), "R")  # the other cell at the corner
NBRS: dict = {}
for tri in TRIANGLES:
    for v in tri:
        NBRS.setdefault(v, set()).update(u for u in tri if u != v)
COARSE = {O, B, A, ("L", "x"), ("L", "y"), ("R", "x"), ("R", "y")}


def _shape_law(via: bool) -> dict:
    """Law of the loop-erased crossing, by exact elimination over states
    (phase, loop-erased path so far).  A step either extends the path or cuts
    it back to a prefix, so eliminating the longest paths first leaves every
    equation in terms of the state's own prefixes only."""
    start = (1, (O,))
    rows, todo = {}, [start]
    while todo:
        state = todo.pop()
        if state in rows:
            continue
        phase, path = state
        here = path[-1]
        coef, const = {}, {}
        for u in sorted(NBRS[here], key=str):
            p = F(1, len(NBRS[here]))
            home = O if phase == 1 else B
            if u in COARSE and u != home:
                if u == A and (phase == 2 or not via):
                    const[path + (A,)] = const.get(path + (A,), 0) + p
                elif u == B and phase == 1 and via:
                    nxt = (2, path + (B,))
                    coef[nxt] = coef.get(nxt, 0) + p
                    todo.append(nxt)
                continue
            nxt = (phase, path[: path.index(u) + 1] if u in path else path + (u,))
            coef[nxt] = coef.get(nxt, 0) + p
            todo.append(nxt)
        rows[state] = (coef, const)

    solved = {}
    for phase in (2, 1):
        states = sorted((s for s in rows if s[0] == phase), key=lambda s: -len(s[1]))
        for state in states:
            coef, const = dict(rows[state][0]), dict(rows[state][1])
            for other in [s for s in coef if s in solved or len(s[1]) > len(state[1])]:
                c = coef.pop(other)
                ocoef, oconst = solved.get(other, rows[other])
                for s, x in ocoef.items():
                    coef[s] = coef.get(s, 0) + c * x
                for k, x in oconst.items():
                    const[k] = const.get(k, 0) + c * x
            self_c = coef.pop(state, 0)
            rows[state] = (
                {s: x / (1 - self_c) for s, x in coef.items()},
                {k: x / (1 - self_c) for k, x in const.items()},
            )
        for state in reversed(states):  # shortest first: prefixes are known
            coef, const = rows[state]
            const = dict(const)
            for s, c in coef.items():
                for k, x in solved[s][1].items():
                    const[k] = const.get(k, 0) + c * x
            solved[state] = ({}, const)
    law = solved[start][1]
    total = sum(law.values())
    assert total == (F(1, 16) if via else F(1, 4))
    return {path: mass / total for path, mass in law.items()}


def test_reference_masses_are_the_loop_erased_laws():
    assert _shape_law(via=False) == ref.DIRECT_MASSES
    assert _shape_law(via=True) == ref.VIA_MASSES


def test_reference_closed_forms():
    lam, dim = ref.lam_and_dim()
    assert abs(float(lam) - 2.2878) < 1e-4
    assert abs(float(dim) - 1.1939) < 1e-4
    assert ref.length_mean(0, (1, 0)) == 1 and ref.length_mean(0, (0, 1)) == 2
    assert ref.length_mean(1, (1, 0)) == F(9, 5) + 2 * F(2, 5)


# ---------------------------------------------------------------------------
# Each check rejects a wrong input
# ---------------------------------------------------------------------------


def _rows(law_direct=ref.DIRECT_MASSES):
    return [(f"w{k}", path, law_direct.get(path, 0), p)
            for k, (path, p) in enumerate(sorted(ref.VIA_MASSES.items()))]


def test_mass_table_rejects_a_perturbed_mass():
    ids = checks.check_mass_table(_rows())
    assert sorted(ids.values()) == sorted(ref.VIA_MASSES)
    perturbed = dict(ref.DIRECT_MASSES)
    a, b = list(perturbed)[:2]
    perturbed[a] += F(1, 90)
    perturbed[b] -= F(1, 90)
    with pytest.raises(checks.CheckFailed, match="direct mass"):
        checks.check_mass_table(_rows(perturbed))


def test_shape_gate_rejects_the_wrong_law():
    n = 9000
    right = {p: round(float(m) * n) for p, m in ref.DIRECT_MASSES.items()}
    checks.gate_shapes(right, "direct")
    wrong = {p: round(float(m) * n) for p, m in ref.VIA_MASSES.items()}
    with pytest.raises(checks.CheckFailed, match="chi-square"):
        checks.gate_shapes(wrong, "direct")


def test_acceptance_gate_rejects_a_wrong_rate():
    checks.gate_acceptance(5000, 20000, "direct")
    with pytest.raises(checks.CheckFailed):
        checks.gate_acceptance(5000, 20000, "via-corner")


def test_erased_path_rejects_a_loop_and_a_gap():
    raw = [O, Q, R, Q, A]
    checks.check_erased_path(raw, [O, Q, A], 1)
    with pytest.raises(checks.CheckFailed, match="loop"):
        checks.check_erased_path(raw, [O, Q, R, Q, A], 1)
    with pytest.raises(checks.CheckFailed, match="jumps"):
        checks.check_erased_path(raw, [O, R, A], 1)
    with pytest.raises(checks.CheckFailed, match="raw walk"):
        checks.check_erased_path(raw, [O, P, R, A], 1)
    with pytest.raises(checks.CheckFailed, match="ends"):
        checks.check_erased_path(raw, [O, Q], 1)


def test_erased_path_rejects_a_crossing_of_another_level():
    raw, path = [O, Q, A], [O, Q, A]  # a level-1 crossing
    with pytest.raises(checks.CheckFailed, match="not a level-2 crossing"):
        checks.check_erased_path(raw, path, 2)
    with pytest.raises(checks.CheckFailed, match="not a level-1 crossing"):
        checks.check_erased_path([O, Q, R], [O, Q, A], 1)


def test_neighbours_follow_the_gasket():
    assert checks.neighbours((1, 1), (0, 2))  # the unit triangle at (0, 1)
    assert not checks.neighbours((1, 1), (2, 1))  # the one at (1, 1) is a hole


def _skeleton():
    # Depth 1, the shape (0,0) (1,0) (1,1) (0,2): three one-visit cells.
    return [
        {"corner": [0, 0], "entry": [0, 0], "exit": [1, 0], "kind": 1},
        {"corner": [1, 0], "entry": [1, 0], "exit": [1, 1], "kind": 1},
        {"corner": [0, 1], "entry": [1, 1], "exit": [0, 2], "kind": 1},
    ]


def test_skeleton_rejects_a_broken_chain():
    checks.check_skeleton(_skeleton(), 1, 3, 0)
    broken = _skeleton()
    broken[2]["entry"] = [0, 1]
    with pytest.raises(checks.CheckFailed, match="does not start where"):
        checks.check_skeleton(broken, 1, 3, 0)
    with pytest.raises(checks.CheckFailed, match="kinds"):
        checks.check_skeleton(_skeleton(), 1, 2, 1)
    repeat = _skeleton()
    repeat[0]["kind"] = repeat[2]["kind"] = 2  # both pass the third corner (0, 1)
    with pytest.raises(checks.CheckFailed, match="repeats"):
        checks.check_skeleton(repeat, 1, 1, 2)


PHI = {(2, 0): F(15, 30), (1, 1): F(8, 30), (0, 2): F(1, 30), (2, 1): F(2, 30), (3, 0): F(4, 30)}
THETA = {(2, 0): F(5, 45), (1, 1): F(11, 45), (0, 2): F(2, 45), (2, 1): F(14, 45),
         (3, 0): F(8, 45), (1, 2): F(5, 45)}


def _mul(p, q):
    out = {}
    for (a, b), c in p.items():
        for (x, y), d in q.items():
            out[(a + x, b + y)] = out.get((a + x, b + y), 0) + c * d
    return out


def _compose(poly, px, py):
    out = {}
    for (a, b), c in poly.items():
        term = {(0, 0): c}
        for _ in range(a):
            term = _mul(term, px)
        for _ in range(b):
            term = _mul(term, py)
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return out


def test_compose_rejects_a_wrong_mean():
    checks.check_compose(PHI, THETA, 1)
    checks.check_compose(_compose(PHI, PHI, THETA), _compose(THETA, PHI, THETA), 2)
    wrong = dict(PHI)
    wrong[(2, 0)] -= F(1, 30)
    wrong[(3, 0)] += F(1, 30)  # still sums to 1, but the mean moves
    with pytest.raises(checks.CheckFailed, match="mean"):
        checks.check_compose(wrong, THETA, 1)
    with pytest.raises(checks.CheckFailed, match=r"\(1,1\)"):
        checks.check_compose({**PHI, (0, 0): F(1, 30)}, THETA, 1)


def test_exact_report_rejects_lambda_off_in_the_35th_digit():
    lam, dim = ref.lam_and_dim()
    rows = _rows()
    ids = checks.check_mass_table(rows)
    rep = {
        "lambda": str(lam), "dim": str(dim),
        "mean_matrix": [[str(x) for x in row] for row in ref.M],
        "shapes": [{"id": i, "path": p, "p_direct": str(d), "p_via": str(v)}
                   for i, p, d, v in rows],
    }
    checks.check_exact_report(rep, ids)
    off = dict(rep, **{"lambda": str(lam + lam.scaleb(-35))})
    with pytest.raises(checks.CheckFailed, match="lambda"):
        checks.check_exact_report(off, ids)


def test_moments_rejects_a_rewritten_order():
    payload = {"order": 8, "moments": {str(k): [1.0, 1.0] for k in range(1, 9)},
               "residuals": {}, "tolerance": 1e-9}
    checks.check_moments_report(payload, 8)
    with pytest.raises(checks.CheckFailed, match="asked for 1"):
        checks.check_moments_report(payload, 1)


def _moments(order: int, residual: float = 0.0) -> dict:
    return {"order": order, "moments": {str(k): [1.0, 1.0] for k in range(1, order + 1)},
            "residuals": {"0.5": {"phi1": residual, "phi2": 0.0}}, "tolerance": 1e-9}


def test_moments_one_counts_only_the_exact_known_fault():
    checks.check_moments_one(_moments(1))  # the fault mended
    with pytest.raises(checks.KnownFault):
        checks.check_moments_one(_moments(8))
    for wrong in (_moments(8, residual=1.0), _moments(1, residual=1.0), _moments(3),
                  dict(_moments(8), moments={"1": [1.0, 1.0]})):
        with pytest.raises(checks.CheckFailed) as err:
            checks.check_moments_one(wrong)
        assert not isinstance(err.value, checks.KnownFault)


def test_length_gate_rejects_a_mean_off_by_four_sigma():
    target = float(ref.length_mean(4, (0, 1)))
    checks.gate_length({"mean_length": target + 2.9, "stderr": 1.0}, 4, (0, 1))
    with pytest.raises(checks.CheckFailed, match="z = 4"):
        checks.gate_length({"mean_length": target + 4.0, "stderr": 1.0}, 4, (0, 1))


def test_dimension_rejects_a_slope_off_by_a_tenth():
    target = float(ref.lam_and_dim()[1])
    checks.check_dimension_report({"samples": 8, "depth": 12, "mean_slope": target}, 12, 8)
    with pytest.raises(checks.CheckFailed, match="mean slope"):
        checks.check_dimension_report(
            {"samples": 8, "depth": 12, "mean_slope": target + 0.1}, 12, 8)
