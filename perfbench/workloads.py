"""The three workloads, as rounds of operations.

An operation is one ``gasket-lerw`` command line (run through
``harness.run`` exactly as ``cli.main`` would, minus the console line) or
one library call, together with its checks.  A round runs every operation of
its workload once; runs repeat whole rounds, so every run attempts the same
operations in the same proportions.

Round 1 (``SEEDED_ROUND``) takes its program seed from the run's ``--seed``
and is checked but not timed; every other round uses ``CHECK_SEED``.  So the
timed rounds of every run repeat the same inputs, and their times do not
follow the work a seed happens to ask for (a command's time varies by 15-30%
between seeds).  Round 0 also carries the distributional gates, whose
verdict therefore does not depend on the seed either.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

CHECK_SEED = 12094959
SEEDED_ROUND = 1

# Samples per command, sized so that one round takes a few seconds on a
# 2-core machine at --threads 1.
SHAPES = (("1", "direct", 8000), ("3", "via-corner", 800), ("5", "direct", 80))
LENGTHS = (("6", "direct", 24), ("4", "via-corner", 240))
# `dimension 12` runs as several short commands (seeds seed + k): a command's
# time against the calibration loops timed next to it is steadier when the
# command is short, and the workload's throughput rests on these alone.
DIMENSION = ("12", 2, 8)  # depth, samples per command, commands per round
# The deep path always uses CHECK_SEED: its cell count, and with it the peak
# memory of the run, varies by about 24% between seeds.
LIMIT_DEPTH = 15
COMPOSE_LEVELS = (1, 2, 3, 4)


@dataclass
class Op:
    label: str
    call: Callable[[], object]  # the timed part
    check: Callable[[object], None]  # raises checks.CheckFailed
    units: Callable[[object], int] = lambda result: 0  # throughput units done
    gate: Callable[[object], None] | None = None  # fixed-seed round only
    level: int | None = None  # of the crossings the traced run sees erased
    span: str = "harness.run"  # the traced run's span around the call
    attrs: Callable[[object], dict] = lambda result: {}  # span attributes from the result


class Program:
    """The program's modules and the state set up once per process."""

    def __init__(self, modules, tmp: Path):
        self.__dict__.update(modules)
        self.tmp = tmp
        table = self.exact.shape_table()
        rows = [(s.shape_id, s.path, s.p_direct, s.p_via) for s in table.shapes]
        self.ids = checks.check_mass_table(rows)
        self.phi, self.theta = self.exact.build_phi_theta(table)
        self.limit_digest = None  # of the first deep path written, once checked

    def command(self, argv: list[str]):
        parser = self.cli.build_parser()
        return self.harness.run(self.cli.config_from_args(parser.parse_args(argv)))


def round_seed(seed: int, r: int) -> int:
    if r != SEEDED_ROUND:
        return CHECK_SEED
    import numpy as np  # imported late so that set-up timing sees the program's import

    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def crossing_shapes(prog: Program, seed: int) -> list[Op]:
    ops = []
    for level, variant, n in SHAPES:
        argv = ["mc-shapes", level, "--variant", variant, "--samples", str(n),
                "--seed", str(seed), "--threads", "1"]

        def counts(report, variant=variant, n=n):
            return checks.check_shapes_report(report.payload, variant, n, prog.ids)

        ops.append(Op(
            label=" ".join(argv[:4]),
            call=lambda argv=argv: prog.command(argv),
            check=counts,
            units=lambda report: report.payload["samples"],
            gate=lambda report, counts=counts, variant=variant: checks.gate_shapes(
                counts(report), variant),
        ))
    return ops


def erased_length(prog: Program, seed: int) -> list[Op]:
    ops = []
    for level, variant, n in LENGTHS:
        argv = ["mc-length", level, "--variant", variant, "--samples", str(n),
                "--seed", str(seed), "--threads", "1"]
        ancestor = (1, 0) if variant == "direct" else (0, 1)
        ops.append(Op(
            label=" ".join(argv[:4]),
            call=lambda argv=argv: prog.command(argv),
            check=lambda r, lv=int(level), a=ancestor, n=n: checks.check_length_report(
                r.payload, lv, a, n),
            units=lambda report: report.payload["samples"],
            gate=lambda r, lv=int(level), a=ancestor: checks.gate_length(r.payload, lv, a),
            level=int(level),
        ))
    return ops


def _poly(p) -> dict:
    return {k: Fraction(v) for k, v in p.coeffs.items()}


def compose_op(prog: Program, level: int) -> Op:
    def check(result):
        phi, theta = _poly(result[0]), _poly(result[1])
        checks.check_compose(phi, theta, level)

    def attrs(result):
        coeffs = [c for p in result for c in p.coeffs.values()]
        return {
            "level": level,
            "terms": len(coeffs),
            "den_bits": max(Fraction(c).denominator.bit_length() for c in coeffs),
        }

    return Op(
        label=f"compose_level {level}",
        call=lambda: prog.exact.compose_level(prog.phi, prog.theta, level),
        check=check,
        span="exact.compose",
        attrs=attrs,
    )


def scaling_limit(prog: Program, seed: int) -> list[Op]:
    depth, n, commands = DIMENSION
    prefix = prog.tmp / "limit-path"

    def limit_path_check(report):
        """Check the artifacts in full once; later rounds wrote them from the
        same seed, so they must be byte-identical."""
        text = prefix.with_suffix(".json").read_bytes()
        skeleton = prefix.with_suffix(".skeleton.json").read_bytes()
        digest = hashlib.sha256(text + b"\0" + skeleton).hexdigest()
        if prog.limit_digest is not None:
            checks.require(digest == prog.limit_digest, "limit-path artifacts changed between runs")
            return
        rep, records = json.loads(text), json.loads(skeleton)
        counts = rep["counts"]
        checks.require(rep["depth"] == LIMIT_DEPTH and rep["cells"] == len(records), "cells")
        checks.check_skeleton(records, LIMIT_DEPTH, counts["one_visit"], counts["two_visit"])
        prog.limit_digest = digest

    ops = [
        Op("exact 12", lambda: prog.command(["exact", "12"]),
           lambda r: checks.check_exact_report(r.payload["exact"], prog.ids)),
        Op("moments 12", lambda: prog.command(["moments", "12"]),
           lambda r: checks.check_moments_report(r.payload, 12)),
    ]
    ops += [compose_op(prog, level) for level in COMPOSE_LEVELS]
    ops += [
        Op(f"dimension {depth} (seed + {k})",
           lambda k=k: prog.command(["dimension", depth, "--samples", str(n),
                                     "--seed", str(seed + k), "--threads", "1"]),
           lambda r: checks.check_dimension_report(r.payload, int(depth), n),
           units=lambda r: r.payload["samples"])
        for k in range(commands)
    ]
    ops += [
        Op(f"limit-path {LIMIT_DEPTH}",
           lambda: prog.command(["limit-path", str(LIMIT_DEPTH), "--seed", str(CHECK_SEED),
                                 "--out", str(prefix)]),
           limit_path_check),
        # harness._run_moments rewrites K=1 to K=8 and still exits 0.
        Op("moments 1", lambda: prog.command(["moments", "1"]),
           lambda r: checks.check_moments_one(r.payload)),
    ]
    return ops


WORKLOADS = {
    "crossing-shapes": crossing_shapes,
    "erased-length": erased_length,
    "scaling-limit": scaling_limit,
}


def reference_pass(prog: Program) -> list[Op]:
    """Small fixed calls that give every span family at least one sample;
    the traced run reads a layer from them only where its workload leaves
    the layer idle."""
    def unchecked(result):
        pass

    argvs = (
        ["mc-shapes", "3", "--samples", "40", "--seed", "1"],
        ["mc-length", "6", "--samples", "2", "--seed", "1"],
        ["exact", "12"],
        ["moments", "12"],
        ["dimension", "8", "--samples", "4", "--seed", "1"],
        ["limit-path", "12", "--seed", "1", "--out", str(prog.tmp / "reference")],
    )
    ops = [Op(" ".join(a[:2]), lambda a=a: prog.command(a), unchecked,
              level=int(a[1]) if a[0] == "mc-length" else None) for a in argvs]
    return ops + [compose_op(prog, level) for level in COMPOSE_LEVELS]
