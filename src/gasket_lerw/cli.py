"""Command-line entry point.

Every command takes its level, depth or order as one positional argument,
and ``--out`` and ``--format``; beyond those, only the options it reads.
``harness.COMMANDS`` lists them, with each level's default and range.
Each Monte Carlo command has one sampler, at every level, and both
condition a crossing one way: each leg is walked once and mapped onto its
target by a symmetry of the two cells at its start.  ``mc-length`` runs
``walker.sample_crossing``, which keeps every step, and ``mc-shapes`` runs
``walker.sample_patterns``, which keeps only the level-(N-1) visits;
each replica classifies every distinct pattern once.  ``--threads T``
starts min(T, replicas) worker processes, none for one replica, and T may
be at most ``harness.MAX_THREADS``.
``--format csv`` and ``--format svg`` draw the ``limit-path`` sample into
``--out`` (the svg overlays depths 0, 2, 4 and M); every other command
writes JSON only.

Exit codes: 0 on success, 2 when a statistical acceptance test fails,
1 on usage or I/O errors (an option the command does not read among them),
on a level, depth or order outside a command's range, on a negative
``--seed``, on ``--threads`` outside 1..``harness.MAX_THREADS``, on
``mc-shapes`` samples too few for two chi-square cells after pooling (before
any walk), on a format the command cannot write or a drawing without
``--out``, and on a runtime failure of the samplers or the exact solver (a
walk past its step budget, a singular linear system, memory the machine
cannot give).  Every exit 1 prints one ``error: ...`` line on standard
error.
"""

from __future__ import annotations

import argparse
import sys

from .exact import SingularSystem
from .harness import COMMANDS, RunConfig, run, summarize
from .walker import CrossingVariant, StepBudgetExceeded

_OPTION_ARGS = {
    "samples": {"type": int},
    "seed": {"type": int},
    "threads": {"type": int},
    "variant": {"choices": [v.value for v in CrossingVariant]},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # ``main`` prints it as the one ``error:`` line, without the usage block.
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gasket-lerw",
        description="Loop-erased random walks on the pre-Sierpinski gasket",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, row in COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument(
            "quantity",
            nargs="?",
            type=int,
            default=row.default,
            help=f"{row.help}, {row.span()} (default {row.default})",
        )
        for name in row.options:
            # Left unset when not given: RunConfig holds the defaults.
            p.add_argument(f"--{name}", default=argparse.SUPPRESS, **_OPTION_ARGS[name])
        p.add_argument("--out", default=None, help="output path prefix")
        p.add_argument("--format", dest="fmt", choices=["json", "csv", "svg"], default="json")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    options = {k: getattr(args, k) for k in COMMANDS[args.command].options if hasattr(args, k)}
    if "variant" in options:
        options["variant"] = CrossingVariant(options["variant"])
    return RunConfig(
        command=args.command, level=args.quantity, out=args.out, fmt=args.fmt, **options
    )


def main(argv: list[str] | None = None) -> int:
    try:
        report = run(config_from_args(build_parser().parse_args(argv)))
    except SystemExit:  # --help printed its text
        return 0
    except (ValueError, OSError, StepBudgetExceeded, SingularSystem, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    print(summarize(report))
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
