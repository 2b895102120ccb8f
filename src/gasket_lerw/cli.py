"""Command-line entry point.

Every command takes its level, depth or order as one positional argument.
Each Monte Carlo command has one sampler: ``mc-shapes`` runs the lockstep
kernel ``walker.sample_patterns`` and ``mc-length`` the scalar
``walker.sample_crossing``, at every level.  ``--format csv`` and
``--format svg`` draw the ``limit-path`` sample (the svg overlays depths
0, 2, 4 and M); every other command writes JSON only.

Exit codes: 0 on success, 2 when a statistical acceptance test fails,
1 on usage or I/O errors, on a level, depth or order outside a command's
range, on a format the command cannot write, and on a runtime failure of
the samplers or the exact solver (a walk past its step budget, a singular
linear system).  Every exit 1 prints one ``error: ...`` line on standard
error.
"""

from __future__ import annotations

import argparse
import sys

from .exact import SingularSystem
from .harness import COMMANDS, RunConfig, run, summarize
from .walker import CrossingVariant, StepBudgetExceeded

_QUANTITY_HELP = {
    "exact": ("order", "moment order for the exact report, 1..12 (default 8)"),
    "mc-shapes": ("level", "crossing level N"),
    "mc-length": ("level", "crossing level N"),
    "limit-path": ("depth", "refinement depth M"),
    "dimension": ("depth", "refinement depth M"),
    "moments": ("order", "number of moments K, 1..12"),
}

_DEFAULT_LEVEL = {
    "exact": 8,
    "mc-shapes": 1,
    "mc-length": 3,
    "limit-path": 8,
    "dimension": 10,
    "moments": 8,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasket-lerw",
        description="Loop-erased random walks on the pre-Sierpinski gasket",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        name, help_text = _QUANTITY_HELP[command]
        p = sub.add_parser(command)
        p.add_argument("quantity", nargs="?", type=int, default=None, help=help_text)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument(
            "--variant",
            choices=[v.value for v in CrossingVariant],
            default=CrossingVariant.DIRECT.value,
        )
        p.add_argument("--out", default=None, help="output path prefix")
        p.add_argument("--format", dest="fmt", choices=["json", "csv", "svg"], default="json")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    level = args.quantity if args.quantity is not None else _DEFAULT_LEVEL[args.command]
    return RunConfig(
        command=args.command,
        level=level,
        samples=args.samples,
        seed=args.seed,
        threads=args.threads,
        variant=CrossingVariant(args.variant),
        out=args.out,
        fmt=args.fmt,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report = run(config)
    except (ValueError, OSError, StepBudgetExceeded, SingularSystem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summarize(report))
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
