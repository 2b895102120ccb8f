"""Monte Carlo orchestration: runs, statistics, and artifact emission.

All commands are driven by a ``RunConfig`` and are reproducible from
(config, seed): replicas are fixed-size sample chunks with streams indexed
by replica number, so the thread count changes wall-clock only, never a
number.  Written artifacts are byte-identical across re-runs; wall-clock
timing is reported on the console and deliberately kept out of files.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from math import sqrt
from pathlib import Path
from typing import Callable, NamedTuple

import mpmath
import numpy as np

from . import __version__, eraser, exact, limit, walker
from .walker import CrossingVariant

REPLICA_CHUNK = 2000
# Each --threads worker is a forked copy of the interpreter, started at the
# first replica handed out, so the thread count is bounded before any work:
# a mistyped --threads 5000 must fail, not fork 5000 processes.  64 exceeds
# the 50 replicas of the largest default run (mc-shapes 1, 100k samples).
MAX_THREADS = 64
P_VALUE_FLOOR = 1e-3
DIMENSION_TOLERANCE = 0.05
RESIDUAL_TOLERANCE = 1e-9
MIN_EXPECTED = 5.0  # chi-square cells expecting fewer counts are pooled
SKELETON_CHUNK = 4096  # skeleton records formatted per write
SKELETON_RECORD = (  # one skeleton record and its separator, eight integer slots
    '{{"corner": [{}, {}], "level": 0, "entry": [{}, {}], "exit": [{}, {}], '
    '"kind": {}, "exit_index": {}}},\n '
)


class DegenerateCells(ValueError):
    """Pooling low-expectation cells left fewer than two categories."""


# ---------------------------------------------------------------------------
# Chi-square with pooling
# ---------------------------------------------------------------------------


def pooled_cells(probs: list[float], n: float) -> list[tuple[float, tuple[int, ...]]]:
    """The chi-square cells for ``n`` observations of the masses ``probs``, as
    (mass, positions pooled): the smallest merge first, equal masses by position,
    while below ``MIN_EXPECTED`` counts.  Raises ``DegenerateCells`` below two."""
    cells = sorted((p, k, (k,)) for k, p in enumerate(probs))
    while len(cells) > 1 and cells[0][0] * n < MIN_EXPECTED:
        (p0, k0, m0), (p1, k1, m1) = cells[0], cells[1]
        cells = sorted([(p0 + p1, min(k0, k1), m0 + m1)] + cells[2:])
    if len(cells) < 2:
        raise DegenerateCells(f"{n:g} observations leave fewer than two cells after pooling")
    return [(p, members) for p, _, members in cells]


def chi_square(
    observed: dict[str, int] | list[int],
    expected: dict[str, float] | list[float],
) -> tuple[float, float]:
    """Pearson statistic over ``pooled_cells`` and its p-value
    ``_upper_gamma_q(df, stat / 2)`` (df = cells - 1)."""
    if not isinstance(observed, dict):  # lists name their cells by position
        observed, expected = dict(enumerate(observed)), dict(enumerate(expected))
    keys = sorted(set(observed) | set(expected))
    obs = [float(observed.get(k, 0)) for k in keys]
    probs = [float(expected.get(k, 0.0)) for k in keys]
    total_p = sum(probs)
    if abs(total_p - 1.0) > 1e-9:
        raise ValueError(f"expected probabilities sum to {total_p}, not 1")
    n = sum(obs)
    cells = pooled_cells(probs, n)  # fewer than MIN_EXPECTED observations pool into one
    stat = sum((sum(obs[k] for k in m) - p * n) ** 2 / (p * n) for p, m in cells)
    return stat, _upper_gamma_q(len(cells) - 1, stat / 2)


def _upper_gamma_q(df: int, x: float) -> float:
    """Q(df/2, x), the regularized upper incomplete gamma, in closed form at
    ``exact.PRECISION_DPS`` digits: e^-x times the sum of x^j / j! over
    j < df/2 for even df, and erfc(sqrt x) plus e^-x times the sum of
    x^(j + 1/2) / Gamma(j + 3/2) over j < (df - 1)/2 for odd df."""
    with mpmath.workdps(exact.PRECISION_DPS):
        x = mpmath.mpf(x)
        if df % 2:
            head = mpmath.erfc(mpmath.sqrt(x))
            term = 2 * mpmath.sqrt(x / mpmath.pi)  # x^(1/2) / Gamma(3/2)
            order = mpmath.mpf(1.5)
        else:
            head, term, order = 0, mpmath.mpf(1), 1
        total = 0
        for _ in range(df // 2):
            total += term
            term = term * x / order
            order += 1
        return float(head + mpmath.exp(-x) * total)


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------


SVG_WIDTH = 720
SVG_MARGIN = 24.0
SVG_STROKE_WIDTH = 1.4
SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")


def emit_svg(paths) -> str:
    """Standalone SVG of one or more RefinedPaths in the Euclidean embedding.

    ``paths`` may be a RefinedPath or a list of them; each list entry gets
    the next palette color.  Output is deterministic.
    """
    if isinstance(paths, limit.RefinedPath):
        paths = [paths]
    if not paths:
        raise ValueError("nothing to draw")
    polys = [p.polyline()[:, 1:].tolist() for p in paths]
    pts = [pt for poly in polys for pt in poly]
    x0 = min(p[0] for p in pts)
    x1 = max(p[0] for p in pts)
    y0 = min(p[1] for p in pts)
    y1 = max(p[1] for p in pts)
    span = max(x1 - x0, y1 - y0, 1e-9)
    inner = SVG_WIDTH - 2 * SVG_MARGIN
    scale = inner / span
    height = (y1 - y0) * scale + 2 * SVG_MARGIN

    def here(p: tuple[float, float]) -> str:
        x = SVG_MARGIN + (p[0] - x0) * scale
        y = height - (SVG_MARGIN + (p[1] - y0) * scale)
        return f"{x:.3f},{y:.3f}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{height:.3f}" viewBox="0 0 {SVG_WIDTH} {height:.3f}">'
    ]
    for k, poly in enumerate(polys):
        color = SVG_PALETTE[k % len(SVG_PALETTE)]
        out.append(
            f'<polyline points="{" ".join(here(p) for p in poly)}" fill="none" '
            f'stroke="{color}" stroke-width="{SVG_STROKE_WIDTH}"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Configuration and reports
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    """What one command takes, its positional level (crossing level N,
    depth M or moment order K) and the ``RunConfig`` options it reads, and
    the function that runs it."""

    help: str
    default: int
    lo: int
    hi: int
    run: Callable[[RunConfig], tuple[dict, bool]]  # the payload and its verdict
    options: tuple[str, ...] = ()  # the OPTIONS it reads

    def span(self) -> str:
        return f"in {self.lo}..{self.hi}"


# RunConfig fields that only some commands read.
OPTIONS = ("samples", "seed", "threads", "variant")


@dataclass(frozen=True)
class RunConfig:
    command: str
    level: int = 1  # crossing level N, or depth M, or moment order K
    samples: int | None = None
    seed: int = 0
    threads: int = 1
    variant: CrossingVariant = CrossingVariant.DIRECT
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        row = COMMANDS[self.command]
        for f in dataclasses.fields(self):
            unread = f.name in OPTIONS and f.name not in row.options
            if unread and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.command} does not read {f.name}")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.command == "mc-length" and self.samples is not None and self.samples < 2:
            raise ValueError(f"mc-length needs at least 2 samples, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(f"threads must be in 1..{MAX_THREADS}, got {self.threads}")
        if self.fmt not in ("json", "csv", "svg"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.fmt != "json" and self.command != "limit-path":
            raise ValueError(f"{self.command} writes json only, not {self.fmt}")
        if self.fmt != "json" and self.out is None:
            raise ValueError(f"--format {self.fmt} needs --out")
        if not row.lo <= self.level <= row.hi:
            raise ValueError(f"{self.command} needs a level {row.span()}, got {self.level}")

    def effective_samples(self) -> int:
        """Samples of a command that reads ``samples``.

        Above level 8 the walk defaults fall 5x per level, as a walk's mean
        length grows, so a default run walks about as far as at level 8.
        """
        if self.samples is not None:
            return self.samples
        if self.command == "mc-shapes":
            base = 100_000 if self.level == 1 else 10_000
        elif self.command == "mc-length":
            base = 10_000 if self.level <= 4 else 1_000
        else:
            return 100  # dimension
        return base // 5 ** max(0, self.level - 8)

    def to_dict(self) -> dict:
        # Provenance keeps the fields that determine the numbers; thread
        # count and output routing are execution details.
        d = dataclasses.asdict(self)
        d["variant"] = self.variant.value
        for transient in ("out", "fmt", "threads"):
            d.pop(transient)
        return d


@dataclass(frozen=True)
class McReport:
    command: str
    config: dict
    build: str
    payload: dict
    passed: bool
    wall_clock_s: float = field(compare=False, default=0.0)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "build": self.build,
            "passed": self.passed,
            **{k: v for k, v in self.payload.items() if not k.startswith("_")},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


@lru_cache(maxsize=None)
def build_id() -> str:
    label = f"gasket-lerw {__version__}"
    try:
        rev = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            label = f"{label} ({rev.stdout.strip()})"
    except (OSError, subprocess.SubprocessError):
        pass
    return label


# ---------------------------------------------------------------------------
# Replica workers (top level, picklable)
# ---------------------------------------------------------------------------


def classify_top_shape(pattern, level: int, table=None) -> str:
    """Shape id of the loop-free coarse view one level below the apex.

    The level-(N-1) walk pattern, as ``sample_patterns`` records it, is
    chronologically erased (the vertices at ``eraser._sup_rule_keep``'s
    indices) and rescaled to the unit frame in one pass; its law is exactly
    the level-1 loop-erased crossing law.  ``_shapes_worker`` calls it once
    per distinct pattern of a replica.  Raises ``eraser.UnknownShape`` when
    the erased view is not an admissible shape.
    """
    shift = level - 1
    kept = (pattern[t] for t in eraser._sup_rule_keep(pattern))
    return eraser.classify_shape(tuple((i >> shift, j >> shift) for i, j in kept), table)


def _shapes_worker(config: RunConfig, replica: int, count: int) -> tuple[Counter, int]:
    """Shape counts of one replica, and the raw walk steps behind them.

    Most patterns repeat one already drawn in the replica (about 72% at
    level 1), so each distinct pattern is classified once and counted with
    its multiplicity.
    """
    rng = walker.replica_rng(config.seed, replica)
    table = exact.shape_table()
    patterns, raw_steps = walker.sample_patterns(config.level, config.variant, count, rng)
    shapes = Counter()
    for pattern, n in Counter(patterns).items():
        shapes[classify_top_shape(pattern, config.level, table)] += n
    return shapes, raw_steps


def _length_worker(config: RunConfig, replica: int, count: int) -> tuple[int, float, float, int]:
    """Sample count, sum and sum of squares of the erased lengths of one
    replica, and the raw walk steps behind them."""
    rng = walker.replica_rng(config.seed, replica)
    total = 0.0
    total_sq = 0.0
    raw_steps = 0
    for _ in range(count):
        path = walker.sample_crossing(config.level, config.variant, rng)
        raw_steps += len(path) - 1
        ell = float(len(eraser.loop_erase(path)) - 1)
        total += ell
        total_sq += ell * ell
    return count, total, total_sq, raw_steps


def _dimension_worker(config: RunConfig, replica: int, count: int) -> list[float]:
    """Box-counting slopes of one replica's runs, whose level counts are
    drawn together on the replica's stream."""
    rng = walker.replica_rng(config.seed, replica)
    counts = limit.sample_branching_counts(config.level, count, rng)
    return [limit.box_count_dimension(counts[:, k].tolist()) for k in range(count)]


def _run_replicas(worker, config: RunConfig) -> list:
    """``worker(config, replica, count)`` for each ``REPLICA_CHUNK`` chunk of
    the samples, in replica order.  The split never depends on the thread
    count, so neither does any stream.  At most one worker process is
    started per replica, and none for a single one."""
    n = config.effective_samples()
    counts = [min(REPLICA_CHUNK, n - start) for start in range(0, n, REPLICA_CHUNK)]
    args = (repeat(config), range(len(counts)), counts)
    workers = min(config.threads, len(counts))
    if workers == 1:
        return list(map(worker, *args))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, *args))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def run(config: RunConfig) -> McReport:
    started = time.perf_counter()
    payload, passed = COMMANDS[config.command].run(config)
    report = McReport(
        command=config.command,
        config=config.to_dict(),
        build=build_id(),
        payload=payload,
        passed=passed,
        wall_clock_s=time.perf_counter() - started,
    )
    if config.out:
        _write_artifacts(config, report)
    return report


def _run_exact(config: RunConfig) -> tuple[dict, bool]:
    return {"exact": exact.exact_report(moment_order=config.level)}, True


def _run_mc_shapes(config: RunConfig) -> tuple[dict, bool]:
    expected = {k: float(v) for k, v in exact.shape_table().column(config.variant).items()}
    pooled_cells(list(expected.values()), config.effective_samples())  # fails before any walk
    results = _run_replicas(_shapes_worker, config)
    counts = sum((part for part, _ in results), Counter())
    stat, p_value = chi_square(counts, expected)
    payload = {
        "samples": config.effective_samples(),
        "counts": dict(sorted(counts.items())),
        "expected": {k: expected[k] for k in sorted(expected)},
        "statistic": stat,
        "p_value": p_value,
        "threshold": P_VALUE_FLOOR,
        "raw_steps": sum(steps for _, steps in results),
    }
    return payload, p_value > P_VALUE_FLOOR


def _run_mc_length(config: RunConfig) -> tuple[dict, bool]:
    results = _run_replicas(_length_worker, config)
    count = sum(r[0] for r in results)
    total = sum(r[1] for r in results)
    total_sq = sum(r[2] for r in results)
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0) * count / max(count - 1, 1)
    se = sqrt(var / count)
    lam = float(limit.growth_rate())
    scale = lam**-config.level
    ancestor = (1, 0) if config.variant is CrossingVariant.DIRECT else (0, 1)
    exact_mean = float(exact.length_mean(config.level, ancestor))
    # With no spread there is no z-score, and nothing to pass on.
    z = (mean - exact_mean) / se if se > 0 else None
    payload = {
        "samples": count,
        "mean_length": mean,
        "stderr": se,
        "scaled_mean": mean * scale,
        "scaled_stderr": se * scale,
        "exact_mean": exact_mean,
        "z_score": z,
        "growth_rate": lam,
        "raw_steps": sum(r[3] for r in results),
    }
    return payload, z is not None and abs(z) <= 3.0


def _run_limit_path(config: RunConfig) -> tuple[dict, bool]:
    rng = walker.replica_rng(config.seed, 0)
    family = limit.sample_refined_family(config.level, rng)
    path = family[-1]
    s1, s2 = path.s_counts()
    payload = {
        "depth": path.depth,
        "cells": len(path.rows),
        "counts": {"one_visit": s1, "two_visit": s2},
        "scaled_length": path.scaled_length(),
        "repeated_junctions": path.repeated_junctions(),
        "_family": family,  # consumed by the artifact writer, stripped from JSON
    }
    return payload, payload["repeated_junctions"] == 0


def _run_dimension(config: RunConfig) -> tuple[dict, bool]:
    results = _run_replicas(_dimension_worker, config)
    slopes = [s for part in results for s in part]
    mean = sum(slopes) / len(slopes)
    sd = sqrt(sum((s - mean) ** 2 for s in slopes) / max(len(slopes) - 1, 1))
    target = float(exact.spectral_data().dim)
    payload = {
        "samples": len(slopes),
        "depth": config.level,
        "mean_slope": mean,
        "sd_slope": sd,
        "target_dimension": target,
        "tolerance": DIMENSION_TOLERANCE,
    }
    return payload, abs(mean - target) <= DIMENSION_TOLERANCE


def _run_moments(config: RunConfig) -> tuple[dict, bool]:
    table = exact.moment_table(config.level)
    residuals = {}
    worst = 0.0
    for t in (-0.5, -0.1, 0.1):
        r1, r2, rem = exact.functional_equation_residual(table, t)
        residuals[str(t)] = {
            "phi1": float(r1),
            "phi2": float(r2),
            "remainder_estimate": float(rem),
        }
        worst = max(worst, float(r1), float(r2))
    payload = {
        "order": table.K,
        "moments": {str(k): [float(x) for x in table.moment(k)] for k in range(1, table.K + 1)},
        "w_prime_mean": float(table.w_prime_mean),
        "residuals": residuals,
        "tolerance": RESIDUAL_TOLERANCE,
    }
    if table.K >= 2:  # the variance needs the second moment
        payload["w_prime_variance"] = float(table.w_prime_variance)
    return payload, worst < RESIDUAL_TOLERANCE


COMMANDS = {
    "exact": Command(
        "moment order K for the exact report", 8, 1, exact.MAX_MOMENT_ORDER, _run_exact
    ),
    "mc-shapes": Command("crossing level N", 1, 1, walker.MAX_LEVEL, _run_mc_shapes, OPTIONS),
    "mc-length": Command(
        "crossing level N", 3, 1, walker.MAX_ERASED_LEVEL, _run_mc_length, OPTIONS
    ),
    "limit-path": Command(
        "refinement depth M", 8, 0, limit.MAX_DEPTH, _run_limit_path, ("seed",)
    ),
    "dimension": Command(
        "refinement depth M",
        10,
        limit.MIN_BOX_DEPTH,
        limit.MAX_DEPTH,
        _run_dimension,
        ("samples", "seed", "threads"),
    ),
    "moments": Command("number of moments K", 8, 1, exact.MAX_MOMENT_ORDER, _run_moments),
}


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------


def _write_artifacts(config: RunConfig, report: McReport) -> None:
    out = Path(config.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    family = report.payload.get("_family")
    if config.fmt == "json":
        Path(f"{out}.json").write_text(report.to_json())
        if family is not None:
            _write_skeleton(family[-1], Path(f"{out}.skeleton.json"))
    elif config.fmt == "csv":
        rows = ["t,x,y"]
        rows += [f"{t:.15g},{x:.15g},{y:.15g}" for t, x, y in family[-1].polyline().tolist()]
        Path(f"{out}.csv").write_text("\n".join(rows) + "\n")
    elif config.fmt == "svg":
        shown = [m for m in family if m.depth in (0, 2, 4, family[-1].depth)]
        Path(f"{out}.svg").write_text(emit_svg(shown))


def _write_skeleton(path: limit.RefinedPath, target: Path) -> None:
    """The cells of ``path`` as a JSON list, one record per line.

    Each record is ``{"corner": [i, j], "level": 0, "entry": [i, j],
    "exit": [i, j], "kind": k, "exit_index": n}``: the cell's lower-left
    corner, entry and exit in depth-scale integer coordinates, its kind
    (1 one-visit, 2 two-visit) and its position n in the chain.  Records
    are laid out as bytes a chunk at a time: a fixed-width record with a
    slot of NUL bytes for each integer, each slot filled from one table of
    the digits of every value the file holds, and the NULs of leading zeros
    dropped from the bytes at once.
    """
    rows = path.rows
    # Coordinates are at most 2**depth + 1 and positions fewer than the cells.
    top = max(int(rows[:, 0:2].max()) + 1, len(rows) - 1)
    width = len(str(top))
    # The ASCII digits of every value up to top, most significant first; a
    # digit is a leading zero, and stays NUL, when the value is below its
    # place value.  The units digit always shows.
    values = np.arange(top + 1, dtype=np.uint32)
    digits = np.empty((top + 1, width), np.uint8)
    q = values
    for k in range(width - 1, -1, -1):
        q, digits[:, k] = np.divmod(q, 10)
    digits += ord("0")
    lead = 10 ** np.arange(width - 1, -1, -1, dtype=np.uint32)
    lead[-1] = 0
    digits *= values[:, None] >= lead
    # A value's digits, and each integer's slot in a chunk of records, as
    # single width-byte items: filling a slot is one gather of items.
    item = np.dtype(f"V{width}")
    table = digits.view(item).ravel()
    record = SKELETON_RECORD.format(*["\0" * width] * 8).encode()
    text = np.tile(np.frombuffer(record, np.uint8), (min(SKELETON_CHUNK, len(rows)), 1))
    firsts = np.flatnonzero(text[0] == 0)[::width]
    slots = [
        np.ndarray(shape=len(text), dtype=item, buffer=text, offset=s, strides=text.strides[:1])
        for s in firsts
    ]
    ends = limit.ORIENTATIONS[:, 0:2].reshape(6, 4)  # entry and exit offsets
    with target.open("wb") as fh:
        fh.write(b"[\n ")
        for start in range(0, len(rows), SKELETON_CHUNK):
            chunk = rows[start : start + SKELETON_CHUNK]
            n = len(chunk)
            points = limit.corner_plus(chunk, ends).T
            fields = (chunk[:, 0], chunk[:, 1], *points, chunk[:, 3], np.arange(start, start + n))
            for slot, field in zip(slots, fields):
                slot[:n] = np.take(table, field)
            fh.write(text[:n].tobytes().translate(None, b"\0"))
        fh.seek(-len(",\n "), 1)  # the last record takes no separator
        fh.write(b"\n]\n")


def summarize(report: McReport) -> str:
    """One console line per run; the only place timing appears."""
    verdict = "pass" if report.passed else "FAIL"
    keys = (
        "p_value",
        "z_score",
        "mean_slope",
        "scaled_mean",
        "scaled_length",
        "repeated_junctions",
        "w_prime_mean",
    )
    bits = [f"{k}={report.payload[k]:.6g}" for k in keys if report.payload.get(k) is not None]
    return (
        f"[{report.command}] {verdict} "
        + " ".join(bits)
        + f" ({report.wall_clock_s:.2f}s, {report.build})"
    )
