"""One workload process: set up the program, then run rounds of operations.

Started by run.py.  It prints ``ready`` once set up (run.py times set-up up
to that line) and, unless ``--setup-only``, one JSON line with its results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

import checks
import spans
import workloads

ACCEPTANCE_ATTEMPTS = {"direct": 20000, "via-corner": 40000}
CALIBRATION_LOOPS = 100_000  # 15-40 ms on the 2-core sandbox
MIN_ROUNDS = workloads.SEEDED_ROUND + 2  # so that at least two rounds are timed


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop that shares no code with the
    program.  Timed next to an operation, it gauges the speed the machine
    gives this process at that moment (see README.md, "Steadiness")."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
    return time.perf_counter() - started


def set_up(tracer):
    """Imports and the caches a command needs, each timed as a setup span."""
    tracer.round = "setup"
    with tracer.span("harness.import"):
        modules = {name: importlib.import_module(f"gasket_lerw.{name}")
                   for name in ("cli", "harness", "walker", "eraser", "exact", "limit")}
    exact, limit, harness = modules["exact"], modules["limit"], modules["harness"]
    for name, call in (("exact.shape_table", exact.shape_table),
                       ("exact.spectral_data", exact.spectral_data),
                       ("limit.refinement_table", limit.refinement_table),
                       ("harness.build_id", harness.build_id)):
        with tracer.span(name):
            call()
    return modules


class Runner:
    def __init__(self, prog, workload: str, seed: int, tracer=None):
        self.prog = prog
        self.build = workloads.WORKLOADS[workload]
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []  # unexpected failures make the run incorrect
        self.known = 0

    def run_op(self, op, r: int) -> tuple[float, int]:
        """Run one operation and its checks; returns the call's wall time and
        the throughput units it did (none if it failed)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            if self.tracer is None:
                result = op.call()
                elapsed = time.perf_counter() - started
            else:
                with self.tracer.span(op.span, op=op.label) as attrs:
                    result = op.call()
                elapsed = time.perf_counter() - started
                attrs.update(op.attrs(result))
                erased = self.tracer.erased
                self.tracer.erased = []
                checks.require(not erased or op.level is not None, "unexpected loop_erase calls")
                for raw, path in erased:
                    checks.check_erased_path(raw, path, op.level)
            op.check(result)
            if r == 0 and op.gate is not None:
                op.gate(result)
        except checks.KnownFault:
            self.known += 1
            return time.perf_counter() - started, 0
        except Exception as exc:  # any other error is this operation's failure
            self.failures.append(f"round {r}, {op.label}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - started, 0
        return elapsed, op.units(result)

    def run_round(self, r: int) -> list[tuple[float, float, int]]:
        """Each operation's wall time, the mean time of the calibration loops
        timed just before and after it, and its units."""
        if self.tracer is not None:
            self.tracer.round = r
        out = []
        for op in self.build(self.prog, workloads.round_seed(self.seed, r)):
            before = calibration_s()
            elapsed, units = self.run_op(op, r)
            out.append((elapsed, (before + calibration_s()) / 2, units))
        return out

    def run_rounds(self, seconds: float) -> list[list[tuple[float, float, int]]]:
        """Whole rounds until ``seconds`` have passed, and at least ``MIN_ROUNDS``."""
        times = []
        started = time.perf_counter()
        while len(times) < MIN_ROUNDS or time.perf_counter() - started < seconds:
            times.append(self.run_round(len(times)))
        return times


def per_op(rounds) -> list[tuple[float, float, int]]:
    """Each operation's median wall time over the timed rounds, its median
    time in calibration loops, and its units in round 0.  The timed rounds
    are all but the seeded one, so they repeat the same inputs."""
    timed = [ops for r, ops in enumerate(rounds) if r != workloads.SEEDED_ROUND]
    return [(median(t for t, _, _ in op), median(t / c for t, c, _ in op), op[0][2])
            for op in zip(*timed)]


def acceptance(prog) -> tuple[dict, list[str]]:
    """Level-1 acceptance of the fine-walk trial, at a fixed seed."""
    out, failures = {}, []
    for variant, attempts in ACCEPTANCE_ATTEMPTS.items():
        rng = prog.walker.replica_rng(workloads.CHECK_SEED, 0)
        v = prog.walker.CrossingVariant(variant)
        accepted = sum(prog.walker.attempt_crossing(1, v, rng) is not None for _ in range(attempts))
        try:
            checks.gate_acceptance(accepted, attempts, variant)
        except checks.CheckFailed as exc:
            failures.append(str(exc))
        name = "walker.acceptance." + ("direct" if variant == "direct" else "via")
        out[name] = {"value": accepted / attempts, "unit": "ratio"}
    return out, failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True, help="checkout holding src/")
    ap.add_argument("--tmp", required=True, help="scratch directory, removed by run.py")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = spans.Tracer(run_id)
    modules = set_up(tracer)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    result = run_workload(workloads.Program(modules, tmp), args, tracer)
    print(json.dumps(result), flush=True)
    return 0


def run_workload(prog, args, tracer) -> dict:
    plain = Runner(prog, args.workload, args.seed)
    if not args.trace:
        rounds = plain.run_rounds(seconds=args.seconds)
        ops = per_op(rounds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sampling = [(c, u) for _, c, u in ops if u]
        metrics = {
            "round_cal": {"value": sum(c for _, c, _ in ops), "unit": "cal"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "throughput_per_cal": {"value": sum(u for _, u in sampling) / sum(c for c, _ in sampling),
                                   "unit": "1/cal"},
        }
        cal = median(c for each in rounds for _, c, _ in each)
        print(f"rounds {len(rounds)}, round wall time {sum(t for t, _, _ in ops):.3f} s, "
              f"calibration loop {cal * 1e3:.2f} ms", file=sys.stderr)
        return summary([plain], metrics)

    # Traced run: each round runs twice with the same seeds, untraced and
    # traced, the traced one first in even rounds.  Pairing keeps drift in
    # machine speed out of the overhead; alternating spreads the cost of a
    # process's first round over both sides, or puts it on the traced side.
    traced = Runner(prog, args.workload, args.seed, tracer)
    times, traced_times = [], []
    started = time.perf_counter()
    while True:
        r = len(times)
        if r % 2:
            times.append(plain.run_round(r))
        tracer.install(prog)
        try:
            traced_times.append(traced.run_round(r))
        finally:
            tracer.remove()
        if not r % 2:
            times.append(plain.run_round(r))
        if r >= workloads.SEEDED_ROUND and time.perf_counter() - started > args.seconds:
            break
    reference = Runner(prog, args.workload, args.seed, tracer)
    tracer.install(prog)
    try:
        tracer.round = "ref"
        for op in workloads.reference_pass(prog):
            reference.run_op(op, -1)
    finally:
        tracer.remove()
    metrics = spans.layer_metrics(tracer.spans, len(traced_times), "ref")
    rates, failures = acceptance(prog)
    metrics.update(rates)
    overhead = sum(t for t, _, _ in per_op(traced_times)) - sum(t for t, _, _ in per_op(times))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    tracer.write(Path(args.root) / ".bench_out" / f"trace-{args.workload}.jsonl")
    return summary([plain, traced], metrics, reference.failures + failures)


def summary(runners, metrics: dict, other_failures=()) -> dict:
    """Counts of the runners' operations; ``other_failures`` come from calls
    that are not operations and make the run incorrect without counting."""
    failures = [f for r in runners for f in r.failures]
    for f in failures + list(other_failures):
        print(f"check failed: {f}", file=sys.stderr)
    return {
        "correct": not failures and not other_failures,
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.known + len(r.failures) for r in runners),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
