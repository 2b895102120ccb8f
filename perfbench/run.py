"""Benchmark of the gasket-lerw CLI: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload crossing-shapes --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (set-up time measured from fresh interpreters, then the
workload untraced); with ``--trace 1`` they are the per-layer ones from the
traced run.  See README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2  # fresh interpreters timed to "ready", besides the workload's own
TIMEOUT_S = 170


def start(root: Path, tmp: Path, args, setup_only: bool, children: list):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    children.append(proc)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "ready":
        raise SystemExit("worker did not get ready")
    return proc, setup_s


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("crossing-shapes", "erased-length", "scaling-limit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + TIMEOUT_S
    root = Path.cwd()
    if not (root / "src" / "gasket_lerw" / "harness.py").is_file():
        print(f"error: no program under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 1

    # On SIGTERM too, the finally below stops the workers and removes their files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    tmp = root / ".bench_tmp" / f"run-{os.getpid()}"
    children: list[subprocess.Popen] = []
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, setup_s = start(root, tmp, args, True, children)
                finish(proc, deadline)
                setups.append(setup_s)
        proc, setup_s = start(root, tmp, args, False, children)
        setups.append(setup_s)
        out = finish(proc, deadline)
    finally:
        for proc in children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": median(setups), "unit": "s"}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": dict(sorted(metrics.items())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
