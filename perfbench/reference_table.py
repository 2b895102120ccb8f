"""Re-measure the reference figures quoted in README.md.

    python3 perfbench/reference_table.py

Run from the root of a checkout.  Each figure is the median of three repeats,
at fixed seeds, on one core; CLI commands are timed as fresh processes.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from gasket_lerw import eraser, exact, limit, walker  # noqa: E402

DIRECT = walker.CrossingVariant.DIRECT
REPEATS = 3


def timed(fn, repeats: int = REPEATS) -> float:
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return median(out)


def cli(argv: list[str]) -> float:
    cmd = [sys.executable, "-m", "gasket_lerw.cli", *argv]
    env = {"PYTHONPATH": str(ROOT / "src")}
    return timed(lambda: subprocess.run(cmd, env=env, check=True, capture_output=True))


def crossings(level: int, method: str, n: int, seed: int = 7):
    rng = walker.replica_rng(seed, 0)
    return [walker.sample_crossing(level, DIRECT, method, rng) for _ in range(n)]


def main() -> None:
    rows = []

    paths = crossings(6, "hierarchical", 20)
    steps = sum(len(p) - 1 for p in paths)
    t = timed(lambda: crossings(6, "hierarchical", 20))
    rows.append(("walker, hierarchical N=6", f"{t / 20 * 1e3:.1f} ms/sample, "
                 f"{t / steps * 1e9:.0f} ns per raw step"))
    t = timed(lambda: crossings(1, "rejection", 2000))
    rows.append(("walker, rejection N=1", f"{t / 2000 * 1e6:.0f} us/sample"))
    t = timed(lambda: [eraser.loop_erase(p) for p in paths])
    rows.append(("loop_erase, N=6", f"{t / 20 * 1e3:.1f} ms/sample, "
                 f"{t / steps * 1e9:.0f} ns per raw step"))
    phi, theta = exact.build_phi_theta(exact.shape_table())
    t4 = timed(lambda: exact.compose_level(phi, theta, 4))
    t12 = timed(lambda: exact.moment_table(12))
    rows.append(("compose_level(4) / moment_table(12)", f"{t4:.2f} s / {t12 * 1e3:.0f} ms"))
    fam = limit.sample_refined_family(12, walker.replica_rng(7, 0))
    t = timed(lambda: limit.sample_refined_family(12, walker.replica_rng(7, 0)))
    rows.append(("sample_refined_family(12)", f"{t * 1e3:.0f} ms for {len(fam[-1].cells)} cells"))
    t = timed(lambda: limit.sample_branching_counts(12, 10_000, walker.replica_rng(7, 0)))
    rows.append(("sample_branching_counts(12), 10k runs", f"{t * 1e3:.0f} ms"))
    for argv in (["mc-shapes", "1", "--samples", "20000"], ["mc-length", "6", "--samples", "300"],
                 ["dimension", "10", "--samples", "100"], ["limit-path", "14"]):
        rows.append((" ".join(argv), f"{cli(argv):.1f} s"))

    shapes = (["1", "--samples", "8000"], ["3", "--variant", "via-corner", "--samples", "800"],
              ["5", "--samples", "80"])
    for threads in ("1", "2"):
        t = sum(cli(["mc-shapes", *a, "--threads", threads]) for a in shapes)
        rows.append((f"crossing-shapes commands, --threads {threads}", f"{t:.1f} s"))
    for level in (5, 6, 7):
        n = 40 if level < 7 else 8
        tr = timed(lambda: crossings(level, "rejection", n), 1)
        th = timed(lambda: crossings(level, "hierarchical", n), 1)
        rows.append((f"direct N={level}: hierarchical / rejection", f"{th / tr:.1f}x"))
    t = timed(lambda: subprocess.run([sys.executable, "-c", "import scipy.stats"], check=True))
    rows.append(("python3 -c 'import scipy.stats'", f"{t:.2f} s"))

    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"| {name:<{width}} | {value} |")


if __name__ == "__main__":
    main()
