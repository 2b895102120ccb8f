"""Spans around calls into the program's layers, recorded from outside.

``Tracer.install`` replaces a layer's public functions, as module
attributes, by wrappers that record a span per call.  The program looks
these functions up through their modules at call time, so the wrappers also
see the calls the harness makes; ``Tracer.remove`` puts the originals back.
Spans stay in memory until ``write``.  A span is (id, parent, name, start ns,
end ns, round, attributes); every span of one run shares the run id.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.round: object = None
        self.erased: list[tuple] = []  # (raw, erased) pairs awaiting their check
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name, time.perf_counter_ns(), 0,
               self.round, attrs]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield attrs
        finally:
            rec[4] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Trace calls to ``module.attr``; ``note(attrs, args, result)`` adds
        attributes after the call returns."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if note is not None:
                    note(attrs, args, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self, prog) -> None:
        """Wrap the layer entry points the commands go through."""
        walker, eraser, exact, limit, harness = (
            prog.walker, prog.eraser, prog.exact, prog.limit, prog.harness)

        def steps(attrs, args, path):
            attrs["steps"] = len(path) - 1

        def erased(attrs, args, path):
            attrs["raw"], attrs["kept"] = len(args[0]) - 1, len(path) - 1
            self.erased.append((args[0], path))

        def stage(attrs, args, path):
            attrs["m"] = args[1]

        def family(attrs, args, fam):
            attrs["depth"] = args[0]
            attrs["cells"] = sum(len(p.cells) for p in fam[1:])

        def written(attrs, args, result):
            out = Path(args[0].out)
            attrs["bytes"] = sum(f.stat().st_size for f in out.parent.glob(out.name + ".*"))

        self.wrap(walker, "sample_crossing", "walker.sample", steps)
        self.wrap(harness, "classify_top_shape", "eraser.classify")
        self.wrap(eraser, "loop_erase", "eraser.erase", erased)
        self.wrap(eraser, "erase_scale", "eraser.stage", stage)
        self.wrap(exact, "exact_report", "exact.report")
        self.wrap(exact, "moment_table", "exact.moment_table")
        self.wrap(exact, "functional_equation_residual", "exact.residual")
        self.wrap(limit, "sample_limit_path", "limit.path")
        self.wrap(limit, "sample_refined_family", "limit.family", family)
        self.wrap(limit, "box_count_dimension", "limit.box_count")
        self.wrap(harness, "chi_square", "harness.chi_square")
        self.wrap(harness, "_write_artifacts", "harness.write", written)

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "start_ns", "end_ns", "round", "attrs")
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"run": self.run_id, **dict(zip(keys, rec))}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans) -> list[int]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def percentile(values, q: float) -> float:
    v = sorted(values)
    return v[min(len(v) - 1, int(q * len(v)))]


def layer_metrics(spans, rounds: int, ref_round) -> dict[str, dict]:
    """Per-layer figures, per traced round.

    A family of spans the workload's rounds never produced (the layer is
    idle on this workload) is read from the reference pass instead, which
    counts as one round; ``ref_round`` is that pass's round label.
    """
    own = self_times(spans)

    def pick(*names):
        mine = [s for s in spans if s[2] in names and s[5] not in (ref_round, "setup")]
        if mine:
            return mine, rounds
        return [s for s in spans if s[2] in names and s[5] == ref_round], 1

    def dur(s):
        return s[4] - s[3]

    def busy(names):
        chosen, n = pick(*names)
        return sum(own[s[0]] for s in chosen) / n / 1e9, chosen, n

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    w_busy, samples, n = busy(("walker.sample",))
    steps = sum(s[6]["steps"] for s in samples)
    put("walker.busy_s", w_busy, "s")
    put("walker.sample_us.p50", median(dur(s) for s in samples) / 1e3, "us")
    put("walker.sample_us.p99", percentile([dur(s) for s in samples], 0.99) / 1e3, "us")
    put("walker.steps", steps / n, "count")
    put("walker.ns_per_step", w_busy * n * 1e9 / steps, "ns")

    erases, n = pick("eraser.erase")
    stages, _ = pick("eraser.stage")
    classify, nc = pick("eraser.classify")
    raw = sum(s[6]["raw"] for s in erases)
    kept = sum(s[6]["kept"] for s in erases)
    e_self = sum(own[s[0]] for s in erases + stages)
    put("eraser.busy_s", e_self / n / 1e9 + sum(own[s[0]] for s in classify) / nc / 1e9, "s")
    put("eraser.erase_ms.p50", median(dur(s) for s in erases) / 1e6, "ms")
    put("eraser.ns_per_step", sum(dur(s) for s in erases) / raw, "ns")
    for m in range(1, 7):
        times = [dur(s) for s in stages if s[6]["m"] == m]
        put(f"eraser.stage_ms.{m}", sum(times) / len(times) / 1e6, "ms")
    put("eraser.kept_steps", kept / n, "count")
    put("eraser.kept_fraction", kept / raw, "ratio")
    put("eraser.classify_us.p50", median(dur(s) for s in classify) / 1e3, "us")

    setup = {s[2]: dur(s) / 1e9 for s in spans if s[5] == "setup"}
    put("exact.shape_table_s", setup["exact.shape_table"], "s")
    compose, _ = pick("exact.compose")
    for level in range(1, 5):
        mine = [s for s in compose if s[6]["level"] == level]
        put(f"exact.compose_s.{level}", sum(dur(s) for s in mine) / len(mine) / 1e9, "s")
        put(f"exact.compose_terms.{level}", mine[0][6]["terms"], "count")
    put("exact.compose_den_bits", max(s[6]["den_bits"] for s in compose), "bits")
    tables, n = pick("exact.moment_table")
    put("exact.moment_table_s", sum(dur(s) for s in tables) / n / 1e9, "s")
    put("exact.report_s", busy(("exact.report",))[0], "s")
    put("exact.residual_s", busy(("exact.residual",))[0], "s")

    l_busy, lspans, n = busy(("limit.path", "limit.family", "limit.box_count"))
    families = [s for s in lspans if s[2] == "limit.family"]
    cells = sum(s[6]["cells"] for s in families)
    deep = [s for s in families if spans[s[1]][2] == "harness.run"]
    put("limit.busy_s", l_busy, "s")
    put("limit.cells", cells / n, "count")
    put("limit.cells_per_s", cells / (sum(dur(s) for s in families) / 1e9), "1/s")
    put("limit.family_s", sum(dur(s) for s in deep) / len(deep) / 1e9, "s")
    put("limit.box_count_us", median(dur(s) for s in lspans if s[2] == "limit.box_count") / 1e3, "us")

    put("harness.import_s", setup["harness.import"], "s")
    put("harness.chi_square_ms", median(dur(s) for s in pick("harness.chi_square")[0]) / 1e6, "ms")
    writes, n = pick("harness.write")
    put("harness.write_s", sum(dur(s) for s in writes) / n / 1e9, "s")
    put("harness.artifact_bytes", sum(s[6]["bytes"] for s in writes) / n, "B")
    put("harness.other_s", busy(("harness.run",))[0], "s")
    return out
