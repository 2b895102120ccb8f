from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, kstest

from gasket_lerw import cli, exact, harness, limit, walker
from gasket_lerw.eraser import loop_erase
from gasket_lerw.exact import SingularSystem
from gasket_lerw.harness import (
    DegenerateCells,
    McReport,
    RunConfig,
    chi_square,
    classify_top_shape,
    emit_svg,
    run,
)
from gasket_lerw.limit import sample_limit_path
from gasket_lerw.walker import CrossingVariant, StepBudgetExceeded, replica_rng, sample_crossing


def _straight_crossing(*args, **kwargs):
    """The level-1 crossing straight up the left edge, erased length 2."""
    return [(0, 0), (0, 1), (0, 2)]


class TestChiSquare:
    def test_exact_match_gives_zero_statistic(self):
        stat, p = chi_square([25, 25, 25, 25], [0.25] * 4)
        assert stat == 0 and p == 1.0

    def test_single_cell_after_pooling_is_degenerate(self):
        with pytest.raises(DegenerateCells):
            chi_square([3, 1], [0.999, 0.001])

    def test_requires_normalized_expectations(self):
        with pytest.raises(ValueError):
            chi_square([10, 10], [0.5, 0.4])

    def test_dict_input(self):
        stat, p = chi_square({"a": 52, "b": 48}, {"a": 0.5, "b": 0.5})
        assert stat == pytest.approx(0.16)
        assert 0 < p < 1

    def test_calibration_p_values_uniform(self):
        # Fair four-way draws: the pooled statistic's p-values are uniform.
        rng = np.random.default_rng(0)
        draws = rng.multinomial(1000, [0.25] * 4, size=10_000)
        pvals = [chi_square(list(d), [0.25] * 4)[1] for d in draws]
        assert kstest(pvals, "uniform").pvalue > 0.01

    def test_pooling_is_data_independent(self):
        # Identical expected masses with permuted observations pool the same
        # way, so the statistic depends on the data only through cell counts.
        probs = [0.4, 0.3, 0.15, 0.1, 0.025, 0.025]
        a = chi_square([40, 30, 15, 10, 5, 0], probs)
        b = chi_square([40, 30, 15, 10, 0, 5], probs)
        assert a == b

    @pytest.mark.parametrize("df", [*range(1, 41), 300, 1400, 2764])
    def test_p_value_matches_scipy(self, df):
        # df + 1 equal cells, 1000 expected counts each (none pooled), and s
        # counts moved from every other cell into the first: the statistic
        # is s^2 df (df + 1) / 1000, swept from 0 past scipy's 1e-300 tail.
        e = 1000.0
        top = 1.3 * chi2.isf(1e-300, df)
        probs = [1 / (df + 1)] * (df + 1)
        for target in [0.0, *np.geomspace(1e-6, top, 40)]:
            s = sqrt(target * e / (df * (df + 1)))
            stat, p = chi_square([e + df * s] + [e - s] * df, probs)
            reference = chi2.sf(stat, df)
            if reference > 1e-300:
                assert p == pytest.approx(reference, rel=1e-12, abs=0)
            else:
                assert 0 <= p < 1e-299


class TestSvg:
    def test_deterministic(self):
        path = sample_limit_path(4, replica_rng(1, 0))
        assert emit_svg(path) == emit_svg(path)

    def test_depth_zero_single_segment(self):
        doc = emit_svg(sample_limit_path(0, replica_rng(1, 0)))
        assert doc.count("<polyline") == 1
        points = doc.split('points="')[1].split('"')[0]
        assert len(points.split()) == 2


class TestRunCommands:
    def test_exact_command(self):
        report = run(RunConfig(command="exact", level=2))
        assert report.passed
        assert report.payload["exact"]["lambda"].startswith("2.2878")

    def test_mc_shapes_small(self):
        report = run(RunConfig(command="mc-shapes", level=1, samples=4000, seed=3))
        assert report.passed
        assert sum(report.payload["counts"].values()) == 4000
        assert set(report.payload["expected"]) == {f"w{k}" for k in range(1, 8)}

    def test_mc_shapes_via_corner(self):
        report = run(
            RunConfig(
                command="mc-shapes",
                level=1,
                samples=4000,
                seed=4,
                variant=CrossingVariant.VIA_CORNER,
            )
        )
        assert report.passed
        assert set(report.payload["expected"]) == {f"w{k}" for k in range(1, 11)}

    def test_mc_length_small(self):
        report = run(RunConfig(command="mc-length", level=2, samples=1500, seed=5))
        assert report.passed
        assert abs(report.payload["z_score"]) < 3

    def test_mc_length_via_corner_uses_type_two_ancestor(self):
        report = run(
            RunConfig(
                command="mc-length",
                level=3,
                samples=1200,
                seed=7,
                variant=CrossingVariant.VIA_CORNER,
            )
        )
        assert report.passed, report.payload["z_score"]
        from gasket_lerw.exact import length_mean

        assert report.payload["exact_mean"] == pytest.approx(float(length_mean(3, (0, 1))))

    def test_limit_path_counts_repeated_junctions(self, monkeypatch):
        report = run(RunConfig(command="limit-path", level=6, seed=4))
        assert report.passed and report.payload["repeated_junctions"] == 0
        # A chain whose first and last cells both pass the third corner
        # (0, 1) repeats that junction, and the run fails.
        cells = np.array([[0, 0, 1, 0, 0, 1, 2], [1, 0, 1, 1, 2, 0, 1], [1, 1, 0, 2, 0, 1, 2]])
        rows = limit._compact(cells[:, 0:6].reshape(-1, 3, 2), cells[:, 6])
        looped = limit.RefinedPath(depth=1, rows=rows, level_counts=((1, 0), (1, 2)))
        monkeypatch.setattr(limit, "sample_refined_family", lambda depth, rng: [looped])
        report = run(RunConfig(command="limit-path", level=1, seed=4))
        assert not report.passed and report.payload["repeated_junctions"] == 1

    def test_dimension_small(self):
        report = run(RunConfig(command="dimension", level=8, samples=25, seed=6))
        assert "mean_slope" in report.payload

    def test_moments_command(self):
        report = run(RunConfig(command="moments", level=8))
        assert report.passed
        worst = max(
            max(v["phi1"], v["phi2"]) for v in report.payload["residuals"].values()
        )
        assert worst < 1e-9

    def test_moments_composes_the_residual_series_once(self, monkeypatch):
        # moment_table(K) sums orders 0 and 1 once and each order 2..K+1
        # twice (with a_k = 0, then with the solved a_k); the residuals at
        # the three values of t share one composition of orders 0..K.
        orders = []
        coefficient = exact._Composition.coefficient
        monkeypatch.setattr(
            exact._Composition,
            "coefficient",
            lambda series, n: orders.append(n) or coefficient(series, n),
        )
        run(RunConfig(command="moments", level=8))
        solve = [0, 1] + [k for k in range(2, 10) for _ in range(2)]
        assert orders == solve + list(range(9))

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(command="mc-shapes", level=1, samples=4500),
            dict(command="mc-length", level=2, samples=2500),
            dict(command="dimension", level=6, samples=2100),
        ],
        ids=["mc-shapes", "mc-length", "dimension"],
    )
    def test_thread_count_never_changes_results(self, cfg):
        # Each run spans two or three replicas.
        payload = run(RunConfig(**cfg, seed=11)).payload
        assert run(RunConfig(**cfg, seed=11, threads=3)).payload == payload

    def test_mc_shapes_counts_raw_steps(self):
        # 2500 samples are two replicas; the steps add up over both, at any
        # thread count.  tests/test_walker.py gates each replica's count
        # against the lengths of the reference walks.
        cfg = dict(command="mc-shapes", level=2, samples=2500, seed=13)
        report = run(RunConfig(**cfg))
        replicas = [
            walker.sample_patterns(2, CrossingVariant.DIRECT, c, replica_rng(13, r))[1]
            for r, c in ((0, 2000), (1, 500))
        ]
        assert report.payload["raw_steps"] == sum(replicas)
        assert run(RunConfig(**cfg, threads=2)).payload["raw_steps"] == sum(replicas)
        assert "method" not in report.config

    @pytest.mark.parametrize("variant", list(CrossingVariant))
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_shapes_worker_classifies_every_pattern(self, level, variant, table):
        # Each replica classifies a distinct pattern once; its counts and
        # steps must be those of classifying every sampled pattern.
        config = RunConfig(command="mc-shapes", level=level, variant=variant, seed=19)
        for replica in range(3):
            patterns, steps = walker.sample_patterns(
                level, variant, 400, replica_rng(19, replica)
            )
            whole = Counter(classify_top_shape(p, level, table) for p in patterns)
            assert harness._shapes_worker(config, replica, 400) == (whole, steps)

    def test_mc_shapes_level_five_runs_the_kernel(self):
        # A crossing walks 5**N steps on average.
        report = run(RunConfig(command="mc-shapes", level=5, samples=200, seed=17))
        assert report.passed
        assert abs(report.payload["raw_steps"] / (200 * 5**5) - 1) < 0.25

    def test_mc_shapes_payload_is_pinned(self):
        # The payload at this seed since each leg is walked once and mapped
        # onto its target: faster kernels must leave every pattern unchanged.
        cfg = dict(
            command="mc-shapes", level=3, samples=2500, seed=31,
            variant=CrossingVariant.VIA_CORNER,
        )
        payload = run(RunConfig(**cfg)).payload
        assert payload["counts"] == {
            "w1": 269, "w10": 138, "w2": 294, "w3": 338, "w4": 110,
            "w5": 112, "w6": 105, "w7": 453, "w8": 555, "w9": 126,
        }
        assert payload["statistic"] == 5.880759090909092
        assert payload["raw_steps"] == 620865
        assert run(RunConfig(**cfg, threads=2)).payload == payload

    def test_mc_shapes_level_one_payload_is_pinned(self):
        # Read before each distinct pattern of a replica was classified once:
        # level 1 is where most patterns repeat.  4500 samples are three
        # replicas.
        cfg = dict(command="mc-shapes", level=1, samples=4500, seed=41)
        payload = run(RunConfig(**cfg)).payload
        assert payload["counts"] == {
            "w1": 2280, "w2": 627, "w3": 588, "w4": 156, "w5": 143, "w6": 137, "w7": 569,
        }
        assert payload["statistic"] == 5.15
        assert payload["raw_steps"] == 22656
        assert run(RunConfig(**cfg, threads=2)).payload == payload

    def test_mc_length_payload_is_pinned(self):
        # The payload at this seed since legs are mapped onto their targets
        # by symmetry: faster kernels must leave every sampled path unchanged.
        cfg = dict(
            command="mc-length", level=4, samples=240, seed=12094959,
            variant=CrossingVariant.VIA_CORNER,
        )
        payload = run(RunConfig(**cfg)).payload
        assert payload["mean_length"] == 39.03333333333333
        assert payload["stderr"] == 0.5630679889716312
        assert payload["raw_steps"] == 321280
        assert run(RunConfig(**cfg, threads=2)).payload == payload

    def test_dimension_payload_is_pinned(self):
        # The payload at this seed since each replica's level counts are
        # drawn together, two multinomials per level: faster code must give
        # the same numbers, at any thread count.
        cfg = dict(command="dimension", level=8, samples=25, seed=6)
        payload = run(RunConfig(**cfg)).payload
        assert payload["mean_slope"] == 1.1866943994887138
        assert payload["sd_slope"] == 0.0230414006609784
        assert run(RunConfig(**cfg, threads=2)).payload == payload

    @pytest.mark.parametrize(
        "command,level,digest",
        [
            ("exact", 12, "0c95f692eebb08cb2338fa993c4b08115d0da83bf600b0e4a129faf3e6313cf6"),
            ("moments", 12, "5ac8ed4b4bdbf7f9c06302183cc4a3ff5e37a49c27c52a4597a7d8da58ca04ce"),
            ("moments", 1, "546aca0278ef0336225c0d656ff71197cef9705daaf16532751bf925179226b2"),
        ],
        ids=["exact-12", "moments-12", "moments-1"],
    )
    def test_exact_payloads_are_pinned(self, command, level, digest):
        # Digests read before the exact layer's derivations were rewritten
        # from the shape table: every printed digit must stay.
        payload = run(RunConfig(command=command, level=level)).payload
        data = json.dumps(payload, sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_mc_length_counts_raw_steps(self):
        # 2500 samples are two replicas; the steps add up over both.
        report = run(RunConfig(command="mc-length", level=2, samples=2500, seed=3))
        steps = 0
        for r, c in ((0, 2000), (1, 500)):
            rng = replica_rng(3, r)
            steps += sum(len(sample_crossing(2, CrossingVariant.DIRECT, rng)) - 1 for _ in range(c))
        assert report.payload["raw_steps"] == steps

    def test_mc_length_without_spread_fails(self, tmp_path, monkeypatch):
        # Every crossing erases to length 2, against an exact mean of 13/5
        # and variance 11/25: 20 samples put the mean 4 exact standard
        # errors low.  Without spread the sample variance has no z-score.
        monkeypatch.setattr(walker, "sample_crossing", _straight_crossing)
        out = tmp_path / "flat"
        report = run(RunConfig(command="mc-length", level=1, samples=20, seed=4, out=str(out)))
        assert report.payload["stderr"] == 0.0
        assert report.payload["z_score"] == pytest.approx(-0.6 / sqrt(0.44 / 20))
        assert report.payload["variance_z"] is None
        assert not report.passed

        def no_constant(name):
            raise AssertionError(f"{name} in the JSON artifact")

        doc = json.loads((out.with_suffix(".json")).read_text(), parse_constant=no_constant)
        assert doc["variance_z"] is None and doc["passed"] is False

    def test_mc_length_gate_rarely_fails_correct_runs(self):
        # The gate's z takes the exact standard error.  With the sample's
        # own, z at 2 samples is a Student t with one degree of freedom, and
        # 93 of these 400 correct runs failed |z| <= 3; with the exact one 2
        # fail (a probe of 20,000 runs measured 0.49%).
        failed = 0
        for seed in range(400):
            report = run(RunConfig(command="mc-length", level=3, samples=2, seed=seed))
            p = report.payload
            assert p["exact_stderr"] == sqrt(exact.length_variance(3) / 2)
            assert p["z_score"] == (p["mean_length"] - p["exact_mean"]) / p["exact_stderr"]
            failed += not report.passed
        assert failed <= 8

    def test_mc_length_reports_the_variance_z(self):
        # The same samples as test_mc_length_counts_raw_steps, their
        # variance's z recomputed in floats.
        report = run(RunConfig(command="mc-length", level=2, samples=2500, seed=3))
        lengths = []
        for r, c in ((0, 2000), (1, 500)):
            rng = replica_rng(3, r)
            lengths += [
                len(loop_erase(sample_crossing(2, CrossingVariant.DIRECT, rng))) - 1
                for _ in range(c)
            ]
        x = np.array(lengths, dtype=float)
        n, exact_var = len(x), float(exact.length_variance(2))
        centred = x - x.mean()
        s2 = centred @ centred / (n - 1)
        spread = (np.mean(centred**4) - s2 * s2 * (n - 3) / (n - 1)) / n
        assert report.payload["exact_variance"] == exact_var
        assert report.payload["variance_z"] == pytest.approx((s2 - exact_var) / sqrt(spread))
        assert abs(report.payload["variance_z"]) < 3

    @pytest.mark.parametrize(
        "command,variant,legs",
        [("mc-shapes", CrossingVariant.VIA_CORNER, 2), ("mc-length", CrossingVariant.DIRECT, 1)],
    )
    def test_payload_reports_the_walk_clock(self, command, variant, legs):
        # Raw steps against 5**N per leg, with the exact variance of a leg.
        payload = run(RunConfig(command=command, level=3, samples=300, seed=8, variant=variant)).payload
        n = 300 * legs
        assert payload["raw_steps_expected"] == n * 125
        z = (payload["raw_steps"] - n * 125) / sqrt(n * 3 * (125**2 - 125) / 5)
        assert payload["raw_steps_z"] == pytest.approx(z)
        assert abs(z) < 3

    def test_config_rejects_unread_fields(self):
        # A value the command never reads would only sit in the provenance.
        with pytest.raises(ValueError, match="exact does not read samples"):
            RunConfig(command="exact", samples=7)
        with pytest.raises(ValueError, match="limit-path does not read threads"):
            RunConfig(command="limit-path", threads=2)
        with pytest.raises(ValueError, match="dimension does not read variant"):
            RunConfig(command="dimension", variant=CrossingVariant.VIA_CORNER)
        with pytest.raises(ValueError, match="--format svg needs --out"):
            RunConfig(command="limit-path", fmt="svg")

    @pytest.mark.parametrize(
        "samples,threads,workers", [(4500, 8, 3), (4500, 2, 2), (50, 8, None)]
    )
    def test_one_worker_per_replica_at_most(self, samples, threads, workers, monkeypatch):
        # 4500 samples are three replicas, 50 a single replica, which runs
        # inline.
        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        cfg = dict(command="mc-shapes", level=1, samples=samples, seed=2)
        payload = run(RunConfig(**cfg, threads=threads)).payload
        assert started == ([] if workers is None else [workers])
        assert payload == run(RunConfig(**cfg)).payload

    def test_threads_ceiling(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("started a worker pool")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", never)
        top = harness.MAX_THREADS
        assert RunConfig(command="mc-shapes", threads=top).threads == top
        for threads in (0, top + 1, 5000):
            with pytest.raises(ValueError, match=f"threads must be in 1..{top}, got {threads}"):
                RunConfig(command="dimension", level=6, threads=threads)
            argv = ["mc-shapes", "1", "--samples", "1", "--threads", str(threads)]
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err == f"error: threads must be in 1..{top}, got {threads}\n"

    @pytest.mark.parametrize(
        "command,level,samples",
        [
            ("mc-shapes", 1, 100_000),
            ("mc-shapes", 8, 10_000),
            ("mc-shapes", 9, 2_000),
            ("mc-shapes", 10, 400),
            ("mc-shapes", 11, 80),
            ("mc-shapes", 12, 16),
            ("mc-length", 4, 10_000),
            ("mc-length", 8, 1_000),
            ("mc-length", 9, 200),
            ("mc-length", 10, 40),
            ("mc-length", 11, 8),
            ("dimension", 18, 100),
        ],
    )
    def test_default_samples(self, command, level, samples):
        # Above level 8 the walk defaults fall 5x per level, as the mean walk
        # grows, so every default run finishes; an explicit count stands.
        assert RunConfig(command=command, level=level).effective_samples() == samples
        assert RunConfig(command=command, level=level, samples=3).effective_samples() == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(command="nope")
        with pytest.raises(ValueError):
            RunConfig(command="exact", samples=0)
        with pytest.raises(ValueError):
            RunConfig(command="exact", fmt="pdf")


def _reference_write_skeleton(path, target):
    """The skeleton writer with one f-string per record, kept as the
    reference for the byte-level one."""
    corners = path.rows[:, 0:2]
    points = corners[:, None, :] + limit.ORIENTATIONS[path.rows[:, 2]]  # entry, exit, third
    rows = np.column_stack(
        (corners, points[:, 0:2].reshape(-1, 4), path.rows[:, 3], np.arange(len(path.rows)))
    )
    with target.open("w") as fh:
        fh.write("[\n ")
        for start in range(0, len(rows), 4096):
            if start:
                fh.write(",\n ")
            chunk = rows[start : start + 4096].tolist()
            fh.write(
                ",\n ".join(
                    f'{{"corner": [{ci}, {cj}], "level": 0, "entry": [{ei}, {ej}], '
                    f'"exit": [{xi}, {xj}], "kind": {kind}, "exit_index": {k}}}'
                    for ci, cj, ei, ej, xi, xj, kind, k in chunk
                )
            )
        fh.write("\n]\n")


class TestSkeletonWriter:
    @pytest.mark.parametrize("depth", [0, 1, 5, 12, 15])
    def test_matches_reference(self, depth, tmp_path):
        path = sample_limit_path(depth, replica_rng(12094959, 0))
        harness._write_skeleton(path, tmp_path / "new.json")
        _reference_write_skeleton(path, tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    @pytest.mark.parametrize("chunk", [1, 2, 7, 100])
    def test_chunk_edges(self, chunk, tmp_path, monkeypatch):
        # At depth 6 the integers grow from one digit to three within the
        # file, so small chunks split records of every width.
        monkeypatch.setattr(harness, "SKELETON_CHUNK", chunk)
        path = sample_limit_path(6, replica_rng(4, 0))
        assert len(path.rows) > 2 * chunk
        harness._write_skeleton(path, tmp_path / "new.json")
        _reference_write_skeleton(path, tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


class TestArtifacts:
    def test_json_artifact_byte_identical(self, tmp_path):
        cfg = dict(command="mc-shapes", level=1, samples=1000, seed=9)
        run(RunConfig(**cfg, out=str(tmp_path / "a")))
        run(RunConfig(**cfg, out=str(tmp_path / "b")))
        a = (tmp_path / "a.json").read_bytes()
        b = (tmp_path / "b.json").read_bytes()
        assert a == b
        doc = json.loads(a)
        assert "wall_clock_s" not in doc
        assert doc["build"] and doc["config"]["seed"] == 9

    def test_limit_path_artifacts(self, tmp_path):
        run(RunConfig(command="limit-path", level=5, seed=2, out=str(tmp_path / "p"), fmt="csv"))
        text = (tmp_path / "p.csv").read_text()
        assert text.splitlines()[0] == "t,x,y"
        run(RunConfig(command="limit-path", level=5, seed=2, out=str(tmp_path / "p"), fmt="svg"))
        assert (tmp_path / "p.svg").read_text().startswith("<svg")
        run(RunConfig(command="limit-path", level=5, seed=2, out=str(tmp_path / "p"), fmt="json"))
        assert json.loads((tmp_path / "p.skeleton.json").read_text())[0]["level"] == 0

    def test_skeleton_artifact_bytes(self, tmp_path):
        # One JSON record per cell, in chain order: {"corner", "level": 0,
        # "entry", "exit", "kind", "exit_index"}.
        run(RunConfig(command="limit-path", level=12, seed=1, out=str(tmp_path / "s")))
        data = (tmp_path / "s.skeleton.json").read_bytes()
        assert len(data) == 1_625_927
        assert (
            hashlib.sha256(data).hexdigest()
            == "386b42a07ca90b244e15ea48bce9fc6894b1d98f966af596d3aee3f379569180"
        )

    @pytest.mark.parametrize(
        "fmt,size,digest",
        [
            ("svg", 20_794, "9b8f01b2cb679445f776d079df6e901bbb33e7cf2508a3db1787031f8681a83a"),
            ("csv", 60_575, "11971078e901cc3b8f004341740701f692e903d0f21e611c618513ad458b71bb"),
        ],
    )
    def test_drawing_artifact_bytes(self, fmt, size, digest, tmp_path):
        # The svg overlays depths 0, 2, 4 and 9 of one coupled family; the csv
        # is the (t, x, y) polyline of depth 9.
        run(RunConfig(command="limit-path", level=9, seed=5, out=str(tmp_path / "d"), fmt=fmt))
        data = (tmp_path / f"d.{fmt}").read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_dotted_prefixes_keep_their_own_artifacts(self, tmp_path):
        # Each suffix is appended to the whole prefix, dots and all.
        for seed in (1, 2):
            out = str(tmp_path / f"r.s{seed}")
            run(RunConfig(command="limit-path", level=3, seed=seed, out=out))
            assert json.loads(Path(out + ".json").read_text())["config"]["seed"] == seed
            for fmt in ("csv", "svg"):
                run(RunConfig(command="limit-path", level=3, seed=seed, out=out, fmt=fmt))
        names = {f"r.s{k}.{x}" for k in (1, 2) for x in ("json", "skeleton.json", "csv", "svg")}
        assert {f.name for f in tmp_path.iterdir()} == names

    def test_family_never_leaks_into_json(self, tmp_path):
        run(RunConfig(command="limit-path", level=3, seed=2, out=str(tmp_path / "q")))
        doc = json.loads((tmp_path / "q.json").read_text())
        assert not any(k.startswith("_") for k in doc)


class TestClassify:
    def test_identity_at_level_one(self, table):
        from gasket_lerw.eraser import classify_shape, loop_erase

        rng = replica_rng(33, 0)
        for _ in range(300):
            p = sample_crossing(1, CrossingVariant.VIA_CORNER, rng)
            # At level 1 the level-0 pattern is the path itself.
            assert classify_top_shape(p, 1, table) == classify_shape(loop_erase(p), table)

    @pytest.mark.parametrize("variant", list(CrossingVariant))
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_matches_the_unit_frame_reference(self, level, variant, table):
        from gasket_lerw.eraser import chronological_erase, classify_shape

        shift = level - 1
        patterns, _ = walker.sample_patterns(level, variant, 300, replica_rng(37, level))
        for p in patterns:
            unit = [(i >> shift, j >> shift) for i, j in chronological_erase(p)]
            assert classify_top_shape(p, level, table) == classify_shape(unit, table)
            assert classify_top_shape(list(p), level) == classify_shape(unit, table)

    def test_unknown_shape(self, table):
        from gasket_lerw.eraser import UnknownShape

        # Erases to the bottom edge, which never reaches the apex.
        with pytest.raises(UnknownShape):
            classify_top_shape([(0, 0), (2, 0), (0, 0), (4, 0)], 3, table)


class TestCli:
    def test_exit_zero_on_pass(self, capsys):
        assert cli.main(["moments", "6"]) == 0
        out = capsys.readouterr().out
        assert "[moments] pass" in out

    def test_limit_path_prints_its_figures(self, capsys):
        assert cli.main(["limit-path", "3", "--seed", "1"]) == 0
        line = capsys.readouterr().out
        assert line.startswith("[limit-path] pass scaled_length=")
        assert " repeated_junctions=0 (" in line

    def test_moments_order_one_is_honoured(self, tmp_path, capsys):
        assert cli.main(["moments", "1", "--out", str(tmp_path / "m")]) == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["order"] == 1 and list(doc["moments"]) == ["1"]
        assert doc["config"]["level"] == 1

    @pytest.mark.parametrize(
        "argv", [["moments", "13"], ["moments", "0"], ["exact", "0"], ["exact", "13"]]
    )
    def test_exit_one_on_order_out_of_range(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "1..12" in capsys.readouterr().err

    def test_exit_two_on_statistical_failure(self, monkeypatch, capsys):
        failing = McReport(
            command="mc-shapes", config={}, build="test", payload={}, passed=False
        )
        monkeypatch.setattr(cli, "run", lambda config: failing)
        assert cli.main(["mc-shapes", "1"]) == 2

    def test_exit_one_on_usage_error(self):
        assert cli.main(["bogus-command"]) == 1

    def test_exit_one_on_runtime_error(self, monkeypatch):
        def boom(config):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "run", boom)
        assert cli.main(["exact"]) == 1

    @pytest.mark.parametrize(
        "error",
        [
            StepBudgetExceeded("step budget 10 exhausted"),
            SingularSystem("no pivot"),
            MemoryError("Unable to allocate 2.40 GiB for an array"),
        ],
    )
    def test_exit_one_on_sampler_or_solver_failure(self, error, monkeypatch, capsys):
        def boom(config):
            raise error

        monkeypatch.setattr(cli, "run", boom)
        assert cli.main(["mc-shapes", "2"]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_exit_one_names_a_bare_memory_error(self, monkeypatch, capsys):
        # Python's own MemoryError, from a list or bytearray, has no message.
        def boom(config):
            raise MemoryError

        monkeypatch.setattr(cli, "run", boom)
        assert cli.main(["mc-length", "11"]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"

    @pytest.mark.parametrize(
        "argv,span",
        [
            (["mc-shapes", "0"], "in 1..12"),
            (["mc-shapes", "13"], "in 1..12"),
            (["mc-length", "0"], "in 1..11"),
            (["mc-length", "13"], "in 1..11"),
            (["dimension", "5"], "in 6..18"),
            (["limit-path", "-1"], "in 0..18"),
            (["dimension", "19"], "in 6..18"),
            (["limit-path", "19"], "in 0..18"),
            (["mc-length", "12"], "in 1..11"),
        ],
    )
    def test_exit_one_on_level_out_of_range(self, argv, span, monkeypatch, capsys):
        def never(config):
            raise AssertionError("ran a command outside its range")

        monkeypatch.setattr(cli, "run", never)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"needs a level {span}" in err and err.count("\n") == 1

    def test_mc_length_needs_two_samples(self, monkeypatch, capsys):
        def never(config):
            raise AssertionError("ran mc-length on one sample")

        monkeypatch.setattr(cli, "run", never)
        assert cli.main(["mc-length", "1", "--samples", "1", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at least 2 samples" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dimension", "6", "--seed", "-1", "--samples", "3"],
            ["mc-shapes", "1", "--seed", "-1", "--samples", "100"],
            ["limit-path", "2", "--seed", "-5"],
            ["mc-length", "2", "--samples", "3", "--seed", "-2", "--threads", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exit_one_on_negative_seed(self, argv, monkeypatch, capsys):
        def never(config):
            raise AssertionError("ran a command with a negative seed")

        monkeypatch.setattr(cli, "run", never)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        seed = argv[argv.index("--seed") + 1]
        assert err == f"error: seed must be >= 0, got {seed}\n"

    @pytest.mark.parametrize(
        "argv,refused",
        [
            (["mc-shapes", "12", "--samples", "1"], True),
            (["mc-shapes", "1", "--samples", "9"], True),
            (["mc-shapes", "3", "--variant", "via-corner", "--samples", "11"], True),
            (["mc-shapes", "1", "--samples", "10"], False),
            (["mc-shapes", "3", "--variant", "via-corner", "--samples", "12"], False),
        ],
    )
    def test_mc_shapes_sample_floor_before_any_walk(self, argv, refused, monkeypatch, capsys):
        # Pooling reads the exact law and the sample count only, so too few
        # samples exit 1 before the sampler is called.
        class Sampled(Exception):
            pass

        def sampled(*args, **kwargs):
            raise Sampled

        monkeypatch.setattr(walker, "sample_patterns", sampled)
        if refused:
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "fewer than two cells after pooling" in err
        else:
            with pytest.raises(Sampled):
                cli.main(argv)

    def test_commands_run_on_numpy_and_mpmath_alone(self, tmp_path):
        # One process runs a command of each kind with scipy unimportable,
        # then lists the installed third-party packages it loaded beyond
        # those the interpreter's start-up already held.  A second process
        # runs them with scipy importable, and must load it no more: that
        # catches an import the program makes only when scipy is there and
        # would otherwise swallow.
        commands = [
            ["exact", "3"],
            ["moments", "4"],
            ["mc-shapes", "1", "--samples", "200", "--seed", "1"],
            ["mc-length", "2", "--samples", "200", "--seed", "1"],
            ["dimension", "6", "--samples", "4", "--seed", "1"],
            ["limit-path", "4", "--seed", "1", "--format", "svg", "--out", str(tmp_path / "p")],
        ]
        src = Path(harness.__file__).resolve().parents[1]
        for block in ("sys.modules['scipy'] = None\n", ""):
            code = (
                "import importlib.metadata, sys\n"
                "start = set(sys.modules)\n"
                f"{block}"
                "from gasket_lerw import cli\n"
                f"for argv in {commands!r}:\n"
                "    assert cli.main(argv) in (0, 2), argv\n"
                "loaded = {m.split('.')[0] for m, v in sys.modules.items() if v and m not in start}\n"
                "third = loaded & importlib.metadata.packages_distributions().keys()\n"
                "print(sorted(third - {'gasket_lerw'}))\n"
            )
            done = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=str(src)),
            )
            assert "Traceback" not in done.stderr, done.stderr
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines()[-1] == "['mpmath', 'numpy']", block

    def test_exit_two_without_spread(self, capsys, monkeypatch):
        monkeypatch.setattr(walker, "sample_crossing", _straight_crossing)
        assert cli.main(["mc-length", "1", "--samples", "20", "--seed", "4"]) == 2
        assert "[mc-length] FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--level", "--depth"])
    def test_no_level_option(self, flag, monkeypatch, capsys):
        def never(config):
            raise AssertionError(f"ran with {flag}")

        monkeypatch.setattr(cli, "run", never)
        assert cli.main(["mc-shapes", "2", flag, "3"]) == 1
        assert cli.main(["mc-shapes", "--help"]) == 0
        assert flag not in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    @pytest.mark.parametrize("command", ["exact", "mc-shapes", "mc-length", "dimension", "moments"])
    def test_drawing_formats_only_for_limit_path(self, command, fmt, monkeypatch, capsys, tmp_path):
        def never(config):
            raise AssertionError(f"ran {command} with --format {fmt}")

        monkeypatch.setattr(cli, "run", never)
        for extra in (["--out", str(tmp_path / "x")], []):
            assert cli.main([command, "--format", fmt, *extra]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {command} writes json only, not {fmt}\n"

    def test_no_method_option(self, monkeypatch, capsys):
        def never(config):
            raise AssertionError("ran with an unknown option")

        monkeypatch.setattr(cli, "run", never)
        assert cli.main(["mc-length", "6", "--method", "rejection"]) == 1
        assert cli.main(["mc-length", "--help"]) == 0
        assert "--method" not in capsys.readouterr().out


# The options each command reads, besides its positional, --out and --format.
READS = {
    "exact": (),
    "moments": (),
    "limit-path": ("seed",),
    "dimension": ("samples", "seed", "threads"),
    "mc-shapes": ("samples", "seed", "threads", "variant"),
    "mc-length": ("samples", "seed", "threads", "variant"),
}
OPTION_VALUES = {"samples": "5", "seed": "1", "threads": "1", "variant": "via-corner"}


def _never(monkeypatch):
    def never(config):
        raise AssertionError("ran a command line that should have been refused")

    monkeypatch.setattr(cli, "run", never)


class TestCommandTable:
    @pytest.mark.parametrize("command", list(READS))
    def test_help_lists_the_table_row(self, command, capsys):
        assert harness.COMMANDS[command].options == READS[command]
        assert cli.main([command, "--help"]) == 0
        shown = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        assert shown == {"--help", "--out", "--format"} | {f"--{o}" for o in READS[command]}

    @pytest.mark.parametrize(
        "command,option",
        [(c, o) for c in READS for o in OPTION_VALUES if o not in READS[c]],
    )
    def test_unread_option_exits_one(self, command, option, monkeypatch, capsys):
        _never(monkeypatch)
        assert cli.main([command, "8", f"--{option}", OPTION_VALUES[option]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"--{option}" in err

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_drawing_needs_out(self, fmt, monkeypatch, capsys):
        _never(monkeypatch)
        assert cli.main(["limit-path", "5", "--format", fmt]) == 1
        assert capsys.readouterr().err == f"error: --format {fmt} needs --out\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc-length", "2", "--samples", "x"],
            ["mc-shapes", "2", "--variant", "sideways"],
            ["bogus-command"],
            [],
        ],
    )
    def test_usage_error_is_one_line(self, argv, monkeypatch, capsys):
        _never(monkeypatch)
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
