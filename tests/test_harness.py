"""Sweep runner, report emission, mask ingestion and the synthetic fixture."""

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import synth_pilefield_full

from spoilseg import (
    LabelMap,
    RasterRGB,
    StretchParams,
    SweepConfig,
    evaluate_segmentation,
    ingest_external_mask,
    load_sweep_config,
    quantize8,
    relabel_connected,
    run_sweep,
    sigmoidal_stretch,
    synth_pilefield,
    write_gray_pgm16,
    write_pgm16,
    write_ppm,
)
from spoilseg import _fork, meanshift
from spoilseg._fork import worker_count
from spoilseg.cli import main
from spoilseg.sweep import ALGORITHMS, report_csv, report_json


@pytest.fixture(scope="module")
def pilefield(tmp_path_factory):
    """Stretched 8-bit rendering of the 9-bump fixture plus its ground truth."""
    root = tmp_path_factory.mktemp("pilefield")
    dsm, gt = synth_pilefield(300, 300, 9, 8.0, 42)
    img8 = quantize8(sigmoidal_stretch(dsm, StretchParams(3.0, 2.0)))
    hs_path = root / "stretched.pgm"
    gt_path = root / "gt.pgm"
    write_gray_pgm16(img8, hs_path)
    write_pgm16(gt, gt_path)
    return hs_path, gt_path


def voronoi_config(hs_path, gt_path, grid, threshold=0.5):
    return SweepConfig(
        algorithm="voronoi",
        grid=grid,
        ground_truth=str(gt_path),
        hillshade=str(hs_path),
        threshold=threshold,
    )


class TestRunSweep:
    def test_singleton_grid(self, pilefield):
        hs, gt = pilefield
        report = run_sweep(voronoi_config(hs, gt, {"sigma": [12.0]}))
        assert len(report.rows) == 1
        assert report.optimum_index == 0
        assert report.optimum.params == {"sigma": 12.0}

    def test_cartesian_product_in_declared_order(self, pilefield):
        hs, gt = pilefield
        grid = {"sigma": [6.0, 12.0], "peak_radius": [6, 12]}
        report = run_sweep(voronoi_config(hs, gt, grid))
        assert [r.params for r in report.rows] == [
            {"sigma": 6.0, "peak_radius": 6},
            {"sigma": 6.0, "peak_radius": 12},
            {"sigma": 12.0, "peak_radius": 6},
            {"sigma": 12.0, "peak_radius": 12},
        ]

    def test_failed_row_recorded_not_fatal(self, pilefield):
        hs, gt = pilefield
        report = run_sweep(voronoi_config(hs, gt, {"sigma": [-1.0, 12.0]}))
        assert report.rows[0].error is not None
        assert report.rows[0].scores is None
        assert report.rows[1].scores is not None
        assert report.optimum_index == 1

    def test_tie_breaks_to_earlier_row(self, pilefield):
        hs, gt = pilefield
        report = run_sweep(voronoi_config(hs, gt, {"sigma": [12.0, 12.0]}))
        a, b = report.rows
        assert a.scores.correct_detection == b.scores.correct_detection
        assert report.optimum_index == 0

    # sweep values are JSON values, as the report writes them: a Python caller
    # passes int(x), not a numpy integer, and never sees a row scored that
    # report_json cannot write
    @pytest.mark.parametrize(
        "grid, params, message",
        [
            ({"bandwidth": [1]}, {}, "unknown parameter 'bandwidth' for voronoi"),
            ({"peak_radius": [np.int64(4), 9]}, {}, "'peak_radius' takes JSON values only: Object of type int64"),
            ({"sigma": [[12.0, np.float32(6)]]}, {}, "'sigma' takes JSON values only: Object of type float32"),
            ({"sigma": [12.0]}, {"peak_radius": np.int32(3)}, "parameter 'peak_radius' takes JSON values only"),
            ({"sigma": [12.0]}, {"invert_foreground": np.True_}, "parameter 'invert_foreground' takes JSON"),
            ({"sigma": [12.0]}, {"sigma": 6.0}, "parameter 'sigma' is in both grid and params"),
        ],
        ids=["unknown", "numpy-int-grid", "nested-numpy", "numpy-int-params", "numpy-bool-params", "grid-and-params"],
    )
    def test_parameter_refusals(self, pilefield, grid, params, message):
        hs, gt = pilefield
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepConfig(algorithm="voronoi", grid=grid, base_params=params, ground_truth=str(gt), hillshade=str(hs))

    def test_config_json_round_trip(self, tmp_path, pilefield):
        hs, gt = pilefield
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "algorithm": "voronoi",
                    "inputs": {"hillshade": str(hs), "ground_truth": str(gt)},
                    "threshold": 0.5,
                    "grid": {"sigma": [12.0]},
                }
            )
        )
        cfg = load_sweep_config(cfg_path)
        assert cfg.algorithm == "voronoi"
        assert cfg.grid == {"sigma": [12.0]}

    def test_meanshift_sweep_dispatch(self, tmp_path):
        # two-tone image whose halves match the two gt regions exactly
        px = np.zeros((10, 16, 3), dtype=np.uint8)
        px[:, 8:] = 200
        img_path = tmp_path / "img.ppm"
        write_ppm(RasterRGB(px), img_path)
        gt = np.ones((10, 16), dtype=np.int32)
        gt[:, 8:] = 2
        gt_path = tmp_path / "gt.pgm"
        write_pgm16(LabelMap(gt), gt_path)
        cfg = SweepConfig(
            algorithm="meanshift",
            grid={"spatial_radius": [2.0], "range_radius": [30.0]},
            ground_truth=str(gt_path),
            image=str(img_path),
            base_params={"min_region_size": 8},
        )
        report = run_sweep(cfg)
        assert report.rows[0].scores.correct_detection == 1

    def test_slic_sweep_dispatch(self, tmp_path):
        rng = np.random.default_rng(33)
        px = rng.integers(0, 255, size=(24, 24, 3)).astype(np.uint8)
        img_path = tmp_path / "img.ppm"
        write_ppm(RasterRGB(px), img_path)
        gt = (np.indices((24, 24)).sum(axis=0) // 12 + 1).astype(np.int32)
        gt_path = tmp_path / "gt.pgm"
        write_pgm16(LabelMap(gt), gt_path)
        cfg = SweepConfig(
            algorithm="slic",
            grid={"superpixels": [4, 9], "compactness": [10.0]},
            ground_truth=str(gt_path),
            image=str(img_path),
        )
        report = run_sweep(cfg)
        assert len(report.rows) == 2
        assert all(row.scores is not None for row in report.rows)

    def test_infinite_compactness_is_a_row_error(self, tmp_path):
        px = np.random.default_rng(33).integers(0, 255, size=(24, 24, 3)).astype(np.uint8)
        write_ppm(RasterRGB(px), tmp_path / "img.ppm")
        write_pgm16(LabelMap((np.indices((24, 24)).sum(axis=0) // 12 + 1).astype(np.int32)), tmp_path / "gt.pgm")
        cfg = SweepConfig(
            algorithm="slic",
            grid={"superpixels": [9], "compactness": [math.inf, 10.0]},
            ground_truth=str(tmp_path / "gt.pgm"),
            image=str(tmp_path / "img.ppm"),
        )
        bad, good = run_sweep(cfg).rows
        assert bad.scores is None and bad.error == "ValueError: compactness must be < inf, got inf"
        assert good.error is None and good.scores is not None

    @pytest.mark.parametrize(
        "algorithm, name, values, base",
        [
            ("slic", "superpixels", [20.5, True, 4], {}),
            ("slic", "iterations", [1.5, 2], {"superpixels": 4}),
            ("meanshift", "min_region_size", [10.5, True, 8], {}),
            ("meanshift", "max_iterations", [2.5, 5], {}),
            ("voronoi", "peak_radius", [2.5, 12], {}),
        ],
    )
    def test_integer_fields_reject_floats_and_bools(self, tmp_path, pilefield, algorithm, name, values, base):
        px = np.zeros((16, 16, 3), dtype=np.uint8)
        px[:, 8:] = 200
        write_ppm(RasterRGB(px), tmp_path / "img.ppm")
        gt = np.ones((16, 16), dtype=np.int32)
        gt[:, 8:] = 2
        write_pgm16(LabelMap(gt), tmp_path / "gt.pgm")
        hillshade, voronoi_gt = pilefield
        inputs = {"image": str(tmp_path / "img.ppm"), "ground_truth": str(tmp_path / "gt.pgm")}
        if algorithm == "voronoi":
            inputs = {"hillshade": str(hillshade), "ground_truth": str(voronoi_gt)}
        report = run_sweep(SweepConfig(algorithm=algorithm, grid={name: values}, base_params=base, **inputs))
        *bad, good = report.rows
        for row in bad:
            assert row.scores is None
            assert row.error == f"ValueError: {name} must be an integer, got {row.params[name]!r}"
        assert good.error is None and good.scores is not None

    @pytest.mark.parametrize(
        "name, values, message",
        [
            ("sigma", [True, 12.0], "sigma must be a number, got True"),
            ("restrict_to_foreground", ["no", True], "restrict_to_foreground must be a boolean, got 'no'"),
        ],
    )
    def test_wrongly_typed_values_are_row_errors(self, pilefield, name, values, message):
        hs, gt = pilefield
        bad, good = run_sweep(voronoi_config(hs, gt, {name: values})).rows
        assert bad.scores is None and bad.error == f"ValueError: {message}"
        assert good.error is None and good.scores is not None

    def test_empty_ground_truth_fails_before_the_input_is_read(self, tmp_path):
        gt = tmp_path / "empty.pgm"
        write_pgm16(LabelMap(np.zeros((8, 8), dtype=np.int32)), gt)
        cfg = voronoi_config(tmp_path / "missing.pgm", gt, {"sigma": [12.0]})
        with pytest.raises(ValueError, match="^ground truth has no regions$"):
            run_sweep(cfg)

    def test_input_and_ground_truth_shapes_must_match(self, pilefield, tmp_path, capsys):
        # refused before any row runs: a sweep whose rows ran writes its report
        hs, _ = pilefield
        gt = tmp_path / "gt.pgm"
        write_pgm16(LabelMap(np.ones((300, 200), dtype=np.int32)), gt)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "algorithm": "voronoi",
                    "inputs": {"hillshade": str(hs), "ground_truth": str(gt)},
                    "grid": {"sigma": [6.0, 12.0]},
                }
            )
        )
        out = tmp_path / "rows.json"
        assert main(["sweep", "--config", str(cfg), "--json", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "input shape (300, 300) differs from ground truth's (300, 200)",
        }
        assert not out.exists()

    def test_missing_input_for_algorithm(self, tmp_path, pilefield):
        _, gt = pilefield
        with pytest.raises(ValueError, match="image"):
            SweepConfig(algorithm="slic", grid={"superpixels": [4]}, ground_truth=str(gt))


def serial(monkeypatch, affinity=True):
    """Force the serial path: the process may use only one core, or (without
    ``affinity``) cannot count its cores, as on macOS and Windows."""
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, "sched_getaffinity")


needs_two_cores = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2, reason="one usable core: no workers"
)


@pytest.fixture
def color_inputs(tmp_path):
    """A two-tone and a noisy 24x24 image with a two-region ground truth."""
    px = np.zeros((24, 24, 3), dtype=np.uint8)
    px[:, 12:] = 200
    write_ppm(RasterRGB(px), tmp_path / "tones.ppm")
    noisy = np.random.default_rng(33).integers(0, 255, size=(24, 24, 3)).astype(np.uint8)
    write_ppm(RasterRGB(noisy), tmp_path / "noisy.ppm")
    gt = np.ones((24, 24), dtype=np.int32)
    gt[:, 12:] = 2
    write_pgm16(LabelMap(gt), tmp_path / "gt.pgm")
    return tmp_path


class TestParallelRows:
    # every grid puts an error row at index 1, which a worker runs whenever
    # more than one core is usable
    def configs(self, pilefield, root):
        hs, gt = pilefield
        return {
            "voronoi": voronoi_config(hs, gt, {"sigma": [6.0, -1.0, 12.0, 60.0]}),
            "slic": SweepConfig(
                algorithm="slic",
                grid={"superpixels": [4, 9], "compactness": [10.0, math.inf]},
                ground_truth=str(root / "gt.pgm"),
                image=str(root / "noisy.ppm"),
            ),
            "meanshift": SweepConfig(
                algorithm="meanshift",
                grid={"spatial_radius": [2.0], "range_radius": [30.0, -1.0, 10.0]},
                ground_truth=str(root / "gt.pgm"),
                image=str(root / "tones.ppm"),
                base_params={"min_region_size": 8},
            ),
        }

    @pytest.mark.parametrize("algorithm", ["voronoi", "slic", "meanshift"])
    def test_parallel_and_serial_reports_are_byte_identical(self, pilefield, color_inputs, monkeypatch, algorithm):
        cfg = self.configs(pilefield, color_inputs)[algorithm]
        parallel = run_sweep(cfg)
        assert multiprocessing.active_children() == []
        assert parallel.rows[1].error is not None
        assert sum(row.scores is not None for row in parallel.rows) >= 2
        for affinity in (True, False):
            with monkeypatch.context() as m:
                serial(m, affinity)
                assert worker_count(len(parallel.rows)) == 1
                alone = run_sweep(cfg)
            assert report_csv(parallel) == report_csv(alone)
            assert report_json(parallel) == report_json(alone)

    def test_grid_values_are_never_pickled(self, pilefield):
        # workers inherit the rows through the fork and receive only indices
        class Sigma(float):
            def __reduce__(self):
                raise TypeError("not picklable")

        hs, gt = pilefield
        report = run_sweep(voronoi_config(hs, gt, {"sigma": [Sigma(6.0), Sigma(12.0), Sigma(60.0)]}))
        assert multiprocessing.active_children() == []
        assert [row.error for row in report.rows] == [None, None, None]
        assert [row["params"] for row in json.loads(report_json(report))["rows"]] == [
            {"sigma": s} for s in (6.0, 12.0, 60.0)
        ]

    def test_each_process_takes_every_wth_row(self, pilefield, monkeypatch):
        def segment(img, p):  # each row's error names the process that ran it
            raise RuntimeError(os.getpid())

        # two processes: with more, a worker done with its share before
        # another worker starts may take that worker's share too
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setitem(ALGORITHMS, "voronoi", ALGORITHMS["voronoi"]._replace(segment=segment))
        hs, gt = pilefield
        rows = run_sweep(voronoi_config(hs, gt, {"sigma": [float(s) for s in range(1, 8)]})).rows
        w = worker_count(len(rows))
        assert w == 2 and 2 * w <= len(rows)
        pids = [row.error for row in rows]
        for i, j in itertools.product(range(len(rows)), repeat=2):
            assert (pids[i] == pids[j]) == (i % w == j % w), (i, j, pids)
        assert pids[0] == f"RuntimeError: {os.getpid()}"

    @pytest.mark.parametrize("one_core", [False, True], ids=["parallel", "serial"])
    def test_all_error_grid_exits_1(self, pilefield, tmp_path, monkeypatch, capsys, one_core):
        if one_core:
            serial(monkeypatch)
        hs, gt = pilefield
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "algorithm": "voronoi",
                    "inputs": {"hillshade": str(hs), "ground_truth": str(gt)},
                    "grid": {"sigma": [-1, -2, -3]},
                }
            )
        )
        out = tmp_path / "rows.json"
        assert main(["sweep", "--config", str(cfg), "--json", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "ValueError", "message": "no sweep row succeeded"}
        assert [row["error"] for row in json.loads(out.read_text())["rows"]] == [
            f"ValueError: sigma must be > 0, got {s}" for s in (-1, -2, -3)
        ]
        assert multiprocessing.active_children() == []

    @needs_two_cores
    def test_a_dying_worker_fails_the_sweep(self, pilefield, tmp_path, monkeypatch, capsys):
        parent, voronoi = os.getpid(), ALGORITHMS["voronoi"]

        def segment(img, p):
            if os.getpid() != parent:
                os._exit(3)
            return voronoi.segment(img, p)

        monkeypatch.setitem(ALGORITHMS, "voronoi", voronoi._replace(segment=segment))
        hs, gt = pilefield
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "algorithm": "voronoi",
                    "inputs": {"hillshade": str(hs), "ground_truth": str(gt)},
                    "grid": {"sigma": [12.0, 6.0, 60.0]},
                }
            )
        )
        out = tmp_path / "rows.json"
        assert main(["sweep", "--config", str(cfg), "--json", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "BrokenProcessPool"
        assert not out.exists()
        assert multiprocessing.active_children() == []


@pytest.fixture
def pools(tmp_path, monkeypatch):
    """Count the process pools built, in this process or a forked one: each
    construction appends a line to a file."""
    import concurrent.futures

    log = tmp_path / "pools.log"
    log.touch()

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return lambda: len(log.read_text().splitlines())


class TestForkMap:
    """One fork map serves sweep rows and mean shift pixel shards; maps never nest."""

    @staticmethod
    def meanshift_sweep(root, range_radii):
        return SweepConfig(
            algorithm="meanshift",
            grid={"spatial_radius": [2.0], "range_radius": range_radii},
            ground_truth=str(root / "gt.pgm"),
            image=str(root / "tones.ppm"),
            base_params={"min_region_size": 8},
        )

    @pytest.fixture(autouse=True)
    def two_cores_no_floor(self, monkeypatch):
        # every mean shift filter call is above the floor, so only the
        # no-nesting rule keeps a sweep row in a worker from forking again
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(meanshift, "_SHARD_CELLS", 1)

    def test_a_sweep_of_rows_builds_one_pool(self, color_inputs, pools):
        report = run_sweep(self.meanshift_sweep(color_inputs, [30.0, 10.0, 20.0]))
        assert [row.error for row in report.rows] == [None, None, None]
        assert pools() == 1
        assert _fork._fn is None

    def test_a_one_row_sweep_shards_its_filter(self, color_inputs, pools):
        report = run_sweep(self.meanshift_sweep(color_inputs, [30.0]))
        assert report.rows[0].error is None
        assert pools() == 1

    def test_one_core_builds_no_pool(self, color_inputs, tmp_path, monkeypatch, pools):
        serial(monkeypatch)
        out = tmp_path / "seg.pgm"
        argv = ["segment", "meanshift", "--in", str(color_inputs / "tones.ppm"), "--hs", "2", "--out", str(out)]
        assert main(argv) == 0
        assert out.exists()
        assert pools() == 0

    def test_a_dying_shard_fails_the_command(self, color_inputs, tmp_path, monkeypatch, capsys):
        parent, fork_map = os.getpid(), meanshift.fork_map

        def dying_map(fn, n):
            def shard(k):
                if os.getpid() != parent:
                    os._exit(3)
                return fn(k)

            return fork_map(shard, n)

        monkeypatch.setattr(meanshift, "fork_map", dying_map)
        out = tmp_path / "seg.pgm"
        argv = ["segment", "meanshift", "--in", str(color_inputs / "tones.ppm"), "--hs", "2", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "BrokenProcessPool"
        assert not out.exists()
        assert multiprocessing.active_children() == []
        assert _fork._fn is None


class TestShardGate:
    """With the real floor, the filter shards only when the pixels still
    moving after their first step, times the stencil, cover a fork."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def test_one_step_noise_builds_no_pool(self, pools):
        # 4096 pixels x 101 stencil cells is above the floor, but at range
        # radius 1 a noise pixel's kernel holds only itself: it stops at once
        img = RasterRGB(np.random.default_rng(7).integers(0, 256, (64, 64, 3), dtype=np.uint8))
        assert 101 * 64 * 64 >= meanshift._SHARD_CELLS
        meanshift.mean_shift_filter(img, meanshift.MeanShiftParams(5, 1, 1))
        assert pools() == 0

    def test_pixels_that_keep_moving_build_one(self, pools, monkeypatch):
        rng = np.random.default_rng(64)
        blocks = rng.integers(0, 256, size=(8, 8, 3)).repeat(8, axis=0).repeat(8, axis=1)
        img = RasterRGB(np.clip(blocks + rng.integers(-6, 7, size=(64, 64, 3)), 0, 255).astype(np.uint8))
        p = meanshift.MeanShiftParams(5, 12, 1)
        sharded = meanshift.mean_shift_filter(img, p)
        assert pools() == 1
        serial(monkeypatch)
        assert np.array_equal(sharded, meanshift.mean_shift_filter(img, p))


class TestAlgorithmRegistry:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_segment_returns_connected_labels_in_raster_order(self, tmp_path, name):
        # segment's contract, which the CLI and the sweep rely on instead of relabelling
        dsm, _ = synth_pilefield(96, 96, 4, 6.0, 7)
        gray = quantize8(sigmoidal_stretch(dsm))
        noise = np.random.default_rng(5).integers(0, 40, size=gray.values.shape, dtype=np.uint8)
        paths = {"hillshade": tmp_path / "in.pgm", "image": tmp_path / "in.ppm"}
        write_gray_pgm16(gray, paths["hillshade"])
        write_ppm(RasterRGB(np.stack([gray.values, 255 - gray.values, noise], axis=2)), paths["image"])
        algo = ALGORITHMS[name]
        small = {"meanshift": {"min_region_size": 20}}.get(name, {})  # the default 10000 px is above 96²
        out = algo.segment(algo.load(paths[algo.input_key]), algo.params(**small))
        assert out.region_count() > 1
        assert np.array_equal(relabel_connected(out).labels, out.labels)


class TestReports:
    def test_csv_shape_and_fixed_decimals(self, pilefield):
        hs, gt = pilefield
        report = run_sweep(voronoi_config(hs, gt, {"sigma": [12.0]}))
        text = report_csv(report)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header[0] == "sigma"
        assert "correct_detection" in header
        assert "correct_plus_over" in header
        row = lines[1].split(",")
        score = row[header.index("correct_detection")]
        assert len(score.split(".")[1]) == 6

    def test_json_round_trip_structure(self, tmp_path, pilefield):
        hs, gt = pilefield
        report = run_sweep(voronoi_config(hs, gt, {"sigma": [12.0]}))
        path = tmp_path / "report.json"
        path.write_text(report_json(report))
        payload = json.loads(path.read_text())
        assert payload["algorithm"] == "voronoi"
        assert payload["optimum"]["row"] == 0
        counts = payload["rows"][0]["scores"]["counts"]
        assert counts["n_gt"] == 9

    # any threshold the config accepts, a Fraction, a numpy float or an int,
    # is written as the float its rows carry
    @pytest.mark.parametrize(
        "threshold", [Fraction(1, 2), np.float32(0.5), np.float32(0.51), 1], ids=["fraction", "f32", "f32-0.51", "int"]
    )
    def test_json_threshold_matches_the_rows(self, pilefield, threshold):
        hs, gt = pilefield
        text = report_json(run_sweep(voronoi_config(hs, gt, {"sigma": [12.0]}, threshold)))
        payload = json.loads(text)
        assert type(payload["threshold"]) is float
        assert payload["threshold"] == payload["rows"][0]["scores"]["threshold"] == float(Fraction(str(threshold)))

    def test_two_runs_byte_identical(self, tmp_path, pilefield):
        hs, gt = pilefield
        cfg = voronoi_config(hs, gt, {"sigma": [6.0, 12.0]})
        first = run_sweep(cfg)
        second = run_sweep(cfg)
        assert report_csv(first) == report_csv(second)
        assert report_json(first) == report_json(second)

    def test_unknown_format_rejected(self, tmp_path, pilefield):
        # the sweep command writes CSV and JSON only; asking for another format is a usage error
        hs, gt = pilefield
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.xml"
        cfg_path.write_text(
            json.dumps({"algorithm": "voronoi", "inputs": {"hillshade": str(hs), "ground_truth": str(gt)},
                        "grid": {"sigma": [12.0]}})
        )
        assert main(["sweep", "--config", str(cfg_path), "--xml", str(out)]) == 1
        assert not out.exists()


class TestIngest:
    def test_identity_through_the_pipeline(self, tmp_path):
        rng = np.random.default_rng(10)
        gt = LabelMap(rng.integers(0, 5, size=(24, 24)).astype(np.int32))
        path = tmp_path / "mask.pgm"
        write_pgm16(gt, path)
        mask, info = ingest_external_mask(path)
        from spoilseg import relabel_connected

        scores = evaluate_segmentation(relabel_connected(gt), mask, 0.5)
        assert scores.as_floats() == {
            "correct_detection": 1.0,
            "over_segmentation": 0.0,
            "under_segmentation": 0.0,
            "missed": 0.0,
            "noise": 0.0,
        }
        assert info["regions"] == mask.region_count()

    def test_small_region_dropped(self, tmp_path):
        lab = np.zeros((20, 20), dtype=np.int32)
        lab[:10, :10] = 1
        lab[15, 15] = 2  # 1-pixel region
        path = tmp_path / "mask.pgm"
        write_pgm16(LabelMap(lab), path)
        mask, info = ingest_external_mask(path, min_region=5)
        assert mask.region_count() == 1
        assert info["regions_before_filter"] == 2

    def test_metadata_recorded(self, tmp_path):
        # the library records the counts; the ingest command adds source and parameters
        lab = np.ones((4, 4), dtype=np.int32)
        path = tmp_path / "mask.pgm"
        write_pgm16(LabelMap(lab), path)
        _, info = ingest_external_mask(path, min_region=100)
        assert info == {"min_region": 100, "regions_before_filter": 1, "regions": 0}


class TestSynthPilefield:
    def test_deterministic_for_fixed_seed(self):
        a_dsm, a_gt = synth_pilefield(120, 120, 4, 6.0, 7)
        b_dsm, b_gt = synth_pilefield(120, 120, 4, 6.0, 7)
        assert np.array_equal(a_dsm.values, b_dsm.values)
        assert np.array_equal(a_gt.labels, b_gt.labels)

    def test_region_count_equals_bumps(self):
        _, gt = synth_pilefield(300, 300, 9, 8.0, 42)
        assert gt.region_count() == 9

    def test_single_bump_centered_cell(self):
        dsm, gt = synth_pilefield(100, 100, 1, 8.0, 0)
        assert gt.region_count() == 1
        ys, xs = np.nonzero(gt.labels == 1)
        assert abs(ys.mean() - 50) < 15 and abs(xs.mean() - 50) < 15

    def test_overcrowded_placement_rejected(self):
        with pytest.raises(ValueError):
            synth_pilefield(60, 60, 9, 8.0, 1)

    def test_gt_regions_are_disks(self):
        _, gt = synth_pilefield(300, 300, 9, 8.0, 42)
        sizes = list(gt.region_sizes().values())
        disk_area = np.pi * 16.0**2
        assert all(abs(s - disk_area) < 0.05 * disk_area for s in sizes)

    def test_acceptance_fixture_frozen(self):
        # digests of the full-frame synthesis, so the window and its oracle cannot drift together
        dsm, gt = synth_pilefield(300, 300, 9, 8.0, 42)
        assert hashlib.sha256(dsm.values.astype("<f8").tobytes()).hexdigest() == (
            "78c21c577c5fd43086c201e8dd7c62979c9480051ba3a6c357cb8f9a462b6269"
        )
        assert hashlib.sha256(gt.labels.astype("<i4").tobytes()).hexdigest() == (
            "ba65a3e71f3263e28a84e96d4230141ad40b74f21c427c8a2db5bf64b98b6587"
        )

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(10, 60),
        cols=st.integers(10, 60),
        n_bumps=st.integers(1, 9),
        sigma=st.floats(0.5, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # a field where a cut-off at spacing(floor) or 2 * spacing(floor) changes bits
    @example(rows=60, cols=19, n_bumps=1, sigma=2.1058079766261137, seed=3108820639)
    # a reach under half a cell: the box can be empty, and the mound is refused
    @example(rows=10, cols=12, n_bumps=1, sigma=0.01, seed=0)
    # 2 sigma^2 subnormal: the full frame's divide overflows, a warning raised as an error here
    @example(rows=10, cols=12, n_bumps=1, sigma=1e-160, seed=3)
    def test_bit_identical_to_full_frame(self, rows, cols, n_bumps, sigma, seed):
        args = (rows, cols, n_bumps, sigma, seed)
        try:
            full_dsm, full_gt = synth_pilefield_full(*args)
        except Exception as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                synth_pilefield(*args)
            return
        if np.unique(full_gt[full_gt > 0]).size < n_bumps:  # a mound whose disk holds no cell
            with pytest.raises(ValueError, match=r"^bump_sigma \S+ is too small: mound \d+ covers no cell$"):
                synth_pilefield(*args)
            return
        dsm, gt = synth_pilefield(*args)
        assert np.array_equal(dsm.values.view(np.int64), full_dsm.view(np.int64))
        assert np.array_equal(gt.labels, full_gt)

    def test_benchmark_field_bit_identical_to_full_frame(self):
        dsm, gt = synth_pilefield(1000, 1000, 64, 12.0, 1)
        full_dsm, full_gt = synth_pilefield_full(1000, 1000, 64, 12.0, 1)
        assert np.array_equal(dsm.values.view(np.int64), full_dsm.view(np.int64))
        assert np.array_equal(gt.labels, full_gt)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_bumps": True}, "n_bumps must be an integer, got True"),  # ran as one mound
            ({"rows": 100.0}, "rows must be an integer, got 100.0"),  # a TypeError from range()
            ({"bump_sigma": math.nan}, "bump_sigma must be > 0, got nan"),  # failed late in ScalarGrid
            ({"rng_seed": -1}, "rng_seed must be >= 0, got -1"),  # numpy's own message
            ({"rows": 0}, "rows must be >= 1, got 0"),
            ({"cols": -3}, "cols must be >= 1, got -3"),
            ({"n_bumps": 0}, "n_bumps must be >= 1, got 0"),
            ({"bump_sigma": 0.0}, "bump_sigma must be > 0, got 0.0"),
            ({"bump_sigma": math.inf}, "bump_sigma must be < inf, got inf"),
            ({"bump_sigma": "8"}, "bump_sigma must be a number, got '8'"),
            ({"rng_seed": 1.5}, "rng_seed must be an integer, got 1.5"),
            ({"cols": True}, "cols must be an integer, got True"),
            ({"rng_seed": True}, "rng_seed must be an integer, got True"),
            ({"bump_sigma": True}, "bump_sigma must be a number, got True"),
            ({"bump_sigma": -1.0}, "bump_sigma must be > 0, got -1.0"),
            ({"bump_sigma": 20.0}, "bump support falls outside the canvas"),
            ({"bump_sigma": 0.1, "n_bumps": 4}, "bump_sigma 0.1 is too small: mound 1 covers no cell"),
            ({"n_bumps": 2}, "bump supports overlap"),
        ],
    )
    def test_argument_contract(self, change, message):
        args = {"rows": 100, "cols": 100, "n_bumps": 1, "bump_sigma": 8.0, "rng_seed": 0} | change
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synth_pilefield(*args.values())  # the base dict fixes the order

    def test_numpy_integers_and_integer_sigma_accepted(self):
        dsm, gt = synth_pilefield(np.int64(100), 100, np.int32(1), 8, np.uint8(0))
        ref_dsm, ref_gt = synth_pilefield(100, 100, 1, 8.0, 0)
        assert np.array_equal(dsm.values, ref_dsm.values) and np.array_equal(gt.labels, ref_gt.labels)
