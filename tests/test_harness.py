"""Sweep runner, report emission, mask ingestion and the synthetic fixture."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import synth_pilefield_full

from spoilseg import (
    ExternalMaskMetadata,
    LabelMap,
    RasterRGB,
    StretchParams,
    SweepConfig,
    emit_report,
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


def voronoi_config(hs_path, gt_path, grid):
    return SweepConfig(
        algorithm="voronoi",
        grid=grid,
        ground_truth=str(gt_path),
        hillshade=str(hs_path),
        threshold=0.5,
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

    def test_unknown_parameter_rejected(self, pilefield):
        hs, gt = pilefield
        with pytest.raises(ValueError, match="unknown parameter"):
            voronoi_config(hs, gt, {"bandwidth": [1]})

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

    def test_missing_input_for_algorithm(self, tmp_path, pilefield):
        _, gt = pilefield
        with pytest.raises(ValueError, match="image"):
            SweepConfig(algorithm="slic", grid={"superpixels": [4]}, ground_truth=str(gt))


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
        emit_report(report, "json", path)
        payload = json.loads(path.read_text())
        assert payload["algorithm"] == "voronoi"
        assert payload["optimum"]["row"] == 0
        counts = payload["rows"][0]["scores"]["counts"]
        assert counts["n_gt"] == 9

    def test_two_runs_byte_identical(self, tmp_path, pilefield):
        hs, gt = pilefield
        cfg = voronoi_config(hs, gt, {"sigma": [6.0, 12.0]})
        first = run_sweep(cfg)
        second = run_sweep(cfg)
        assert report_csv(first) == report_csv(second)
        assert report_json(first) == report_json(second)

    def test_unknown_format_rejected(self, tmp_path, pilefield):
        hs, gt = pilefield
        report = run_sweep(voronoi_config(hs, gt, {"sigma": [12.0]}))
        with pytest.raises(ValueError, match="format"):
            emit_report(report, "xml", tmp_path / "r.xml")


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
        lab = np.ones((4, 4), dtype=np.int32)
        path = tmp_path / "mask.pgm"
        write_pgm16(LabelMap(lab), path)
        meta = ExternalMaskMetadata(
            source="sam",
            parameters={"iou_threshold": "0.9", "stability_threshold": "0.9", "points_per_side": "200"},
        )
        _, info = ingest_external_mask(path, meta, min_region=100)
        assert info["source"] == "sam"
        assert info["parameters"]["points_per_side"] == "200"
        assert info["min_region"] == 100


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
        amplitude=st.sampled_from([0.0, 1e-12, 1.0, 1e3, -1.0]),
        noise=st.sampled_from([0.0, 1e-300, 0.08, 50.0, -0.08]),
    )
    # two fields where a cut-off at spacing(floor) or 2 * spacing(floor) changes bits
    @example(rows=47, cols=60, n_bumps=1, sigma=5.0, seed=660, amplitude=1e-12, noise=0.08)
    @example(rows=48, cols=54, n_bumps=7, sigma=1.5, seed=43, amplitude=1e3, noise=0.08)
    # a reach under half a cell: the box can be empty, and the mound is refused
    @example(rows=10, cols=12, n_bumps=1, sigma=0.01, seed=0, amplitude=1.0, noise=0.08)
    # 2 sigma^2 subnormal: the full frame's divide overflows, a warning raised as an error here
    @example(rows=10, cols=12, n_bumps=1, sigma=1e-160, seed=3, amplitude=1.0, noise=0.08)
    def test_bit_identical_to_full_frame(self, rows, cols, n_bumps, sigma, seed, amplitude, noise):
        args = (rows, cols, n_bumps, sigma, seed)
        kwargs = {"bump_amplitude": amplitude, "noise_amplitude": noise}
        if noise < 0:  # refused before any drawing; the full frame fails inside numpy
            with pytest.raises(ValueError, match="^noise_amplitude must be >= 0"):
                synth_pilefield(*args, **kwargs)
            return
        try:
            full_dsm, full_gt = synth_pilefield_full(*args, **kwargs)
        except Exception as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                synth_pilefield(*args, **kwargs)
            return
        if np.unique(full_gt[full_gt > 0]).size < n_bumps:  # a mound whose disk holds no cell
            with pytest.raises(ValueError, match=r"^bump_sigma \S+ is too small: mound \d+ covers no cell$"):
                synth_pilefield(*args, **kwargs)
            return
        dsm, gt = synth_pilefield(*args, **kwargs)
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
            ({"bump_amplitude": math.nan}, "bump_amplitude must be > -inf, got nan"),
            ({"bump_amplitude": math.inf}, "bump_amplitude must be < inf, got inf"),
            ({"noise_amplitude": -math.inf}, "noise_amplitude must be >= 0, got -inf"),
            ({"noise_amplitude": True}, "noise_amplitude must be a number, got True"),
            ({"noise_amplitude": -0.08}, "noise_amplitude must be >= 0, got -0.08"),  # numpy's high - low < 0
            ({"bump_sigma": 0.1, "n_bumps": 4}, "bump_sigma 0.1 is too small: mound 1 covers no cell"),
        ],
    )
    def test_argument_contract(self, change, message):
        args = {"rows": 100, "cols": 100, "n_bumps": 1, "bump_sigma": 8.0, "rng_seed": 0} | change
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synth_pilefield(*[args.pop(k) for k in ("rows", "cols", "n_bumps", "bump_sigma", "rng_seed")], **args)

    def test_numpy_integers_and_integer_sigma_accepted(self):
        dsm, gt = synth_pilefield(np.int64(100), 100, np.int32(1), 8, np.uint8(0))
        ref_dsm, ref_gt = synth_pilefield(100, 100, 1, 8.0, 0)
        assert np.array_equal(dsm.values, ref_dsm.values) and np.array_equal(gt.labels, ref_gt.labels)
