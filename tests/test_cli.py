"""End-to-end command-line interface checks."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spoilseg
from spoilseg import (
    GrayImage,
    HillshadeParams,
    LabelMap,
    MeanShiftParams,
    RasterRGB,
    ScalarGrid,
    SlicParams,
    StretchParams,
    SweepConfig,
    VoronoiParams,
    evaluate_segmentation,
    quantize8,
    read_asc_grid,
    read_gray_pgm16,
    read_pgm16,
    relabel_connected,
    run_sweep,
    sigmoidal_stretch,
    synth_pilefield,
    voronoi_pipeline,
    write_asc_grid,
    write_gray_pgm16,
    write_pgm16,
    write_ppm,
)
from spoilseg.cli import _params, build_parser, main
from spoilseg.sweep import load_sweep_config, report_csv, report_json


@pytest.fixture()
def synth_files(tmp_path):
    dsm = tmp_path / "dsm.asc"
    gt = tmp_path / "gt.pgm"
    stretched = tmp_path / "stretched.pgm"
    code = main(
        [
            "synth",
            "--rows", "160", "--cols", "160", "--bumps", "4", "--bump-sigma", "8",
            "--seed", "42",
            "--dsm", str(dsm),
            "--gt", str(gt),
            "--out-stretched", str(stretched),
        ]
    )
    assert code == 0
    return dsm, gt, stretched


class TestSynthAndHillshade:
    def test_synth_outputs(self, synth_files):
        dsm, gt, stretched = synth_files
        grid = read_asc_grid(dsm)
        assert (grid.width, grid.height) == (160, 160)
        assert read_pgm16(gt).region_count() == 4
        assert read_gray_pgm16(stretched).values.max() > 200

    @pytest.mark.parametrize(
        "option, value, message",
        [("--rows", "0", "rows must be >= 1, got 0"), ("--seed", "-1", "rng_seed must be >= 0, got -1")],
    )
    def test_synth_bad_argument(self, tmp_path, capsys, option, value, message):
        argv = ["synth", option, value, "--dsm", str(tmp_path / "d.asc"), "--gt", str(tmp_path / "g.pgm")]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}

    def test_hillshade_pgm_and_asc(self, synth_files, tmp_path):
        dsm, _, _ = synth_files
        out_pgm = tmp_path / "shade.pgm"
        out_asc = tmp_path / "shade.asc"
        assert main(["hillshade", "--dsm", str(dsm), "--out", str(out_pgm)]) == 0
        assert main(["hillshade", "--dsm", str(dsm), "--out", str(out_asc)]) == 0
        shade = read_asc_grid(out_asc)
        assert shade.values.min() >= 0.0 and shade.values.max() <= 1.0
        assert read_gray_pgm16(out_pgm).values.shape == (160, 160)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hillshade", "--strength", "710"], "strength * scale must be <= 1419.565425786768, got 710.0 * 2.0"),
            (["hillshade", "--z-factor", "inf"], "z_factor must be < inf, got inf"),
            (["synth", "--strength", "1000"], "strength * scale must be <= 1419.565425786768, got 1000.0 * 2.0"),
        ],
        ids=["hillshade-strength", "hillshade-z-factor", "synth-strength"],
    )
    def test_terrain_parameter_refused_by_name(self, synth_files, tmp_path, capsys, argv, message):
        dsm, gt, _ = synth_files
        io = ["--dsm", str(dsm), "--out", str(tmp_path / "shade.pgm")]
        if argv[0] == "synth":
            io = ["--dsm", str(tmp_path / "d.asc"), "--gt", str(gt), "--out-stretched", str(tmp_path / "s.pgm")]
        assert main(argv + io) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}

    def test_hillshade_bad_extension(self, synth_files, tmp_path, capsys):
        dsm, _, _ = synth_files
        code = main(["hillshade", "--dsm", str(dsm), "--out", str(tmp_path / "x.tif")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"

    def test_hillshade_checks_extension_before_reading(self, tmp_path, capsys):
        # the DSM does not exist: the extension error shows it was never read
        code = main(["hillshade", "--dsm", str(tmp_path / "missing.asc"), "--out", str(tmp_path / "x.tif")])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "unsupported output extension '.tif' (use .asc or .pgm)",
        }

    def test_hillshade_huge_header_fails_cleanly(self, tmp_path, capsys):
        dsm = tmp_path / "huge.asc"
        dsm.write_text("ncols 1000000000000\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n")
        code = main(["hillshade", "--dsm", str(dsm), "--out", str(tmp_path / "shade.pgm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "FormatError"


class TestSegmentCommands:
    def test_voronoi_segmentation(self, synth_files, tmp_path):
        _, gt, stretched = synth_files
        out = tmp_path / "seg.pgm"
        assert main(["segment", "voronoi", "--in", str(stretched), "--sigma", "12", "--out", str(out)]) == 0
        seg = read_pgm16(out)
        assert seg.region_count() == 4

    def test_voronoi_no_restrict_fills_frame(self, synth_files, tmp_path):
        _, _, stretched = synth_files
        out = tmp_path / "seg.pgm"
        assert main(["segment", "voronoi", "--in", str(stretched), "--no-restrict", "--out", str(out)]) == 0
        assert (read_pgm16(out).labels > 0).all()

    def test_voronoi_invert_labels_the_background(self, tmp_path):
        img = GrayImage(np.random.default_rng(5).integers(0, 256, (40, 50)).astype(np.uint8))
        src, out = tmp_path / "img.pgm", tmp_path / "seg.pgm"
        write_gray_pgm16(img, src)
        assert main(["segment", "voronoi", "--in", str(src), "--sigma", "2", "--invert", "--out", str(out)]) == 0
        inverted = voronoi_pipeline(img, VoronoiParams(sigma=2.0, invert_foreground=True))
        assert inverted.region_count() > 0
        assert np.array_equal(read_pgm16(out).labels, relabel_connected(inverted).labels)

    def test_meanshift_segmentation(self, tmp_path):
        px = np.zeros((8, 12, 3), dtype=np.uint8)
        px[:, 6:] = 180
        src = tmp_path / "img.ppm"
        write_ppm(RasterRGB(px), src)
        out = tmp_path / "ms.pgm"
        code = main(
            ["segment", "meanshift", "--in", str(src), "--hs", "2", "--hr", "30",
             "--min-region", "4", "--out", str(out)]
        )
        assert code == 0
        assert read_pgm16(out).region_count() == 2

    def test_slic_segmentation(self, tmp_path):
        rng = np.random.default_rng(2)
        px = rng.integers(0, 255, size=(24, 24, 3)).astype(np.uint8)
        src = tmp_path / "img.ppm"
        write_ppm(RasterRGB(px), src)
        out = tmp_path / "slic.pgm"
        assert main(["segment", "slic", "--in", str(src), "--k", "9", "--m", "20", "--out", str(out)]) == 0
        assert read_pgm16(out).region_count() >= 1

    def test_slic_refuses_infinite_compactness(self, tmp_path, capsys):
        px = np.random.default_rng(2).integers(0, 255, size=(24, 24, 3)).astype(np.uint8)
        src, out = tmp_path / "img.ppm", tmp_path / "slic.pgm"
        write_ppm(RasterRGB(px), src)
        assert main(["segment", "slic", "--in", str(src), "--k", "9", "--m", "inf", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "compactness must be < inf, got inf"}
        assert not out.exists()

    def test_slic_refuses_compactness_whose_square_overflows(self, tmp_path, capsys):
        px = np.random.default_rng(2).integers(0, 255, size=(24, 24, 3)).astype(np.uint8)
        src, out = tmp_path / "img.ppm", tmp_path / "slic.pgm"
        write_ppm(RasterRGB(px), src)
        assert main(["segment", "slic", "--in", str(src), "--k", "9", "--m", "1e200", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "compactness 1e+200 over step 8 squares past float64"}
        assert not out.exists()

    def test_slic_refuses_compactness_whose_spatial_distances_overflow(self, tmp_path, capsys):
        # (m / S)^2 passes float64; times the image's 24^2 + 24^2 it does not
        px = np.random.default_rng(2).integers(0, 255, size=(24, 24, 3)).astype(np.uint8)
        src, out = tmp_path / "img.ppm", tmp_path / "slic.pgm"
        write_ppm(RasterRGB(px), src)
        assert main(["segment", "slic", "--in", str(src), "--k", "4", "--m", "1e154", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "compactness 1e+154 over step 12 weights a 24x24 image's distances past float64",
        }
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--hs", "--hr"])
    def test_meanshift_radius_whose_square_overflows_runs_as_inf(self, tmp_path, flag):
        px = np.random.default_rng(2).integers(0, 255, size=(12, 12, 3)).astype(np.uint8)
        src = tmp_path / "img.ppm"
        write_ppm(RasterRGB(px), src)
        maps = []
        for value in ("1e300", "inf"):
            out = tmp_path / f"ms-{value}.pgm"
            assert main(["segment", "meanshift", "--in", str(src), flag, value, "--min-region", "4", "--out", str(out)]) == 0
            maps.append(out.read_bytes())
        assert maps[0] == maps[1]

    def test_voronoi_refuses_infinite_sigma(self, tmp_path, capsys):
        px = np.random.default_rng(2).integers(0, 255, size=(24, 24)).astype(np.uint8)
        src, out = tmp_path / "img.pgm", tmp_path / "voronoi.pgm"
        write_gray_pgm16(GrayImage(px), src)
        assert main(["segment", "voronoi", "--in", str(src), "--sigma", "inf", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "sigma must be < inf, got inf"}
        assert not out.exists()

    def test_voronoi_peak_radius_past_the_image_runs_as_its_side(self, tmp_path):
        px = np.random.default_rng(2).integers(0, 255, size=(24, 20)).astype(np.uint8)
        src = tmp_path / "img.pgm"
        write_gray_pgm16(GrayImage(px), src)
        maps = []
        for radius in ("24", "1000000000000"):
            out = tmp_path / f"voronoi-{radius}.pgm"
            argv = ["segment", "voronoi", "--in", str(src), "--sigma", "1", "--peak-radius", radius, "--out", str(out)]
            assert main(argv) == 0
            maps.append(out.read_bytes())
        assert maps[0] == maps[1]

    @pytest.mark.parametrize(
        "argv, classes",
        [
            (["segment", "meanshift", "--in", "x", "--out", "y"], [MeanShiftParams]),
            (["segment", "slic", "--in", "x", "--out", "y"], [SlicParams]),
            (["segment", "voronoi", "--in", "x", "--out", "y"], [VoronoiParams]),
            (["hillshade", "--dsm", "x", "--out", "y"], [HillshadeParams, StretchParams]),
            (["synth", "--dsm", "x", "--gt", "y"], [StretchParams]),
        ],
        ids=["meanshift", "slic", "voronoi", "hillshade", "synth"],
    )
    def test_omitted_options_take_params_defaults(self, argv, classes):
        args = build_parser().parse_args(argv)
        assert [_params(cls, args) for cls in classes] == [cls() for cls in classes]


class TestEvaluate:
    def test_self_evaluation_is_perfect(self, synth_files, tmp_path, capsys):
        _, gt, _ = synth_files
        out = tmp_path / "scores.json"
        code = main(["evaluate", "--gt", str(gt), "--pred", str(gt), "--threshold", "0.5", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["correct_detection"] == 1.0
        assert payload["missed"] == 0.0
        assert payload["counts"]["n_gt"] == 4
        assert payload["instances"]["correct_pairs"]

    def test_report_to_stdout(self, synth_files, capsys):
        _, gt, _ = synth_files
        assert main(["evaluate", "--gt", str(gt), "--pred", str(gt)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold"] == 0.5

    def test_no_relabel_scores_labels_as_given(self, tmp_path, capsys):
        gt = np.zeros((6, 9), dtype=np.int32)
        gt[1:5, 1:3] = 1
        gt[1:5, 6:8] = 2
        gt_path, pred_path = tmp_path / "gt.pgm", tmp_path / "pred.pgm"
        write_pgm16(LabelMap(gt), gt_path)
        write_pgm16(LabelMap(np.minimum(gt, 1)), pred_path)  # one label over both blobs
        n_ms = []
        for flags in ([], ["--no-relabel"]):
            assert main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), *flags]) == 0
            n_ms.append(json.loads(capsys.readouterr().out)["counts"]["n_ms"])
        assert n_ms == [2, 1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("threshold", [0.5, 0.51, 0.8])
    def test_report_is_the_library_scores_plus_instances(self, tmp_path, capsys, seed, threshold):
        rng = np.random.default_rng(seed)
        # blocky maps with repeated and split labels, so relabelling changes them
        gt = LabelMap(np.kron(rng.integers(0, 6, size=(6, 6)), np.ones((3, 3), dtype=np.int64)))
        pred = LabelMap(np.kron(rng.integers(0, 9, size=(9, 9)), np.ones((2, 2), dtype=np.int64)))
        gt_path, pred_path = tmp_path / "gt.pgm", tmp_path / "pred.pgm"
        write_pgm16(gt, gt_path)
        write_pgm16(pred, pred_path)
        argv = ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--threshold", str(threshold)]
        for flags, maps in (([], (relabel_connected(gt), relabel_connected(pred))), (["--no-relabel"], (gt, pred))):
            assert main([*argv, *flags]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert set(payload.pop("instances")) == {"correct_pairs", "over", "under", "missed_gt", "noise_ms"}
            assert payload == evaluate_segmentation(*maps, threshold).to_dict()

    def test_dimension_mismatch_fails_cleanly(self, synth_files, tmp_path, capsys):
        _, gt, _ = synth_files
        other = tmp_path / "other.pgm"
        write_pgm16(LabelMap(np.ones((5, 5), dtype=np.int32)), other)
        code = main(["evaluate", "--gt", str(gt), "--pred", str(other)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "message" in err

    def test_empty_ground_truth_fails_cleanly(self, synth_files, tmp_path, capsys):
        _, gt, _ = synth_files
        empty = tmp_path / "empty.pgm"
        write_pgm16(LabelMap(np.zeros((160, 160), dtype=np.int32)), empty)
        code = main(["evaluate", "--gt", str(empty), "--pred", str(gt)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "ground truth has no regions"}


class TestSweepCli:
    def test_sweep_reports(self, synth_files, tmp_path):
        _, gt, stretched = synth_files
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "algorithm": "voronoi",
                    "inputs": {"hillshade": str(stretched), "ground_truth": str(gt)},
                    "threshold": 0.5,
                    "grid": {"sigma": [4.0, 12.0]},
                }
            )
        )
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        code = main(["sweep", "--config", str(cfg), "--csv", str(csv_path), "--json", str(json_path)])
        assert code == 0
        assert len(csv_path.read_text().strip().split("\n")) == 3
        payload = json.loads(json_path.read_text())
        assert len(payload["rows"]) == 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"grid": {"sigma": 5}}, "must be a non-empty list"),
            ({"grid": {"sigma": "abc"}}, "must be a non-empty list"),
            ({"threshold": "x"}, "threshold"),
            ({"threshold": 2}, "threshold"),
            ({"inputs": {"hillshade": 5, "ground_truth": 5}}, "must be a path"),
            (None, "JSON object"),
            ({"algorithm": None}, "missing 'algorithm'"),
            ({"grid": None}, "missing 'grid'"),
            ({"inputs": {"hillshade": "x.pgm"}}, "'ground_truth' input"),
            ({"params": {"sigma": 6.0}}, "parameter 'sigma' is in both grid and params"),
            ({"algorithm": "kmeans"}, "unknown algorithm 'kmeans'"),
            ({"grid": {}}, "parameter grid must be a non-empty object"),
            ({"grid": [12.0]}, "parameter grid must be a non-empty object"),
            ({"params": [["sigma", 6.0]]}, "params must be an object"),
            ({"inputs": ["gt.pgm"]}, "inputs must be an object"),
            ({"treshold": 0.9}, "sweep config has unknown key 'treshold'"),
            ({"param": {"restrict_to_foreground": False}}, "sweep config has unknown key 'param'"),
            ({"inputs": {"ground_truth": "gt.pgm", "hillshade": "s.pgm", "mask": "m.pgm"}}, "inputs has unknown key 'mask'"),
        ],
        ids=[
            "grid-scalar",
            "grid-string",
            "threshold-string",
            "threshold-range",
            "path-number",
            "top-level-list",
            "no-algorithm",
            "no-grid",
            "no-ground-truth",
            "grid-and-params",
            "unknown-algorithm",
            "grid-empty",
            "grid-list",
            "params-list",
            "inputs-list",
            "unknown-key",
            "unknown-key-params-misspelt",
            "unknown-input",
        ],
    )
    def test_malformed_config_rejected_at_load(self, synth_files, tmp_path, capsys, edit, message):
        _, gt, stretched = synth_files
        config = {
            "algorithm": "voronoi",
            "inputs": {"hillshade": str(stretched), "ground_truth": str(gt)},
            "grid": {"sigma": [12.0]},
        }
        cfg = tmp_path / "sweep.json"
        if edit is None:
            cfg.write_text(json.dumps([config]))
        else:  # a None value stands for a missing key
            cfg.write_text(json.dumps({k: v for k, v in {**config, **edit}.items() if v is not None}))
        out = tmp_path / "rows.json"
        code = main(["sweep", "--config", str(cfg), "--json", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert message in payload["message"]
        assert not out.exists()

    def test_deeply_nested_config_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text("[" * 100_000)
        code = main(["sweep", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "RecursionError"

    def test_no_successful_row_exits_1(self, synth_files, tmp_path, capsys):
        _, gt, stretched = synth_files
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "algorithm": "voronoi",
                    "inputs": {"hillshade": str(stretched), "ground_truth": str(gt)},
                    "grid": {"sigma": [-1, -2]},
                }
            )
        )
        out = tmp_path / "rows.json"
        code = main(["sweep", "--config", str(cfg), "--json", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["message"] == "no sweep row succeeded"
        payload = json.loads(out.read_text())
        assert payload["optimum"] is None
        assert all(row["error"] for row in payload["rows"])

    def test_report_to_stdout_without_csv_or_json(self, synth_files, tmp_path, capsys):
        _, gt, stretched = synth_files
        cfg = tmp_path / "sweep.json"
        inputs = {"hillshade": str(stretched), "ground_truth": str(gt)}
        cfg.write_text(json.dumps({"algorithm": "voronoi", "inputs": inputs, "grid": {"sigma": [4.0, 12.0]}}))
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == report_json(run_sweep(load_sweep_config(cfg)))

    def test_missing_config_fails(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] in ("FileNotFoundError", "OSError")


class TestUsageErrors:
    """argparse rejections follow the same one-line JSON error, exit 1 contract."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["segment", "slic", "--in", "x.ppm", "--out", "y.pgm", "--k", "abc"],
             "spoilseg segment slic: argument --k: invalid int value: 'abc'"),
            (["segment", "slic", "--in", "x.ppm"],
             "spoilseg segment slic: the following arguments are required: --out"),
            (["bogus"], "spoilseg: argument command: invalid choice: 'bogus'"),
        ],
        ids=["bad-type", "missing-required", "unknown-command"],
    )
    def test_usage_error_is_json_exit_1(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "UsageError"
        assert payload["message"].startswith(message)

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["segment", "slic", "--help"])
        assert exc.value.code == 0
        assert "--k" in capsys.readouterr().out


def run_python(args, cwd, **env_overrides):
    """Run the interpreter on ``args`` in a child process that imports this checkout's spoilseg."""
    env = dict(os.environ, **env_overrides)
    src = str(Path(spoilseg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


class TestModuleEntryPoint:
    """``python -m spoilseg`` and ``python -m spoilseg.cli`` run the CLI."""

    @staticmethod
    def run(module, args, cwd):
        return run_python(["-m", module, *args], cwd)

    @pytest.mark.parametrize("module", ["spoilseg", "spoilseg.cli"])
    def test_synth_writes_files(self, tmp_path, module):
        args = ["synth", "--rows", "60", "--cols", "60", "--bumps", "1", "--dsm", "d.asc", "--gt", "g.pgm"]
        done = self.run(module, args, tmp_path)
        assert done.returncode == 0, done.stderr
        assert read_pgm16(tmp_path / "g.pgm").region_count() == 1
        assert read_asc_grid(tmp_path / "d.asc").values.shape == (60, 60)

    def test_bad_config_exits_1_with_json_error(self, tmp_path):
        (tmp_path / "sweep.json").write_text("{}")
        done = self.run("spoilseg", ["sweep", "--config", "sweep.json"], tmp_path)
        assert done.returncode == 1
        assert json.loads(done.stderr) == {"error": "ValueError", "message": "sweep config is missing 'algorithm'"}

    def test_unknown_command_exits_1_with_json_error(self, tmp_path):
        done = self.run("spoilseg", ["bogus"], tmp_path)
        assert done.returncode == 1
        assert json.loads(done.stderr)["error"] == "UsageError"


class TestNdimageOnlyWhereUsed:
    """Only a blur or a plateau search imports scipy.ndimage.

    Each command runs in a fresh process, which reports whether ndimage got
    loaded; ``segment voronoi``, which must load it, keeps the check from
    passing vacuously.  ``hillshade`` finds the cells next to nodata itself.
    """

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("inputs")
        argv = ["synth", "--rows", "60", "--cols", "60", "--bumps", "1", "--bump-sigma", "6"]
        argv += ["--dsm", str(d / "dsm.asc"), "--gt", str(d / "gt.pgm"), "--out-stretched", str(d / "st.pgm")]
        assert main(argv) == 0
        rng = np.random.default_rng(0)
        write_ppm(RasterRGB(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)), d / "rgb.ppm")
        values = rng.random((16, 16))
        values[4:6, 4:6] = -9999.0
        write_asc_grid(ScalarGrid(values, nodata=-9999.0), d / "holes.asc")
        return d

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            ("synth --rows 60 --cols 60 --bumps 1 --dsm {o}/d.asc --gt {o}/g.pgm --out-stretched {o}/s.pgm", False),
            ("hillshade --dsm {i}/dsm.asc --out {o}/h.pgm", False),
            ("segment slic --in {i}/rgb.ppm --k 4 --out {o}/s.pgm", False),
            ("segment meanshift --in {i}/rgb.ppm --hs 2 --hr 8 --out {o}/m.pgm", False),
            ("evaluate --gt {i}/gt.pgm --pred {i}/gt.pgm --out {o}/e.json", False),
            ("ingest --in {i}/gt.pgm --out {o}/n.pgm --min-region 2 --report {o}/r.json", False),
            ("hillshade --dsm {i}/holes.asc --out {o}/h.pgm", False),
            ("segment voronoi --in {i}/st.pgm --sigma 2 --out {o}/v.pgm", True),
        ],
        ids=["synth", "hillshade", "slic", "meanshift", "evaluate", "ingest", "hillshade-nodata", "voronoi"],
    )
    def test_command_loads_ndimage_only_if_it_blurs(self, inputs, tmp_path, argv, loaded):
        code = "import sys; from spoilseg.cli import main; print(main(sys.argv[1:]), 'scipy.ndimage' in sys.modules)"
        done = run_python(["-c", code, *(arg.format(i=inputs, o=tmp_path) for arg in argv.split())], tmp_path)
        assert done.stdout.split() == ["0", str(loaded)], done.stderr


class TestLocale:
    """Text files are UTF-8 whatever the process locale."""

    # the C locale without Python's UTF-8 coercion, where glibc's locale encoding is ASCII
    C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    READ = """
import codecs, locale, sys
from spoilseg import read_asc_grid
print(codecs.lookup(locale.getpreferredencoding(False)).name)
for path in sys.argv[1:]:
    try:
        print(read_asc_grid(path).values.tolist())
    except ValueError as exc:
        print(type(exc).__name__, exc)
"""

    def test_sweep_and_asc_read_give_the_same_bytes_in_the_c_locale(self, synth_files, tmp_path):
        _, gt, stretched = synth_files
        config = {
            "algorithm": "voronoi",
            "inputs": {"hillshade": str(stretched), "ground_truth": str(gt)},
            "grid": {"sigma": [2.0, "é"]},
        }
        (tmp_path / "config.json").write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        header = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        (tmp_path / "digit.asc").write_text(header + "\u0661 2\n", encoding="utf-8")  # an Arabic-Indic one
        (tmp_path / "bytes.asc").write_bytes(header.encode() + b"\xff\xfe 2\n")  # not UTF-8
        sweep = ["-m", "spoilseg", "sweep", "--config", "config.json", "--csv", "r.csv", "--json", "r.json"]
        outputs = []
        for env in ({}, self.C_LOCALE):
            done = run_python(sweep, tmp_path, **env)
            assert done.returncode == 0, done.stderr
            reports = [(tmp_path / name).read_bytes() for name in ("r.csv", "r.json")]
            done = run_python(["-c", self.READ, "digit.asc", "bytes.asc"], tmp_path, **env)
            assert done.returncode == 0, done.stderr
            encoding, *reads = done.stdout.splitlines()
            outputs.append((encoding, reports, reads))
        (_, reports, reads), (c_encoding, *c_outputs) = outputs
        assert c_encoding != "utf-8"  # the C locale is in force, not coerced to UTF-8
        assert c_outputs == [reports, reads]
        assert "é".encode() in reports[0]
        assert reads == ["[[1.0, 2.0]]", "FormatError expected 1 data rows, got 0"]

    def test_ingest_report_gives_the_same_bytes_in_the_c_locale(self, tmp_path):
        write_pgm16(LabelMap(np.ones((4, 4), dtype=np.int32)), tmp_path / "mask.pgm")
        argv = ["ingest", "--in", "mask.pgm", "--out", "o.pgm", "--source", "é", "--param", "ké=é", "--report", "r.json"]
        # the same arguments as process argv bytes, and as text passed to main() in-process
        calls = [["-m", "spoilseg", *argv], ["-c", f"from spoilseg.cli import main; raise SystemExit(main({ascii(argv)}))"]]
        reports = []
        for env in ({}, self.C_LOCALE):
            for call in calls:
                (tmp_path / "r.json").unlink(missing_ok=True)
                done = run_python(call, tmp_path, **env)
                assert done.returncode == 0, done.stderr
                reports.append((tmp_path / "r.json").read_bytes())
        assert reports == reports[:1] * 4
        meta = json.loads(reports[0])
        assert (meta["source"], meta["parameters"]) == ("é", {"ké": "é"})


class TestIngestCli:
    def test_ingest_with_report(self, tmp_path):
        lab = np.zeros((16, 16), dtype=np.int32)
        lab[:8, :8] = 3
        lab[12, 12] = 9
        src = tmp_path / "mask.pgm"
        write_pgm16(LabelMap(lab), src)
        out = tmp_path / "norm.pgm"
        report = tmp_path / "meta.json"
        code = main(
            ["ingest", "--in", str(src), "--out", str(out), "--min-region", "5",
             "--source", "stardist", "--param", "probability=0.3", "--param", "overlap=0.9",
             "--report", str(report)]
        )
        assert code == 0
        assert read_pgm16(out).region_count() == 1
        meta = json.loads(report.read_text())
        assert meta["source"] == "stardist"
        assert meta["parameters"]["probability"] == "0.3"

    def test_metadata_recorded(self, tmp_path):
        # the command adds the provenance to the library's counts; the bytes are pinned
        src, out, report = tmp_path / "mask.pgm", tmp_path / "o.pgm", tmp_path / "meta.json"
        write_pgm16(LabelMap(np.ones((4, 4), dtype=np.int32)), src)
        argv = ["ingest", "--in", str(src), "--out", str(out), "--min-region", "100", "--source", "sam",
                "--param", "points_per_side=200", "--param", "iou_threshold=0.9", "--report", str(report)]
        assert main(argv) == 0
        assert report.read_bytes() == (
            b'{\n  "min_region": 100,\n  "parameters": {\n    "iou_threshold": "0.9",\n'
            b'    "points_per_side": "200"\n  },\n  "regions": 0,\n  "regions_before_filter": 1,\n'
            b'  "source": "sam"\n}\n'
        )

    def test_text_the_locale_cannot_encode_is_kept(self, tmp_path):
        # a lone surrogate never comes from process argv, only from a caller of main()
        src, report = tmp_path / "mask.pgm", tmp_path / "meta.json"
        write_pgm16(LabelMap(np.ones((4, 4), dtype=np.int32)), src)
        argv = ["ingest", "--in", str(src), "--out", str(tmp_path / "o.pgm"), "--source", "\ud800x", "--report", str(report)]
        assert main(argv) == 0
        assert json.loads(report.read_text(encoding="utf-8"))["source"] == "\ud800x"

    def test_more_regions_than_a_pgm16_can_number(self, tmp_path, capsys):
        # a checkerboard of labels 1 and 2: every pixel is a region, 131072 of them
        src, out = tmp_path / "mask.pgm", tmp_path / "o.pgm"
        ys, xs = np.mgrid[0:256, 0:512]
        write_pgm16(LabelMap(((ys + xs) % 2 + 1).astype(np.int32)), src)
        assert main(["ingest", "--in", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "FormatError",
            "message": "label 131072 does not fit a 16-bit PGM, which holds labels up to 65535",
        }
        assert not out.exists()

    def test_bad_param_syntax(self, tmp_path, capsys):
        lab = np.ones((4, 4), dtype=np.int32)
        src = tmp_path / "mask.pgm"
        write_pgm16(LabelMap(lab), src)
        code = main(["ingest", "--in", str(src), "--out", str(tmp_path / "o.pgm"), "--param", "oops"])
        assert code == 1
        assert "key=value" in json.loads(capsys.readouterr().err)["message"]

    def test_duplicate_param_key(self, tmp_path, capsys):
        src = tmp_path / "mask.pgm"
        write_pgm16(LabelMap(np.ones((4, 4), dtype=np.int32)), src)
        out, report = tmp_path / "o.pgm", tmp_path / "meta.json"
        argv = ["ingest", "--in", str(src), "--out", str(out), "--param", "a=1", "--param", "a=2"]
        assert main([*argv, "--report", str(report)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "duplicate --param key 'a'"}
        assert not out.exists() and not report.exists()

    def test_negative_min_region(self, tmp_path, capsys):
        src = tmp_path / "mask.pgm"
        write_pgm16(LabelMap(np.ones((4, 4), dtype=np.int32)), src)
        out = tmp_path / "o.pgm"
        code = main(["ingest", "--in", str(src), "--out", str(out), "--min-region", "-5"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "min_region must be >= 0, got -5"}
        assert not out.exists()


class TestExperiments:
    def test_readme_sigma_sweep_reproduces_the_acceptance_sweep(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the committed config names its inputs relative to the checkout root
        (tmp_path / "runs" / "sigma").mkdir(parents=True)
        config = Path(__file__).parents[1] / "configs" / "sigma_sweep.json"
        assert main(["synth", "--dsm", "runs/sigma/dsm.asc", "--gt", "runs/sigma/gt.pgm",
                     "--out-stretched", "runs/sigma/stretched.pgm"]) == 0
        assert main(["sweep", "--config", str(config), "--csv", "runs/sigma/sweep.csv",
                     "--json", "runs/sigma/sweep.json"]) == 0

        ref = tmp_path / "ref"
        ref.mkdir()
        dsm, gt = synth_pilefield(300, 300, 9, 8.0, 42)
        write_gray_pgm16(quantize8(sigmoidal_stretch(dsm, StretchParams(3.0, 2.0))), ref / "in.pgm")
        write_pgm16(gt, ref / "gt.pgm")
        report = run_sweep(
            SweepConfig(
                algorithm="voronoi",
                grid={"sigma": [1.0, 12.0, 60.0]},
                ground_truth=str(ref / "gt.pgm"),
                hillshade=str(ref / "in.pgm"),
                threshold=0.5,
            )
        )
        assert (tmp_path / "runs/sigma/sweep.csv").read_bytes() == report_csv(report).encode()
        assert (tmp_path / "runs/sigma/sweep.json").read_bytes() == report_json(report).encode()

    def test_readme_library_sketch_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
        names = set(re.findall(r"\bsp\.(\w+)", block))
        assert names and names <= set(spoilseg.__all__), names - set(spoilseg.__all__)
        exec(compile(block, "README.md", "exec"), {})
        assert "correct_detection" in capsys.readouterr().out
