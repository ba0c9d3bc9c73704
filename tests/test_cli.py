"""End-to-end command-line interface checks."""

import json
import os
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
    write_gray_pgm16,
    write_pgm16,
    write_ppm,
)
from spoilseg.cli import _params, build_parser, main
from spoilseg.sweep import report_csv, report_json


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

    def test_voronoi_refuses_infinite_sigma(self, tmp_path, capsys):
        px = np.random.default_rng(2).integers(0, 255, size=(24, 24)).astype(np.uint8)
        src, out = tmp_path / "img.pgm", tmp_path / "voronoi.pgm"
        write_gray_pgm16(GrayImage(px), src)
        assert main(["segment", "voronoi", "--in", str(src), "--sigma", "inf", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "sigma must be < inf, got inf"}
        assert not out.exists()

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


class TestModuleEntryPoint:
    """``python -m spoilseg`` and ``python -m spoilseg.cli`` run the CLI."""

    @staticmethod
    def run(module, args, cwd):
        env = dict(os.environ)
        src = str(Path(spoilseg.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", module, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
        )

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
