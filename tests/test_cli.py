"""End-to-end command-line interface checks."""

import json

import numpy as np
import pytest

from spoilseg import (
    LabelMap,
    RasterRGB,
    read_asc_grid,
    read_gray_pgm16,
    read_pgm16,
    write_pgm16,
    write_ppm,
)
from spoilseg.cli import main


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
        ],
        ids=["grid-scalar", "grid-string", "threshold-string", "threshold-range", "path-number", "top-level-list"],
    )
    def test_malformed_config_rejected_at_load(self, synth_files, tmp_path, capsys, edit, message):
        _, gt, stretched = synth_files
        config = {
            "algorithm": "voronoi",
            "inputs": {"hillshade": str(stretched), "ground_truth": str(gt)},
            "grid": {"sigma": [12.0]},
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps([config] if edit is None else {**config, **edit}))
        out = tmp_path / "rows.json"
        code = main(["sweep", "--config", str(cfg), "--json", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert message in payload["message"]
        assert not out.exists()

    def test_missing_config_fails(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] in ("FileNotFoundError", "OSError")


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
