"""Output checks: byte digests plus invariants checked without spoilseg's code.

Every file a job writes is digested; repetitions of a job must reproduce the
digests exactly.  The first time a job runs, its outputs are also parsed with
the small independent readers here and checked against invariants that hold
for any correct result, so a wrong answer on an unseen seed is caught too.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

_PGM16 = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+65535\s")


class CheckFailed(Exception):
    """An output broke an invariant or its recorded digest."""


def digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_pgm16(path: str | Path) -> np.ndarray:
    """Parse a binary 16-bit PGM independently of spoilseg's reader."""
    data = Path(path).read_bytes()
    m = _PGM16.match(data)
    if m is None:
        raise CheckFailed(f"{Path(path).name}: not a 16-bit binary PGM")
    width, height = int(m.group(1)), int(m.group(2))
    payload = data[m.end() :]
    if len(payload) != width * height * 2:
        raise CheckFailed(f"{Path(path).name}: payload is {len(payload)} bytes, expected {width * height * 2}")
    return np.frombuffer(payload, dtype=">u2").reshape(height, width).astype(np.int64)


def count_components(labels: np.ndarray) -> int:
    """Number of 4-connected components of equal positive label."""
    h, w = labels.shape
    idx = np.arange(h * w).reshape(h, w)
    rows, cols = [], []
    for a, b, ia, ib in (
        (labels[:, :-1], labels[:, 1:], idx[:, :-1], idx[:, 1:]),
        (labels[:-1, :], labels[1:, :], idx[:-1, :], idx[1:, :]),
    ):
        same = (a == b) & (a > 0)
        rows.append(ia[same])
        cols.append(ib[same])
    r, c = np.concatenate(rows), np.concatenate(cols)
    graph = sparse.coo_matrix((np.ones(r.size, dtype=np.int8), (r, c)), shape=(h * w, h * w))
    _, comp = csgraph.connected_components(graph, directed=False)
    return int(np.unique(comp[labels.ravel() > 0]).size)


def check_label_map(path: str | Path, shape: list[int], min_region: int = 1) -> int:
    """A normalised map: ids 1..K in raster-scan order, one component each.

    Returns K.
    """
    labels = read_pgm16(path)
    name = Path(path).name
    if list(labels.shape) != list(shape):
        raise CheckFailed(f"{name}: shape {labels.shape}, expected {tuple(shape)}")
    ids, first = np.unique(labels.ravel(), return_index=True)
    first = first[ids > 0]
    ids = ids[ids > 0]
    k = int(ids.size)
    if not np.array_equal(ids, np.arange(1, k + 1)):
        raise CheckFailed(f"{name}: region ids are not 1..{k}")
    if np.any(np.diff(first) <= 0):
        raise CheckFailed(f"{name}: region ids are not in raster-scan order")
    if count_components(labels) != k:
        raise CheckFailed(f"{name}: some region is not one 4-connected component")
    if k and np.bincount(labels.ravel())[1:].min() < min_region:
        raise CheckFailed(f"{name}: a region is smaller than {min_region} pixels")
    return k


def _check_scores(scores: dict, n_gt: int, n_ms: int | None, where: str) -> None:
    counts = scores["counts"]
    if counts["n_gt"] != n_gt:
        raise CheckFailed(f"{where}: n_gt {counts['n_gt']}, expected {n_gt}")
    if n_ms is not None and counts["n_ms"] != n_ms:
        raise CheckFailed(f"{where}: n_ms {counts['n_ms']}, expected {n_ms}")
    gt_side = counts["correct"] + counts["over"] + counts["under"] + counts["missed"]
    if gt_side != n_gt:
        raise CheckFailed(f"{where}: ground-truth classes cover {gt_side} of {n_gt} regions")
    total = sum(scores[k] for k in ("correct_detection", "over_segmentation", "under_segmentation", "missed"))
    if abs(total - 1.0) > 1e-9:
        raise CheckFailed(f"{where}: ground-truth fractions sum to {total}")


def check_evaluate(path: str | Path, n_gt: int, n_ms: int) -> None:
    """Evaluate report: scores consistent with counts and instance lists."""
    report = json.loads(Path(path).read_text())
    name = Path(path).name
    _check_scores(report, n_gt, n_ms, name)
    inst, counts = report["instances"], report["counts"]
    listed = {
        "correct": len(inst["correct_pairs"]),
        "over": len(inst["over"]),
        "under": sum(len(u["gt"]) for u in inst["under"]),
        "missed": len(inst["missed_gt"]),
        "noise": len(inst["noise_ms"]),
    }
    for key, n in listed.items():
        if counts[key] != n:
            raise CheckFailed(f"{name}: {key} count {counts[key]} but {n} listed")


def check_sweep(json_path: str | Path, csv_path: str | Path, rows: int, n_gt: int) -> None:
    """Sweep reports: every row scored, CSV and JSON agree."""
    report = json.loads(Path(json_path).read_text())
    name = Path(json_path).name
    if len(report["rows"]) != rows:
        raise CheckFailed(f"{name}: {len(report['rows'])} rows, expected {rows}")
    for i, row in enumerate(report["rows"]):
        if row["error"] is not None or row["scores"] is None:
            raise CheckFailed(f"{name}: row {i} failed: {row['error']}")
        _check_scores(row["scores"], n_gt, None, f"{name} row {i}")
    if report["optimum"] is None:
        raise CheckFailed(f"{name}: no optimum")
    with open(csv_path, newline="") as fh:
        table = list(csv.reader(fh))
    if len(table) != rows + 1:
        raise CheckFailed(f"{Path(csv_path).name}: {len(table) - 1} rows, expected {rows}")
    for i, (line, row) in enumerate(zip(table[1:], report["rows"])):
        cell = float(line[len(report["parameters"])])
        if abs(cell - row["scores"]["correct_detection"]) > 5e-7:
            raise CheckFailed(f"{Path(csv_path).name}: row {i} disagrees with the JSON report")


def check_ingest_report(path: str | Path, regions: int, min_region: int) -> None:
    report = json.loads(Path(path).read_text())
    name = Path(path).name
    if report["regions"] != regions:
        raise CheckFailed(f"{name}: reports {report['regions']} regions, the mask holds {regions}")
    if report["min_region"] != min_region or report["regions_before_filter"] < regions:
        raise CheckFailed(f"{name}: inconsistent filter record")


def check_outputs(checks: list[dict], workdir: Path) -> None:
    """Run a job's declared checks in order; label-map counts feed later checks."""
    regions: dict[str, int] = {}

    def gt_regions(name: str) -> int:
        return count_components(read_pgm16(workdir / name))

    for c in checks:
        kind = c["kind"]
        if kind == "labels":
            regions[c["path"]] = check_label_map(workdir / c["path"], c["shape"], c.get("min_region", 1))
        elif kind == "evaluate":
            check_evaluate(workdir / c["path"], gt_regions(c["gt"]), regions[c["pred"]])
        elif kind == "sweep":
            check_sweep(workdir / c["path"], workdir / c["csv"], c["rows"], gt_regions(c["gt"]))
        elif kind == "ingest_report":
            check_ingest_report(workdir / c["path"], regions[c["mask"]], c["min_region"])
        elif kind == "gray":
            values = read_pgm16(workdir / c["path"])
            if list(values.shape) != list(c["shape"]) or values.max() > 255:
                raise CheckFailed(f"{c['path']}: not an 8-bit gray image of shape {c['shape']}")
        else:
            raise ValueError(f"unknown check kind {kind!r}")
