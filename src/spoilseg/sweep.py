"""Parameter sweeps with Hoover scoring, plus external-mask ingestion.

A sweep walks the full Cartesian product of a declared parameter grid, runs
the chosen segmenter per combination and scores its connected regions
against ground truth.  Reports are byte-stable:
identical configuration and inputs always produce identical CSV/JSON files.
:data:`ALGORITHMS` is the one table of segmenters, their Params dataclasses
and inputs; the CLI's ``segment`` commands dispatch through it too.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field, fields
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

from .colorspace import rgb_to_lab
from .grids import LabelMap, _check_field
from .hoover import HooverScores, _as_fraction, evaluate_segmentation
from .labels import drop_small_regions, relabel_connected
from .meanshift import MeanShiftParams, mean_shift_segment
from .raster_io import read_gray_pgm16, read_pgm16, read_ppm
from .slic import SlicParams, slic
from .voronoi import VoronoiParams, voronoi_pipeline


class Algorithm(NamedTuple):
    """A segmenter as the sweep and the CLI see it.

    ``segment`` returns a connected 1..K map in raster order: each region is
    one 4-connected component, numbered as ``relabel_connected`` would.
    """

    params: type  # Params dataclass; its fields are the parameter names
    input_key: str  # which config input feeds it: "image" or "hillshade"
    load: Callable  # input path -> raster
    segment: Callable  # (raster, params) -> LabelMap


# The lambdas look their functions up when called, so a wrapper installed on
# a module attribute (a tracer, a test double) sees every call.  Mean shift
# and SLIC end in ``merge_small_regions``, already connected 1..K; only the
# Voronoi cells, split by the foreground mask, need relabelling.
ALGORITHMS = {
    "meanshift": Algorithm(
        MeanShiftParams,
        "image",
        lambda path: read_ppm(path),
        lambda img, p: mean_shift_segment(img, p),
    ),
    "slic": Algorithm(
        SlicParams,
        "image",
        lambda path: rgb_to_lab(read_ppm(path)),
        lambda img, p: slic(img, p),
    ),
    "voronoi": Algorithm(
        VoronoiParams,
        "hillshade",
        lambda path: read_gray_pgm16(path),
        lambda img, p: relabel_connected(voronoi_pipeline(img, p)),
    ),
}

_SCORE_COLUMNS = (
    "correct_detection",
    "over_segmentation",
    "under_segmentation",
    "missed",
    "noise",
    "correct_plus_over",
)


@dataclass
class SweepConfig:
    """Declarative sweep: algorithm, inputs, threshold and parameter grid."""

    algorithm: str
    grid: dict[str, list]
    ground_truth: str
    image: str | None = None
    hillshade: str | None = None
    threshold: float = 0.5
    base_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, str) or self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        algo = ALGORITHMS[self.algorithm]
        if not isinstance(self.grid, dict) or not self.grid:
            raise ValueError("parameter grid must be a non-empty object")
        for name, values in self.grid.items():
            if not isinstance(values, list) or not values:
                raise ValueError(f"grid entry {name!r} must be a non-empty list, got {values!r}")
        if not isinstance(self.base_params, dict):
            raise ValueError("params must be an object")
        known = {f.name for f in fields(algo.params)}
        for name in list(self.grid) + list(self.base_params):
            if name not in known:
                raise ValueError(f"unknown parameter {name!r} for {self.algorithm}")
        _as_fraction(self.threshold)
        for key in ("ground_truth", algo.input_key):
            value = getattr(self, key)
            if value is None:
                raise ValueError(f"{self.algorithm} sweep needs the {key!r} input")
            if not isinstance(value, (str, os.PathLike)):
                raise ValueError(f"input {key!r} must be a path, got {value!r}")


def load_sweep_config(path: str | os.PathLike) -> SweepConfig:
    """Read a sweep configuration from its JSON file."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("sweep config must be a JSON object")
    for key in ("algorithm", "grid"):
        if key not in raw:
            raise ValueError(f"sweep config is missing {key!r}")
    inputs = raw.get("inputs", {})
    if not isinstance(inputs, dict):
        raise ValueError("inputs must be an object")
    return SweepConfig(
        algorithm=raw["algorithm"],
        grid=raw["grid"],
        ground_truth=inputs.get("ground_truth"),
        image=inputs.get("image"),
        hillshade=inputs.get("hillshade"),
        threshold=raw.get("threshold", 0.5),
        base_params=raw.get("params", {}),
    )


@dataclass
class SweepRow:
    params: dict
    scores: HooverScores | None = None
    error: str | None = None


@dataclass
class SweepReport:
    algorithm: str
    threshold: float
    param_names: list[str]
    rows: list[SweepRow]
    optimum_index: int | None

    @property
    def optimum(self) -> SweepRow | None:
        return None if self.optimum_index is None else self.rows[self.optimum_index]


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Execute every combination of the grid in declared order.

    A failing combination is recorded with its error and excluded from the
    optimum, which maximises correct detection with earlier rows winning
    ties.
    """
    algo = ALGORITHMS[cfg.algorithm]
    gt = relabel_connected(read_pgm16(cfg.ground_truth))
    if not gt.labels.any():
        raise ValueError("ground truth has no regions")
    raster = algo.load(getattr(cfg, algo.input_key))

    names = list(cfg.grid)
    rows: list[SweepRow] = []
    for values in product(*(cfg.grid[name] for name in names)):
        params = dict(cfg.base_params)
        params.update(dict(zip(names, values)))
        row = SweepRow(params=dict(zip(names, values)))
        try:
            seg = algo.segment(raster, algo.params(**params))
            row.scores = evaluate_segmentation(gt, seg, cfg.threshold)
        except Exception as exc:  # recorded, not fatal: one bad row must not kill the sweep
            row.error = f"{type(exc).__name__}: {exc}"
        rows.append(row)

    scored = [i for i, row in enumerate(rows) if row.scores is not None]
    optimum_index = max(scored, key=lambda i: rows[i].scores.correct_detection, default=None)  # first max wins
    return SweepReport(
        algorithm=cfg.algorithm,
        threshold=cfg.threshold,
        param_names=names,
        rows=rows,
        optimum_index=optimum_index,
    )


def report_csv(report: SweepReport) -> str:
    """Render a report as CSV: parameter columns, six-decimal scores, error."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(report.param_names) + list(_SCORE_COLUMNS) + ["error"])
    for row in report.rows:
        cells = [str(row.params[name]) for name in report.param_names]
        if row.scores is not None:
            d = row.scores.to_dict()
            cells += [f"{d[col]:.6f}" for col in _SCORE_COLUMNS]
            cells.append("")
        else:
            cells += ["" for _ in _SCORE_COLUMNS]
            cells.append(row.error or "")
        writer.writerow(cells)
    return buf.getvalue()


def report_json(report: SweepReport) -> str:
    """Render a report as JSON, including raw counts and the optimum row."""
    payload = {
        "algorithm": report.algorithm,
        "threshold": report.threshold,
        "parameters": list(report.param_names),
        "rows": [
            {
                "params": row.params,
                "scores": None if row.scores is None else row.scores.to_dict(),
                "error": row.error,
            }
            for row in report.rows
        ],
        "optimum": None
        if report.optimum_index is None
        else {"row": report.optimum_index, "params": report.rows[report.optimum_index].params},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_report(report: SweepReport, fmt: str, path: str | os.PathLike) -> None:
    """Write a report file; two identical runs produce identical bytes."""
    if fmt == "csv":
        text = report_csv(report)
    elif fmt == "json":
        text = report_json(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    Path(path).write_text(text)


@dataclass
class ExternalMaskMetadata:
    """Free-form provenance for a mask produced outside this toolkit."""

    source: str = ""
    parameters: dict[str, str] = field(default_factory=dict)


def ingest_external_mask(
    path: str | os.PathLike,
    metadata: ExternalMaskMetadata | None = None,
    min_region: int = 0,
) -> tuple[LabelMap, dict]:
    """Load and normalise an externally produced label mask.

    The mask is split into 4-connected regions once, regions below
    ``min_region`` pixels (an integer >= 0) drop to background and the rest
    are numbered 1..K in raster order.  Returns the normalised map plus a
    report fragment carrying the metadata and region counts.
    """
    _check_field("min_region", min_region, int, {"ge": 0})
    m = relabel_connected(read_pgm16(path))
    raw_regions = int(m.labels.max())  # both maps are numbered 1..K: the top label counts them
    m = drop_small_regions(m, min_region)
    meta = metadata if metadata is not None else ExternalMaskMetadata()
    info = {
        "source": meta.source,
        "parameters": dict(meta.parameters),
        "min_region": min_region,
        "regions_before_filter": raw_regions,
        "regions": int(m.labels.max()),
    }
    return m, info
