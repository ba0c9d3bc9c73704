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

from ._fork import fork_map
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
# a module attribute (a tracer, a test double) before a sweep starts runs for
# every row, in the forked workers too.  Workers send back only their rows'
# scores or errors, or a mean shift shard's modes: what a wrapper records in
# a worker, the parent never sees.  Forks never nest: a sweep of two or more
# rows parallelises over rows, and each row's mean shift filter runs
# serially; a one-row sweep may shard the filter's moving pixels instead.
# Mean shift and SLIC end in ``merge_small_regions``, already connected 1..K;
# only the Voronoi cells, split by the foreground mask, need relabelling.
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
        for name, value in [*self.grid.items(), *self.base_params.items()]:
            if name not in known:
                raise ValueError(f"unknown parameter {name!r} for {self.algorithm}")
            if name in self.grid and name in self.base_params:
                raise ValueError(f"parameter {name!r} is in both grid and params")
            try:
                json.dumps(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"parameter {name!r} takes JSON values only: {exc}") from None
        _as_fraction(self.threshold)
        for key in ("ground_truth", algo.input_key):
            value = getattr(self, key)
            if value is None:
                raise ValueError(f"{self.algorithm} sweep needs the {key!r} input")
            if not isinstance(value, (str, os.PathLike)):
                raise ValueError(f"input {key!r} must be a path, got {value!r}")


def _refuse_unknown_keys(obj: dict, where: str, known: tuple[str, ...]) -> None:
    """A misspelt key would otherwise be ignored and its row scored with defaults."""
    for key in obj:
        if key not in known:
            raise ValueError(f"{where} has unknown key {key!r} (known: {', '.join(known)})")


def load_sweep_config(path: str | os.PathLike) -> SweepConfig:
    """Read a sweep configuration from its JSON file."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError("sweep config must be a JSON object")
    _refuse_unknown_keys(raw, "sweep config", ("algorithm", "grid", "inputs", "threshold", "params"))
    for key in ("algorithm", "grid"):
        if key not in raw:
            raise ValueError(f"sweep config is missing {key!r}")
    inputs = raw.get("inputs", {})
    if not isinstance(inputs, dict):
        raise ValueError("inputs must be an object")
    _refuse_unknown_keys(inputs, "inputs", ("ground_truth", "image", "hillshade"))
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
    ties.  Rows run in forked processes where several cores are usable
    (:func:`~spoilseg._fork.fork_map`), the input raster and the ground truth
    inherited through the fork; the report is the same either way.  Process
    k of w runs rows k, k + w, ...; the caller is process 0, so a long-lived
    process pays scipy's lazy imports once, not once per worker per sweep.
    """
    algo = ALGORITHMS[cfg.algorithm]
    gt = relabel_connected(read_pgm16(cfg.ground_truth))
    if not gt.labels.any():
        raise ValueError("ground truth has no regions")
    raster = algo.load(getattr(cfg, algo.input_key))
    if (raster.height, raster.width) != gt.labels.shape:
        raise ValueError(f"input shape {(raster.height, raster.width)} differs from ground truth's {gt.labels.shape}")

    names = list(cfg.grid)
    grid_rows = [dict(zip(names, values)) for values in product(*(cfg.grid[name] for name in names))]

    def score(i: int) -> tuple[HooverScores | None, str | None]:
        """Segment and score grid row i: its scores, or the error it raised."""
        try:
            seg = algo.segment(raster, algo.params(**cfg.base_params, **grid_rows[i]))
            return evaluate_segmentation(gt, seg, cfg.threshold), None
        except Exception as exc:  # recorded, not fatal: one bad row must not kill the sweep
            return None, f"{type(exc).__name__}: {exc}"

    rows = [SweepRow(values, *result) for values, result in zip(grid_rows, fork_map(score, len(grid_rows)))]

    scored = [i for i, row in enumerate(rows) if row.scores is not None]
    optimum_index = max(scored, key=lambda i: rows[i].scores.correct_detection, default=None)  # first max wins
    return SweepReport(cfg.algorithm, cfg.threshold, names, rows, optimum_index)


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
        "threshold": float(_as_fraction(report.threshold)),  # as each row's scores write it
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


def ingest_external_mask(path: str | os.PathLike, min_region: int = 0) -> tuple[LabelMap, dict]:
    """Load and normalise an externally produced label mask.

    The mask is split into 4-connected regions once, regions below
    ``min_region`` pixels (an integer >= 0) drop to background and the rest
    are numbered 1..K in raster order.  Returns the normalised map plus its
    counts: ``min_region``, ``regions_before_filter`` and ``regions``.
    """
    _check_field("min_region", min_region, int, {"ge": 0})
    m = relabel_connected(read_pgm16(path))
    raw_regions = int(m.labels.max())  # both maps are numbered 1..K: the top label counts them
    m = drop_small_regions(m, min_region)
    return m, {"min_region": min_region, "regions_before_filter": raw_regions, "regions": int(m.labels.max())}
