"""Outside-in span tracer for spoilseg, and the per-layer metrics built on it.

:class:`Tracer` wraps every public function of every loaded ``spoilseg``
module without editing the package.  Modules import each other's names with
``from .x import y``, so a wrapper is bound wherever the original function
object is bound, in every ``spoilseg.*`` module found in ``sys.modules``
(``spoilseg.slic`` as a package attribute is the function, not the
submodule).  Spans stay in memory until the run writes them.

A span is named ``<module>.<function>`` and records start, end, parent span,
job id, and counters computed from the call's arguments and result.  A
layer's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "bench.job"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(args: tuple, kwargs: dict, index: int) -> int:
    return os.path.getsize(_arg(args, kwargs, index, "path"))


def _pairs(args, kwargs, result) -> dict:
    seeds, width, height = args[0], args[1], args[2]
    mask = args[3] if len(args) > 3 else kwargs.get("mask")
    pixels = int(mask.sum()) if mask is not None else width * height
    return {"seed_pixel_pairs": len(seeds) * pixels}


def _dropped(args, kwargs, result) -> dict:
    import numpy as np

    min_size = _arg(args, kwargs, 1, "min_size")
    counts = np.bincount(args[0].labels.ravel())[1:]
    return {"regions_dropped": int(np.count_nonzero((counts > 0) & (counts < min_size)))}


def _top_label(result) -> int:
    # region count of a map renumbered 1..K
    return int(result.labels.max(initial=0))


# Counters per span name: (args, kwargs, result) -> {counter: value}.  Only the
# innermost reader/writer counts bytes, so nested calls are not counted twice.
COUNTERS = {
    "raster_io.read_asc_grid": lambda a, k, r: {"bytes_read": _file_size(a, k, 0)},
    "raster_io.read_pgm16": lambda a, k, r: {"bytes_read": _file_size(a, k, 0)},
    "raster_io.read_ppm": lambda a, k, r: {"bytes_read": _file_size(a, k, 0)},
    "raster_io.write_asc_grid": lambda a, k, r: {"bytes_written": _file_size(a, k, 1)},
    "raster_io.write_pgm16": lambda a, k, r: {"bytes_written": _file_size(a, k, 1)},
    "raster_io.write_ppm": lambda a, k, r: {"bytes_written": _file_size(a, k, 1)},
    "voronoi.detect_local_maxima": lambda a, k, r: {"seeds_detected": len(r)},
    "voronoi.filter_background_seeds": lambda a, k, r: {"seeds_surviving": len(r)},
    "voronoi.voronoi_label": _pairs,
    "colorspace.rgb_to_lab": lambda a, k, r: {"pixels": a[0].width * a[0].height},
    "slic.slic": lambda a, k, r: {"regions_out": _top_label(r)},
    "meanshift.mean_shift_filter": lambda a, k, r: {"pixels": a[0].width * a[0].height},
    "meanshift.mean_shift_segment": lambda a, k, r: {"regions_out": _top_label(r)},
    "labels.relabel_connected": lambda a, k, r: {"components_out": _top_label(r)},
    "labels.drop_small_regions": _dropped,
    "hoover.overlap_table": lambda a, k, r: {
        "gt_regions": len(r.gt_sizes),
        "ms_regions": len(r.ms_sizes),
        "overlap_pairs": len(r.overlaps),
    },
    "sweep.run_sweep": lambda a, k, r: {
        "rows": len(r.rows),
        "rows_failed": sum(row.error is not None for row in r.rows),
    },
    "cli.main": lambda a, k, r: {"failed": int(r != 0)},
}


class Tracer:
    """Records spans while installed; one instance per benchmark process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._origin = perf_counter()

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "job": self._job,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "counts": {},
            "error": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = perf_counter() - self._origin
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter() - self._origin
        self._stack.pop()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span)
                span["error"] = type(exc).__name__
                if name == "cli.main":
                    span["counts"] = {"failed": 1}
                raise
            self._close(span)
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def job(self, job_id: str):
        """Trace one job: wrap spoilseg, open the job's root span, unwrap.

        Yields the root span; its duration is the job's wall time.
        """
        modules = [m for name, m in list(sys.modules.items()) if name == "spoilseg" or name.startswith("spoilseg.")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        bound = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    bound.append((mod, attr, obj))
        self._job = job_id
        try:
            root = self._open(ROOT_SPAN)
            try:
                yield root
            finally:
                self._close(root)
        finally:
            self._job = None
            for mod, attr, obj in bound:
                setattr(mod, attr, obj)

    def span_records(self) -> list[dict]:
        """Spans with self time added, ready to write out."""
        return with_self_times(self.spans)


def with_self_times(spans: list[dict]) -> list[dict]:
    """Copy spans adding ``self``: duration minus the union of child intervals."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append({**s, "self": s["end"] - s["start"] - covered})
    return out


# Per-layer metrics: name -> (unit, span names, what to sum).  "self" sums the
# spans' self time, "calls" counts the spans, anything else sums that counter.
LAYER_METRICS = {
    "raster_io.asc_read_s": ("s", ("raster_io.read_asc_grid",), "self"),
    "raster_io.asc_write_s": ("s", ("raster_io.write_asc_grid",), "self"),
    "raster_io.pgm_read_s": ("s", ("raster_io.read_pgm16", "raster_io.read_gray_pgm16"), "self"),
    "raster_io.pgm_write_s": ("s", ("raster_io.write_pgm16", "raster_io.write_gray_pgm16"), "self"),
    "raster_io.ppm_read_s": ("s", ("raster_io.read_ppm",), "self"),
    "raster_io.ppm_write_s": ("s", ("raster_io.write_ppm",), "self"),
    "raster_io.bytes_read": (
        "bytes",
        ("raster_io.read_asc_grid", "raster_io.read_pgm16", "raster_io.read_ppm"),
        "bytes_read",
    ),
    "raster_io.bytes_written": (
        "bytes",
        ("raster_io.write_asc_grid", "raster_io.write_pgm16", "raster_io.write_ppm"),
        "bytes_written",
    ),
    "terrain.hillshade_s": ("s", ("terrain.hillshade",), "self"),
    "terrain.stretch_s": ("s", ("terrain.sigmoidal_stretch",), "self"),
    "terrain.quantize_s": ("s", ("terrain.quantize8",), "self"),
    "voronoi.blur_s": ("s", ("voronoi.gaussian_blur",), "self"),
    "voronoi.seeds_s": ("s", ("voronoi.detect_local_maxima",), "self"),
    "voronoi.otsu_s": ("s", ("voronoi.otsu_threshold",), "self"),
    "voronoi.tessellate_s": ("s", ("voronoi.voronoi_label",), "self"),
    "voronoi.pipeline_self_s": ("s", ("voronoi.voronoi_pipeline", "voronoi.filter_background_seeds"), "self"),
    "voronoi.seeds_detected": ("count", ("voronoi.detect_local_maxima",), "seeds_detected"),
    "voronoi.seeds_surviving": ("count", ("voronoi.filter_background_seeds",), "seeds_surviving"),
    "voronoi.seed_pixel_pairs": ("count", ("voronoi.voronoi_label",), "seed_pixel_pairs"),
    "colorspace.lab_s": ("s", ("colorspace.rgb_to_lab",), "self"),
    "colorspace.pixels": ("count", ("colorspace.rgb_to_lab",), "pixels"),
    "slic.assign_s": ("s", ("slic.slic_assign",), "self"),
    "slic.assign_calls": ("count", ("slic.slic_assign",), "calls"),
    "slic.connectivity_s": ("s", ("slic.enforce_connectivity",), "self"),
    "slic.self_s": ("s", ("slic.slic",), "self"),
    "slic.regions_out": ("count", ("slic.slic",), "regions_out"),
    "meanshift.filter_s": ("s", ("meanshift.mean_shift_filter",), "self"),
    "meanshift.segment_self_s": ("s", ("meanshift.mean_shift_segment",), "self"),
    "meanshift.pixels": ("count", ("meanshift.mean_shift_filter",), "pixels"),
    "meanshift.regions_out": ("count", ("meanshift.mean_shift_segment",), "regions_out"),
    "labels.relabel_s": ("s", ("labels.relabel_connected",), "self"),
    "labels.relabel_calls": ("count", ("labels.relabel_connected",), "calls"),
    "labels.components_out": ("count", ("labels.relabel_connected",), "components_out"),
    "labels.drop_small_s": ("s", ("labels.drop_small_regions",), "self"),
    "labels.regions_dropped": ("count", ("labels.drop_small_regions",), "regions_dropped"),
    "hoover.overlap_s": ("s", ("hoover.overlap_table",), "self"),
    "hoover.overlap_table_calls": ("count", ("hoover.overlap_table",), "calls"),
    "hoover.classify_s": ("s", ("hoover.hoover_classify",), "self"),
    "hoover.scores_s": ("s", ("hoover.hoover_scores",), "self"),
    "hoover.evaluate_self_s": ("s", ("hoover.evaluate_segmentation",), "self"),
    "hoover.gt_regions": ("count", ("hoover.overlap_table",), "gt_regions"),
    "hoover.ms_regions": ("count", ("hoover.overlap_table",), "ms_regions"),
    "hoover.overlap_pairs": ("count", ("hoover.overlap_table",), "overlap_pairs"),
    "sweep.run_self_s": ("s", ("sweep.run_sweep",), "self"),
    "sweep.rows": ("count", ("sweep.run_sweep",), "rows"),
    "sweep.rows_failed": ("count", ("sweep.run_sweep",), "rows_failed"),
    "sweep.report_s": ("s", ("sweep.emit_report", "sweep.report_csv", "sweep.report_json"), "self"),
    "sweep.config_s": ("s", ("sweep.load_sweep_config",), "self"),
    "sweep.ingest_self_s": ("s", ("sweep.ingest_external_mask",), "self"),
    "cli.main_self_s": ("s", ("cli.main", "cli.build_parser"), "self"),
    "cli.commands": ("count", ("cli.main",), "calls"),
    "cli.commands_failed": ("count", ("cli.main",), "failed"),
    "synth.pilefield_s": ("s", ("synth.synth_pilefield",), "self"),
}


def _tally(spans: list[dict]) -> dict[str, float]:
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    out = {}
    for metric, (_, names, what) in LAYER_METRICS.items():
        total = 0.0
        for s in (s for n in names for s in by_name.get(n, [])):
            if what == "self":
                total += s["self"]
            elif what == "calls":
                total += 1
            else:
                total += s["counts"].get(what, 0)
        out[metric] = total
    return out


def layer_metrics(setup_spans: list[dict], setups: int, job_spans: list[dict], jobs: int) -> dict[str, float]:
    """Per-layer values for one set-up plus one average job.

    Set-up spans are averaged over the set-ups and job spans over the traced
    jobs; a layer used in both (raster writes) reports the sum.
    """
    setup, job = _tally(setup_spans), _tally(job_spans)
    out = {m: setup[m] / setups + job[m] / jobs for m in LAYER_METRICS}
    detected = out["voronoi.seeds_detected"]
    out["voronoi.seed_keep_ratio"] = out["voronoi.seeds_surviving"] / detected if detected else 0.0
    return out


def metric_units() -> dict[str, str]:
    units = {m: unit for m, (unit, _, _) in LAYER_METRICS.items()}
    units["voronoi.seed_keep_ratio"] = "ratio"
    return units
