"""Raster segmentation toolkit for spoil-pile delineation.

Colour-based (mean shift, SLIC) and morphology-based (seeded Voronoi)
segmenters over UAV-style rasters, terrain preprocessing (Horn hillshade,
sigmoid stretch), Hoover region-matching evaluation, and a deterministic
parameter-sweep harness.
"""

from .colorspace import rgb_to_lab
from .grids import GrayImage, LabelMap, LabImage, RasterRGB, ScalarGrid
from .hoover import (
    HooverClassification,
    HooverScores,
    OverlapTable,
    evaluate_segmentation,
    hoover_bruteforce,
    hoover_classify,
    hoover_scores,
    overlap_table,
)
from .labels import drop_small_regions, merge_small_regions, relabel_connected
from .meanshift import MeanShiftParams, mean_shift_filter, mean_shift_segment
from .raster_io import (
    FormatError,
    read_asc_grid,
    read_gray_pgm16,
    read_pgm16,
    read_ppm,
    write_asc_grid,
    write_gray_pgm16,
    write_pgm16,
    write_ppm,
)
from .slic import SlicParams, slic
from .sweep import (
    ExternalMaskMetadata,
    SweepConfig,
    SweepReport,
    emit_report,
    ingest_external_mask,
    load_sweep_config,
    run_sweep,
)
from .synth import synth_pilefield
from .terrain import HillshadeParams, StretchParams, hillshade, quantize8, sigmoidal_stretch
from .voronoi import (
    SeedSet,
    VoronoiParams,
    detect_local_maxima,
    filter_background_seeds,
    gaussian_blur,
    otsu_threshold,
    voronoi_label,
    voronoi_pipeline,
)

__all__ = [
    "ExternalMaskMetadata",
    "FormatError",
    "GrayImage",
    "HillshadeParams",
    "HooverClassification",
    "HooverScores",
    "LabImage",
    "LabelMap",
    "MeanShiftParams",
    "OverlapTable",
    "RasterRGB",
    "ScalarGrid",
    "SeedSet",
    "SlicParams",
    "StretchParams",
    "SweepConfig",
    "SweepReport",
    "VoronoiParams",
    "detect_local_maxima",
    "drop_small_regions",
    "emit_report",
    "evaluate_segmentation",
    "filter_background_seeds",
    "gaussian_blur",
    "hillshade",
    "hoover_bruteforce",
    "hoover_classify",
    "hoover_scores",
    "ingest_external_mask",
    "load_sweep_config",
    "mean_shift_filter",
    "mean_shift_segment",
    "merge_small_regions",
    "otsu_threshold",
    "overlap_table",
    "quantize8",
    "read_asc_grid",
    "read_gray_pgm16",
    "read_pgm16",
    "read_ppm",
    "relabel_connected",
    "rgb_to_lab",
    "run_sweep",
    "sigmoidal_stretch",
    "slic",
    "synth_pilefield",
    "voronoi_label",
    "voronoi_pipeline",
    "write_asc_grid",
    "write_gray_pgm16",
    "write_pgm16",
    "write_ppm",
]
