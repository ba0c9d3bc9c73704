"""The raster value types: each declares its array form once, one checker enforces it.

REJECTED holds inputs that the former hand-written per-type checks let
through, stored silently wrong (wrapped, truncated, cast from NaN, bool or
text), or failed on with an error other than ValueError; STILL_REJECTED
holds inputs those checks already refused.  ACCEPTED holds valid inputs with
the stored dtype and values they must keep.
"""

import math

import numpy as np
import pytest

from spoilseg import (
    FormatError,
    GrayImage,
    LabelMap,
    LabImage,
    RasterRGB,
    ScalarGrid,
    drop_small_regions,
    merge_small_regions,
    read_asc_grid,
)
from spoilseg.sweep import ingest_external_mask

TYPES = (RasterRGB, ScalarGrid, LabelMap, GrayImage, LabImage)


def lab(L=50.0, a=0.0, b=0.0):
    return np.array([[[L, a, b]]], dtype=np.float64)


# (id, type, constructor arguments, pattern the ValueError must match)
REJECTED = [
    ("rgb-nan", RasterRGB, (np.full((1, 1, 3), np.nan),), r"in \[0, 255\]"),
    ("rgb-fraction", RasterRGB, (np.full((1, 1, 3), 12.5),), "whole numbers"),
    ("rgb-bool", RasterRGB, (np.ones((1, 1, 3), dtype=bool),), "numbers, got dtype bool"),
    ("rgb-strings", RasterRGB, (np.array([[["1", "2", "3"]]]),), "numbers, got dtype <U1"),
    ("gray-fraction", GrayImage, (np.array([[12.7]]),), "whole numbers, got 12.7"),
    ("gray-bool", GrayImage, (np.array([[True, False]]),), "numbers, got dtype bool"),
    ("gray-nan", GrayImage, (np.array([[1.0, np.nan]]),), r"in \[0, 255\]"),
    ("labels-int32-overflow", LabelMap, (np.array([[2**31]], dtype=np.int64),), r"in \[0, 2147483647\]"),
    ("labels-uint64-overflow", LabelMap, (np.array([[2**32 + 1]], dtype=np.uint64),), r"in \[0, 2147483647\]"),
    ("lab-0x0", LabImage, (np.zeros((0, 0, 3)),), "at least 1x1"),
    ("lab-2x0", LabImage, (np.zeros((2, 0, 3)),), "at least 1x1"),
    ("lab-nan-L", LabImage, (lab(L=np.nan),), "finite"),
    ("lab-inf-a", LabImage, (lab(a=np.inf),), "finite"),
    ("lab-nan-b", LabImage, (lab(b=np.nan),), "finite"),
    ("lab-minus-inf-b", LabImage, (lab(b=-np.inf),), "finite"),
    ("lab-bool", LabImage, (np.ones((1, 1, 3), dtype=bool),), "numbers, got dtype bool"),
    ("lab-strings", LabImage, (np.array([[["50", "0", "0"]]]),), "numbers, got dtype <U2"),
    ("grid-bool", ScalarGrid, (np.ones((2, 2), dtype=bool),), "numbers, got dtype bool"),
    ("grid-strings", ScalarGrid, (np.array([["1.5", "2"]]),), "numbers, got dtype <U3"),
]
# ScalarGrid's cellsize is a finite number > 0 and its nodata a number other than NaN, neither a bool
REJECTED_FIELDS = [
    ("cellsize-true", {"cellsize": True}, "cellsize must be a number, got True"),
    ("cellsize-inf", {"cellsize": math.inf}, "cellsize must be < inf, got inf"),
    ("cellsize-string", {"cellsize": "1"}, "cellsize must be a number, got '1'"),
    ("cellsize-none", {"cellsize": None}, "cellsize must be a number, got None"),
    ("nodata-true", {"nodata": True}, "nodata must be a number, got True"),
    ("nodata-string", {"nodata": "-9999"}, "nodata must be a number, got '-9999'"),
    ("nodata-nan", {"nodata": math.nan}, "nodata must be >= -inf, got nan"),
]

STILL_REJECTED = [
    ("rgb-plane", RasterRGB, (np.zeros((2, 2)),), r"shape \(h, w, 3\)"),
    ("rgb-4-channels", RasterRGB, (np.zeros((2, 2, 4)),), r"shape \(h, w, 3\)"),
    ("rgb-0x1", RasterRGB, (np.zeros((0, 1, 3)),), "at least 1x1"),
    ("rgb-256", RasterRGB, (np.full((1, 1, 3), 256),), r"in \[0, 255\]"),
    ("rgb-negative", RasterRGB, (np.full((1, 1, 3), -1.0),), r"in \[0, 255\]"),
    ("gray-3d", GrayImage, (np.zeros((2, 2, 1)),), r"shape \(h, w\)"),
    ("gray-1x0", GrayImage, (np.zeros((1, 0)),), "at least 1x1"),
    ("gray-inf", GrayImage, (np.array([[np.inf]]),), r"in \[0, 255\]"),
    ("labels-1d", LabelMap, (np.zeros(4, dtype=np.int32),), r"shape \(h, w\)"),
    ("labels-0x0", LabelMap, (np.zeros((0, 0), dtype=np.int32),), "at least 1x1"),
    ("labels-float", LabelMap, (np.array([[1.0]]),), "integers, got dtype float64"),
    ("labels-bool", LabelMap, (np.array([[True]]),), "integers, got dtype bool"),
    ("labels-negative", LabelMap, (np.array([[0, -1]], dtype=np.int32),), r"in \[0, 2147483647\]"),
    ("lab-plane", LabImage, (np.zeros((2, 2)),), r"shape \(h, w, 3\)"),
    ("lab-L-above-100", LabImage, (lab(L=100.01),), r"channel 0 must be in \[0, 100\]"),
    ("lab-L-below-0", LabImage, (lab(L=-0.01),), r"channel 0 must be in \[0, 100\]"),
    ("grid-3d", ScalarGrid, (np.zeros((2, 2, 3)),), r"shape \(h, w\)"),
    ("grid-3x0", ScalarGrid, (np.zeros((3, 0)),), "at least 1x1"),
    ("grid-nan", ScalarGrid, (np.array([[1.0, np.nan]]),), "finite"),
    ("grid-inf-beside-nodata", ScalarGrid, (np.array([[np.inf, -9999.0]]), 1.0, -9999.0), "finite"),
]
STILL_REJECTED_FIELDS = [
    ("cellsize-zero", {"cellsize": 0.0}, "cellsize must be > 0, got 0.0"),
    ("cellsize-negative", {"cellsize": -1}, "cellsize must be > 0, got -1"),
    ("cellsize-nan", {"cellsize": math.nan}, "cellsize must be > 0, got nan"),
]

# (id, type, constructor arguments, stored dtype, stored values; None: the input array itself, uncopied)
ACCEPTED = [
    ("rgb-uint8", RasterRGB, (np.arange(12, dtype=np.uint8).reshape(2, 2, 3),), np.uint8, None),
    ("rgb-whole-floats", RasterRGB, (np.full((1, 1, 3), 255.0),), np.uint8, [[[255, 255, 255]]]),
    ("rgb-int64", RasterRGB, (np.zeros((1, 2, 3), dtype=np.int64),), np.uint8, np.zeros((1, 2, 3))),
    ("gray-uint8", GrayImage, (np.array([[0, 255]], dtype=np.uint8),), np.uint8, None),
    ("gray-whole-float", GrayImage, (np.array([[12.0]]),), np.uint8, [[12]]),
    ("labels-int32", LabelMap, (np.array([[0, 2**31 - 1]], dtype=np.int32),), np.int32, None),
    ("labels-uint16", LabelMap, (np.array([[0, 65535]], dtype=np.uint16),), np.int32, [[0, 65535]]),
    ("labels-int64", LabelMap, (np.array([[3, 2**31 - 1]], dtype=np.int64),), np.int32, [[3, 2**31 - 1]]),
    ("lab-float64", LabImage, (np.concatenate([lab(L=0.0), lab(L=100.0, a=-120.5, b=99.0)], axis=1),), np.float64, None),
    ("lab-L-within-slack", LabImage, (np.concatenate([lab(L=-1e-10), lab(L=100 + 1e-10)], axis=1),), np.float64, None),
    ("lab-float32", LabImage, (lab(L=50.5).astype(np.float32),), np.float64, lab(L=50.5)),
    ("grid-float64", ScalarGrid, (np.array([[-1e300, 0.5]]),), np.float64, None),
    ("grid-int", ScalarGrid, (np.array([[1, -2]]),), np.float64, [[1.0, -2.0]]),
    ("grid-nodata-nan-free", ScalarGrid, (np.array([[-9999.0, 2.5]]), 1.0, -9999.0), np.float64, None),
    ("grid-all-nodata", ScalarGrid, (np.full((2, 2), -9999.0), 1.0, -9999.0), np.float64, None),
    ("grid-no-cellsize", ScalarGrid, (np.zeros((1, 1)),), np.float64, None),
    ("grid-numpy-cellsize", ScalarGrid, (np.zeros((1, 1)), np.float64(0.5)), np.float64, None),
]


def _ids(table):
    return [row[0] for row in table]


@pytest.mark.parametrize("cls", TYPES, ids=[t.__name__ for t in TYPES])
def test_every_type_is_covered(cls):
    for table in (REJECTED, STILL_REJECTED, ACCEPTED):
        assert cls in {row[1] for row in table}


@pytest.mark.parametrize("case, cls, args, pattern", REJECTED + STILL_REJECTED, ids=_ids(REJECTED + STILL_REJECTED))
def test_malformed_array_rejected(case, cls, args, pattern):
    with pytest.raises(ValueError, match=pattern):
        cls(*args)


@pytest.mark.parametrize(
    "case, kwargs, message", REJECTED_FIELDS + STILL_REJECTED_FIELDS, ids=_ids(REJECTED_FIELDS + STILL_REJECTED_FIELDS)
)
def test_bad_grid_field_rejected(case, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ScalarGrid(np.zeros((3, 3)), **kwargs)


@pytest.mark.parametrize("case, cls, args, dtype, expected", ACCEPTED, ids=_ids(ACCEPTED))
def test_valid_array_kept(case, cls, args, dtype, expected):
    obj = cls(*args)
    stored = getattr(obj, {RasterRGB: "pixels", LabelMap: "labels"}.get(cls, "values"))
    assert stored.dtype == dtype
    if expected is None:
        assert stored is args[0]
    else:
        assert np.array_equal(stored, np.asarray(expected))
    assert (obj.height, obj.width) == stored.shape[:2]


def test_asc_header_with_infinite_cellsize_is_a_format_error(tmp_path):
    path = tmp_path / "inf.asc"
    path.write_text("ncols 3\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize inf\n" + "1 2 3\n" * 3)
    with pytest.raises(FormatError, match="cellsize must be < inf"):
        read_asc_grid(path)


def test_asc_header_with_nan_nodata_is_a_format_error(tmp_path):
    path = tmp_path / "nan.asc"
    path.write_text("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value nan\n1 2\n")
    with pytest.raises(FormatError, match="^nodata must be >= -inf, got nan$"):
        read_asc_grid(path)


@pytest.mark.parametrize(
    "min_size, message",
    [("3", "an integer, got '3'"), (None, "an integer, got None"), (True, "an integer, got True"),
     (2.5, "an integer, got 2.5"), (-1, ">= 0, got -1")],
    ids=["string", "none", "bool", "fraction", "negative"],
)
@pytest.mark.parametrize("step", [drop_small_regions, merge_small_regions])
def test_small_region_steps_reject_bad_min_size(step, min_size, message):
    with pytest.raises(ValueError, match=f"^min_size must be {message}$"):
        step(LabelMap(np.ones((2, 2), dtype=np.int32)), min_size)


@pytest.mark.parametrize("min_region", [-5, 2.5, True], ids=["negative", "fraction", "bool"])
def test_ingest_rejects_bad_min_region(tmp_path, min_region):
    path = tmp_path / "mask.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x01")
    with pytest.raises(ValueError, match="^min_region must be"):
        ingest_external_mask(path, min_region=min_region)
