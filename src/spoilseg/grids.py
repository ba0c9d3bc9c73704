"""Core raster value types shared by all segmentation and evaluation stages.

All grids are numpy-backed, row-major, with pixel (x=0, y=0) at the top-left
corner.  Construction validates shape and value invariants once; afterwards
the arrays are treated as immutable.
"""

from __future__ import annotations

import numbers
import operator
import typing
from dataclasses import dataclass, field, fields

import numpy as np

# field type -> (what the error calls it, the abstract type a value must be)
_KINDS = {int: ("an integer", numbers.Integral), float: ("a number", numbers.Real), bool: ("a boolean", bool)}
_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<="), "lt": (operator.lt, "<")}


def _param(default: object, **bounds: float) -> typing.Any:
    """A Params field: its default and its bounds (``ge``, ``gt``, ``le``, ``lt``)."""
    return field(default=default, metadata=bounds)


def _check_params(self: object) -> None:
    """``__post_init__`` of every Params dataclass: each field's type, then its bounds.

    ``int`` and ``float`` refuse a bool, ``bool`` takes only a bool, ``X | None``
    also takes None.  NaN fails every bound; ``inf`` passes where there is no upper one.
    """
    hints = typing.get_type_hints(type(self))
    for f in fields(self):
        value = getattr(self, f.name)
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
        if value is None and type(None) in kinds:
            continue
        noun, abstract = _KINDS[kinds[0]]
        if not isinstance(value, abstract) or isinstance(value, bool) != (kinds[0] is bool):
            raise ValueError(f"{f.name} must be {noun}, got {value!r}")
        for key, limit in f.metadata.items():
            holds, symbol = _BOUNDS[key]
            if not holds(value, limit):
                raise ValueError(f"{f.name} must be {symbol} {limit}, got {value!r}")


@dataclass
class RasterRGB:
    """8-bit three-channel image, ``pixels`` shaped (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.pixels)
        if p.ndim != 3 or p.shape[2] != 3:
            raise ValueError("RasterRGB pixels must have shape (h, w, 3)")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("RasterRGB must be at least 1x1")
        if p.dtype != np.uint8:
            if np.any((p < 0) | (p > 255)):
                raise ValueError("RGB values must lie in 0..255")
            p = p.astype(np.uint8)
        self.pixels = p

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class ScalarGrid:
    """Single-channel float grid with optional nodata sentinel.

    ``cellsize`` is the ground size of one pixel.  Cells holding exactly the
    ``nodata`` sentinel are treated as missing and excluded from statistics;
    every other value must be finite.
    """

    values: np.ndarray
    cellsize: float | None = 1.0
    nodata: float | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("ScalarGrid values must be 2-D")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("ScalarGrid must be at least 1x1")
        if self.cellsize is not None and not self.cellsize > 0:
            raise ValueError("cellsize must be positive")
        data = v if self.nodata is None else v[v != self.nodata]
        if not np.all(np.isfinite(data)):
            raise ValueError("non-nodata values must be finite")
        self.values = v

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def nodata_mask(self) -> np.ndarray:
        """Boolean grid, True where the cell holds the nodata sentinel."""
        if self.nodata is None:
            return np.zeros(self.values.shape, dtype=bool)
        return self.values == self.nodata

    def data_values(self) -> np.ndarray:
        """Flat array of all non-nodata values."""
        return self.values[~self.nodata_mask]


@dataclass
class LabelMap:
    """Non-negative integer region map; 0 is background, positive ids are regions."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        lab = np.asarray(self.labels)
        if lab.ndim != 2:
            raise ValueError("LabelMap labels must be 2-D")
        if lab.shape[0] < 1 or lab.shape[1] < 1:
            raise ValueError("LabelMap must be at least 1x1")
        if not np.issubdtype(lab.dtype, np.integer):
            raise ValueError("labels must be integers")
        if lab.min() < 0:
            raise ValueError("labels must be non-negative")
        self.labels = lab.astype(np.int32) if lab.dtype != np.int32 else lab

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    def label_ids(self) -> np.ndarray:
        """Sorted array of the positive labels actually used."""
        ids = np.unique(self.labels)
        return ids[ids > 0]

    def region_count(self) -> int:
        return int(self.label_ids().size)

    def region_sizes(self) -> dict[int, int]:
        """Pixel count per positive label."""
        counts = np.bincount(self.labels.ravel())
        return {int(i): int(c) for i, c in enumerate(counts) if i > 0 and c > 0}


@dataclass
class GrayImage:
    """8-bit single-channel image, ``values`` shaped (height, width)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ValueError("GrayImage values must be 2-D")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("GrayImage must be at least 1x1")
        if v.dtype != np.uint8:
            if np.any((v < 0) | (v > 255)):
                raise ValueError("gray values must lie in 0..255")
            v = v.astype(np.uint8)
        self.values = v

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


@dataclass
class LabImage:
    """CIELAB image, ``values`` shaped (height, width, 3) as (L, a, b) floats."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[2] != 3:
            raise ValueError("LabImage values must have shape (h, w, 3)")
        L = v[..., 0]
        if np.any(L < -1e-9) or np.any(L > 100.0 + 1e-9):
            raise ValueError("L channel must lie in [0, 100]")
        self.values = v

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]
