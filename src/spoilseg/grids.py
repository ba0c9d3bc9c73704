"""Core raster value types shared by all segmentation and evaluation stages.

All grids are numpy-backed, row-major, with pixel (x=0, y=0) at the top-left
corner.  Construction validates shape and value invariants once; afterwards
the arrays are treated as immutable.
"""

from __future__ import annotations

import functools
import math
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


def _check_field(name: str, value: object, hint: object, bounds: typing.Mapping[str, float]) -> None:
    """One value against a field type and its bounds.

    ``int`` and ``float`` refuse a bool, ``bool`` takes only a bool, ``X | None``
    also takes None.  NaN fails every bound; ``inf`` passes where there is no upper one.
    """
    kinds = typing.get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return
    noun, abstract = _KINDS[kinds[0]]
    if not isinstance(value, abstract) or isinstance(value, bool) != (kinds[0] is bool):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    for key, limit in bounds.items():
        holds, symbol = _BOUNDS[key]
        if not holds(value, limit):
            raise ValueError(f"{name} must be {symbol} {limit}, got {value!r}")


@functools.cache
def _field_specs(cls: type) -> tuple[tuple[str, object, typing.Mapping[str, float]], ...]:
    """(name, type, bounds) of each field of a Params class, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata) for f in fields(cls))


def _check_params(self: object) -> None:
    """``__post_init__`` of every Params dataclass: each field's type, then its bounds."""
    for name, hint, bounds in _field_specs(type(self)):
        _check_field(name, getattr(self, name), hint, bounds)


_FINITE = (-math.inf, math.inf)


class _Form(typing.NamedTuple):
    """How a value type holds its array: the stored ``dtype``, the numpy dtype
    ``kinds`` accepted, and one closed (lo, hi) range per channel, widened by
    ``slack``; one range means an (h, w) plane, three mean (h, w, 3)."""

    dtype: type
    kinds: str
    bounds: tuple[tuple[float, float], ...]
    slack: float = 0.0


def _within(v: np.ndarray, lo: float, hi: float, where: np.ndarray | bool = True) -> bool:
    """Every value where ``where`` holds finite and in [lo, hi] (NaN is neither),
    in at most one pass for finite-only bounds or an integer dtype, which
    skips the reduction its own range already settles.  Other bounds are
    finite, so a NaN or an infinity fails one of the two comparisons."""
    if v.dtype.kind in "iu":
        info = np.iinfo(v.dtype)
        return (info.min >= lo or v.min(where=where, initial=info.max) >= lo) and (
            info.max <= hi or v.max(where=where, initial=info.min) <= hi
        )
    if (lo, hi) == _FINITE:
        return bool(np.isfinite(v).all(where=where))
    return bool(lo <= v.min(where=where, initial=math.inf) and v.max(where=where, initial=-math.inf) <= hi)


def _check_raster(self: _Raster, skip: float | None = None) -> None:
    """Check a value type's array (its first field) against its ``_form`` and
    store it in the form's dtype, with no copy when it already has it.

    Rejects a wrong shape, a size below 1x1, a bool or non-numeric dtype, a
    value out of its channel's range or not finite, and a fraction for an
    integer dtype.  Cells equal to ``skip`` are exempt from the ranges.
    """
    form = self._form
    attr = fields(self)[0].name
    name = f"{type(self).__name__} {attr}"
    a = np.asarray(getattr(self, attr))
    trailing = () if len(form.bounds) == 1 else (len(form.bounds),)
    if a.ndim != 2 + len(trailing) or a.shape[2:] != trailing:
        raise ValueError(f"{name} must have shape (h, w{', 3' * bool(trailing)}), got {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{type(self).__name__} must be at least 1x1, got shape {a.shape}")
    if a.dtype.kind not in form.kinds:
        raise ValueError(f"{name} must be {'integers' if form.kinds == 'iu' else 'numbers'}, got dtype {a.dtype}")

    keep = True if skip is None else a != skip
    outer = (min(lo for lo, _ in form.bounds), max(hi for _, hi in form.bounds))
    # the whole array against the widest range, then each narrower channel
    for c, (lo, hi) in [(None, outer), *((c, b) for c, b in enumerate(form.bounds) if b != outer)]:
        v = a if c is None else a[..., c]
        w = keep if c is None or skip is None else keep[..., c]
        if not _within(v, lo - form.slack, hi + form.slack, w):
            rule = "finite" if (lo, hi) == _FINITE else f"in [{lo}, {hi}]"
            which = "" if c is None else f" channel {c}"
            seen = v[w]  # the checked values (all of v when w is True), copied only to report them
            raise ValueError(f"{name}{which} must be {rule}, got values from {seen.min()} to {seen.max()}")

    if a.dtype != form.dtype:
        out = a.astype(form.dtype)
        if a.dtype.kind == "f" and out.dtype.kind != "f" and not np.array_equal(out, a):
            raise ValueError(f"{name} must be whole numbers, got {a[out != a].flat[0]}")
        a = out
    setattr(self, attr, a)


class _Raster:
    """Base of the value types: the first dataclass field is the array,
    checked against the class's ``_form`` when the object is built."""

    _form: typing.ClassVar[_Form]

    __post_init__ = _check_raster

    @property
    def width(self) -> int:
        return getattr(self, fields(self)[0].name).shape[1]

    @property
    def height(self) -> int:
        return getattr(self, fields(self)[0].name).shape[0]


@dataclass
class RasterRGB(_Raster):
    """8-bit three-channel image, ``pixels`` shaped (height, width, 3)."""

    _form = _Form(np.uint8, "iuf", ((0, 255),) * 3)
    pixels: np.ndarray


@dataclass
class ScalarGrid(_Raster):
    """Single-channel float grid with optional nodata sentinel.

    ``cellsize`` is the ground size of one pixel, a finite number > 0.
    Cells holding exactly the ``nodata`` sentinel are treated as missing and
    excluded from statistics; every other value must be finite.  The sentinel
    may not be NaN, which no cell can equal.
    """

    _form = _Form(np.float64, "iuf", (_FINITE,))
    values: np.ndarray
    cellsize: float = 1.0
    nodata: float | None = None

    def __post_init__(self) -> None:
        _check_field("cellsize", self.cellsize, float, {"gt": 0, "lt": math.inf})
        _check_field("nodata", self.nodata, float | None, {"ge": -math.inf})  # NaN fails
        _check_raster(self, skip=self.nodata)

    @property
    def nodata_mask(self) -> np.ndarray:
        """Boolean grid, True where the cell holds the nodata sentinel."""
        if self.nodata is None:
            return np.zeros(self.values.shape, dtype=bool)
        return self.values == self.nodata


@dataclass
class LabelMap(_Raster):
    """Non-negative integer region map; 0 is background, positive ids are regions."""

    _form = _Form(np.int32, "iu", ((0, np.iinfo(np.int32).max),))
    labels: np.ndarray

    def label_ids(self) -> np.ndarray:
        """Sorted array of the positive labels actually used."""
        ids = np.unique(self.labels)
        return ids[ids > 0]

    def region_count(self) -> int:
        return int(self.label_ids().size)

    def region_sizes(self) -> dict[int, int]:
        """Pixel count per positive label."""
        ids, counts = np.unique(self.labels, return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts) if i > 0}


@dataclass
class GrayImage(_Raster):
    """8-bit single-channel image, ``values`` shaped (height, width)."""

    _form = _Form(np.uint8, "iuf", ((0, 255),))
    values: np.ndarray


@dataclass
class LabImage(_Raster):
    """CIELAB image, ``values`` shaped (height, width, 3) as (L, a, b) floats;
    L lies in [0, 100] up to 1e-9, a and b are finite."""

    _form = _Form(np.float64, "iuf", ((0, 100), _FINITE, _FINITE), slack=1e-9)
    values: np.ndarray
