"""The Params contract: every field's type and bounds, checked at construction."""

import math
from dataclasses import fields

import numpy as np
import pytest

from spoilseg import (
    HillshadeParams,
    MeanShiftParams,
    RasterRGB,
    ScalarGrid,
    SlicParams,
    StretchParams,
    VoronoiParams,
    hillshade,
    mean_shift_segment,
    rgb_to_lab,
    sigmoidal_stretch,
    slic,
)
from spoilseg.grids import _field_specs

# (Params class, field, declared type, accepted values, out-of-range values);
# the accepted values include each closed boundary and, where no upper bound
# applies, inf; NaN is out of range for every float field.
CONTRACT = [
    (MeanShiftParams, "spatial_radius", float, [1, 1.0, math.inf], [0.999, -math.inf, math.nan]),
    (MeanShiftParams, "range_radius", float, [1e-9, math.inf], [0, -1.0, math.nan]),
    (MeanShiftParams, "min_region_size", int, [1], [0, -5]),
    (MeanShiftParams, "convergence_eps", float, [1e-12, math.inf], [0.0, math.nan]),
    (MeanShiftParams, "max_iterations", int, [1], [0]),
    (SlicParams, "superpixels", int, [1], [0]),
    (SlicParams, "compactness", float, [1e-9, 1e300], [0, -math.inf, math.inf, math.nan]),
    (SlicParams, "iterations", int, [1], [0]),
    (SlicParams, "min_region_size", int | None, [None, 1], [0]),
    (VoronoiParams, "sigma", float, [1e-9, 1e300], [0, -2.0, math.inf, math.nan]),
    (VoronoiParams, "peak_radius", int | None, [None, 1], [0]),
    (VoronoiParams, "restrict_to_foreground", bool, [True, False], []),
    (VoronoiParams, "invert_foreground", bool, [True, False], []),
    (HillshadeParams, "azimuth", float, [0, 359.999], [360, -1e-9, math.inf, math.nan]),
    (HillshadeParams, "altitude", float, [90, 1e-9], [0, 90.001, math.inf, math.nan]),
    (HillshadeParams, "z_factor", float, [1e-9, 1e300], [0, math.inf, math.nan]),
    (StretchParams, "strength", float, [1e-9, 1e300], [0, math.inf, math.nan]),
    (StretchParams, "scale", float, [1e-9, 1e300], [0, math.inf, math.nan]),
]

WRONG_TYPES = {
    int: [True, False, 2.5, 3.0, "3", None],
    float: [True, False, "abc", "1.5", None, [1.0]],
    bool: ["no", "", 1, 0, None],
}
WRONG_TYPES[int | None] = [v for v in WRONG_TYPES[int] if v is not None]


def _cases(column):
    return [
        pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
        for cls, name, kind, accepted, out_of_range in CONTRACT
        for value in {"wrong": WRONG_TYPES[kind], "accepted": accepted, "out": out_of_range}[column]
    ]


def test_contract_covers_every_field():
    classes = (MeanShiftParams, SlicParams, VoronoiParams, HillshadeParams, StretchParams)
    declared = {(cls, f.name) for cls in classes for f in fields(cls)}
    assert declared == {(cls, name) for cls, name, *_ in CONTRACT}


@pytest.mark.parametrize("cls, name, value", _cases("wrong"))
def test_wrong_type_rejected(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be (an integer|a number|a boolean), got "):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name, value", _cases("out"))
def test_out_of_range_rejected(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be [<>]=? "):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name, value", _cases("accepted"))
def test_boundary_and_inf_accepted(cls, name, value):
    assert getattr(cls(**{name: value}), name) is value


# A 5x5 surface with a flat 3x3 window (top left) and an exact midpoint
# (1 between 0 and 2), and the same heights as gray pixels.
TINY = np.array([[0, 0, 0, 1, 2]] * 3 + [[0, 1, 1, 2, 2]] * 2, dtype=np.float64)
TINY_RGB = RasterRGB(np.repeat((TINY * 100)[..., None], 3, axis=2).astype(np.uint8))
STAGES = {
    MeanShiftParams: lambda p: mean_shift_segment(TINY_RGB, p),
    SlicParams: lambda p: slic(rgb_to_lab(TINY_RGB), p),
    HillshadeParams: lambda p: hillshade(ScalarGrid(TINY), p),
    StretchParams: lambda p: sigmoidal_stretch(ScalarGrid(TINY), p),
}
BASE = {SlicParams: {"superpixels": 4}}
# Every float field with no finite upper bound, at values whose squares and
# products pass float64, a compactness whose (m / S)^2 does, and one whose
# (m / S)^2 times the image's squared diagonal does.
# VoronoiParams.sigma is left out, as are peak_radius and the iteration
# counts: their cost grows with the value, so a huge one is slow, not wrong.
UNBOUNDED = [
    (cls, name)
    for cls in STAGES
    for name, hint, bounds in _field_specs(cls)
    if hint is float and bounds.get("lt", bounds.get("le", math.inf)) == math.inf
]
HUGE = [(cls, name, value) for cls, name in UNBOUNDED for value in (1e300, math.inf)]
HUGE += [(SlicParams, "compactness", 1e200), (SlicParams, "compactness", 1e154)]


@pytest.mark.parametrize(
    "cls, name, value", [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}={case[2]!r}") for case in HUGE]
)
def test_huge_value_runs_or_names_its_field(cls, name, value):
    """A value past float64's squares and products either runs, with no
    warning (pyproject turns warnings into errors), or is refused by name."""
    try:
        STAGES[cls](cls(**BASE.get(cls, {}), **{name: value}))
    except ValueError as exc:
        assert name in str(exc)
