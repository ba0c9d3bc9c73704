"""The Params contract: every field's type and bounds, checked at construction."""

import math
from dataclasses import fields

import pytest

from spoilseg import HillshadeParams, MeanShiftParams, SlicParams, StretchParams, VoronoiParams

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
    (HillshadeParams, "z_factor", float, [1e-9, math.inf], [0, math.nan]),
    (StretchParams, "strength", float, [1e-9, math.inf], [0, math.nan]),
    (StretchParams, "scale", float, [1e-9, math.inf], [0, math.nan]),
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
