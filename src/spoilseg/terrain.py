"""Terrain preprocessing: hillshade derivation and sigmoid contrast stretching.

The hillshade uses Horn's eight-neighbour gradient estimate with the usual
GIS conventions: azimuth in degrees clockwise from north, altitude in degrees
above the horizon.  The stretch maps min-max-normalised values through a
logistic curve rescaled to span [0, 1] exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grids import GrayImage, ScalarGrid, _check_params, _param

# sentinel used when the input nodata value would collide with the [0,1] output range
_SAFE_NODATA = -9999.0
# rows shaded at a time: the band's temporaries stay small next to the output
_BAND = 64


@dataclass
class HillshadeParams:
    azimuth: float = _param(315.0, ge=0, lt=360)
    altitude: float = _param(45.0, gt=0, le=90)
    z_factor: float = _param(1.0, gt=0)

    __post_init__ = _check_params


@dataclass
class StretchParams:
    strength: float = _param(3.0, gt=0)
    scale: float = _param(2.0, gt=0)

    __post_init__ = _check_params


def _output_nodata(nodata: float | None) -> float | None:
    if nodata is None:
        return None
    return _SAFE_NODATA if 0.0 <= nodata <= 1.0 else nodata


def hillshade(dsm: ScalarGrid, params: HillshadeParams | None = None) -> ScalarGrid:
    """Illumination in [0, 1] per cell from Horn slope/aspect.

    Gradients are central differences over the eight neighbours weighted
    1-2-1 and divided by 8 x cellsize; borders replicate the edge row/column.
    Cells whose 3x3 window touches nodata become nodata in the output.
    The grid is shaded in bands of ``_BAND`` rows, each read with one row of
    its neighbours above and below, so every cell sees the same window as in
    one whole-grid pass.
    """
    p = params if params is not None else HillshadeParams()
    if dsm.height < 3 or dsm.width < 3:
        raise ValueError("hillshade needs a grid of at least 3x3 cells")
    if dsm.cellsize is None:
        raise ValueError("hillshade needs the grid cellsize")

    height = dsm.height
    denom = 8.0 * dsm.cellsize
    zenith = math.radians(90.0 - p.altitude)
    az_math = math.radians((360.0 - p.azimuth + 90.0) % 360.0)
    shade = np.empty(dsm.values.shape, dtype=np.float64)
    for top in range(0, height, _BAND):
        bottom = min(top + _BAND, height)
        # the band plus its halo rows; edge rows repeat only at the frame's top and bottom
        z = np.pad(
            dsm.values[max(top - 1, 0) : bottom + 1],
            ((int(top == 0), int(bottom == height)), (1, 1)),
            mode="edge",
        )
        a, b, c = z[:-2, :-2], z[:-2, 1:-1], z[:-2, 2:]
        d, f = z[1:-1, :-2], z[1:-1, 2:]
        g, h, i = z[2:, :-2], z[2:, 1:-1], z[2:, 2:]
        dzdx = ((c + 2.0 * f + i) - (a + 2.0 * d + g)) / denom
        dzdy = ((g + 2.0 * h + i) - (a + 2.0 * b + c)) / denom

        slope = np.arctan(p.z_factor * np.hypot(dzdx, dzdy))
        aspect = np.arctan2(dzdy, -dzdx)
        band = shade[top:bottom]
        np.multiply(math.cos(zenith), np.cos(slope), out=band)
        band += math.sin(zenith) * np.sin(slope) * np.cos(az_math - aspect)
        np.maximum(band, 0.0, out=band)

    out_nodata = _output_nodata(dsm.nodata)
    if dsm.nodata is not None:
        touched = ndimage.maximum_filter(dsm.nodata_mask.astype(np.uint8), size=3, mode="nearest")
        shade[touched > 0] = out_nodata
    return ScalarGrid(shade, cellsize=dsm.cellsize, nodata=out_nodata)


def sigmoidal_stretch(grid: ScalarGrid, params: StretchParams | None = None) -> ScalarGrid:
    """Contrast stretch through a logistic curve, output spanning [0, 1] exactly.

    Non-nodata values are min-max normalised to x in [0, 1], passed through
    s(x) = 1 / (1 + exp(-strength*scale*(x - 0.5))) and rescaled so the grid
    minimum maps to 0 and the maximum to 1.  Nodata passes through.
    """
    p = params if params is not None else StretchParams()
    mask = grid.nodata_mask
    if mask.all():
        raise ValueError("grid holds no data values")
    lo = np.min(grid.values, where=~mask, initial=np.inf)
    hi = np.max(grid.values, where=~mask, initial=-np.inf)
    if lo == hi:
        raise ValueError("constant grid: min-max normalisation undefined")

    k = p.strength * p.scale
    s0 = 1.0 / (1.0 + math.exp(k * 0.5))
    s1 = 1.0 / (1.0 + math.exp(-k * 0.5))
    # one array, taken through the stretch in place, operation by operation
    y = np.where(mask, lo, grid.values)  # keep the sigmoid off the sentinel
    y -= lo
    y /= hi - lo
    y -= 0.5
    y *= -k
    np.exp(y, out=y)
    y += 1.0
    np.divide(1.0, y, out=y)
    y -= s0
    y /= s1 - s0

    out_nodata = _output_nodata(grid.nodata)
    if grid.nodata is not None:
        y[mask] = out_nodata
    return ScalarGrid(y, cellsize=grid.cellsize, nodata=out_nodata)


def quantize8(grid: ScalarGrid) -> GrayImage:
    """Map [0, 1] values to 0..255 with round-half-up; nodata becomes 0."""
    v, mask = grid.values, grid.nodata_mask
    if v.min(where=~mask, initial=0.0) < 0.0 or v.max(where=~mask, initial=1.0) > 1.0:
        raise ValueError("quantize8 input must lie in [0, 1]")
    q = v * 255.0
    q += 0.5
    np.floor(q, out=q)
    q[mask] = 0.0
    return GrayImage(q.astype(np.uint8))
