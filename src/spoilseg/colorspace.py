"""sRGB to CIELAB conversion (D65 reference white)."""

from __future__ import annotations

import numpy as np

from .grids import LabImage, RasterRGB

_SRGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
# white point as the matrix image of RGB (1,1,1), so pure white lands exactly
# on L=100, a=b=0 and L never exceeds 100
_D65_WHITE = _SRGB_TO_XYZ.sum(axis=1)
_EPS = (6.0 / 29.0) ** 3
# linear RGB of every 8-bit sample, so a band is one table lookup
_C = np.arange(256) / 255.0
_LINEAR = np.where(_C <= 0.04045, _C / 12.92, ((_C + 0.055) / 1.055) ** 2.4)
del _C
# rows converted at a time: the band's temporaries stay small next to the output
_BAND = 64


def rgb_to_lab(img: RasterRGB) -> LabImage:
    """Convert 8-bit sRGB to CIELAB via linear RGB and XYZ (D65).

    The image is converted in bands of ``_BAND`` rows into one output array.
    Every pixel goes through the same operations as in one whole-image pass;
    the ``@`` multiplies each row's (w, 3) matrix on its own either way.
    """
    h, w, _ = img.pixels.shape
    lab = np.empty((h, w, 3), dtype=np.float64)
    for top in range(0, h, _BAND):
        linear = _LINEAR[img.pixels[top : top + _BAND]]
        xyz = linear @ _SRGB_TO_XYZ.T / _D65_WHITE
        f = np.where(xyz > _EPS, np.cbrt(xyz), xyz / (3.0 * (6.0 / 29.0) ** 2) + 4.0 / 29.0)
        band = lab[top : top + _BAND]
        band[..., 0] = 116.0 * f[..., 1] - 16.0
        band[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
        band[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return LabImage(lab)
