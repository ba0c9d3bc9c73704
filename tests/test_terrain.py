"""Hillshade, sigmoid stretch and 8-bit quantisation."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hillshade_whole, sigmoidal_stretch_copies
from spoilseg import (
    GrayImage,
    HillshadeParams,
    ScalarGrid,
    StretchParams,
    hillshade,
    quantize8,
    sigmoidal_stretch,
    terrain,
)

SIN45 = math.sin(math.radians(45.0))


def ramp_expected(gradient: float, azimuth: float, altitude: float, z_factor: float = 1.0) -> float:
    """Closed-form Horn value on an ideal eastward ramp dz/dx = gradient."""
    slope = math.atan(z_factor * gradient)
    aspect = math.atan2(0.0, -gradient)  # downslope points west
    zenith = math.radians(90.0 - altitude)
    az_math = math.radians((360.0 - azimuth + 90.0) % 360.0)
    return max(
        0.0,
        math.cos(zenith) * math.cos(slope)
        + math.sin(zenith) * math.sin(slope) * math.cos(az_math - aspect),
    )


class TestHillshade:
    def test_flat_dsm_altitude_45(self):
        dsm = ScalarGrid(np.full((6, 7), 12.5))
        out = hillshade(dsm, HillshadeParams(altitude=45.0))
        assert np.allclose(out.values, SIN45, atol=1e-9)

    def test_altitude_90_on_ramp_gives_cos_slope(self):
        xx = np.arange(8, dtype=np.float64)
        dsm = ScalarGrid(np.tile(0.1 * xx, (5, 1)), cellsize=1.0)
        out = hillshade(dsm, HillshadeParams(azimuth=0.0, altitude=90.0))
        expected = math.cos(math.atan(0.1))
        assert np.allclose(out.values[:, 1:-1], expected, atol=1e-12)

    def test_ramp_closed_form(self):
        cellsize = 2.0
        xx = np.arange(10, dtype=np.float64)
        dsm = ScalarGrid(np.tile(0.1 * xx * cellsize, (6, 1)), cellsize=cellsize)
        out = hillshade(dsm, HillshadeParams(azimuth=315.0, altitude=45.0, z_factor=1.0))
        expected = ramp_expected(0.1, 315.0, 45.0)
        interior = out.values[:, 1:-1]
        assert np.allclose(interior, expected, atol=1e-12)
        assert interior.std() < 1e-12

    def test_invariant_under_constant_offset(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(9, 9))
        a = hillshade(ScalarGrid(base))
        b = hillshade(ScalarGrid(base + 123.456))
        assert np.allclose(a.values, b.values, atol=1e-9)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(11)
        out = hillshade(ScalarGrid(rng.normal(scale=5.0, size=(20, 20)), cellsize=0.5))
        assert out.values.min() >= 0.0
        assert out.values.max() <= 1.0

    def test_cells_touching_nodata_become_nodata(self):
        vals = np.zeros((5, 5))
        vals[2, 2] = -9999.0
        out = hillshade(ScalarGrid(vals, nodata=-9999.0))
        mask = out.nodata_mask
        assert mask[1:4, 1:4].all()
        assert not mask[0, 0]

    def test_too_small_grid(self):
        with pytest.raises(ValueError, match="3x3"):
            hillshade(ScalarGrid(np.zeros((2, 5))))

    def test_missing_cellsize(self):
        with pytest.raises(ValueError, match="cellsize"):
            hillshade(ScalarGrid(np.zeros((4, 4)), cellsize=None))

    @settings(max_examples=150, deadline=None)
    @given(
        h=st.integers(3, 70),
        w=st.integers(3, 70),
        band=st.sampled_from([1, 2, 3, terrain._BAND]),
        seed=st.integers(0, 2**32 - 1),
        cellsize=st.sampled_from([0.05, 1.0, 2.5, 30.0]),
        azimuth=st.floats(0.0, 359.99),
        altitude=st.floats(0.5, 90.0),
        z_factor=st.floats(0.1, 10.0),
        nodata=st.sampled_from([None, -9999.0, 0.5]),
    )
    def test_bands_match_whole_grid_oracle(
        self, h, w, band, seed, cellsize, azimuth, altitude, z_factor, nodata
    ):
        rng = np.random.default_rng(seed)
        values = rng.normal(scale=rng.choice([0.01, 1.0, 50.0]), size=(h, w))
        if nodata is not None:
            values[rng.random((h, w)) < 0.05] = nodata
        params = HillshadeParams(azimuth=azimuth, altitude=altitude, z_factor=z_factor)
        with mock.patch.object(terrain, "_BAND", band):
            out = hillshade(ScalarGrid(values, cellsize=cellsize, nodata=nodata), params)
        shade, out_nodata = hillshade_whole(values, cellsize, nodata, azimuth, altitude, z_factor)
        assert np.array_equal(out.values.view(np.int64), shade.view(np.int64))
        assert out.nodata == out_nodata


class TestSigmoidalStretch:
    def test_midpoint_maps_to_half(self):
        g = ScalarGrid(np.array([[0.0, 5.0, 10.0]]))
        out = sigmoidal_stretch(g, StretchParams(strength=3.0, scale=2.0))
        assert out.values[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_endpoints_span_unit_interval(self):
        g = ScalarGrid(np.array([[2.0, 3.0, 7.0, 11.0]]))
        out = sigmoidal_stretch(g)
        assert out.values.min() == pytest.approx(0.0, abs=0.0)
        assert out.values.max() == pytest.approx(1.0, abs=1e-15)

    def test_known_value_at_three_quarters(self):
        # independent scalar evaluation of the stretch formula at x = 0.75
        k = 3.0 * 2.0
        s = lambda x: 1.0 / (1.0 + math.exp(-k * (x - 0.5)))
        expected = (s(0.75) - s(0.0)) / (s(1.0) - s(0.0))
        g = ScalarGrid(np.array([[0.0, 0.75, 1.0]]))
        out = sigmoidal_stretch(g, StretchParams(3.0, 2.0))
        assert out.values[0, 1] == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_strictly_monotone(self, seed):
        rng = np.random.default_rng(seed)
        vals = np.sort(rng.uniform(-100, 100, size=16))
        vals = np.unique(np.round(vals, 3))
        if vals.size < 2:
            vals = np.array([0.0, 1.0])
        out = sigmoidal_stretch(ScalarGrid(vals.reshape(1, -1)))
        flat = out.values.ravel()
        assert np.all(np.diff(flat) > 0)

    def test_weak_strength_approaches_identity(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0, 50, size=(8, 8))
        normalized = (vals - vals.min()) / (vals.max() - vals.min())
        out = sigmoidal_stretch(ScalarGrid(vals), StretchParams(strength=0.001, scale=1.0))
        assert np.allclose(out.values, normalized, atol=1e-3)

    def test_constant_grid_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            sigmoidal_stretch(ScalarGrid(np.full((3, 3), 4.0)))

    def test_nodata_passes_through(self):
        vals = np.array([[0.0, 5.0, -9999.0, 10.0]])
        out = sigmoidal_stretch(ScalarGrid(vals, nodata=-9999.0))
        assert out.nodata_mask[0, 2]
        assert out.values[0, 0] == 0.0
        assert out.values[0, 3] == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
        nodata=st.sampled_from([None, -9999.0, 0.5]),
        holes=st.sampled_from([0.0, 0.3, 1.0]),
        strength=st.floats(0.01, 20.0),
        scale=st.floats(0.01, 5.0),
    )
    def test_matches_copying_oracle(self, seed, shape, nodata, holes, strength, scale):
        rng = np.random.default_rng(seed)
        values = rng.choice([-0.0, 0.0, 1.0, 3.5], size=shape) if rng.random() < 0.3 else rng.normal(size=shape)
        if nodata is not None:
            values[rng.random(shape) < holes] = nodata
        grid = ScalarGrid(values, nodata=nodata)
        params = StretchParams(strength=strength, scale=scale)
        try:
            expected, out_nodata = sigmoidal_stretch_copies(values, nodata, strength, scale)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                sigmoidal_stretch(grid, params)
            return
        out = sigmoidal_stretch(grid, params)
        assert np.array_equal(out.values.view(np.int64), expected.view(np.int64))
        assert out.nodata == out_nodata


class TestQuantize8:
    def test_endpoints(self):
        g = ScalarGrid(np.array([[0.0, 1.0]]))
        assert quantize8(g).values.ravel().tolist() == [0, 255]

    def test_round_half_up(self):
        g = ScalarGrid(np.array([[0.5]]))
        assert quantize8(g).values[0, 0] == 128  # 127.5 rounds up

    def test_evenly_spaced_values_are_bijective(self):
        vals = np.arange(256) / 255.0
        out = quantize8(ScalarGrid(vals.reshape(16, 16)))
        assert sorted(out.values.ravel().tolist()) == list(range(256))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            quantize8(ScalarGrid(np.array([[1.2]])))

    def test_nodata_becomes_zero(self):
        g = ScalarGrid(np.array([[0.7, -9999.0]]), nodata=-9999.0)
        assert quantize8(g).values.ravel().tolist() == [179, 0]

    def test_uniform_midgray(self):
        out = quantize8(ScalarGrid(np.full((4, 4), 0.5)))
        assert np.all(out.values == 128)

    def test_hillshade_composes(self):
        rng = np.random.default_rng(21)
        dsm = ScalarGrid(rng.normal(size=(12, 12)))
        img = quantize8(hillshade(dsm))
        assert isinstance(img, GrayImage)
