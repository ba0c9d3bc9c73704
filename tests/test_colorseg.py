"""CIELAB conversion and mean shift segmentation."""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mean_shift_modes, mean_shift_trajectory, rgb_to_lab_whole, srgb_to_lab_scalar
from spoilseg import MeanShiftParams, RasterRGB, mean_shift_filter, mean_shift_segment, rgb_to_lab
from spoilseg import colorspace, meanshift


def solid(h, w, color):
    px = np.zeros((h, w, 3), dtype=np.uint8)
    px[:] = color
    return RasterRGB(px)


class TestRgbToLab:
    def test_black(self):
        lab = rgb_to_lab(solid(1, 1, (0, 0, 0))).values[0, 0]
        assert np.allclose(lab, [0.0, 0.0, 0.0], atol=1e-9)

    def test_white_is_reference_white(self):
        lab = rgb_to_lab(solid(1, 1, (255, 255, 255))).values[0, 0]
        assert lab[0] == pytest.approx(100.0, abs=1e-6)
        assert abs(lab[1]) < 0.01
        assert abs(lab[2]) < 0.01

    def test_pure_red_golden(self):
        lab = rgb_to_lab(solid(1, 1, (255, 0, 0))).values[0, 0]
        # frozen from the scalar reference chain
        assert lab[0] == pytest.approx(53.2408, abs=1e-3)
        assert lab[1] == pytest.approx(80.0925, abs=1e-3)
        assert lab[2] == pytest.approx(67.2032, abs=1e-3)
        ref = srgb_to_lab_scalar(255, 0, 0)
        assert np.allclose(lab, ref, atol=1e-3)

    def test_random_pixels_match_scalar_chain(self):
        rng = np.random.default_rng(17)
        px = rng.integers(0, 256, size=(4, 5, 3)).astype(np.uint8)
        lab = rgb_to_lab(RasterRGB(px)).values
        for y in range(4):
            for x in range(5):
                ref = srgb_to_lab_scalar(*px[y, x])
                assert np.allclose(lab[y, x], ref, atol=1e-3)

    def test_l_range(self):
        rng = np.random.default_rng(23)
        px = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
        L = rgb_to_lab(RasterRGB(px)).values[..., 0]
        assert L.min() >= 0.0
        assert L.max() <= 100.0

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 300),
        w=st.integers(1, 40),
        band=st.sampled_from([1, 7, 64, 256]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(h=1, w=700, band=64, seed=0)
    @example(h=700, w=1, band=64, seed=1)
    @example(h=130, w=9, band=64, seed=2)
    @example(h=257, w=3, band=256, seed=3)
    def test_bands_match_whole_image_oracle(self, h, w, band, seed):
        # the bits must not depend on the band height, the @ matmul's included
        px = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        with mock.patch.object(colorspace, "_BAND", band):
            lab = rgb_to_lab(RasterRGB(px)).values
        assert np.array_equal(lab.view(np.int64), rgb_to_lab_whole(px).view(np.int64))


def brute_force_modes(img: RasterRGB, p: MeanShiftParams) -> np.ndarray:
    """Direct O(N^2) simulation of the joint-space iteration."""
    h, w = img.height, img.width
    pts = []
    for y in range(h):
        for x in range(w):
            r, g, b = img.pixels[y, x]
            pts.append(np.array([x, y, r, g, b], dtype=np.float64))
    modes = np.zeros((h, w, 5))
    for y in range(h):
        for x in range(w):
            cur = pts[y * w + x].copy()
            for _ in range(p.max_iterations):
                members = [
                    q
                    for q in pts
                    if ((q[:2] - cur[:2]) ** 2).sum() <= p.spatial_radius**2
                    and ((q[2:] - cur[2:]) ** 2).sum() <= p.range_radius**2
                ]
                nxt = np.mean(members, axis=0)
                disp = np.sqrt(
                    ((nxt[:2] - cur[:2]) ** 2).sum() / p.spatial_radius**2
                    + ((nxt[2:] - cur[2:]) ** 2).sum() / p.range_radius**2
                )
                cur = nxt
                if disp < p.convergence_eps:
                    break
            modes[y, x] = cur
    return modes


class TestMeanShiftFilter:
    def test_constant_image_converges_in_one_iteration(self):
        img = solid(6, 6, (90, 90, 90))
        p = MeanShiftParams(spatial_radius=2, range_radius=10, min_region_size=1)
        path = mean_shift_trajectory(img, p, 3, 3)
        assert len(path) == 2  # start plus the single settling step
        assert np.allclose(path[1][2:], [90, 90, 90])

    def test_two_tones_never_mix(self):
        px = np.zeros((4, 8, 3), dtype=np.uint8)
        px[:, 4:] = 200
        img = RasterRGB(px)
        p = MeanShiftParams(spatial_radius=3, range_radius=50, min_region_size=1)
        modes = mean_shift_filter(img, p)
        assert np.allclose(modes[:, :4, 2:], 0.0)
        assert np.allclose(modes[:, 4:, 2:], 200.0)

    def test_gradient_strip_matches_direct_simulation(self):
        px = np.zeros((1, 5, 3), dtype=np.uint8)
        px[0, :, :] = np.array([[0, 0, 0], [40, 40, 40], [80, 80, 80], [120, 120, 120], [160, 160, 160]])
        img = RasterRGB(px)
        p = MeanShiftParams(spatial_radius=5, range_radius=200, min_region_size=1)
        ours = mean_shift_filter(img, p)
        oracle = brute_force_modes(img, p)
        assert np.allclose(ours, oracle, atol=1e-9)

    def test_displacements_non_increasing_on_monotone_strip(self):
        px = np.zeros((1, 7, 3), dtype=np.uint8)
        px[0, :, 0] = np.arange(0, 140, 20)
        img = RasterRGB(px)
        p = MeanShiftParams(
            spatial_radius=3, range_radius=100, min_region_size=1, convergence_eps=1e-6
        )
        path = mean_shift_trajectory(img, p, 3, 0)
        disps = [
            np.sqrt(
                ((b[:2] - a[:2]) ** 2).sum() / p.spatial_radius**2
                + ((b[2:] - a[2:]) ** 2).sum() / p.range_radius**2
            )
            for a, b in zip(path, path[1:])
        ]
        assert all(d2 <= d1 + 1e-9 for d1, d2 in zip(disps, disps[1:]))

    def test_modes_stay_in_colour_hull(self):
        rng = np.random.default_rng(5)
        px = rng.integers(50, 180, size=(6, 6, 3)).astype(np.uint8)
        img = RasterRGB(px)
        modes = mean_shift_filter(img, MeanShiftParams(2, 30, 1))
        for ch in range(3):
            assert modes[..., 2 + ch].min() >= px[..., ch].min() - 1e-9
            assert modes[..., 2 + ch].max() <= px[..., ch].max() + 1e-9


@st.composite
def ms_images(draw):
    h = draw(st.integers(1, 16))
    w = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["random", "few-valued", "smooth"]))
    if kind == "random":
        px = rng.integers(0, 256, size=(h, w, 3))
    elif kind == "few-valued":
        palette = rng.integers(0, 256, size=(draw(st.integers(1, 4)), 3))
        px = palette[rng.integers(0, len(palette), size=(h, w))]
    else:
        ys, xs = np.mgrid[0:h, 0:w]
        slope = rng.integers(-12, 13, size=(2, 3))
        px = 128 + ys[..., None] * slope[0] + xs[..., None] * slope[1] + rng.integers(-2, 3, size=(h, w, 3))
    return RasterRGB(np.clip(px, 0, 255).astype(np.uint8))


class TestMeanShiftFilterOracle:
    """The batched filter against the per-pixel loop in ``oracles``."""

    @given(
        img=ms_images(),
        hs=st.sampled_from([1, 1.5, 2.5, 3.7, 5, 40, float("inf")]),
        hr=st.sampled_from([3, 8, 12.5, 30, 100, 500, float("inf")]),
        iterations=st.sampled_from([1, 2, 50]),
        batch_cells=st.sampled_from([1, 500, meanshift._BATCH_CELLS]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_per_pixel_loop(self, img, hs, hr, iterations, batch_cells):
        p = MeanShiftParams(hs, hr, 1, max_iterations=iterations)
        with mock.patch.object(meanshift, "_BATCH_CELLS", batch_cells):
            modes = mean_shift_filter(img, p)
        assert np.array_equal(modes, mean_shift_modes(img, p))


def filter_in_shards(img: RasterRGB, p: MeanShiftParams) -> np.ndarray:
    """The filter with three usable cores and no floor: an image whose first
    step leaves a pixel moving, with steps left, runs in interleaved shards,
    two of them in forked workers."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1, 2}):
        with mock.patch.object(meanshift, "_SHARD_CELLS", 1):
            return mean_shift_filter(img, p)


class TestMeanShiftShards:
    """Pixel shards run in forked processes give the one-process bits."""

    @given(
        img=ms_images(),
        hs=st.sampled_from([1, 2.5, 5, float("inf")]),
        hr=st.sampled_from([8, 30, float("inf")]),
        iterations=st.sampled_from([1, 50]),
    )
    @settings(max_examples=12, deadline=None)  # each example forks
    def test_bit_identical_to_per_pixel_loop(self, img, hs, hr, iterations):
        p = MeanShiftParams(hs, hr, 1, max_iterations=iterations)
        assert np.array_equal(filter_in_shards(img, p), mean_shift_modes(img, p))

    def test_48px_image_matches_one_core(self):
        rng = np.random.default_rng(48)
        blocks = rng.integers(0, 256, size=(6, 6, 3)).repeat(8, axis=0).repeat(8, axis=1)
        img = RasterRGB(np.clip(blocks + rng.integers(-6, 7, size=(48, 48, 3)), 0, 255).astype(np.uint8))
        p = MeanShiftParams(5, 12, 1)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}):
            one_core = mean_shift_filter(img, p)
        assert np.array_equal(filter_in_shards(img, p), one_core)


class TestMeanShiftSegment:
    def test_constant_image_single_region(self):
        img = solid(8, 8, (120, 7, 33))
        seg = mean_shift_segment(img, MeanShiftParams(2, 10, 4))
        assert seg.region_count() == 1

    def test_two_tone_halves(self):
        px = np.zeros((6, 10, 3), dtype=np.uint8)
        px[:, 5:] = 200
        seg = mean_shift_segment(RasterRGB(px), MeanShiftParams(2, 30, 5))
        assert seg.region_count() == 2
        assert len(set(seg.labels[:, :5].ravel())) == 1
        assert len(set(seg.labels[:, 5:].ravel())) == 1

    def test_speck_absorbed_into_surround(self):
        px = np.full((20, 20, 3), 60, dtype=np.uint8)
        px[9, 9:12] = 200  # 3-pixel speck
        seg = mean_shift_segment(RasterRGB(px), MeanShiftParams(2, 20, 10))
        assert seg.region_count() == 1
        assert (seg.labels == 1).all()

    def test_every_region_reaches_min_size(self):
        rng = np.random.default_rng(8)
        px = rng.integers(0, 256, size=(12, 12, 3)).astype(np.uint8)
        p = MeanShiftParams(spatial_radius=2, range_radius=25, min_region_size=6)
        seg = mean_shift_segment(RasterRGB(px), p)
        sizes = seg.region_sizes().values()
        assert all(s >= 6 for s in sizes) or seg.region_count() == 1

    def test_labels_are_contiguous_partition(self):
        rng = np.random.default_rng(9)
        px = rng.integers(0, 256, size=(10, 10, 3)).astype(np.uint8)
        seg = mean_shift_segment(RasterRGB(px), MeanShiftParams(2, 40, 3))
        ids = seg.label_ids()
        assert ids.tolist() == list(range(1, len(ids) + 1))
        assert (seg.labels > 0).all()

    def test_seeded_fusion_labels_frozen(self):
        # 20 linked components on 2x2 colour blocks fuse by closest colour into
        # 7 regions (the longest-boundary rule gives a different map); the
        # expected labels were frozen from the original mean shift fusion loop
        rng = np.random.default_rng(20)
        px = rng.integers(0, 256, size=(4, 5, 3)).astype(np.uint8).repeat(2, axis=0).repeat(2, axis=1)
        seg = mean_shift_segment(RasterRGB(px), MeanShiftParams(2, 40, 5))
        blocks = np.array([[1, 1, 2, 2, 3], [4, 5, 5, 5, 3], [4, 6, 5, 7, 7], [6, 6, 5, 7, 7]])
        assert np.array_equal(seg.labels, blocks.repeat(2, axis=0).repeat(2, axis=1))
