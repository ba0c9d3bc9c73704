"""CIELAB conversion and mean shift segmentation."""

import numpy as np
import pytest

from oracles import srgb_to_lab_scalar
from spoilseg import MeanShiftParams, RasterRGB, mean_shift_filter, mean_shift_segment, rgb_to_lab
from spoilseg.meanshift import mean_shift_trajectory


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
