"""Gaussian blur, peak seeding, Otsu masking and Voronoi labelling."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    exhaustive_otsu,
    nearest_seed_labels,
    plateau_peak_seeds,
    sampled_gaussian_kernel,
    voronoi_label_loop,
)
from spoilseg import voronoi
from spoilseg import (
    GrayImage,
    ScalarGrid,
    SeedSet,
    VoronoiParams,
    detect_local_maxima,
    filter_background_seeds,
    gaussian_blur,
    hillshade,
    otsu_threshold,
    quantize8,
    sigmoidal_stretch,
    synth_pilefield,
    voronoi_label,
    voronoi_pipeline,
)


def bump_field(h, w, centers, sigma, amplitude=200.0, floor=10.0):
    """8-bit image of Gaussian mounds on a uniform floor."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    field = np.full((h, w), floor)
    for cy, cx in centers:
        field += amplitude * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
    return GrayImage(np.clip(np.round(field), 0, 255).astype(np.uint8))


class TestGaussianBlur:
    def test_constant_preserved(self):
        img = GrayImage(np.full((10, 10), 77, dtype=np.uint8))
        out = gaussian_blur(img, sigma=2.5)
        assert np.allclose(out.values, 77.0, atol=1e-9)

    def test_impulse_matches_sampled_kernel(self):
        sigma = 1.5
        img = np.zeros((31, 31), dtype=np.uint8)
        img[15, 15] = 255
        out = gaussian_blur(GrayImage(img), sigma)
        k = sampled_gaussian_kernel(sigma)
        expected = 255.0 * np.outer(k, k)
        radius = len(k) // 2
        window = out.values[15 - radius : 16 + radius, 15 - radius : 16 + radius]
        assert np.allclose(window, expected, atol=1e-9)
        assert np.allclose(out.values, out.values.T, atol=1e-12)  # symmetric impulse

    def test_total_intensity_preserved(self):
        img = np.zeros((41, 41), dtype=np.uint8)
        img[20, 20] = 200
        out = gaussian_blur(GrayImage(img), sigma=2.0)
        assert out.values.sum() == pytest.approx(200.0, rel=1e-6)

    def test_commutes_with_transposition(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(12, 17)).astype(np.uint8)
        a = gaussian_blur(GrayImage(img), 1.7).values
        b = gaussian_blur(GrayImage(img.T.copy()), 1.7).values
        assert np.allclose(a, b.T, atol=1e-9)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gaussian_blur(GrayImage(np.zeros((3, 3), dtype=np.uint8)), 0.0)


def smooth_bumps(h, w, centers, sigma):
    """Float field of Gaussian mounds whose tails never flatten out."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    field = np.zeros((h, w))
    for cy, cx in centers:
        field += 200.0 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
    return ScalarGrid(field)


class TestDetectLocalMaxima:
    def test_single_bump_single_seed(self):
        grid = smooth_bumps(40, 40, [(20, 20)], sigma=4)
        seeds = detect_local_maxima(grid, peak_radius=3)
        assert len(seeds) == 1
        assert (seeds.xs[0], seeds.ys[0]) == (20, 20)

    def test_two_separated_bumps(self):
        grid = smooth_bumps(40, 80, [(20, 20), (20, 60)], sigma=4)
        seeds = detect_local_maxima(grid, peak_radius=5)
        assert len(seeds) == 2
        assert sorted(seeds.xs.tolist()) == [20, 60]

    def test_flat_image_one_plateau_seed(self):
        grid = ScalarGrid(np.full((5, 5), 3.0))
        seeds = detect_local_maxima(grid, peak_radius=1)
        assert len(seeds) == 1
        assert (seeds.xs[0], seeds.ys[0]) == (2, 2)  # plateau centroid

    def test_invariant_under_constant_offset(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0, 50, size=(20, 20))
        a = detect_local_maxima(ScalarGrid(vals), 2)
        b = detect_local_maxima(ScalarGrid(vals + 1000.0), 2)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)

    def test_accepted_seeds_respect_suppression_distance(self):
        rng = np.random.default_rng(6)
        vals = rng.uniform(0, 1, size=(30, 30))
        seeds = detect_local_maxima(ScalarGrid(vals), 3)
        pts = list(zip(seeds.xs.tolist(), seeds.ys.tolist()))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                cheb = max(abs(pts[i][0] - pts[j][0]), abs(pts[i][1] - pts[j][1]))
                assert cheb > 3

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 16),
        st.integers(1, 16),
        st.integers(1, 3),
        st.booleans(),
    )
    def test_matches_naive_plateau_oracle(self, seed, h, w, peak_radius, with_nodata):
        rng = np.random.default_rng(seed)
        vals = rng.integers(0, rng.integers(1, 5), size=(h, w)).astype(np.float64)
        nodata = None
        if with_nodata:
            nodata = -9999.0
            vals[rng.random((h, w)) < 0.3] = nodata
        grid = ScalarGrid(vals, nodata=nodata)
        seeds = detect_local_maxima(grid, peak_radius)
        ours = list(zip(seeds.xs.tolist(), seeds.ys.tolist(), seeds.intensities.tolist()))
        assert ours == plateau_peak_seeds(vals, peak_radius, grid.nodata_mask)


class TestOtsu:
    def test_perfectly_bimodal(self):
        vals = np.zeros((4, 4), dtype=np.uint8)
        vals[2:] = 255
        t, mask = otsu_threshold(GrayImage(vals))
        assert mask.sum() == 8
        assert (mask == (vals == 255)).all()

    def test_adjacent_levels(self):
        vals = np.array([[100, 100, 101, 101]], dtype=np.uint8)
        t, mask = otsu_threshold(GrayImage(vals))
        assert t == 100
        assert mask.ravel().tolist() == [False, False, True, True]

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            otsu_threshold(GrayImage(np.full((3, 3), 9, dtype=np.uint8)))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_exhaustive_scan(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.integers(0, 256, size=(12, 12)).astype(np.uint8)
        if np.unique(vals).size < 2:
            vals[0, 0] = 0
            vals[0, 1] = 255
        t, _ = otsu_threshold(GrayImage(vals))
        assert t == exhaustive_otsu(vals)


class TestFilterBackgroundSeeds:
    def setup_method(self):
        self.seeds = SeedSet(np.array([1, 3, 5]), np.array([0, 0, 0]), np.array([9, 9, 9]))

    def test_all_foreground_unchanged(self):
        mask = np.ones((1, 6), dtype=bool)
        out = filter_background_seeds(self.seeds, mask)
        assert np.array_equal(out.xs, self.seeds.xs)

    def test_all_background_empty(self):
        mask = np.zeros((1, 6), dtype=bool)
        assert len(filter_background_seeds(self.seeds, mask)) == 0

    def test_mixed_preserves_order(self):
        mask = np.zeros((1, 6), dtype=bool)
        mask[0, [1, 5]] = True
        out = filter_background_seeds(self.seeds, mask)
        assert out.xs.tolist() == [1, 5]


class TestSeedSet:
    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([1, 3, 1], [2, 4, 2]),
            ([5, 0, 5, 7], [5, 0, 5, 0]),
            ([-(2**63), 2**63 - 1, -(2**63)], [2**63 - 1, 0, 2**63 - 1]),
        ],
    )
    def test_duplicate_coordinates_rejected(self, xs, ys):
        with pytest.raises(ValueError, match="duplicate seed coordinates"):
            SeedSet(np.array(xs), np.array(ys), np.zeros(len(xs), dtype=int))

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([1, 2], [2, 1]),  # swapped coordinates
            ([0, 0, 0], [0, 1, 2]),
            ([-(2**63), 2**63 - 1], [2**63 - 1, 2**63 - 1]),  # spans overflow a linear index
        ],
    )
    def test_distinct_coordinates_accepted(self, xs, ys):
        assert len(SeedSet(np.array(xs), np.array(ys), np.zeros(len(xs), dtype=int))) == len(xs)


class TestVoronoiLabel:
    def test_two_seed_strip(self):
        seeds = SeedSet(np.array([0, 9]), np.array([0, 0]), np.array([1, 1]))
        out = voronoi_label(seeds, 10, 1)
        assert out.labels.ravel().tolist() == [1, 1, 1, 1, 1, 2, 2, 2, 2, 2]

    def test_single_seed_owns_everything(self):
        seeds = SeedSet(np.array([3]), np.array([2]), np.array([1]))
        out = voronoi_label(seeds, 7, 5)
        assert (out.labels == 1).all()

    def test_mask_restriction(self):
        seeds = SeedSet(np.array([0]), np.array([0]), np.array([1]))
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, :] = True
        out = voronoi_label(seeds, 3, 3, mask)
        assert out.labels[0].tolist() == [1, 1, 1]
        assert (out.labels[1:] == 0).all()

    def test_empty_seed_set_rejected(self):
        empty = SeedSet(np.array([], dtype=int), np.array([], dtype=int), np.array([], dtype=int))
        with pytest.raises(ValueError, match="empty seed set"):
            voronoi_label(empty, 4, 4)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force_64x64(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        coords = rng.choice(64 * 64, size=n, replace=False)
        xs, ys = coords % 64, coords // 64
        seeds = SeedSet(xs, ys, np.ones(n, dtype=int))
        ours = voronoi_label(seeds, 64, 64)
        oracle = nearest_seed_labels(list(zip(xs.tolist(), ys.tolist())), 64, 64)
        assert np.array_equal(ours.labels, oracle)

    @pytest.mark.parametrize(
        "shape, dtype",
        [
            ((3, 3), bool),  # used to label only the 9 pixels it covers
            ((20, 20), bool),  # used to raise IndexError
            ((12, 10), bool),
            ((10, 12), np.uint8),  # right shape, 0/1 values
            ((10, 12), np.int64),
            ((10, 12), np.float64),
        ],
        ids=["smaller", "larger", "transposed", "uint8", "int64", "float64"],
    )
    def test_misshaped_or_non_bool_mask_rejected(self, shape, dtype):
        seeds = SeedSet(np.array([0, 9]), np.array([0, 5]), np.array([1, 1]))
        mask = np.ones(shape, dtype=dtype)
        with pytest.raises(ValueError, match=r"mask must be a bool array of shape \(10, 12\)"):
            voronoi_label(seeds, 12, 10, mask)


@st.composite
def seed_layouts(draw, max_side):
    """(xs, ys, width, height, mask) with tie-heavy seeds and ragged tiles.

    Layouts: random points, a shuffled lattice (many-way ties midway between
    lattice points), point-symmetric pairs (two-way ties on the bisector),
    border and corner points, and a single seed.  Masks: none, random, or
    all background.
    """
    side = st.one_of(st.just(1), st.integers(1, max_side))
    h, w = draw(side), draw(side)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["random", "lattice", "symmetric", "border", "single"]))
    if layout == "random":
        n = int(rng.integers(1, min(h * w, 40) + 1))
        xs, ys = rng.integers(0, w, n), rng.integers(0, h, n)
    elif layout == "lattice":
        step_x, step_y = rng.integers(1, 9, 2)
        ys, xs = np.mgrid[rng.integers(0, min(step_y, h)) : h : step_y, rng.integers(0, min(step_x, w)) : w : step_x]
        xs, ys = xs.ravel(), ys.ravel()
    elif layout == "symmetric":
        # pairs p and q = c - p around one doubled centre c
        cx, cy = rng.integers(0, 2 * w - 1), rng.integers(0, 2 * h - 1)
        px, py = rng.integers(0, w, 20), rng.integers(0, h, 20)
        qx, qy = cx - px, cy - py
        inside = (qx >= 0) & (qx < w) & (qy >= 0) & (qy < h)
        xs = np.stack([px[inside], qx[inside]], axis=1).ravel()
        ys = np.stack([py[inside], qy[inside]], axis=1).ravel()
        if xs.size == 0:
            xs, ys = px[:1], py[:1]
    elif layout == "border":
        corners_x, corners_y = np.array([0, w - 1, 0, w - 1]), np.array([0, 0, h - 1, h - 1])
        n = int(rng.integers(0, 20))
        along = rng.integers(0, 2, n).astype(bool)  # top/bottom rows or left/right columns
        edge_x = np.where(along, rng.integers(0, w, n), rng.choice([0, w - 1], n))
        edge_y = np.where(along, rng.choice([0, h - 1], n), rng.integers(0, h, n))
        xs, ys = np.concatenate([corners_x, edge_x]), np.concatenate([corners_y, edge_y])
    else:
        xs, ys = rng.integers(0, w, 1), rng.integers(0, h, 1)
    order = rng.permutation(xs.size)
    xs, ys = xs[order], ys[order]
    _, first = np.unique(ys * w + xs, return_index=True)
    keep = np.sort(first)
    mask_kind = draw(st.sampled_from(["none", "random", "empty"]))
    mask = None
    if mask_kind == "random":
        mask = rng.random((h, w)) < rng.random()
    elif mask_kind == "empty":
        mask = np.zeros((h, w), dtype=bool)
    return xs[keep], ys[keep], w, h, mask


class TestTiledVoronoiLabel:
    """The tiled labelling against exhaustive and per-seed-loop oracles."""

    @settings(max_examples=80, deadline=None)
    @given(seed_layouts(max_side=20), st.sampled_from([1, 3, 8, voronoi._TILE]))
    def test_matches_exhaustive_oracle(self, layout, tile):
        xs, ys, w, h, mask = layout
        with mock.patch.object(voronoi, "_TILE", tile):
            ours = voronoi_label(SeedSet(xs, ys, np.ones_like(xs)), w, h, mask)
        oracle = nearest_seed_labels(list(zip(xs.tolist(), ys.tolist())), w, h, mask)
        assert np.array_equal(ours.labels, oracle)

    @settings(max_examples=80, deadline=None)
    @given(
        seed_layouts(max_side=100),
        st.sampled_from([1, 3, 8, voronoi._TILE]),
        st.sampled_from([1, 700, voronoi._BLOCK_CELLS]),
    )
    def test_matches_seed_loop_at_any_tile_and_budget(self, layout, tile, block_cells):
        xs, ys, w, h, mask = layout
        with mock.patch.object(voronoi, "_TILE", tile), mock.patch.object(voronoi, "_BLOCK_CELLS", block_cells):
            ours = voronoi_label(SeedSet(xs, ys, np.ones_like(xs)), w, h, mask)
        assert np.array_equal(ours.labels, voronoi_label_loop(xs, ys, w, h, mask))

    @pytest.mark.parametrize("block_cells", [1, 3000])
    def test_ring_makes_every_seed_a_candidate(self, monkeypatch, block_cells):
        # seeds on a circle around the tile [32, 64)²: each is nearer to that
        # tile's nearest point than any seed is to its farthest point
        side, t = 96, voronoi._TILE
        angles = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
        xs = np.rint(47.5 + 44.0 * np.cos(angles)).astype(np.int64)
        ys = np.rint(47.5 + 44.0 * np.sin(angles)).astype(np.int64)
        _, first = np.unique(ys * side + xs, return_index=True)
        xs, ys = xs[np.sort(first)], ys[np.sort(first)]
        near = np.clip(xs, t, 2 * t - 1) - xs, np.clip(ys, t, 2 * t - 1) - ys
        far = np.maximum(xs - t, 2 * t - 1 - xs), np.maximum(ys - t, 2 * t - 1 - ys)
        d_near, d_far = near[0] ** 2 + near[1] ** 2, far[0] ** 2 + far[1] ** 2
        assert (d_near <= d_far.min()).all() and xs.size > 200

        seeds = SeedSet(xs, ys, np.ones_like(xs))
        monkeypatch.setattr(voronoi, "_BLOCK_CELLS", block_cells)
        tracemalloc.start()
        try:
            ours = voronoi_label(seeds, side, side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(ours.labels, voronoi_label_loop(xs, ys, side, side))
        # one (candidate, pixel) int64 distance array for the whole ring would be
        # xs.size * t * t * 8 bytes; the blocks keep far below that
        assert peak < xs.size * t * t * 8 // 4


class TestVoronoiPipeline:
    def test_nine_bumps_nine_regions(self):
        centers = [(y, x) for y in (25, 75, 125) for x in (25, 75, 125)]
        img = bump_field(150, 150, centers, sigma=6)
        seg = voronoi_pipeline(img, VoronoiParams(sigma=3.0))
        assert seg.region_count() == 9

    def test_all_dark_constant_yields_empty_map(self):
        img = GrayImage(np.zeros((30, 30), dtype=np.uint8))
        seg = voronoi_pipeline(img, VoronoiParams(sigma=2.0))
        assert seg.region_count() == 0
        assert (seg.labels == 0).all()

    def test_oversized_sigma_merges_bumps(self):
        centers = [(y, x) for y in (25, 75, 125) for x in (25, 75, 125)]
        img = bump_field(150, 150, centers, sigma=6)
        merged = voronoi_pipeline(img, VoronoiParams(sigma=30.0))
        assert 0 < merged.region_count() < 9  # fewer seeds than mounds

    def test_region_count_equals_surviving_seeds(self):
        centers = [(20, 20), (20, 60), (60, 40)]
        img = bump_field(80, 80, centers, sigma=5)
        p = VoronoiParams(sigma=2.0)
        seg = voronoi_pipeline(img, p)
        blurred = gaussian_blur(img, p.sigma)
        seeds = detect_local_maxima(blurred, math.ceil(p.sigma))
        q = GrayImage(np.round(blurred.values).astype(np.uint8))
        _, mask = otsu_threshold(q)
        survivors = filter_background_seeds(seeds, mask)
        assert seg.region_count() == len(survivors)

    def test_unrestricted_covers_full_frame(self):
        centers = [(20, 20), (60, 60)]
        img = bump_field(80, 80, centers, sigma=5)
        seg = voronoi_pipeline(img, VoronoiParams(sigma=2.0, restrict_to_foreground=False))
        assert (seg.labels > 0).all()

    def test_dsm_nodata_hole_reads_as_dark_ground(self):
        # pins current behaviour: nodata is not masked past quantize8
        dsm, _ = synth_pilefield(120, 120, 4, 8.0, 7)
        holed = dsm.values.copy()
        holed[28:34, 32:38] = -9999.0  # on the slope of a pile

        def gray(grid):
            return quantize8(sigmoidal_stretch(hillshade(grid)))

        clean = gray(dsm)
        hole = gray(ScalarGrid(holed, cellsize=dsm.cellsize, nodata=-9999.0))
        # the hole plus every cell whose 3x3 hillshade window touches it
        zeroed = np.zeros((120, 120), dtype=bool)
        zeroed[27:35, 31:39] = True
        assert (hole.values[zeroed] == 0).all() and (clean.values[zeroed] > 0).all()
        assert np.array_equal(hole.values[~zeroed], clean.values[~zeroed])

        sigma = 4.0
        r = math.ceil(3.0 * sigma)  # blur kernel radius
        smear = gaussian_blur(hole, sigma).values - gaussian_blur(clean, sigma).values
        reach = np.zeros_like(zeroed)
        reach[27 - r : 35 + r, 31 - r : 39 + r] = True
        assert (smear[reach] < 0).all() and (smear[~reach] == 0).all()

        # the hole's centre turns from pile to background
        p = VoronoiParams(sigma=sigma)
        assert (voronoi_pipeline(clean, p).labels[30:32, 34:36] > 0).all()
        assert (voronoi_pipeline(hole, p).labels[30:32, 34:36] == 0).all()
