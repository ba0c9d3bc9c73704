"""SLIC superpixels and small-region merging."""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    absorb_small_components,
    boundary_table_concat,
    flood_fill_components,
    nearest_center_exhaustive,
    seed_centers_loop,
    slic_assign_loop,
    slic_cluster_mgrid,
)
from spoilseg import (
    LabelMap,
    LabImage,
    RasterRGB,
    SlicParams,
    merge_small_regions,
    relabel_connected,
    rgb_to_lab,
    slic,
)
from spoilseg.labels import _boundary_table
from spoilseg.slic import _cluster, _seed_centers, _split_planes, slic_assign

slic_module = importlib.import_module("spoilseg.slic")  # the package's `slic` is the function


def gray_lab(values: np.ndarray) -> LabImage:
    """Achromatic Lab image with the given L channel."""
    lab = np.zeros(values.shape + (3,), dtype=np.float64)
    lab[..., 0] = values
    return LabImage(lab)


def region_is_connected(labels: np.ndarray, label: int) -> bool:
    mask = (labels == label).astype(np.int32)
    return flood_fill_components(mask).max() == 1


class TestSlic:
    def test_single_superpixel(self):
        rng = np.random.default_rng(0)
        img = gray_lab(rng.uniform(0, 100, size=(9, 11)))
        seg = slic(img, SlicParams(superpixels=1, compactness=10))
        assert seg.region_count() == 1
        assert (seg.labels == 1).all()

    def test_count_exceeding_pixels_rejected(self):
        img = gray_lab(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="exceeds"):
            slic(img, SlicParams(superpixels=17))

    def test_uniform_image_near_regular_grid(self):
        img = gray_lab(np.full((100, 100), 50.0))
        seg = slic(img, SlicParams(superpixels=100, compactness=10))
        k = seg.region_count()
        assert 50 <= k <= 200
        sizes = np.array(list(seg.region_sizes().values()))
        assert abs(sizes.mean() - 100.0) <= 50.0
        for label in seg.label_ids():
            assert region_is_connected(seg.labels, int(label))

    def test_two_tone_halves_no_straddle(self):
        values = np.zeros((60, 60))
        values[:, 30:] = 100.0
        seg = slic(gray_lab(values), SlicParams(superpixels=4, compactness=1))
        for label in seg.label_ids():
            ys, xs = np.nonzero(seg.labels == label)
            side = values[ys, xs]
            assert side.min() == side.max(), f"superpixel {label} straddles the tone boundary"

    def test_region_count_bounded_and_connected(self):
        rng = np.random.default_rng(12)
        img = gray_lab(rng.uniform(0, 100, size=(40, 40)))
        k = 16
        seg = slic(img, SlicParams(superpixels=k, compactness=20))
        assert 1 <= seg.region_count() <= 2 * k
        for label in seg.label_ids():
            assert region_is_connected(seg.labels, int(label))

    def test_label_permutation_leaves_scores_unchanged(self):
        # downstream evaluation must not care how a segmentation numbers its regions
        from spoilseg import evaluate_segmentation

        rng = np.random.default_rng(14)
        img = gray_lab(rng.uniform(0, 100, size=(30, 30)))
        seg = slic(img, SlicParams(superpixels=9, compactness=15))
        gt = LabelMap((np.indices((30, 30)).sum(axis=0) // 15 + 1).astype(np.int32))
        perm = rng.permutation(np.arange(1, seg.labels.max() + 1)) + 500
        remap = np.concatenate(([0], perm)).astype(np.int32)
        permuted = LabelMap(remap[seg.labels])
        a = evaluate_segmentation(gt, seg, 0.5)
        b = evaluate_segmentation(gt, permuted, 0.5)
        assert a.as_floats() == b.as_floats()


LAYOUTS = ["contiguous", "transposed", "strided", "planar"]


def chromatic_lab(rng, h: int, w: int, layout: str) -> np.ndarray:
    """Lab values on a coarse grid (frequent distance ties), stored contiguous,
    as a strided view, or planar: the channel-last view of (3, h, w) storage,
    as ``rgb_to_lab`` returns it."""
    lab = rng.integers(-4, 5, size=(h, w, 3)) * 12.5
    lab[..., 0] += 50.0
    if layout == "transposed":
        return np.ascontiguousarray(lab.transpose(1, 0, 2)).transpose(1, 0, 2)
    if layout == "strided":
        wide = np.zeros((h, 2 * w, 3))
        wide[:, ::2] = lab
        return wide[:, ::2]
    if layout == "planar":
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(lab, -1, 0)), 0, -1)
    return lab


class TestSeedCenters:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(1, 14),
        w=st.integers(1, 14),
        step=st.integers(1, 6),
        kind=st.sampled_from(["uniform", "two-tone", "chromatic", "noisy"]),
        layout=st.sampled_from(LAYOUTS),
    )
    @example(seed=0, h=1, w=1, step=1, kind="uniform", layout="contiguous")
    @example(seed=0, h=1, w=1, step=3, kind="chromatic", layout="planar")
    @example(seed=0, h=2, w=9, step=1, kind="two-tone", layout="contiguous")
    def test_matches_triple_loop(self, seed, h, w, step, kind, layout):
        # small images and steps put grid cells on the image edge; plateaus
        # (uniform, two-tone) test that equal gradients never move a center
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            lab = np.full((h, w, 3), 40.0)
        elif kind == "two-tone":
            lab = np.zeros((h, w, 3))
            lab[:, : w // 2, 0] = 80.0
        elif kind == "chromatic":
            lab = chromatic_lab(rng, h, w, layout)
        else:
            lab = rng.uniform(-50, 50, size=(h, w, 3))
        assert np.array_equal(_seed_centers(lab, step), seed_centers_loop(lab, step))

    def test_nan_neighbour_never_attracts_a_center(self):
        lab = np.full((9, 9, 3), 10.0)
        lab[3, 5, 1] = np.nan
        lab[4, 4, 0] = 0.0
        assert np.array_equal(_seed_centers(lab, 9), seed_centers_loop(lab, 9), equal_nan=True)


class TestSlicAssign:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_exhaustive_search(self, seed):
        rng = np.random.default_rng(seed)
        # smooth field: nearest-by-D centers stay within their windows
        base = rng.uniform(20, 80, size=(4, 4))
        values = np.kron(base, np.ones((8, 8)))
        lab = gray_lab(values).values
        step = 8
        centers = _seed_centers(lab, step)
        m = 10.0
        assign = slic_assign(lab, centers, step, m)
        assert np.array_equal(assign, nearest_center_exhaustive(lab, centers, step, m))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(1, 18),
        w=st.integers(1, 18),
        step=st.integers(1, 5),
        k=st.integers(1, 8),
        duplicates=st.booleans(),
        layout=st.sampled_from(LAYOUTS),
        compactness=st.sampled_from([0.5, 10.0, 30.0]),
    )
    @example(seed=1, h=6, w=7, step=1, k=4, duplicates=True, layout="strided", compactness=10.0)
    @example(seed=1, h=6, w=7, step=1, k=4, duplicates=True, layout="planar", compactness=10.0)
    def test_matches_window_loop(self, seed, h, w, step, k, duplicates, layout, compactness):
        # centers range past the border (clipped or empty windows, orphan
        # pixels); integer positions and coarse colours make exact ties
        rng = np.random.default_rng(seed)
        lab = chromatic_lab(rng, h, w, layout)
        centers = np.column_stack(
            [
                rng.integers(-4, 5, size=(k, 3)) * 12.5 + [50.0, 0.0, 0.0],
                rng.integers(-step - 1, w + step + 1, size=k),
                rng.integers(-step - 1, h + step + 1, size=k),
            ]
        ).astype(np.float64)
        if duplicates:
            centers = np.concatenate([centers, centers[::-1]])
        ours = slic_assign(lab, centers, step, compactness)
        assert np.array_equal(ours, slic_assign_loop(lab, centers, step, compactness))

    @pytest.mark.parametrize("block_cells", [1 << 18, 3])
    def test_orphans_take_their_exhaustive_nearest_center(self, monkeypatch, block_cells):
        # two windows of side 5 on a 20x20 image leave most pixels to the
        # fallback; the duplicate of center 0 must never win a tie
        monkeypatch.setattr(slic_module, "_ORPHAN_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(7)
        lab = chromatic_lab(rng, 20, 20, "contiguous")
        centers = np.array(
            [[50.0, 0.0, 0.0, 3.0, 3.0], [50.0, 12.5, -12.5, 16.0, 15.0], [50.0, 0.0, 0.0, 3.0, 3.0]]
        )
        step, m = 2, 10.0
        ours = slic_assign(lab, centers, step, m)
        covered = np.zeros((20, 20), dtype=bool)
        covered[1:6, 1:6] = covered[13:18, 14:19] = True
        orphans = ~covered
        assert orphans.sum() == 400 - 50
        assert np.array_equal(ours[orphans], nearest_center_exhaustive(lab, centers, step, m)[orphans])
        assert np.array_equal(ours, slic_assign_loop(lab, centers, step, m))
        assert not (ours == 2).any()


class TestCluster:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(1, 14),
        w=st.integers(1, 14),
        k=st.integers(1, 9),
        iterations=st.integers(1, 4),
        layout=st.sampled_from(LAYOUTS),
        compactness=st.sampled_from([0.5, 10.0, 30.0]),
    )
    @example(seed=2, h=1, w=14, k=3, iterations=4, layout="planar", compactness=10.0)
    @example(seed=3, h=14, w=1, k=3, iterations=4, layout="contiguous", compactness=10.0)
    @example(seed=4, h=13, w=5, k=6, iterations=3, layout="planar", compactness=0.5)
    def test_matches_mgrid_update_oracle(self, seed, h, w, k, iterations, layout, compactness):
        rng = np.random.default_rng(seed)
        lab = chromatic_lab(rng, h, w, layout)
        k = min(k, h * w)
        ours = _cluster(lab, SlicParams(superpixels=k, compactness=compactness, iterations=iterations))
        assert np.array_equal(ours, slic_cluster_mgrid(lab, k, compactness, iterations))


class TestPlanarLab:
    def test_planar_and_interleaved_storage_give_the_same_labels(self):
        interleaved = chromatic_lab(np.random.default_rng(3), 40, 40, "contiguous")
        planar = chromatic_lab(np.random.default_rng(3), 40, 40, "planar")
        assert np.array_equal(planar, interleaved) and not planar.flags.c_contiguous
        p = SlicParams(superpixels=16, compactness=10)
        assert np.array_equal(slic(LabImage(planar), p).labels, slic(LabImage(interleaved), p).labels)

    def test_planes_of_an_rgb_to_lab_image_are_views(self):
        # a copy here would bring back 24 B/px on the ortho -> Lab -> SLIC path
        px = np.random.default_rng(5).integers(0, 256, size=(6, 9, 3), dtype=np.uint8)
        lab = rgb_to_lab(RasterRGB(px)).values
        for plane in _split_planes(lab):
            assert np.shares_memory(plane, lab)


class TestEnforceConnectivity:
    def test_orphan_pixel_absorbed(self):
        lab = np.full((5, 5), 2, dtype=np.int32)
        lab[2, 2] = 1
        out = merge_small_regions(LabelMap(lab), min_size=2)
        assert out.region_count() == 1
        assert len(set(out.labels.ravel())) == 1

    def test_clean_map_partition_unchanged(self):
        lab = np.zeros((6, 6), dtype=np.int32)
        lab[:, :3] = 1
        lab[:, 3:] = 2
        out = merge_small_regions(LabelMap(lab), min_size=5)
        assert np.array_equal(out.labels, lab)

    def test_background_is_preserved(self):
        lab = np.zeros((4, 4), dtype=np.int32)
        lab[0, 0] = 1
        out = merge_small_regions(LabelMap(lab), min_size=3)
        assert np.array_equal(out.labels == 0, lab == 0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(1, 20),
        w=st.integers(1, 20),
        block=st.integers(1, 3),
        min_size=st.integers(0, 15),
        rule=st.sampled_from(["boundary", "colour"]),
        background=st.booleans(),
    )
    def test_matches_absorb_smallest_oracle(self, seed, h, w, block, min_size, rule, background):
        # blocks of one label give merged groups concave outlines, so a
        # group's lowest region is often not the one it merged into
        rng = np.random.default_rng(seed)
        coarse = rng.integers(0 if background else 1, 5, size=(-(-h // block), -(-w // block)))
        lab = coarse.repeat(block, 0).repeat(block, 1)[:h, :w].astype(np.int32)
        # small integer colours: exact float sums and frequent colour-gap ties
        colors = rng.integers(0, 4, size=(h, w, 3)).astype(np.float64) if rule == "colour" else None
        ours = merge_small_regions(LabelMap(lab), min_size=min_size, colors=colors)
        oracle = absorb_small_components(lab, min_size=min_size, colors=colors)
        assert np.array_equal(ours.labels, oracle)


class TestBoundaryTable:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(1, 24),
        w=st.integers(1, 24),
        k=st.integers(1, 8),
        connected=st.booleans(),
    )
    def test_matches_concatenated_pairs_oracle(self, seed, h, w, k, connected):
        rng = np.random.default_rng(seed)
        lab = rng.integers(0, k + 1, size=(h, w)).astype(np.int32)
        if connected:
            lab = relabel_connected(LabelMap(lab)).labels
        n = int(lab.max()) + 1
        assert _boundary_table(lab, n) == boundary_table_concat(lab, n)

    def test_pair_keys_do_not_overflow_past_46341_regions(self):
        # 100,000 one-pixel regions: lo * n + hi reaches 1e10, past int32
        lab = relabel_connected(LabelMap((np.arange(100_000, dtype=np.int32) % 2 + 1)[None, :])).labels
        n = int(lab.max()) + 1
        assert n * n > 2**31
        table = _boundary_table(lab, n)
        assert table[1] == {2: 1}
        assert table[70_000] == {69_999: 1, 70_001: 1}
        assert table[100_000] == {99_999: 1}
        assert table == boundary_table_concat(lab, n)
