"""SLIC superpixels and small-region merging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import absorb_small_components, flood_fill_components
from spoilseg import LabelMap, LabImage, SlicParams, merge_small_regions, slic
from spoilseg.slic import _seed_centers, slic_assign


def gray_lab(values: np.ndarray) -> LabImage:
    """Achromatic Lab image with the given L channel."""
    lab = np.zeros(values.shape + (3,), dtype=np.float64)
    lab[..., 0] = values
    return LabImage(lab)


def region_is_connected(labels: np.ndarray, label: int) -> bool:
    mask = (labels == label).astype(np.int32)
    return flood_fill_components(mask, connectivity=4).max() == 1


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
        centers = _seed_centers(lab, 16, step)
        m = 10.0
        assign = slic_assign(lab, centers, step, m)

        h, w, _ = lab.shape
        for y in range(h):
            for x in range(w):
                d_lab2 = ((centers[:, :3] - lab[y, x]) ** 2).sum(axis=1)
                d_xy2 = (centers[:, 3] - x) ** 2 + (centers[:, 4] - y) ** 2
                d2 = d_lab2 + d_xy2 * (m / step) ** 2
                assert assign[y, x] == int(np.argmin(d2))


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
        min_size=st.integers(1, 6),
        rule=st.sampled_from(["boundary", "colour"]),
        background=st.booleans(),
    )
    def test_matches_absorb_smallest_oracle(self, seed, min_size, rule, background):
        rng = np.random.default_rng(seed)
        lab = rng.integers(0 if background else 1, 5, size=(16, 16)).astype(np.int32)
        # small integer colours: exact float sums and frequent colour-gap ties
        colors = rng.integers(0, 4, size=(16, 16, 3)).astype(np.float64) if rule == "colour" else None
        ours = merge_small_regions(LabelMap(lab), min_size=min_size, colors=colors)
        oracle = absorb_small_components(lab, min_size=min_size, colors=colors)
        assert np.array_equal(ours.labels, oracle)
