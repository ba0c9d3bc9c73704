"""Region-matching classification and scores."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hoover_classify_fractions
from spoilseg import (
    HooverClassification,
    LabelMap,
    OverlapTable,
    evaluate_segmentation,
    hoover_bruteforce,
    hoover_classify,
    hoover_scores,
    overlap_table,
)


def random_maps(seed: int, side: int = 8, max_regions: int = 6):
    rng = np.random.default_rng(seed)
    gt = rng.integers(0, max_regions + 1, size=(side, side)).astype(np.int32)
    ms = rng.integers(0, max_regions + 1, size=(side, side)).astype(np.int32)
    return LabelMap(gt), LabelMap(ms)


def classification_tuple(c):
    return (c.correct_pairs, c.over_instances, c.under_instances, c.missed_gt, c.noise_ms)


class TestOverlapTable:
    def test_identity_diagonal(self):
        lab = np.array([[1, 1, 2], [3, 3, 2]], dtype=np.int32)
        t = overlap_table(LabelMap(lab), LabelMap(lab))
        assert t.gt_sizes == t.ms_sizes == {1: 2, 2: 2, 3: 2}
        assert t.overlaps == {(1, 1): 2, (2, 2): 2, (3, 3): 2}

    def test_disjoint_regions_empty_table(self):
        gt = np.array([[1, 0], [0, 0]], dtype=np.int32)
        ms = np.array([[0, 0], [0, 2]], dtype=np.int32)
        t = overlap_table(LabelMap(gt), LabelMap(ms))
        assert t.overlaps == {}

    def test_background_excluded(self):
        gt = np.array([[1, 1, 0]], dtype=np.int32)
        ms = np.array([[0, 5, 5]], dtype=np.int32)
        t = overlap_table(LabelMap(gt), LabelMap(ms))
        assert t.gt_sizes == {1: 2}
        assert t.ms_sizes == {5: 2}
        assert t.overlaps == {(1, 5): 1}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            overlap_table(LabelMap(np.ones((2, 2), dtype=np.int32)), LabelMap(np.ones((3, 2), dtype=np.int32)))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), top=st.sampled_from([None, 2**31 - 1]))
    def test_matches_per_pixel_tally(self, seed, top):
        gt, ms = random_maps(seed)
        if top is not None:
            # labels near the int32 top: the joint keys pass 2**53, beyond exact float64
            gt = LabelMap(np.where(gt.labels > 0, top - gt.labels, 0))
            ms = LabelMap(np.where(ms.labels > 0, top - 2 * ms.labels, 0))
        t = overlap_table(gt, ms)
        sizes_gt, sizes_ms, overlaps = {}, {}, {}
        for y in range(8):
            for x in range(8):
                g, m = int(gt.labels[y, x]), int(ms.labels[y, x])
                if g > 0:
                    sizes_gt[g] = sizes_gt.get(g, 0) + 1
                if m > 0:
                    sizes_ms[m] = sizes_ms.get(m, 0) + 1
                if g > 0 and m > 0:
                    overlaps[(g, m)] = overlaps.get((g, m), 0) + 1
        assert t.gt_sizes == sizes_gt
        assert t.ms_sizes == sizes_ms
        assert t.overlaps == overlaps


# (gt_sizes, ms_sizes, overlaps, message) of tables the OverlapTable contract refuses
BAD_TABLES = [
    pytest.param({1: 4}, {1: 4}, {(1, 9): 0}, r"integers >= 1, got \(1, 9\): 0$", id="zero-overlap-unknown-id"),
    pytest.param({1: 4}, {1: 4}, {(1, 1): -1}, r"integers >= 1, got \(1, 1\): -1$", id="negative-overlap"),
    pytest.param(
        {1: 4, 2: 4}, {1: 4}, {(1, 1): 4, (2, 1): 4}, "^the overlaps of ms region 1 sum to 8, above its size 4$",
        id="overlaps-above-size",
    ),
    pytest.param({1: 4}, {1: 0}, {}, "^ms_sizes must map integer ids >= 1 to integer sizes >= 1, got 1: 0$",
                 id="zero-size"),
    pytest.param({1: 4}, {1: 4}, {(1, 1): 2.0}, r"integers >= 1, got \(1, 1\): 2.0$", id="float-overlap"),
    pytest.param({1: True}, {1: 4}, {}, "^gt_sizes must map .*, got 1: True$", id="bool-size"),
    pytest.param({0: 4}, {1: 4}, {}, "^gt_sizes must map .*, got 0: 4$", id="zero-id"),
    pytest.param({1: 4}, {1: 4}, {(1, 2): 1}, r"^overlap \(1, 2\) names a region missing from ms_sizes$",
                 id="unknown-id"),
    pytest.param({1: 4}, {1: 4}, {(True, 1): 1}, r"got \(True, 1\): 1$", id="bool-id"),
    pytest.param({1: 4}, {1: 4}, {1: 1}, "keyed by \\(gt id, ms id\\) pairs", id="unpaired-key"),
]


THREE_NOISE = HooverClassification(missed_gt=[1], noise_ms=[1, 2, 3])


class TestTableContract:
    @pytest.mark.parametrize("classify", [hoover_classify, hoover_bruteforce])
    @pytest.mark.parametrize("gt_sizes, ms_sizes, overlaps, message", BAD_TABLES)
    def test_bad_tables_refused(self, classify, gt_sizes, ms_sizes, overlaps, message):
        with pytest.raises(ValueError, match=message):
            classify(OverlapTable(gt_sizes, ms_sizes, overlaps), 0.5)

    def test_table_is_frozen(self):
        overlaps = {(1, 1): 4}
        t = OverlapTable({1: 4}, {1: 4}, overlaps)
        with pytest.raises(TypeError):
            t.overlaps[(1, 9)] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.overlaps = {}
        overlaps[(1, 1)] = 99  # the table holds its own copy
        assert t.overlaps == {(1, 1): 4}
        assert hoover_classify(t, 0.5).correct_pairs == [(1, 1)]

    def test_numpy_integers_pass(self):
        t = OverlapTable({np.int64(1): np.int32(4)}, {1: 4}, {(1, np.uint8(1)): np.int64(4)})
        assert hoover_classify(t, 0.5).correct_pairs == [(1, 1)]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        side=st.integers(1, 16),
        max_regions=st.integers(0, 12),
        top=st.sampled_from([None, 2**31 - 1]),
    )
    def test_built_tables_pass(self, seed, side, max_regions, top):
        gt, ms = random_maps(seed, side, max_regions)
        if top is not None:
            gt = LabelMap(np.where(gt.labels > 0, top - gt.labels, 0))
        t = overlap_table(gt, ms)  # its construction runs the contract
        # plain ints throughout, so the contract's per-value check stays on its fast path
        ids = [*t.gt_sizes, *t.ms_sizes, *(i for pair in t.overlaps for i in pair)]
        assert all(type(v) is int for v in [*ids, *t.gt_sizes.values(), *t.ms_sizes.values(), *t.overlaps.values()])
        assert OverlapTable(t.gt_sizes, t.ms_sizes, t.overlaps) == t


class TestClassify:
    def test_identity_all_correct(self):
        lab = np.arange(1, 10, dtype=np.int32).reshape(3, 3)
        t = overlap_table(LabelMap(lab), LabelMap(lab))
        c = hoover_classify(t, 0.5)
        assert len(c.correct_pairs) == 9
        assert not (c.over_instances or c.under_instances or c.missed_gt or c.noise_ms)

    def test_three_way_split_is_over_segmentation(self):
        t = OverlapTable(
            gt_sizes={1: 90},
            ms_sizes={1: 30, 2: 30, 3: 30},
            overlaps={(1, 1): 30, (1, 2): 30, (1, 3): 30},
        )
        c = hoover_classify(t, 0.5)
        assert c.correct_pairs == []
        assert c.over_instances == [(1, (1, 2, 3))]

    def test_three_way_containment_is_under_segmentation(self):
        # machine region exactly covering three gt regions; no single share
        # reaches half of the machine region, so the correct stage stays empty
        t = OverlapTable(
            gt_sizes={1: 33, 2: 33, 3: 34},
            ms_sizes={7: 100},
            overlaps={(1, 7): 33, (2, 7): 33, (3, 7): 34},
        )
        c = hoover_classify(t, 0.5)
        assert c.under_instances == [(7, (1, 2, 3))]
        assert c.correct_pairs == []

    def test_two_way_containment_above_half_threshold(self):
        # at T > max share the pair condition fails and the merge is exposed
        t = OverlapTable(
            gt_sizes={1: 40, 2: 60},
            ms_sizes={7: 100},
            overlaps={(1, 7): 40, (2, 7): 60},
        )
        c = hoover_classify(t, 0.7)
        assert c.under_instances == [(7, (1, 2))]

    def test_two_way_containment_at_half_goes_to_correct_first(self):
        # the larger share satisfies the correct conditions at T = 0.5, and
        # correct takes priority over under-segmentation
        t = OverlapTable(
            gt_sizes={1: 40, 2: 60},
            ms_sizes={7: 100},
            overlaps={(1, 7): 40, (2, 7): 60},
        )
        c = hoover_classify(t, 0.5)
        assert c.correct_pairs == [(2, 7)]
        assert c.missed_gt == [1]

    def test_threshold_bounds(self):
        t = OverlapTable(gt_sizes={1: 4}, ms_sizes={1: 4}, overlaps={(1, 1): 4})
        one_missed = HooverClassification(missed_gt=[1])
        for bad in (0.0, 1.5, Fraction(3, 2), "0.5", True, float("nan")):
            with pytest.raises(ValueError, match="threshold"):
                hoover_classify(t, bad)
            with pytest.raises(ValueError, match="threshold"):
                hoover_bruteforce(t, bad)
            with pytest.raises(ValueError, match="threshold"):
                hoover_scores(one_missed, 1, 0, bad)

    def test_exact_decimal_threshold_comparison(self):
        # overlap 51 of size 100 must pass T = 0.51 exactly
        t = OverlapTable(gt_sizes={1: 100}, ms_sizes={1: 51}, overlaps={(1, 1): 51})
        c = hoover_classify(t, 0.51)
        assert c.correct_pairs == [(1, 1)]


class TestScores:
    def test_identity_scores(self):
        lab = np.arange(1, 5, dtype=np.int32).reshape(2, 2)
        s = evaluate_segmentation(LabelMap(lab), LabelMap(lab), 0.5)
        assert s.as_floats() == {
            "correct_detection": 1.0,
            "over_segmentation": 0.0,
            "under_segmentation": 0.0,
            "missed": 0.0,
            "noise": 0.0,
        }

    def test_empty_machine_map_all_missed(self):
        gt = LabelMap(np.array([[1, 2]], dtype=np.int32))
        ms = LabelMap(np.zeros((1, 2), dtype=np.int32))
        s = evaluate_segmentation(gt, ms, 0.5)
        assert s.missed == 1
        assert s.correct_detection == 0
        assert s.noise == 0

    def test_three_way_split_scores(self):
        t = OverlapTable(
            gt_sizes={1: 90},
            ms_sizes={1: 30, 2: 30, 3: 30},
            overlaps={(1, 1): 30, (1, 2): 30, (1, 3): 30},
        )
        s = hoover_scores(hoover_classify(t, 0.5), 1, 3)
        assert (s.correct_detection, s.over_segmentation) == (0, 1)

    def test_merged_strips_score_as_under_segmentation(self):
        # three touching gt strips swallowed by one machine block
        gt = np.zeros((10, 21), dtype=np.int32)
        gt[:, :7] = 1
        gt[:, 7:14] = 2
        gt[:, 14:] = 3
        ms = np.ones((10, 21), dtype=np.int32)
        s = evaluate_segmentation(LabelMap(gt), LabelMap(ms), 0.5)
        assert s.under_segmentation == 1
        assert s.correct_detection == 0

    def test_split_strips_score_as_over_segmentation(self):
        gt = np.ones((10, 21), dtype=np.int32)
        ms = np.zeros((10, 21), dtype=np.int32)
        ms[:, :7] = 1
        ms[:, 7:14] = 2
        ms[:, 14:] = 3
        s = evaluate_segmentation(LabelMap(gt), LabelMap(ms), 0.5)
        assert s.over_segmentation == 1
        assert s.correct_detection == 0

    def test_zero_gt_rejected(self):
        with pytest.raises(ValueError, match="^ground truth has no regions$"):
            hoover_scores(HooverClassification(), 0, 0)

    @pytest.mark.parametrize(
        "classification, n_gt, n_ms, message",
        [
            (THREE_NOISE, 1, 1, "^n_ms must equal the 3 regions .*, got 1$"),
            (THREE_NOISE, 1, 0, "^n_ms must equal the 3 regions .*, got 0$"),
            (THREE_NOISE, 2, 3, "^n_gt must equal the 1 regions .*, got 2$"),
            (HooverClassification(missed_gt=[1]), True, 0, "^n_gt must be an integer, got True$"),
            (HooverClassification(missed_gt=[1]), 1.0, 0, "^n_gt must be an integer, got 1.0$"),
            (HooverClassification(missed_gt=[1]), 1, False, "^n_ms must be an integer, got False$"),
            # an over instance places one gt and its members on the ms side; an under instance the reverse
            (HooverClassification(over_instances=[(1, (1, 2, 3))]), 1, 1, "^n_ms must equal the 3 regions"),
            (HooverClassification(under_instances=[(1, (1, 2))]), 1, 1, "^n_gt must equal the 2 regions"),
        ],
    )
    def test_counts_must_match_the_classification(self, classification, n_gt, n_ms, message):
        with pytest.raises(ValueError, match=message):
            hoover_scores(classification, n_gt, n_ms)

    def test_matching_counts_score(self):
        c = HooverClassification(
            correct_pairs=[(1, 1)], over_instances=[(2, (2, 3))], under_instances=[(4, (3, 4))], noise_ms=[5]
        )
        s = hoover_scores(c, 4, 5)
        assert (s.correct_detection, s.over_segmentation, s.under_segmentation, s.noise) == (
            Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(1, 5)
        )

    def test_empty_ground_truth_rejected_by_evaluate(self):
        gt = LabelMap(np.zeros((4, 4), dtype=np.int32))
        ms = LabelMap(np.ones((4, 4), dtype=np.int32))
        with pytest.raises(ValueError, match="^ground truth has no regions$"):
            evaluate_segmentation(gt, ms, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from([0.5, 0.51, 0.8, 1.0]))
    def test_partition_invariants(self, seed, t):
        gt, ms = random_maps(seed)
        table = overlap_table(gt, ms)
        if not table.gt_sizes:
            return
        c = hoover_classify(table, t)
        n_gt, n_ms = len(table.gt_sizes), len(table.ms_sizes)
        gt_side = (
            len(c.correct_pairs)
            + len(c.over_instances)
            + sum(len(m) for _, m in c.under_instances)
            + len(c.missed_gt)
        )
        ms_side = (
            len(c.correct_pairs)
            + sum(len(m) for _, m in c.over_instances)
            + len(c.under_instances)
            + len(c.noise_ms)
        )
        assert gt_side == n_gt
        assert ms_side == n_ms
        s = hoover_scores(c, n_gt, n_ms, t)
        total = s.correct_detection + s.over_segmentation + s.under_segmentation + s.missed
        assert total == Fraction(1)


class TestBruteForceOracle:
    def test_empty_table_all_missed_noise(self):
        t = OverlapTable(gt_sizes={1: 5, 2: 5}, ms_sizes={9: 5}, overlaps={})
        c = hoover_bruteforce(t, 0.5)
        assert c.missed_gt == [1, 2]
        assert c.noise_ms == [9]

    def test_full_overlap_single_pair(self):
        t = OverlapTable(gt_sizes={1: 5}, ms_sizes={2: 5}, overlaps={(1, 2): 5})
        c = hoover_bruteforce(t, 0.5)
        assert c.correct_pairs == [(1, 2)]

    def test_instance_too_large(self):
        t = OverlapTable(gt_sizes={i: 1 for i in range(1, 8)}, ms_sizes={1: 1}, overlaps={})
        with pytest.raises(ValueError, match="too large"):
            hoover_bruteforce(t, 0.5)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from([0.5, 0.51, 0.8]))
    def test_agreement_with_classify(self, seed, t):
        gt, ms = random_maps(seed)
        table = overlap_table(gt, ms)
        assert classification_tuple(hoover_classify(table, t)) == classification_tuple(
            hoover_bruteforce(table, t)
        )


class TestFractionOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        side=st.integers(2, 16),
        max_regions=st.integers(1, 12),
        t=st.sampled_from([0.5, 0.51, 1, 1.0, Fraction(1, 3), Fraction(2, 3), 1e-9]),
    )
    def test_integer_tests_classify_as_fractions(self, seed, side, max_regions, t):
        table = overlap_table(*random_maps(seed, side, max_regions))
        T = t if isinstance(t, Fraction) else Fraction(str(t))
        expected = hoover_classify_fractions(table.gt_sizes, table.ms_sizes, table.overlaps, T)
        assert classification_tuple(hoover_classify(table, t)) == expected

    def test_exact_threshold_ties_count_as_reached(self):
        # every overlap is exactly T * 9 = 3 at T = 1/3, the gt region's share of each
        t = OverlapTable(gt_sizes={1: 9}, ms_sizes={1: 3, 2: 9, 3: 9}, overlaps={(1, 1): 3, (1, 2): 3, (1, 3): 3})
        c = hoover_classify(t, Fraction(1, 3))
        assert c.correct_pairs == [(1, 1)]
        assert classification_tuple(c) == hoover_classify_fractions(
            t.gt_sizes, t.ms_sizes, t.overlaps, Fraction(1, 3)
        )


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_swap_symmetry_on_generic_tables(self, seed):
        # distinct overlap values keep greedy tie-breaking out of play
        rng = np.random.default_rng(seed)
        n_gt, n_ms = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        overlaps = {}
        values = rng.permutation(1000)[: n_gt * n_ms].tolist()
        vi = 0
        gt_sizes = {i: 0 for i in range(1, n_gt + 1)}
        ms_sizes = {j: 0 for j in range(1, n_ms + 1)}
        for i in range(1, n_gt + 1):
            for j in range(1, n_ms + 1):
                if rng.random() < 0.6:
                    ov = int(values[vi]) + 1
                    vi += 1
                    overlaps[(i, j)] = ov
                    gt_sizes[i] += ov
                    ms_sizes[j] += ov
        gt_sizes = {i: max(s, 1) for i, s in gt_sizes.items()}
        ms_sizes = {j: max(s, 1) for j, s in ms_sizes.items()}
        table = OverlapTable(gt_sizes, ms_sizes, overlaps)
        swapped = OverlapTable(
            dict(ms_sizes), dict(gt_sizes), {(j, i): ov for (i, j), ov in overlaps.items()}
        )
        a = hoover_classify(table, 0.5)
        b = hoover_classify(swapped, 0.5)
        assert sorted((m, g) for g, m in a.correct_pairs) == sorted(b.correct_pairs)
        assert [(m, gs) for m, gs in a.under_instances] == b.over_instances
        assert [(g, ms_) for g, ms_ in a.over_instances] == b.under_instances
        assert a.missed_gt == b.noise_ms
        assert a.noise_ms == b.missed_gt

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_raising_threshold_never_increases_correct(self, seed):
        gt, ms = random_maps(seed)
        table = overlap_table(gt, ms)
        if not table.gt_sizes:
            return
        counts = [
            len(hoover_classify(table, t).correct_pairs)
            for t in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_label_permutation_invariance(self, seed):
        gt, ms = random_maps(seed)
        table = overlap_table(gt, ms)
        if not table.gt_sizes:
            return
        rng = np.random.default_rng(seed + 1)
        perm = rng.permutation(np.arange(1, 60)) + 100
        remap = np.concatenate(([0], perm)).astype(np.int32)
        gt2 = LabelMap(remap[gt.labels])
        ms2 = LabelMap(remap[ms.labels])
        s1 = evaluate_segmentation(gt, ms, 0.5)
        s2 = evaluate_segmentation(gt2, ms2, 0.5)
        assert s1.as_floats() == s2.as_floats()
