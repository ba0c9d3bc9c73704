"""Acceptance criteria: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import exhaustive_otsu, nearest_seed_labels
from spoilseg import (
    GrayImage,
    HillshadeParams,
    LabelMap,
    LabImage,
    MeanShiftParams,
    RasterRGB,
    ScalarGrid,
    SeedSet,
    SlicParams,
    StretchParams,
    SweepConfig,
    hillshade,
    hoover_bruteforce,
    hoover_classify,
    hoover_scores,
    mean_shift_segment,
    otsu_threshold,
    overlap_table,
    quantize8,
    read_asc_grid,
    read_pgm16,
    read_ppm,
    run_sweep,
    sigmoidal_stretch,
    slic,
    synth_pilefield,
    voronoi_label,
    write_asc_grid,
    write_gray_pgm16,
    write_pgm16,
    write_ppm,
)
from spoilseg.slic import _seed_centers, slic_assign
from spoilseg.sweep import report_csv, report_json


def _line(n: int, description: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n}: {description}")


@pytest.fixture(scope="module")
def sigma_sweep(tmp_path_factory):
    """The full sigma sweep on the pinned fixture, run once and timed."""
    root = tmp_path_factory.mktemp("acc_sweep")
    dsm, gt = synth_pilefield(300, 300, 9, 8.0, 42)
    img8 = quantize8(sigmoidal_stretch(dsm, StretchParams(3.0, 2.0)))
    hs_path, gt_path = root / "in.pgm", root / "gt.pgm"
    write_gray_pgm16(img8, hs_path)
    write_pgm16(gt, gt_path)
    cfg = SweepConfig(
        algorithm="voronoi",
        grid={"sigma": [1.0, 12.0, 60.0]},
        ground_truth=str(gt_path),
        hillshade=str(hs_path),
        threshold=0.5,
    )
    start = time.perf_counter()
    report = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    return cfg, report, elapsed


def random_overlap_instance(rng) -> tuple:
    side = 8
    n_gt = int(rng.integers(1, 7))
    n_ms = int(rng.integers(0, 7))
    gt = rng.integers(0, n_gt + 1, size=(side, side)).astype(np.int32)
    ms = rng.integers(0, n_ms + 1, size=(side, side)).astype(np.int32)
    return LabelMap(gt), LabelMap(ms)


def test_criterion_1_hoover_oracle_equivalence():
    description = "hoover_classify == hoover_bruteforce on 1000 random instances, T in {0.5, 0.51, 0.8}"
    ok = False
    try:
        rng = np.random.default_rng(20240001)
        start = time.perf_counter()
        tested = 0
        while tested < 1000:
            gt, ms = random_overlap_instance(rng)
            table = overlap_table(gt, ms)
            if not table.gt_sizes:
                continue
            tested += 1
            for t in (0.5, 0.51, 0.8):
                a = hoover_classify(table, t)
                b = hoover_bruteforce(table, t)
                assert (
                    a.correct_pairs == b.correct_pairs
                    and a.over_instances == b.over_instances
                    and a.under_instances == b.under_instances
                    and a.missed_gt == b.missed_gt
                    and a.noise_ms == b.noise_ms
                ), f"disagreement at instance {tested}, T={t}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s, limit 10s"
        ok = True
    finally:
        _line(1, description, ok)


def test_criterion_2_score_decomposition():
    description = "correct + over + under + missed == 1 exactly on every evaluation"
    ok = False
    try:
        rng = np.random.default_rng(20240002)
        for _ in range(200):
            gt, ms = random_overlap_instance(rng)
            table = overlap_table(gt, ms)
            if not table.gt_sizes:
                continue
            for t in (0.5, 0.51, 0.8):
                c = hoover_classify(table, t)
                s = hoover_scores(c, len(table.gt_sizes), len(table.ms_sizes), t)
                total = s.correct_detection + s.over_segmentation + s.under_segmentation + s.missed
                assert total == Fraction(1)
                assert all(
                    0 <= v <= 1
                    for v in (
                        s.correct_detection,
                        s.over_segmentation,
                        s.under_segmentation,
                        s.missed,
                        s.noise,
                    )
                )
        ok = True
    finally:
        _line(2, description, ok)


def test_criterion_3_otsu_exhaustive():
    description = "Otsu equals the exhaustive 256-threshold argmax on 100 random images"
    ok = False
    try:
        rng = np.random.default_rng(20240003)
        for _ in range(100):
            vals = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
            if np.unique(vals).size < 2:
                vals[0, 0] = 0
                vals[0, 1] = 255
            t, _ = otsu_threshold(GrayImage(vals))
            assert t == exhaustive_otsu(vals)
        ok = True
    finally:
        _line(3, description, ok)


def test_criterion_4_voronoi_label_bruteforce():
    description = "voronoi_label equals brute-force nearest seed on 50 random 64x64 seed sets"
    ok = False
    try:
        rng = np.random.default_rng(20240004)
        for _ in range(50):
            n = int(rng.integers(2, 16))
            coords = rng.choice(64 * 64, size=n, replace=False)
            xs, ys = (coords % 64).astype(int), (coords // 64).astype(int)
            seeds = SeedSet(xs, ys, np.ones(n, dtype=int))
            ours = voronoi_label(seeds, 64, 64)
            oracle = nearest_seed_labels(list(zip(xs.tolist(), ys.tolist())), 64, 64)
            assert np.array_equal(ours.labels, oracle)
        ok = True
    finally:
        _line(4, description, ok)


def test_criterion_5_sigma_sweep_end_to_end(sigma_sweep):
    description = (
        "sigma sweep {1,12,60} on the 9-bump fixture: optimum 12, CD>=0.9 at 12, "
        "CD<0.9 at extremes, under-segmentation>0 at 60, <30s"
    )
    ok = False
    try:
        _, report, elapsed = sigma_sweep
        rows = {row.params["sigma"]: row.scores for row in report.rows}
        assert elapsed < 30.0, f"sweep took {elapsed:.1f}s, limit 30s"
        assert report.optimum.params == {"sigma": 12.0}, "optimum is not sigma=12"
        assert rows[12.0].correct_detection >= Fraction(9, 10)
        assert rows[1.0].correct_detection < Fraction(9, 10)
        assert rows[60.0].correct_detection < Fraction(9, 10)
        assert rows[60.0].under_segmentation > 0, (
            "no under-segmentation instance at sigma=60: the merged foreground "
            "region is far larger than twice the covered ground-truth area, so "
            "the Hoover condition 'sum of overlaps >= T x |machine region|' "
            "cannot hold at T=0.5 for 2-sigma ground-truth disks on a grid "
            "with centers >= 6 sigma apart (fill ceiling pi/9 < 0.5)"
        )
        ok = True
    finally:
        _line(5, description, ok)


def test_criterion_6_slic_structure():
    description = "SLIC uniform 100x100 k=100: connected regions, sane count/areas; assignment exhaustive on 32x32"
    ok = False
    try:
        lab = np.zeros((100, 100, 3))
        lab[..., 0] = 50.0
        seg = slic(LabImage(lab), SlicParams(superpixels=100, compactness=10))
        k = seg.region_count()
        assert 50 <= k <= 200, f"region count {k} outside [50, 200]"
        sizes = np.array(list(seg.region_sizes().values()))
        assert abs(sizes.mean() - 100.0) <= 50.0
        from oracles import flood_fill_components

        for label in seg.label_ids():
            mask = (seg.labels == label).astype(np.int32)
            assert flood_fill_components(mask).max() == 1, f"region {label} disconnected"

        rng = np.random.default_rng(20240006)
        base = rng.uniform(20, 80, size=(4, 4))
        values = np.kron(base, np.ones((8, 8)))
        lab32 = np.zeros((32, 32, 3))
        lab32[..., 0] = values
        step, m = 8, 10.0
        centers = _seed_centers(lab32, step)
        assign = slic_assign(lab32, centers, step, m)
        for y in range(32):
            for x in range(32):
                d_lab2 = ((centers[:, :3] - lab32[y, x]) ** 2).sum(axis=1)
                d_xy2 = (centers[:, 3] - x) ** 2 + (centers[:, 4] - y) ** 2
                assert assign[y, x] == int(np.argmin(d_lab2 + d_xy2 * (m / step) ** 2))
        ok = True
    finally:
        _line(6, description, ok)


def test_criterion_7_mean_shift_degenerate_suite():
    description = "mean shift: constant -> 1 region, two tones -> 2 regions, 3px speck absorbed at M=10"
    ok = False
    try:
        constant = RasterRGB(np.full((8, 8, 3), 42, dtype=np.uint8))
        assert mean_shift_segment(constant, MeanShiftParams(2, 10, 4)).region_count() == 1

        px = np.zeros((6, 10, 3), dtype=np.uint8)
        px[:, 5:] = 200  # tone gap 200*sqrt(3) DN, far beyond the range radius
        halves = mean_shift_segment(RasterRGB(px), MeanShiftParams(2, 30, 5))
        assert halves.region_count() == 2

        speck = np.full((20, 20, 3), 60, dtype=np.uint8)
        speck[9, 9:12] = 200
        seg = mean_shift_segment(RasterRGB(speck), MeanShiftParams(2, 20, 10))
        assert seg.region_count() == 1
        ok = True
    finally:
        _line(7, description, ok)


def test_criterion_8_hillshade_analytics():
    description = "flat DSM at altitude 45 -> sin(45) within 1e-9; invariant under DSM + constant"
    ok = False
    try:
        flat = ScalarGrid(np.full((12, 12), 3.25))
        out = hillshade(flat, HillshadeParams(altitude=45.0))
        assert np.allclose(out.values, math.sin(math.radians(45.0)), atol=1e-9)

        rng = np.random.default_rng(20240008)
        base = rng.normal(size=(15, 15))
        a = hillshade(ScalarGrid(base))
        b = hillshade(ScalarGrid(base + 777.0))
        assert np.allclose(a.values, b.values, atol=1e-9)
        ok = True
    finally:
        _line(8, description, ok)


def test_criterion_9_format_round_trips(tmp_path):
    description = "PPM, PGM16 and ASC write-then-read identity, bit-exact, randomized"
    ok = False
    try:
        rng = np.random.default_rng(20240009)
        for i in range(10):
            h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))

            img = RasterRGB(rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8))
            p = tmp_path / f"a{i}.ppm"
            write_ppm(img, p)
            assert np.array_equal(read_ppm(p).pixels, img.pixels)

            m = LabelMap(rng.integers(0, 65536, size=(h, w)).astype(np.int32))
            p = tmp_path / f"b{i}.pgm"
            write_pgm16(m, p)
            assert np.array_equal(read_pgm16(p).labels, m.labels)

            vals = rng.normal(scale=10.0 ** rng.integers(-6, 7), size=(h, w))
            nodata = None
            if rng.random() < 0.5:
                nodata = -12345.0
                vals[rng.random((h, w)) < 0.2] = nodata
            grid = ScalarGrid(vals, cellsize=float(rng.uniform(0.01, 5.0)), nodata=nodata)
            p = tmp_path / f"c{i}.asc"
            write_asc_grid(grid, p)
            back = read_asc_grid(p)
            assert np.array_equal(back.values, grid.values)
            assert back.cellsize == grid.cellsize and back.nodata == grid.nodata
        ok = True
    finally:
        _line(9, description, ok)


def test_criterion_10_sweep_determinism(sigma_sweep):
    description = "two runs of the full sigma sweep emit byte-identical CSV and JSON"
    ok = False
    try:
        cfg, first, _ = sigma_sweep
        second = run_sweep(cfg)
        assert report_csv(first) == report_csv(second)
        assert report_json(first) == report_json(second)
        ok = True
    finally:
        _line(10, description, ok)
