"""Format readers/writers: worked examples, error reporting, round-trips."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import flood_fill_components
from spoilseg import (
    FormatError,
    GrayImage,
    LabelMap,
    RasterRGB,
    ScalarGrid,
    read_asc_grid,
    read_gray_pgm16,
    read_pgm16,
    read_ppm,
    relabel_connected,
    write_asc_grid,
    write_gray_pgm16,
    write_pgm16,
    write_ppm,
)


class TestPpm:
    def test_single_pixel(self, tmp_path):
        path = tmp_path / "one.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([10, 20, 30]))
        img = read_ppm(path)
        assert (img.width, img.height) == (1, 1)
        assert img.pixels[0, 0].tolist() == [10, 20, 30]

    def test_two_by_two_row_major(self, tmp_path):
        path = tmp_path / "two.ppm"
        payload = bytes(range(12))
        path.write_bytes(b"P6\n2 2\n255\n" + payload)
        img = read_ppm(path)
        assert img.pixels[0, 0].tolist() == [0, 1, 2]
        assert img.pixels[0, 1].tolist() == [3, 4, 5]
        assert img.pixels[1, 0].tolist() == [6, 7, 8]
        assert img.pixels[1, 1].tolist() == [9, 10, 11]

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
        with pytest.raises(FormatError, match="truncated pixel payload"):
            read_ppm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(FormatError, match="maxval"):
            read_ppm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n" + bytes(3))
        with pytest.raises(FormatError, match="magic"):
            read_ppm(path)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "comment.ppm"
        path.write_bytes(b"P6\n# made by hand\n1 1\n# maxval next\n255\n" + bytes([1, 2, 3]))
        assert read_ppm(path).pixels[0, 0].tolist() == [1, 2, 3]

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(w=st.integers(1, 12), h=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, tmp_path, w, h, seed):
        rng = np.random.default_rng(seed)
        img = RasterRGB(rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8))
        path = tmp_path / f"rt_{w}x{h}_{seed}.ppm"
        write_ppm(img, path)
        back = read_ppm(path)
        assert np.array_equal(back.pixels, img.pixels)


class TestPgm16:
    def test_two_samples(self, tmp_path):
        path = tmp_path / "two.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n" + bytes([0, 0, 0, 1]))
        m = read_pgm16(path)
        assert m.labels.ravel().tolist() == [0, 1]

    def test_all_zero_is_background_only(self, tmp_path):
        path = tmp_path / "zeros.pgm"
        path.write_bytes(b"P5\n3 2\n65535\n" + bytes(12))
        m = read_pgm16(path)
        assert m.label_ids().size == 0

    def test_max_label_accepted(self, tmp_path):
        path = tmp_path / "max.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + bytes([0xFF, 0xFF]))
        assert read_pgm16(path).labels[0, 0] == 65535

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "wrong.pgm"
        path.write_bytes(b"P5\n1 1\n255\n" + bytes([7]))
        with pytest.raises(FormatError, match="maxval"):
            read_pgm16(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(7))
        with pytest.raises(FormatError, match="truncated"):
            read_pgm16(path)

    def test_write_single_label_payload(self, tmp_path):
        path = tmp_path / "seven.pgm"
        write_pgm16(LabelMap(np.array([[7]], dtype=np.int32)), path)
        assert path.read_bytes().endswith(b"\x00\x07")

    def test_label_overflow(self, tmp_path):
        big = LabelMap(np.array([[70000]], dtype=np.int32))
        with pytest.raises(FormatError, match="16-bit"):
            write_pgm16(big, tmp_path / "big.pgm")

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(1234)
        m = LabelMap(rng.integers(0, 65536, size=(100, 100)).astype(np.int32))
        path = tmp_path / "rt.pgm"
        write_pgm16(m, path)
        assert np.array_equal(read_pgm16(path).labels, m.labels)

    def test_gray_carrier_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = GrayImage(rng.integers(0, 256, size=(9, 7)).astype(np.uint8))
        path = tmp_path / "gray.pgm"
        write_gray_pgm16(img, path)
        assert np.array_equal(read_gray_pgm16(path).values, img.values)

    def test_gray_carrier_range_check(self, tmp_path):
        path = tmp_path / "wide.pgm"
        write_pgm16(LabelMap(np.array([[300]], dtype=np.int32)), path)
        with pytest.raises(FormatError, match="8-bit"):
            read_gray_pgm16(path)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "comment.pgm"
        path.write_bytes(b"P5\n# label map\n1 1\n65535\n" + bytes([0, 9]))
        assert read_pgm16(path).labels[0, 0] == 9


class TestAscGrid:
    def test_basic_header(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 0.05\n1.5 2.5\n"
        )
        g = read_asc_grid(path)
        assert (g.width, g.height) == (2, 1)
        assert g.cellsize == 0.05
        assert g.values.ravel().tolist() == [1.5, 2.5]

    def test_nodata_flagged(self, tmp_path):
        path = tmp_path / "nd.asc"
        path.write_text(
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            "NODATA_value -9999\n-9999 3.0\n"
        )
        g = read_asc_grid(path)
        assert g.nodata == -9999
        assert g.nodata_mask.ravel().tolist() == [True, False]

    def test_header_keys_case_insensitive(self, tmp_path):
        path = tmp_path / "caps.asc"
        path.write_text(
            "NCOLS 1\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 2.0\n4.0\n"
        )
        assert read_asc_grid(path).cellsize == 2.0

    def test_token_count_error(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text(
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n"
        )
        with pytest.raises(FormatError, match="tokens"):
            read_asc_grid(path)

    @pytest.mark.parametrize(
        "dims, rows, message",
        [("ncols 1000000000000\nnrows 1", "1 2 3\n", "tokens"), ("ncols -1\nnrows 0", "", "1x1")],
        ids=["huge-width", "negative-width"],
    )
    def test_declared_shape_checked_before_allocation(self, tmp_path, dims, rows, message):
        path = tmp_path / "huge.asc"
        path.write_text(f"{dims}\nxllcorner 0\nyllcorner 0\ncellsize 1\n{rows}")
        with pytest.raises(FormatError, match=message):
            read_asc_grid(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("ncols 2\nnrows 1\nxllcorner abc\nyllcorner 0\ncellsize 1", "non-numeric header value"),
            ("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\nNCOLS 3\ncellsize 1", "duplicate header key ncols"),
        ],
        ids=["non-numeric-corner", "duplicate-key"],
    )
    def test_malformed_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "bad_header.asc"
        path.write_text(f"{header}\n1.0 2.0\n")
        with pytest.raises(FormatError, match=message):
            read_asc_grid(path)

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "nokey.asc"
        path.write_text("ncols 1\nnrows 1\ncellsize 1\n1.0\n")
        with pytest.raises(FormatError, match="missing header key"):
            read_asc_grid(path)

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "alpha.asc"
        path.write_text(
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1.0 oops\n"
        )
        with pytest.raises(FormatError, match="non-numeric"):
            read_asc_grid(path)

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        w=st.integers(1, 8),
        h=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        with_nodata=st.booleans(),
    )
    def test_round_trip(self, tmp_path, w, h, seed, with_nodata):
        rng = np.random.default_rng(seed)
        values = rng.normal(scale=1e3, size=(h, w)) * rng.choice([1e-6, 1.0, 1e6])
        nodata = None
        if with_nodata:
            nodata = -99999.0
            values[rng.random((h, w)) < 0.3] = nodata
        grid = ScalarGrid(values, cellsize=float(rng.uniform(0.01, 10)), nodata=nodata)
        path = tmp_path / f"rt_{w}x{h}_{seed}.asc"
        write_asc_grid(grid, path)
        back = read_asc_grid(path)
        assert np.array_equal(back.values, grid.values)
        assert back.cellsize == grid.cellsize
        assert back.nodata == grid.nodata


class TestRelabelConnected:
    def test_split_label_becomes_two(self):
        lab = np.array([[5, 0, 5]], dtype=np.int32)
        out = relabel_connected(LabelMap(lab))
        assert out.labels.ravel().tolist() == [1, 0, 2]

    def test_scan_order_assignment(self):
        lab = np.array([[9, 9, 0], [0, 0, 3]], dtype=np.int32)
        out = relabel_connected(LabelMap(lab))
        assert out.labels.tolist() == [[1, 1, 0], [0, 0, 2]]

    def test_checkerboard_4conn(self):
        yy, xx = np.mgrid[0:6, 0:6]
        lab = ((yy + xx) % 2).astype(np.int32)
        out = relabel_connected(LabelMap(lab))
        assert out.region_count() == 18  # one label per isolated cell

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 20))
    def test_matches_flood_fill_oracle(self, seed, h, w):
        rng = np.random.default_rng(seed)
        lab = rng.integers(0, 4, size=(h, w)).astype(np.int32)
        ours = relabel_connected(LabelMap(lab))
        assert np.array_equal(ours.labels, flood_fill_components(lab))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent_and_background_preserved(self, seed):
        rng = np.random.default_rng(seed)
        lab = rng.integers(0, 5, size=(12, 12)).astype(np.int32)
        once = relabel_connected(LabelMap(lab))
        twice = relabel_connected(once)
        assert np.array_equal(once.labels, twice.labels)
        assert np.array_equal(once.labels == 0, lab == 0)
