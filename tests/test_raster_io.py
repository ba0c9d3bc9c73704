"""Format readers/writers: worked examples, error reporting, round-trips."""

import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    AscFormatError,
    NetpbmFormatError,
    flood_fill_components,
    read_asc_whole,
    read_netpbm_loop,
    zero_small_regions,
)
from spoilseg import (
    FormatError,
    GrayImage,
    LabelMap,
    RasterRGB,
    ScalarGrid,
    drop_small_regions,
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


# line ends str.splitlines honours, and cells that reach every branch of float()
_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_CELLS = ["0", "1.5", "-2", "1e-320", "1_0", "\u0663", "nan", "-inf", "1e400", "oops", "0x10", "1__0"]
_HEADER_VALUES = ["0", "1", "2", "-1", "0.5", "1_0", "nan", "inf", "abc", str(10**12)]


@st.composite
def asc_texts(draw) -> str:
    """ASC-like text: a header with optional faults, then rows that may be
    too few, too many, ragged or non-numeric, joined by any line end."""
    ncols, nrows = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    header = {"ncols": str(ncols), "nrows": str(nrows), "xllcorner": "0", "yllcorner": "0", "cellsize": "1"}
    if draw(st.booleans()):
        header["NODATA_value"] = draw(st.sampled_from(["-9999", "0.5", "nan", "x"]))
    for key in draw(st.lists(st.sampled_from(sorted(header)), max_size=2)):
        if draw(st.booleans()):
            header.pop(key, None)
        else:
            header[key] = draw(st.sampled_from(_HEADER_VALUES))
    lines = [f"{k} {v}" for k, v in header.items()]
    lines = draw(st.permutations(lines))
    rows = [
        " ".join(draw(st.lists(st.sampled_from(_CELLS[:6] * 10 + _CELLS[6:]), min_size=ncols, max_size=ncols)))
        for _ in range(nrows + draw(st.sampled_from([0, 0, 0, -1, 1])))
    ]
    lines += rows
    spoilers = ["", "  ", "ncols 3", "nrows", "cellsize 1 2", "1 2 3 4 5", " ".join(_CELLS[6:])]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(spoilers)))
    text = "".join(line + draw(st.sampled_from(_LINE_ENDS)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip()


# netpbm header pieces: each whitespace byte, comments (one holding a carriage
# return, which does not end it), both magics, numbers, and two bytes that
# str.split takes for whitespace but netpbm does not
_SPACES = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"# c\n", b"# 1\r2\n"]
_HEADER_PIECES = _SPACES + [b"P5", b"P6", b"0", b"1", b"2", b"-1", b"255", b"65535", b"\x85", b"\x1c"]


@st.composite
def netpbm_files(draw) -> bytes:
    """Header-like bytes and a payload: either pieces in any order, or the
    four header fields with runs of spaces and comments between them."""
    if draw(st.integers(0, 3)) == 0:
        header = b"".join(draw(st.lists(st.sampled_from(_HEADER_PIECES), max_size=12)))
    else:  # mostly plain whitespace, so that many headers are whole
        spaces = _SPACES[:6] * 4 + _SPACES[6:] + [b"\x85"]
        gap = st.lists(st.sampled_from(spaces), min_size=1, max_size=2).map(b"".join)
        fields = [st.sampled_from([b"P5", b"P6"]), *[st.sampled_from([b"1", b"2", b"1", b"2", b"0", b"x"])] * 2]
        fields.append(st.sampled_from([b"255", b"65535", b"7"]))
        header = b"".join(draw(gap) + draw(f) for f in fields) + draw(gap)
    return header + draw(st.binary(max_size=30))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=netpbm_files())
def test_netpbm_readers_match_the_byte_loop_oracle(tmp_path, data):
    """Header tokens, payload offset and first fault agree with the byte-by-byte header loop."""
    path = tmp_path / "any.pnm"
    path.write_bytes(data)
    for read, magic, maxval, channels, dtype in [
        (lambda p: read_ppm(p).pixels, b"P6", 255, 3, "u1"),
        (lambda p: read_pgm16(p).labels[..., None], b"P5", 65535, 1, ">u2"),
    ]:
        try:
            expected = read_netpbm_loop(data, magic, maxval, channels, dtype)
        except NetpbmFormatError as exc:
            with pytest.raises(FormatError) as info:
                read(path)
            assert str(info.value) == str(exc)
            continue
        got = read(path)
        assert got.shape == expected.shape and np.array_equal(got, expected)


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
        with pytest.raises(FormatError, match="^truncated pixel payload: expected 12 bytes, got 11$"):
            read_ppm(path)

    def test_bytes_after_the_payload_are_ignored(self, tmp_path):
        path = tmp_path / "long.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([1, 2, 3, 4, 5]))
        assert read_ppm(path).pixels.tolist() == [[[1, 2, 3]]]

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
        with pytest.raises(FormatError, match="^truncated pixel payload: expected 8 bytes, got 7$"):
            read_pgm16(path)

    def test_bytes_after_the_payload_are_ignored(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n" + bytes([0, 1, 1, 0, 9]))
        assert read_pgm16(path).labels.tolist() == [[1, 256]]

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

    def test_writer_text(self, tmp_path):
        grid = ScalarGrid(np.array([[0.1, -2.0], [1e-300, 5.0]]), cellsize=0.25, nodata=5.0)
        path = tmp_path / "w.asc"
        write_asc_grid(grid, path)
        assert path.read_bytes() == (
            b"ncols 2\nnrows 2\nxllcorner 0.0\nyllcorner 0.0\ncellsize 0.25\nNODATA_value 5.0\n"
            b"0.1 -2.0\n1e-300 5.0\n"
        )

    @settings(
        max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(text=asc_texts())
    def test_matches_whole_text_oracle(self, tmp_path, text):
        path = tmp_path / "any.asc"
        path.write_bytes(text.encode("utf-8"))
        try:
            values, cellsize, nodata = read_asc_whole(path)
            expected = ScalarGrid(values, cellsize=cellsize, nodata=nodata)
        except UnicodeDecodeError:  # text the locale cannot decode: any ValueError will do
            with pytest.raises(ValueError):
                read_asc_grid(path)
            return
        except (AscFormatError, ValueError) as exc:
            with pytest.raises(FormatError) as info:
                read_asc_grid(path)
            assert type(info.value) is FormatError and str(info.value) == str(exc)
            return
        got = read_asc_grid(path)
        assert np.array_equal(got.values.view(np.int64), expected.values.view(np.int64))
        assert repr((got.cellsize, got.nodata)) == repr((expected.cellsize, expected.nodata))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("ncols 2\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n4 x\n", "expected 3 data rows, got 2"),
            ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 x\n4 5 6\n", "row 1 has 3 tokens"),
            ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\ncellsize 3\n", "non-numeric token in row 1"),
            ("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 inf\n", "must be finite"),
            ("ncols 0\nnrows 0\nxllcorner 0\nyllcorner 0\ncellsize 1\n", "at least 1x1"),
        ],
        ids=["rows-before-tokens", "ragged-before-non-numeric", "header-after-data", "finite", "empty"],
    )
    def test_first_fault_wins(self, tmp_path, body, message):
        path = tmp_path / "faults.asc"
        path.write_text(body)
        with pytest.raises(FormatError, match=message):
            read_asc_grid(path)

    def test_reads_from_a_pipe(self, tmp_path):
        path = tmp_path / "pipe.asc"
        os.mkfifo(path)
        text = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1.5 2.5\n"
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            assert read_asc_grid(path).values.tolist() == [[1.5, 2.5]]
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "bytes.asc"
        path.write_bytes(b"ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n\xff\xfe\n")
        with pytest.raises(ValueError):
            read_asc_grid(path)


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

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 6),
        st.integers(1, 5),
        st.booleans(),
    )
    def test_matches_flood_fill_oracle(self, seed, h, w, labels, block, background):
        # blocks of one label make long runs that overlap several runs below
        rng = np.random.default_rng(seed)
        coarse = rng.integers(0 if background else 1, labels + 1, size=(-(-h // block), -(-w // block)))
        lab = coarse.repeat(block, 0).repeat(block, 1)[:h, :w].astype(np.int32)
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


class TestDropSmallRegions:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 16),
        st.integers(1, 16),
        st.integers(1, 4),
        st.integers(0, 10),
    )
    def test_equals_relabel_of_the_zeroed_map(self, seed, h, w, block, min_size):
        # blocks of one label give regions of many sizes; a label drawn for
        # several blocks is split into several components
        rng = np.random.default_rng(seed)
        coarse = rng.integers(0, 5, size=(-(-h // block), -(-w // block)))
        m = relabel_connected(LabelMap(coarse.repeat(block, 0).repeat(block, 1)[:h, :w].astype(np.int32)))
        expected = relabel_connected(LabelMap(zero_small_regions(m.labels, min_size)))
        out = drop_small_regions(m, min_size)
        assert out.labels.dtype == expected.labels.dtype
        assert np.array_equal(out.labels, expected.labels)

    def test_label_above_pixel_count_refused(self):
        with pytest.raises(ValueError, match="relabel"):
            drop_small_regions(LabelMap(np.array([[0, 2**24]], dtype=np.int32)), 2)

    def test_all_regions_dropped(self):
        m = relabel_connected(LabelMap(np.array([[1, 0, 2], [1, 0, 2]], dtype=np.int32)))
        out = drop_small_regions(m, 3)
        assert not out.labels.any()
