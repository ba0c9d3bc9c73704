"""Bit-exact readers and writers for the raster interchange formats.

Three formats are supported:

* binary PPM (``P6``, maxval 255) for RGB imagery,
* binary PGM (``P5``, maxval 65535, big-endian samples) for label maps and
  8-bit gray carriers,
* ESRI ASCII grid for floating-point surface models.

Write-then-read reproduces every value exactly, nodata and cellsize included.
Header comment lines starting with ``#`` are accepted and skipped in the
netpbm formats.
"""

from __future__ import annotations

import functools
import io
import mmap
import os
import re
import stat
from pathlib import Path

import numpy as np

from ._fork import fork_map, worker_count
from .grids import GrayImage, LabelMap, RasterRGB, ScalarGrid

# one header token, after any whitespace and whole "#" comment lines
_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*\n)*([^ \t\n\r\x0b\x0c#]+)")


class FormatError(ValueError):
    """Raised when a raster file violates its format contract."""


def _read_netpbm(path: str | os.PathLike, magic: bytes, maxval: int, channels: int, dtype: str) -> np.ndarray:
    """The (height, width[, channels]) samples of a binary netpbm file, a
    read-only view of its bytes."""
    data = Path(path).read_bytes()
    tokens, pos = [], 0
    for _ in range(4):  # magic, width, height, maxval
        match = _TOKEN.match(data, pos)
        if match is None:
            raise FormatError("truncated header")
        tokens.append(match[1])
        pos = match.end()
    if tokens[0] != magic:
        raise FormatError(f"bad magic {tokens[0]!r}, expected {magic.decode()}")
    try:
        width, height, declared = map(int, tokens[1:])
    except ValueError:
        raise FormatError("non-numeric header field") from None
    if width < 1 or height < 1:
        raise FormatError("image dimensions must be positive")
    # exactly one whitespace byte separates the maxval from the payload; bytes.isspace
    # holds for the six the regex skips, and not for the empty slice past the end
    if not data[pos : pos + 1].isspace():
        raise FormatError("missing separator before pixel payload")
    if declared != maxval:
        raise FormatError(f"unsupported maxval {declared}, expected {maxval}")
    count = width * height * channels
    need = count * np.dtype(dtype).itemsize
    got = len(data) - pos - 1
    if got < need:
        raise FormatError(f"truncated pixel payload: expected {need} bytes, got {got}")
    shape = (height, width, channels) if channels > 1 else (height, width)
    return np.frombuffer(data, dtype=dtype, count=count, offset=pos + 1).reshape(shape)


def _write_netpbm(path: str | os.PathLike, magic: str, maxval: int, samples: np.ndarray) -> None:
    """Write a netpbm header, then the samples' bytes in row-major order."""
    payload = np.ascontiguousarray(samples)
    with open(path, "wb") as f:
        f.write(f"{magic}\n{samples.shape[1]} {samples.shape[0]}\n{maxval}\n".encode("ascii"))
        f.write(payload)


def read_ppm(path: str | os.PathLike) -> RasterRGB:
    """Read a binary PPM (P6, maxval 255) into an RGB raster."""
    # a writable array that does not hold the file's bytes
    return RasterRGB(_read_netpbm(path, b"P6", 255, 3, "u1").copy())


def write_ppm(img: RasterRGB, path: str | os.PathLike) -> None:
    """Write an RGB raster as binary PPM (P6, maxval 255)."""
    _write_netpbm(path, "P6", 255, img.pixels)


def read_pgm16(path: str | os.PathLike) -> LabelMap:
    """Read a binary PGM (P5, maxval 65535, big-endian) as a label map."""
    return LabelMap(_read_netpbm(path, b"P5", 65535, 1, ">u2").astype(np.int32))


def write_pgm16(label_map: LabelMap, path: str | os.PathLike) -> None:
    """Write a label map as binary PGM (P5, maxval 65535, big-endian).

    Labels above 65535 do not fit the sample width; ``FormatError`` names the top one.
    """
    if (top := label_map.labels.max(initial=0)) > 65535:
        raise FormatError(f"label {top} does not fit a 16-bit PGM, which holds labels up to 65535")
    _write_netpbm(path, "P5", 65535, label_map.labels.astype(">u2"))


def read_gray_pgm16(path: str | os.PathLike) -> GrayImage:
    """Read a PGM16 whose samples are 8-bit gray values (0..255)."""
    samples = _read_netpbm(path, b"P5", 65535, 1, ">u2")
    if samples.max(initial=0) > 255:
        raise FormatError("sample exceeds 8-bit gray range")
    return GrayImage(samples.astype(np.uint8))


def write_gray_pgm16(img: GrayImage, path: str | os.PathLike) -> None:
    """Store an 8-bit gray image in the PGM16 carrier."""
    _write_netpbm(path, "P5", 65535, img.values.astype(">u2"))


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


# Cells from which an ASC grid is read or written in row bands, one per
# usable core.  A cell takes about 0.35 us to parse and 0.6 us to print, and
# a map's fork and join about 10 ms.  One band -> two, medians of 11 calls
# on a 2-core host: read 256^2 24 -> 26-35 ms, 362^2 46 -> 36 ms, 512^2
# 89 -> 61 ms; write 362^2 81 -> 65-80 ms, 512^2 160 -> 117-157 ms.
_BAND_CELLS = 1 << 17
# Bytes read at a time: an ASC file's physical reads, each cut search and
# each read-back of a band's mapping (a whole number of pages)
_CHUNK = 1 << 16


def _shared(nbytes: int) -> mmap.mmap:
    """An anonymous mapping, made before a map forks: a band written into it
    in a worker is read by the caller without being pickled back."""
    return mmap.mmap(-1, max(nbytes, 1))  # a mapping cannot be empty


def _drain(shared: mmap.mmap, size: int):
    """The first ``size`` bytes of a band's mapping, ``_CHUNK`` bytes at a
    time.  The pages of each chunk leave the caller's resident memory once
    the next is asked for, and come back from the mapping if touched again,
    so reading a band back adds at most one chunk to it."""
    view = memoryview(shared)
    for start in range(0, size, _CHUNK):
        yield view[start : min(start + _CHUNK, size)]
        page = start - start % mmap.PAGESIZE  # a chunk shorter than a page starts inside one
        shared.madvise(mmap.MADV_DONTNEED, page, min(start + _CHUNK, size) - page)


def _stream_lines(stream, size: int):
    """The lines of the next ``size`` bytes of a binary stream, each with its
    end, as ``str.splitlines`` ends them; bytes that are not UTF-8 become
    lone surrogates, which no number parses.  A read takes at most ``_CHUNK``
    bytes, up to a LF; one that stops mid-line is cut just past its last CR,
    and the rest is carried into the next, so no read splits a character.
    """
    carry = bytearray()  # the bytes of a line not yet ended
    while size > 0 and (piece := stream.readline(min(size, _CHUNK))):
        size -= len(piece)
        if size and len(piece) == _CHUNK and not piece.endswith(b"\n"):  # stopped mid-line
            carry += piece
            cut = carry.rfind(b"\r", len(carry) - len(piece)) + 1  # the carry before held no CR
            piece = carry[:cut]
            del carry[:cut]
        elif carry:
            piece, carry = carry + piece, bytearray()
        yield from piece.decode("utf-8", "surrogateescape").splitlines(True)
    yield from carry.decode("utf-8", "surrogateescape").splitlines(True)


def _asc_header(stream, size: int) -> tuple[dict[str, str], int]:
    """An ASC stream's header fields, and the byte offset of its first data
    row: the first line that starts with a number (``size`` if none does)."""
    header: dict[str, str] = {}
    offset = 0
    for line in _stream_lines(stream, size):
        parts = line.split()
        if parts:
            if _is_number(parts[0]):
                return header, offset
            if len(parts) != 2:
                raise FormatError(f"malformed header line: {line.splitlines()[0]!r}")
            key = parts[0].lower()
            if key in header:
                raise FormatError(f"duplicate header key {key}")
            header[key] = parts[1]
        offset += len(line.encode("utf-8", "surrogateescape"))
    return header, offset


def _asc_rows(lines, out: np.ndarray | None, ncols: int) -> tuple[int, tuple[int, int] | None, int | None]:
    """Parse data lines into the rows of ``out``: the row count, the (row,
    tokens) of the first ragged row and the first non-numeric row, counted
    from 0.

    Rows past ``out``'s length are counted, not stored; after a non-numeric
    row nothing more is stored, and after a ragged one rows are only counted.
    """
    rows = 0
    ragged: tuple[int, int] | None = None
    bad_row: int | None = None
    room = 0 if out is None else len(out)
    for parts in map(str.split, lines):
        if not parts:
            continue
        r = rows
        rows += 1
        if ragged is not None:  # only the row count can still win
            continue
        if len(parts) != ncols:
            ragged = (r, len(parts))
        elif bad_row is None and r < room:
            try:
                out[r] = parts  # each token parsed as float() parses it
            except ValueError:
                bad_row = r
    return rows, ragged, bad_row


def read_asc_grid(path: str | os.PathLike) -> ScalarGrid:
    """Read an ESRI ASCII grid (header keys case-insensitive, top row first).

    Lines end where ``str.splitlines`` ends them, and the header ends at the
    first line that starts with a number.  On a file with several faults the
    error raised is the first of: a malformed or duplicate header line, a
    missing key, a non-numeric header value, the row count, the first ragged
    row, a shape below 1x1, the first non-numeric row, the grid's own value
    check.

    From ``_BAND_CELLS`` cells the data rows are parsed in byte bands, one
    per usable core.  The header gives the offset of the first data row, and
    each later cut falls just past the end of a line.  Every band seeks to
    its cut and streams its bytes, at most ``_CHUNK`` at a time; band 0 runs
    in the caller and parses into the grid, and every other band parses into
    a shared mapping that the caller copies into place.  A pipe is read
    whole, as one band.
    """
    regular = stat.S_ISREG(os.stat(path).st_mode)
    # a pipe cannot seek, and no later band could open it: hold its bytes
    reopen = functools.partial(open, path, "rb") if regular else functools.partial(io.BytesIO, Path(path).read_bytes())
    with reopen() as stream:
        size = stream.seek(0, io.SEEK_END)  # bytes, at least one per character
        stream.seek(0)
        header, start = _asc_header(stream, size)

        for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
            if key not in header:
                raise FormatError(f"missing header key {key}")
        try:
            ncols = int(header["ncols"])
            nrows = int(header["nrows"])
            for key in ("xllcorner", "yllcorner"):  # checked, not carried into the grid
                float(header[key])
            cellsize = float(header["cellsize"])
            nodata = float(header["nodata_value"]) if "nodata_value" in header else None
        except ValueError:
            raise FormatError("non-numeric header value") from None

        # a shape the file cannot hold fails the row or token count below;
        # tokens need one character each, one between any two
        values = None
        if 1 <= nrows and 1 <= ncols and nrows * ncols <= (size + 1) // 2:
            values = np.empty((nrows, ncols), dtype=np.float64)
        bands = 1  # nothing to parse into, or a pipe
        if values is not None and values.size >= _BAND_CELLS and regular:
            bands = worker_count(nrows)
        # about equal byte shares of the data, each cut moved on to just past a line's end
        cuts = [start]
        for k in range(1, bands):
            stream.seek(at := start + k * (size - start) // bands)
            cuts.append(at + len(next(_stream_lines(stream, size - at), "").encode("utf-8", "surrogateescape")))
        cuts.append(size)
    # each later band parses into a mapping of its own, sized for the rows its bytes can hold
    rooms = [min(nrows, (cuts[k + 1] - cuts[k] + 1) // 2 // ncols) for k in range(1, bands)]
    maps = [_shared(8 * ncols * room) for room in rooms]
    regions = [values] + [np.frombuffer(m, np.float64, len(m) // 8).reshape(-1, ncols) for m in maps]

    def band(k: int) -> tuple[int, tuple[int, int] | None, int | None]:
        with reopen() as own:  # a file offset of its own
            own.seek(cuts[k])
            return _asc_rows(_stream_lines(own, cuts[k + 1] - cuts[k]), regions[k], ncols)

    results = fork_map(band, bands)

    rows = 0
    ragged: tuple[int, int] | None = None  # (row, tokens) of the first ragged row
    bad_row: int | None = None  # first row with a non-numeric token
    for count, band_ragged, band_bad in results:
        if ragged is None and band_ragged is not None:
            ragged = (rows + band_ragged[0], band_ragged[1])
        if bad_row is None and band_bad is not None:
            bad_row = rows + band_bad
        rows += count
    if rows != nrows:
        raise FormatError(f"expected {nrows} data rows, got {rows}")
    if ragged is not None:
        raise FormatError(f"row {ragged[0]} has {ragged[1]} tokens, expected {ncols}")
    if nrows < 1 or ncols < 1:
        raise FormatError(f"grid must be at least 1x1, header declares {ncols}x{nrows}")
    if bad_row is not None:
        raise FormatError(f"non-numeric token in row {bad_row}")
    grid_bytes = memoryview(values).cast("B")
    at = 8 * ncols * results[0][0]
    for shared, (count, _, _) in zip(maps, results[1:]):
        for chunk in _drain(shared, 8 * ncols * count):
            grid_bytes[at : at + len(chunk)] = chunk
            at += len(chunk)
    try:
        return ScalarGrid(values, cellsize=cellsize, nodata=nodata)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_asc_grid(grid: ScalarGrid, path: str | os.PathLike) -> None:
    """Write an ESRI ASCII grid; float values use shortest round-trip
    notation.

    From ``_BAND_CELLS`` cells the rows are printed in row bands, one per
    usable core.  Band 0 runs in the caller and streams its rows to the
    file; every other band prints its rows into a shared mapping, whose
    bytes the caller then writes after band 0's, in band order.
    """
    values = grid.values
    height, width = values.shape
    bands = worker_count(height) if values.size >= _BAND_CELLS else 1
    bounds = [k * height // bands for k in range(bands + 1)]
    header = [
        f"ncols {grid.width}",
        f"nrows {grid.height}",
        "xllcorner 0.0",
        "yllcorner 0.0",
        f"cellsize {float(grid.cellsize)!r}",
    ]
    if grid.nodata is not None:
        header.append(f"NODATA_value {float(grid.nodata)!r}")
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode())
        # the longest float repr has 24 characters, and a separator follows each
        sinks = [f] + [_shared(25 * width * (bounds[k + 1] - bounds[k])) for k in range(1, bands)]

        def band(k: int) -> int:
            sink = sinks[k]
            for row in values[bounds[k] : bounds[k + 1]]:
                sink.write((" ".join(map(repr, row.tolist())) + "\n").encode())
            return sink.tell()

        ends = fork_map(band, bands)
        for shared, end in zip(sinks[1:], ends[1:]):
            for chunk in _drain(shared, end):
                f.write(chunk)
