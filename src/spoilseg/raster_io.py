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

import io
import itertools
import os
import re
import stat
from pathlib import Path

import numpy as np

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


def read_asc_grid(path: str | os.PathLike) -> ScalarGrid:
    """Read an ESRI ASCII grid (header keys case-insensitive, top row first).

    Rows stream from the file into one preallocated array.  Lines end where
    ``str.splitlines`` ends them, and the header ends at the first line that
    starts with a number.  On a file with several faults the error raised is
    the first of: a malformed or duplicate header line, a missing key, a
    non-numeric header value, the row count, the first ragged row, a shape
    below 1x1, the first non-numeric row, the grid's own value check.
    """
    header: dict[str, str] = {}
    # undecodable bytes become lone surrogates, which no number parses
    with open(path, encoding="utf-8", errors="surrogateescape") as stream:
        info = os.fstat(stream.fileno())
        text = stream
        size = info.st_size  # bytes, at least one per character
        if not stat.S_ISREG(info.st_mode):  # a pipe has no size: hold its text to measure it
            text = io.StringIO(stream.read())
            size = len(text.getvalue())
        lines = (part for physical in text for part in physical.splitlines())
        for line in lines:
            first = line.split()  # the first data row once the loop breaks
            if not first:
                continue
            if _is_number(first[0]):
                break
            if len(first) != 2:
                raise FormatError(f"malformed header line: {line!r}")
            key = first[0].lower()
            if key in header:
                raise FormatError(f"duplicate header key {key}")
            header[key] = first[1]
        else:
            first = []  # no data row

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
        rows = 0
        ragged: tuple[int, int] | None = None  # (row, tokens) of the first ragged row
        bad_row: int | None = None  # first row with a non-numeric token
        for parts in itertools.chain([first], map(str.split, lines)):
            if not parts:
                continue
            r = rows
            rows += 1
            if ragged is not None:  # only the row count can still win
                continue
            if len(parts) != ncols:
                ragged = (r, len(parts))
            elif bad_row is None and values is not None and r < nrows:
                try:
                    values[r] = list(map(float, parts))
                except ValueError:
                    bad_row = r

    if rows != nrows:
        raise FormatError(f"expected {nrows} data rows, got {rows}")
    if ragged is not None:
        raise FormatError(f"row {ragged[0]} has {ragged[1]} tokens, expected {ncols}")
    if nrows < 1 or ncols < 1:
        raise FormatError(f"grid must be at least 1x1, header declares {ncols}x{nrows}")
    if bad_row is not None:
        raise FormatError(f"non-numeric token in row {bad_row}")
    try:
        return ScalarGrid(values, cellsize=cellsize, nodata=nodata)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_asc_grid(grid: ScalarGrid, path: str | os.PathLike) -> None:
    """Write an ESRI ASCII grid row by row; float values use shortest
    round-trip notation."""
    header = [
        f"ncols {grid.width}",
        f"nrows {grid.height}",
        "xllcorner 0.0",
        "yllcorner 0.0",
        f"cellsize {float(grid.cellsize)!r}",
    ]
    if grid.nodata is not None:
        header.append(f"NODATA_value {float(grid.nodata)!r}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(header) + "\n")
        for row in grid.values:
            f.write(" ".join(map(repr, row.tolist())) + "\n")
