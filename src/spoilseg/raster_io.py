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
import os
import stat
from pathlib import Path

import numpy as np

from .grids import GrayImage, LabelMap, RasterRGB, ScalarGrid

_WHITESPACE = b" \t\n\r\x0b\x0c"


class FormatError(ValueError):
    """Raised when a raster file violates its format contract."""


def _read_header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Collect `count` whitespace-separated header tokens, skipping comments.

    Returns the tokens and the offset one byte past the final token.
    """
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < count:
        while pos < len(data) and data[pos] in _WHITESPACE:
            pos += 1
        if pos >= len(data):
            raise FormatError("truncated header")
        if data[pos] == ord("#"):
            nl = data.find(b"\n", pos)
            if nl == -1:
                raise FormatError("truncated header")
            pos = nl + 1
            continue
        end = pos
        while end < len(data) and data[end] not in _WHITESPACE and data[end] != ord("#"):
            end += 1
        tokens.append(data[pos:end])
        pos = end
    return tokens, pos


def _parse_netpbm_header(data: bytes, magic: bytes) -> tuple[int, int, int, int]:
    """Parse a netpbm header, returning (width, height, maxval, payload offset)."""
    tokens, pos = _read_header_tokens(data, 4)
    if tokens[0] != magic:
        raise FormatError(f"bad magic {tokens[0]!r}, expected {magic.decode()}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise FormatError("non-numeric header field") from None
    if width < 1 or height < 1:
        raise FormatError("image dimensions must be positive")
    # exactly one whitespace byte separates the maxval from the payload
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise FormatError("missing separator before pixel payload")
    return width, height, maxval, pos + 1


def read_ppm(path: str | os.PathLike) -> RasterRGB:
    """Read a binary PPM (P6, maxval 255) into an RGB raster."""
    data = Path(path).read_bytes()
    width, height, maxval, offset = _parse_netpbm_header(data, b"P6")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, expected 255")
    need = width * height * 3
    if len(data) - offset < need:
        raise FormatError(f"truncated pixel payload: expected {need} bytes, got {len(data) - offset}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=offset).reshape(height, width, 3)
    return RasterRGB(pixels.copy())  # a writable array that does not hold the file's bytes


def write_ppm(img: RasterRGB, path: str | os.PathLike) -> None:
    """Write an RGB raster as binary PPM (P6, maxval 255)."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.pixels.tobytes())


def read_pgm16(path: str | os.PathLike) -> LabelMap:
    """Read a binary PGM (P5, maxval 65535, big-endian) as a label map."""
    data = Path(path).read_bytes()
    width, height, maxval, offset = _parse_netpbm_header(data, b"P5")
    if maxval != 65535:
        raise FormatError(f"unsupported maxval {maxval}, expected 65535")
    need = width * height * 2
    if len(data) - offset < need:
        raise FormatError(f"truncated pixel payload: expected {need} bytes, got {len(data) - offset}")
    labels = np.frombuffer(data, dtype=">u2", count=need // 2, offset=offset).reshape(height, width)
    return LabelMap(labels.astype(np.int32))


def write_pgm16(label_map: LabelMap, path: str | os.PathLike) -> None:
    """Write a label map as binary PGM (P5, maxval 65535, big-endian).

    Labels above 65535 do not fit the sample width; relabel first.
    """
    if label_map.labels.max(initial=0) > 65535:
        raise FormatError("label exceeds 16-bit range; relabel before writing")
    header = f"P5\n{label_map.width} {label_map.height}\n65535\n".encode("ascii")
    payload = label_map.labels.astype(">u2").tobytes()
    Path(path).write_bytes(header + payload)


def read_gray_pgm16(path: str | os.PathLike) -> GrayImage:
    """Read a PGM16 whose samples are 8-bit gray values (0..255)."""
    m = read_pgm16(path)
    if m.labels.max(initial=0) > 255:
        raise FormatError("sample exceeds 8-bit gray range")
    return GrayImage(m.labels.astype(np.uint8))


def write_gray_pgm16(img: GrayImage, path: str | os.PathLike) -> None:
    """Store an 8-bit gray image in the PGM16 carrier."""
    write_pgm16(LabelMap(img.values.astype(np.int32)), path)


_ASC_REQUIRED = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _asc_shape(header: dict[str, str]) -> tuple[int, int, float, float | None]:
    """The (nrows, ncols, cellsize, nodata) a finished header declares."""
    for key in _ASC_REQUIRED:
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
    return nrows, ncols, cellsize, nodata


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
    shape = None  # set when the first data row closes the header
    values = None
    rows = 0
    ragged: tuple[int, int] | None = None  # (row, tokens) of the first ragged row
    bad_row: int | None = None  # first row with a non-numeric token
    with open(path) as stream:
        info = os.fstat(stream.fileno())
        text = stream
        size = info.st_size  # bytes, at least one per character
        if not stat.S_ISREG(info.st_mode):  # a pipe has no size: hold its text to measure it
            text = io.StringIO(stream.read())
            size = len(text.getvalue())
        max_cells = (size + 1) // 2  # tokens need one character each, one between any two
        for line in (part for physical in text for part in physical.splitlines()):
            parts = line.split()
            if not parts:
                continue
            if shape is None:
                if not _is_number(parts[0]):
                    if len(parts) != 2:
                        raise FormatError(f"malformed header line: {line!r}")
                    key = parts[0].lower()
                    if key in header:
                        raise FormatError(f"duplicate header key {key}")
                    header[key] = parts[1]
                    continue
                shape = _asc_shape(header)
                nrows, ncols = shape[:2]
                # a shape the file cannot hold fails the row or token count below
                if 1 <= nrows and 1 <= ncols and nrows * ncols <= max_cells:
                    values = np.empty((nrows, ncols), dtype=np.float64)
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

    nrows, ncols, cellsize, nodata = shape if shape is not None else _asc_shape(header)
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
    if grid.cellsize is None:
        raise FormatError("grid has no cellsize")
    header = [
        f"ncols {grid.width}",
        f"nrows {grid.height}",
        "xllcorner 0.0",
        "yllcorner 0.0",
        f"cellsize {grid.cellsize!r}",
    ]
    if grid.nodata is not None:
        header.append(f"NODATA_value {float(grid.nodata)!r}")
    with open(path, "w") as f:
        f.write("\n".join(header) + "\n")
        for row in grid.values:
            f.write(" ".join(map(repr, row.tolist())) + "\n")
