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

import os
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
    payload = data[offset : offset + need]
    if len(payload) < need:
        raise FormatError(f"truncated pixel payload: expected {need} bytes, got {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return RasterRGB(pixels.copy())


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
    payload = data[offset : offset + need]
    if len(payload) < need:
        raise FormatError(f"truncated pixel payload: expected {need} bytes, got {len(payload)}")
    labels = np.frombuffer(payload, dtype=">u2").reshape(height, width)
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


def read_asc_grid(path: str | os.PathLike) -> ScalarGrid:
    """Read an ESRI ASCII grid (header keys case-insensitive, top row first)."""
    lines = Path(path).read_text().splitlines()
    header: dict[str, str] = {}
    row_lines: list[list[str]] = []
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if not row_lines and not _is_number(parts[0]):
            if len(parts) != 2:
                raise FormatError(f"malformed header line: {line!r}")
            key = parts[0].lower()
            if key in header:
                raise FormatError(f"duplicate header key {key}")
            header[key] = parts[1]
        else:
            row_lines.append(parts)

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

    if len(row_lines) != nrows:
        raise FormatError(f"expected {nrows} data rows, got {len(row_lines)}")
    # the rows must carry the declared shape before it is allocated
    for r, parts in enumerate(row_lines):
        if len(parts) != ncols:
            raise FormatError(f"row {r} has {len(parts)} tokens, expected {ncols}")
    if nrows < 1 or ncols < 1:
        raise FormatError(f"grid must be at least 1x1, header declares {ncols}x{nrows}")
    values = np.empty((nrows, ncols), dtype=np.float64)
    for r, parts in enumerate(row_lines):
        try:
            values[r] = [float(tok) for tok in parts]
        except ValueError:
            raise FormatError(f"non-numeric token in row {r}") from None
    try:
        return ScalarGrid(values, cellsize=cellsize, nodata=nodata)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_asc_grid(grid: ScalarGrid, path: str | os.PathLike) -> None:
    """Write an ESRI ASCII grid; float values use shortest round-trip notation."""
    if grid.cellsize is None:
        raise FormatError("grid has no cellsize")
    out = [
        f"ncols {grid.width}",
        f"nrows {grid.height}",
        "xllcorner 0.0",
        "yllcorner 0.0",
        f"cellsize {grid.cellsize!r}",
    ]
    if grid.nodata is not None:
        out.append(f"NODATA_value {float(grid.nodata)!r}")
    for row in grid.values:
        out.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(out) + "\n")
