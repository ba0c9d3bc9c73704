"""Hostile bytes: every reader returns an object or raises ValueError.

FormatError is a ValueError, so the one contract covers the raster readers
and the sweep config loader alike.  Inputs are valid files with random
byte mutations, plus arbitrary bytes.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoilseg import load_sweep_config, read_asc_grid, read_gray_pgm16, read_pgm16, read_ppm

# tokens that tend to reach deeper branches than random bytes do; the last
# four are line ends that str.splitlines honours besides \n (U+0085 in UTF-8)
_TOKENS = [b" ", b"\n", b"0", b"-1", b"255", b"65535", b"99999999999999", b"nan", b"inf", b"1e400", b'"', b"{", b"["]
_TOKENS += [b"\r", b"\x0c", b"\x1c", b"\xc2\x85"]
_TOKENS += [b"#", b"# c\n", b"P5", b"P6"]  # netpbm comments and magics

_SEEDS = {
    "ppm": b"P6\n2 2\n255\n" + bytes(range(12)),
    "pgm16": b"P5\n2 2\n65535\n" + bytes([0, 1, 0, 2, 0, 0, 1, 0]),
    "asc": b"ncols 3\nnrows 2\nxllcorner 0.0\nyllcorner 0.0\ncellsize 1.0\nNODATA_value -9999.0\n"
    b"1.0 2.5 -9999.0\n4.0 5.0 6.0\n",
    "config": json.dumps(
        {
            "algorithm": "voronoi",
            "inputs": {"hillshade": "shade.pgm", "ground_truth": "gt.pgm"},
            "threshold": 0.5,
            "grid": {"sigma": [6.0, 12.0], "peak_radius": [4]},
            "params": {"restrict_to_foreground": True},
        }
    ).encode(),
}

_READERS = {
    "ppm": [read_ppm],
    "pgm16": [read_pgm16, read_gray_pgm16],
    "asc": [read_asc_grid],
    "config": [load_sweep_config],
}


@st.composite
def mutated(draw, seed: bytes) -> bytes:
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if op == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.sampled_from(_TOKENS) | st.binary(max_size=6))
        elif op == "delete":
            del data[pos : pos + draw(st.integers(1, 8))]
        else:
            del data[pos:]
    return bytes(data)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.mark.parametrize("kind", sorted(_SEEDS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_bytes_give_object_or_value_error(scratch, kind, data):
    payload = data.draw(mutated(_SEEDS[kind]) | st.binary(max_size=64), label="payload")
    scratch.write_bytes(payload)
    for reader in _READERS[kind]:
        try:
            reader(scratch)
        except ValueError:
            pass
