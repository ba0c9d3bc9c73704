"""The run-based components kernel behind relabelling, region merging and mode linking."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spoilseg
from oracles import doubled_grid_components, flood_fill_components, linked_mode_components
from spoilseg import LabelMap, MeanShiftParams, relabel_connected
from spoilseg.labels import _pixel_components
from spoilseg.meanshift import _link_components


def spiral(n: int) -> np.ndarray:
    """A one-pixel square spiral wall of label 1 walked inwards from the top-left corner;
    the corridor between its turns is one spiral of label 2."""
    out = np.full((n, n), 2, dtype=np.int32)
    y = x = 0
    out[0, 0] = 1
    steps = [n - 1] + [n - 1 - 2 * (i // 2) for i in range(2 * n)]  # n-1, n-1, n-1, n-3, n-3, n-5, ...
    for i, length in enumerate(steps):
        if length <= 0:
            break
        dy, dx = ((0, 1), (1, 0), (0, -1), (-1, 0))[i % 4]
        for _ in range(length):
            y, x = y + dy, x + dx
            out[y, x] = 1
    return out


def comb(h: int, w: int) -> np.ndarray:
    """Teeth of label 1 on every other column, joined only by a spine along the bottom row;
    the gaps between them are label 2, each its own component open to the top."""
    out = np.full((h, w), 2, dtype=np.int32)
    out[:, ::2] = 1
    out[-1] = 1
    return out


def serpentine(h: int, w: int) -> np.ndarray:
    """One boustrophedon path of label 1: rows joined alternately at the right and the left end."""
    out = np.zeros((h, w), dtype=np.int32)
    out[::2] = 1
    out[1::4, -1] = 1
    out[3::4, 0] = 1
    return out


def checkerboard(h: int, w: int) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w]
    return ((yy + xx) % 2 + 1).astype(np.int32)


SHAPES = {
    "spiral": (spiral(33), 2),
    "comb": (comb(24, 41), 21),
    "comb upside down": (comb(24, 41)[::-1].copy(), 21),
    "serpentine": (serpentine(31, 17), 1),
    "checkerboard": (checkerboard(20, 31), 620),
    "1x1 background": (np.zeros((1, 1), dtype=np.int32), 0),
    "1x1 label": (np.full((1, 1), 7, dtype=np.int32), 1),
    "1xn": (np.array([[3, 3, 0, 3, 5, 5, 3, 0, 0, 4]], dtype=np.int32), 5),
    "nx1": (np.array([[3, 3, 0, 3, 5, 5, 3, 0, 0, 4]], dtype=np.int32).T.copy(), 5),
    "all background": (np.zeros((13, 17), dtype=np.int32), 0),
    "one label": (np.full((13, 17), 9, dtype=np.int32), 1),
}


@pytest.mark.parametrize("lab, count", SHAPES.values(), ids=SHAPES.keys())
def test_relabel_matches_flood_fill_on_adversarial_shapes(lab, count):
    out = relabel_connected(LabelMap(lab)).labels
    assert out.dtype == np.int32
    assert np.array_equal(out, flood_fill_components(lab))
    assert out.max() == count


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(1, 30),
    w=st.integers(1, 30),
    density=st.floats(0.0, 1.0),
    joined=st.floats(0.0, 1.0),
)
def test_pixel_components_match_the_doubled_grid(seed, h, w, density, joined):
    # predicates that are not label equality: a pair of runs may be joined
    # over a few separate column stretches, or over none of their overlap
    rng = np.random.default_rng(seed)
    nodes = rng.random((h, w)) < density
    right = nodes[:, :-1] & nodes[:, 1:] & (rng.random((h, w - 1)) < joined)
    down = nodes[:-1] & nodes[1:] & (rng.random((h - 1, w)) < joined)
    ours = _pixel_components(nodes, right, down)
    assert ours.dtype == np.int32
    assert np.array_equal(ours, doubled_grid_components(nodes, right, down))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 16), w=st.integers(1, 16))
def test_link_components_match_the_doubled_grid(seed, h, w):
    # small integer modes put many pairs exactly on a radius
    rng = np.random.default_rng(seed)
    modes = rng.integers(0, 4, size=(h, w, 5)).astype(np.float64)
    p = MeanShiftParams(spatial_radius=2.0, range_radius=2.0)
    expected = linked_mode_components(modes, p.spatial_radius, p.range_radius)
    assert np.array_equal(_link_components(modes, p), expected)


def run_fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this checkout's spoilseg."""
    env = dict(os.environ)
    src = str(Path(spoilseg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize(
    "module", ["scipy.ndimage", "scipy.sparse.csgraph", "scipy", "multiprocessing", "concurrent.futures.process"]
)
@pytest.mark.parametrize("package", ["spoilseg", "spoilseg.cli"])
def test_importing_the_package_does_not_load_scipy(package, module):
    # the components kernel imports scipy.sparse.csgraph, and the blur and
    # the plateau search import scipy.ndimage, on first use; no other module
    # needs scipy, and at package import each would cost every command about
    # 0.3 s.  The fork map forks its workers itself: no process pool module
    # (about 20 ms to import) is loaded, here or by a map that forks (below).
    assert run_fresh(f"import sys, {package}; print({module!r} in sys.modules)") == "False"


def test_a_sharded_meanshift_loads_no_process_pool(tmp_path):
    rng = np.random.default_rng(64)
    blocks = rng.integers(0, 256, size=(4, 4, 3)).repeat(8, axis=0).repeat(8, axis=1)
    img = np.clip(blocks + rng.integers(-6, 7, size=(32, 32, 3)), 0, 255).astype(np.uint8)
    spoilseg.write_ppm(spoilseg.RasterRGB(img), tmp_path / "in.ppm")
    argv = ["segment", "meanshift", "--in", str(tmp_path / "in.ppm"), "--hs", "2", "--out", str(tmp_path / "out.pgm")]
    code = f"""
import os, sys
from spoilseg import meanshift
from spoilseg.cli import main
os.sched_getaffinity = lambda pid: {{0, 1}}
meanshift._SHARD_CELLS = 1
fork, forks = os.fork, []
os.fork = lambda: forks.append(os.getpid()) or fork()
status = main({argv!r})
print(status, len(forks), [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules])
"""
    assert run_fresh(code) == "0 1 []"
