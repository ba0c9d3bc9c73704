"""Peak memory per stage on a 512x512 grid, in bytes per pixel.

``tracemalloc`` sees numpy's data buffers as well as Python objects, so the
peak is deterministic.  Each budget holds a stage to a few arrays of the
grid's size, set from measurement with some headroom: on the terrain path
the output, a mask and the value check of the result; on the colour path
the 24 B/px Lab output plus band temporaries (``rgb_to_lab``), the label
maps and the components kernel's run ids (``merge_small_regions``), and
SLIC's planes, pixel grids and assignment buffers, freed before its merge
(``slic``).  ``relabel_connected`` holds the neighbour masks, one int32 run
id and the int32 output per pixel.  ``quantize8`` holds one float64 work
array, the nodata mask and the uint8 output.
``evaluate_segmentation`` of the pile field's ground truth against a
full-frame map peaks at 18 B/px: one int64 key per pixel and the sorted
copy ``np.unique`` makes of it.
The netpbm readers hold the file's bytes and the stored array; the writers
hold at most the big-endian samples, and write the header before them.
``LabelMap.region_sizes`` has an absolute bound instead: its table follows
the labels present, not the largest label.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse.csgraph  # noqa: F401  the components kernel imports it on first use; not a stage's peak

from spoilseg import (
    FormatError,
    GrayImage,
    LabelMap,
    RasterRGB,
    ScalarGrid,
    SlicParams,
    evaluate_segmentation,
    hillshade,
    merge_small_regions,
    quantize8,
    read_asc_grid,
    read_gray_pgm16,
    read_pgm16,
    read_ppm,
    relabel_connected,
    rgb_to_lab,
    sigmoidal_stretch,
    slic,
    synth_pilefield,
    write_asc_grid,
    write_gray_pgm16,
    write_pgm16,
    write_ppm,
)

N = 512


@pytest.fixture(scope="module")
def pilefield():
    return synth_pilefield(N, N, 16, 12.0, 1)


@pytest.fixture(scope="module")
def dsm(pilefield):
    return pilefield[0]


@pytest.fixture(scope="module")
def holed_dsm(dsm):
    """The same DSM with a 10x10 nodata hole: the value check must not copy the data cells."""
    values = dsm.values.copy()
    values[100:110, 200:210] = -9999.0
    return ScalarGrid(values, nodata=-9999.0)


@pytest.fixture(scope="module")
def ortho(dsm):
    """An RGB ramp over the DSM's heights with pixel noise, like an orthomosaic of the piles."""
    v = dsm.values
    t = ((v - v.min()) / (v.max() - v.min()))[..., None]
    rng = np.random.default_rng(0)
    rgb = np.array([96.0, 78.0, 60.0]) + np.array([104.0, 112.0, 110.0]) * t + rng.normal(0, 7, (N, N, 3))
    return RasterRGB(np.clip(np.rint(rgb), 0, 255).astype(np.uint8))


@pytest.fixture(scope="module")
def superpixel_map():
    """A 13x13 grid of 42-pixel cells with borders jittered by up to 3 pixels,
    as SLIC leaves them before its merge: ragged edges and stray fragments."""
    rng = np.random.default_rng(0)
    ys, xs = np.mgrid[0:N, 0:N]
    jy, jx = rng.integers(-3, 4, size=(2, N, N))
    ys, xs = np.clip(ys + jy, 0, N - 1), np.clip(xs + jx, 0, N - 1)
    return LabelMap(((ys // 42) * 13 + xs // 42 + 1).astype(np.int32))


def peak_bytes_per_pixel(stage) -> float:
    tracemalloc.start()
    try:
        stage()
        return tracemalloc.get_traced_memory()[1] / (N * N)
    finally:
        tracemalloc.stop()


def test_read_asc_grid(dsm, tmp_path):
    path = tmp_path / "dsm.asc"
    write_asc_grid(dsm, path)
    assert peak_bytes_per_pixel(lambda: read_asc_grid(path)) <= 12


def test_read_asc_grid_allocates_nothing_for_a_shape_the_file_cannot_hold(tmp_path):
    path = tmp_path / "short.asc"
    path.write_text(f"ncols {N}\nnrows {N}\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n")

    def read():
        with pytest.raises(FormatError, match=f"^expected {N} data rows, got 1$"):
            read_asc_grid(path)

    assert peak_bytes_per_pixel(read) <= 0.1  # the declared grid alone would be 8


def test_write_asc_grid(dsm, tmp_path):
    assert peak_bytes_per_pixel(lambda: write_asc_grid(dsm, tmp_path / "dsm.asc")) <= 2


# (writer, reader, the raster written, budget of the write, budget of the read);
# the file alone is 2 B/px for a PGM16 and 3 for a PPM
NETPBM = [
    (write_gray_pgm16, read_gray_pgm16, "gray", 2.5, 3.5),  # the read: file + uint8 result
    (write_pgm16, read_pgm16, "superpixel_map", 2.5, 6.5),  # file + int32 result
    (write_ppm, read_ppm, "ortho", 0.5, 6.5),  # file + writable copy
]


@pytest.fixture(scope="module")
def gray(ortho):
    return GrayImage(ortho.pixels[..., 0].copy())


@pytest.mark.parametrize("write, read, raster, budget, _", NETPBM, ids=[row[0].__name__ for row in NETPBM])
def test_netpbm_write(request, tmp_path, write, read, raster, budget, _):
    img = request.getfixturevalue(raster)
    assert peak_bytes_per_pixel(lambda: write(img, tmp_path / "raster.pnm")) <= budget


@pytest.mark.parametrize("write, read, raster, _, budget", NETPBM, ids=[row[1].__name__ for row in NETPBM])
def test_netpbm_read(request, tmp_path, write, read, raster, _, budget):
    path = tmp_path / "raster.pnm"
    write(request.getfixturevalue(raster), path)
    assert peak_bytes_per_pixel(lambda: read(path)) <= budget


def test_hillshade(dsm):
    assert peak_bytes_per_pixel(lambda: hillshade(dsm)) <= 24


def test_sigmoidal_stretch(dsm):
    assert peak_bytes_per_pixel(lambda: sigmoidal_stretch(dsm)) <= 12


def test_hillshade_with_nodata(holed_dsm):
    assert peak_bytes_per_pixel(lambda: hillshade(holed_dsm)) <= 18


def test_sigmoidal_stretch_with_nodata(holed_dsm):
    assert peak_bytes_per_pixel(lambda: sigmoidal_stretch(holed_dsm)) <= 12


@pytest.mark.parametrize("grid", ["dsm", "holed_dsm"])
def test_quantize8(request, grid):
    stretched = sigmoidal_stretch(request.getfixturevalue(grid))
    assert peak_bytes_per_pixel(lambda: quantize8(stretched)) <= 12


def test_rgb_to_lab(ortho):
    assert peak_bytes_per_pixel(lambda: rgb_to_lab(ortho)) <= 56  # the Lab output alone is 24


def test_relabel_connected(superpixel_map):
    assert peak_bytes_per_pixel(lambda: relabel_connected(superpixel_map)) <= 18


def test_merge_small_regions(superpixel_map):
    assert peak_bytes_per_pixel(lambda: merge_small_regions(superpixel_map, 43)) <= 26


def test_slic(ortho):
    lab = rgb_to_lab(ortho)
    assert peak_bytes_per_pixel(lambda: slic(lab, SlicParams(superpixels=150))) <= 68


def test_evaluate_segmentation(pilefield, superpixel_map):
    gt = pilefield[1]
    # the int64 pixel keys and np.unique's sorted copy of them are 16
    assert peak_bytes_per_pixel(lambda: evaluate_segmentation(gt, superpixel_map, 0.5)) <= 22


def test_region_sizes_counts_only_the_labels_present():
    labels = LabelMap(np.array([[0, 2**24]], dtype=np.int32))
    tracemalloc.start()
    try:
        assert labels.region_sizes() == {2**24: 1}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a table indexed by label would take 128 MB
