"""Peak memory per stage on a 512x512 grid, in bytes per pixel.

``tracemalloc`` sees numpy's data buffers as well as Python objects, so the
peak is deterministic.  The budgets hold the terrain path to a few arrays of
the grid's size: the output, a mask and the value check of the result.
``LabelMap.region_sizes`` has an absolute bound instead: its table follows
the labels present, not the largest label.
"""

import tracemalloc

import numpy as np
import pytest

from spoilseg import (
    FormatError,
    LabelMap,
    ScalarGrid,
    hillshade,
    read_asc_grid,
    sigmoidal_stretch,
    synth_pilefield,
    write_asc_grid,
)

N = 512


@pytest.fixture(scope="module")
def dsm():
    return synth_pilefield(N, N, 16, 12.0, 1)[0]


@pytest.fixture(scope="module")
def holed_dsm(dsm):
    """The same DSM with a 10x10 nodata hole: the value check must not copy the data cells."""
    values = dsm.values.copy()
    values[100:110, 200:210] = -9999.0
    return ScalarGrid(values, nodata=-9999.0)


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


def test_hillshade(dsm):
    assert peak_bytes_per_pixel(lambda: hillshade(dsm)) <= 24


def test_sigmoidal_stretch(dsm):
    assert peak_bytes_per_pixel(lambda: sigmoidal_stretch(dsm)) <= 12


def test_hillshade_with_nodata(holed_dsm):
    assert peak_bytes_per_pixel(lambda: hillshade(holed_dsm)) <= 18


def test_sigmoidal_stretch_with_nodata(holed_dsm):
    assert peak_bytes_per_pixel(lambda: sigmoidal_stretch(holed_dsm)) <= 12


def test_region_sizes_counts_only_the_labels_present():
    labels = LabelMap(np.array([[0, 2**24]], dtype=np.int32))
    tracemalloc.start()
    try:
        assert labels.region_sizes() == {2**24: 1}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a table indexed by label would take 128 MB
