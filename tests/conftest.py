"""Checks that hold for every test."""

import multiprocessing

import pytest

from spoilseg import _fork


@pytest.fixture(autouse=True)
def no_live_children():
    """Fail a test that leaves a live process child: every fork path joins its
    workers by the time it returns or raises."""
    yield
    alive = multiprocessing.active_children()
    for child in alive:
        child.kill()
        child.join()
    assert alive == [], f"live child processes after the test: {alive}"


@pytest.fixture(autouse=True)
def no_running_map():
    """Fail a test that leaves the fork map's state set: every map clears it
    by the time it returns or raises, or each later map would run serially."""
    yield
    left, _fork._fn = _fork._fn, None
    assert left is None, f"fork map state left set after the test: {left}"
