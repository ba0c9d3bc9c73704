"""Checks that hold for every test."""

import multiprocessing

import pytest


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
