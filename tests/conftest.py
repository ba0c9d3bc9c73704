"""Checks that hold for every test."""

import os
import time

import pytest

from spoilseg import _fork


def reap_children(timeout: float = 60.0) -> list:
    """Reap every child of this process, waiting up to ``timeout`` seconds
    for live ones, and return what was left: the pids reaped, then one
    ``"live"`` if children still run.  Empty when no child was left."""
    left, deadline = [], time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child at all
            return left
        if pid:
            left.append(pid)
        elif time.monotonic() > deadline:
            return left + ["live"]
        else:
            time.sleep(0.01)


@pytest.fixture(autouse=True)
def no_live_children():
    """Fail a test that leaves a live or unreaped child: every fork path reaps
    its workers by the time it returns or raises."""
    yield
    left = reap_children()
    assert left == [], f"child processes left after the test: {left}"


@pytest.fixture(autouse=True)
def no_running_map():
    """Fail a test that leaves the fork map's state set: every map clears it
    by the time it returns or raises, or each later map would run serially."""
    yield
    left, _fork._running = _fork._running, False
    assert left is False, f"fork map state left set after the test: {left}"
