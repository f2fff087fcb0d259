import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ivfuse import blas

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_leaked_hold_or_thread():
    """Fail a test that leaves OpenBLAS held at one thread, the main thread
    with a hold's helper, or, where its thread count can be read, OpenBLAS
    at another count than it found, or a thread it started still running
    (after ten seconds' grace to finish)."""
    controls = blas._controls()
    blas_threads = controls[0]() if controls else None
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate() if t not in before]
    for t in started:
        t.join(timeout=10)
    assert not [t.name for t in started if t.is_alive()], "the test left threads running"
    assert blas._holders == 0, "the test left OpenBLAS held at one thread"
    assert blas.helper() is None, "the test left the main thread with a helper"
    if controls:
        assert controls[0]() == blas_threads, "the test left OpenBLAS at another thread count"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_rng(seed=1234):
    return np.random.default_rng(seed)
