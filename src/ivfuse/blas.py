"""Hold OpenBLAS at one thread while Python threads share the cores.

numpy's wheel bundles OpenBLAS, which by default splits each call over
every core. Where ivfuse keeps the cores busy itself (the two encoders, then
MGCA's two directions, of a ``fuse`` and of each training member in its
forward and its backward, and the two row lanes of each decoder block in a
``fuse``), OpenBLAS's extra threads only spin-wait for a core.
``one_blas_thread`` sets the bundled library's thread count to one through
its exported setter. ``model.fuse`` takes it for one forward and
``training.train`` for its whole loop. A ``tensor.lanes`` node starts its
helper thread only when it is built while a hold is ``held``, and
``tensor.row_lanes`` gives a no-tape decode its helper only then; no model
stage reads the hold itself. Holds are counted under a lock, so overlapping
``fuse`` calls (``fuse --jobs``) are safe: the first holder saves the count
and the last one out restores it. Where the library or its symbols are
missing, nothing is held.

OpenBLAS rounds some GEMM shapes differently on one thread than on two (a
(174, 16) @ (16, 500) product, for one), so results computed under a hold,
fused images, loss histories and checkpoints among them, do not depend on
the machine's core count.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

# OpenBLAS's thread count is one setting for the whole process, so the holds
# on it are counted process-wide too.
_lock = threading.Lock()
_holders = 0
_saved = 1


@functools.cache
def _controls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def held() -> bool:
    """Whether some thread holds OpenBLAS at one thread now."""
    return _holders > 0


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread inside the block, where its thread count
    can be set; elsewhere the block runs without a hold."""
    global _holders, _saved
    controls = _controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _lock:
        if _holders == 0:
            _saved = get()
            if _saved != 1:
                set_(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0 and _saved != 1:
                set_(_saved)
