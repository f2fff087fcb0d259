"""Hold OpenBLAS at one thread while Python threads share the cores.

numpy's wheel bundles OpenBLAS, which by default splits each call over
every core. Where ivfuse keeps the cores busy itself, OpenBLAS's extra
threads only spin-wait for a core. ``one_blas_thread`` sets the bundled
library's thread count to one through its exported setter; ``model.fuse``
takes it for one forward and ``training.train`` for its whole loop.

One rule: a thread that holds OpenBLAS at one thread runs the two lanes of
``tensor.two`` (the two encoders, then MGCA's two directions, forward and
backward, and the row halves of each ``fuse`` decoder block) on its hold's
single helper thread beside itself; other threads run them in turn. The
outermost hold on a thread creates the helper (``helper``), a one-worker
executor whose thread starts with its first lane and is joined as the hold
ends, before the count is restored; a nested hold reuses it. Holds on the
count are counted under a lock, so overlapping ``fuse`` calls (``fuse``
under ``--jobs``), each with its own helper, are safe: the first holder
saves the count and the last one out restores it. Where the library or its
symbols are missing, nothing is held and no thread has a helper.

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
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

# OpenBLAS's thread count is one setting for the whole process, so the holds
# on it are counted process-wide too; each holding thread's helper is its own.
_lock = threading.Lock()
_holders = 0
_saved = 1
_local = threading.local()


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


def helper() -> ThreadPoolExecutor | None:
    """The calling thread's hold's one-worker helper, or None without one."""
    return getattr(_local, "helper", None)


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread inside the block, with a helper for the
    calling thread, where its thread count can be set; elsewhere the block
    runs without a hold or a helper."""
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
    outer = helper() is None
    if outer:
        _local.helper = ThreadPoolExecutor(max_workers=1)
    try:
        yield
    finally:
        if outer:
            _local.helper.shutdown()
            _local.helper = None
        with _lock:
            _holders -= 1
            if _holders == 0 and _saved != 1:
                set_(_saved)
