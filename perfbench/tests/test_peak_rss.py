"""peak_rss_mb is the measuring process's own peak, not its parent's, and
the host-speed kernel timed in that process does not add to it."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.worker import peak_rss_mb  # noqa: E402

CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from perfbench.worker import peak_rss_mb; print(peak_rss_mb())")


def test_near_empty_child_reports_far_less_than_its_parent():
    ballast = np.ones(300_000_000 // 8)      # touched, so it is resident
    parent = peak_rss_mb()
    out = subprocess.run([sys.executable, "-c", CHILD, str(ROOT)], capture_output=True,
                         text=True, check=True)
    child = float(out.stdout.strip().splitlines()[-1])
    assert ballast.sum() > 0 and parent >= 300.0
    assert child < parent / 2, (child, parent)


def test_host_speed_kernel_allocates_nothing_while_it_runs():
    from perfbench.hostspeed import Kernel

    kernel = Kernel()
    tracemalloc.start()
    try:
        assert kernel.run() > 0.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
