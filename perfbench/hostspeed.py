"""The host's speed, timed with a fixed kernel in the measuring processes.

On a shared virtual machine the host's speed drifts. On the 2-vCPU KVM Xeon
guest this benchmark was tuned on, one and the same PNG decode took from
1.8 to 3.7 s of process CPU time within fifteen minutes, so CPU time is no
steadier than wall time. The kernel here drifts with the ops: timed
between them, in one record of medians over about 20 s, those of the PNG
decode had a standard deviation of 15% (of the log) and those of a fuse-96
fuse 8%; divided by the kernel's median over the same time, 8% and 3.5%.

The kernel is a pure-Python loop, like the PNG unfilter, and in-place numpy
elementwise passes, like the model's tensor ops, about half its time each.
It uses nothing from ivfuse, so no change to the program moves it, and it
allocates nothing while it runs, so it does not move the peak RSS. A time
"at reference speed" is a wall time scaled by ``REFERENCE_S`` over the
kernel's median in the same processes: what it would have been on a host
that runs the kernel in ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the kernel's median time on that guest (Python 3.11, numpy 2.4)
REFERENCE_S = 0.07
LOOP_STEPS = 600_000
ARRAY_SIZE = 64_000             # float64: 512 KB, so the kernel adds ~1 MB to the RSS
ARRAY_PASSES = 300


class Kernel:
    """The kernel, run in the measuring process between its ops."""

    def __init__(self) -> None:
        self.array = np.random.default_rng(0).standard_normal(ARRAY_SIZE)
        self.out = np.empty_like(self.array)

    def run(self) -> float:
        """Wall time of one run of the kernel."""
        start = time.perf_counter()
        acc = 0
        for i in range(LOOP_STEPS):
            acc = (acc + i * 7) & 0xFF
        for _ in range(ARRAY_PASSES):
            np.multiply(self.array, self.array, out=self.out)
            np.sqrt(self.out, out=self.out)
            self.out.sum()
        return time.perf_counter() - start


def reference_factor(kernel_samples) -> float:
    """Multiply a wall time by this to get it at reference speed, where
    ``kernel_samples`` are kernel times taken beside it."""
    return REFERENCE_S / statistics.median(kernel_samples)
