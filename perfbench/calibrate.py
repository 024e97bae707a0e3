"""A fixed calibration kernel that tracks how fast the machine runs right now.

On a shared host the same op can take 1.5x longer for a minute at a time:
the vCPU runs slower, it does not wait (process time grows with wall time,
steal time stays near zero), and longer runs do not average it away. The
kernel below does a fixed dose of the program's two kinds of work, without
calling the program: interpreted text parsing and dict building, as in
reading a comparisons CSV, and vectorised numpy math on a 10 MB array, as
in the cumulant and sampling code. Timing it right before and right after each
op gives the machine's speed during that op, and the op is reported at a
fixed reference speed:

    op seconds * REFERENCE_S / (mean of the kernel times before and after the op)

The kernel never touches ``gbtscore`` and uses no BLAS (so no thread pool the
program could configure), so a change to the program cannot move it: a
program that gets 20% faster still reads 20% faster. Its arrays take about
50 MB at their peak, so ``peak_rss_mb`` comes from a process in which the
kernel never runs.
"""

from __future__ import annotations

import time

import numpy as np

# One kernel run on the machine the benchmark was defined on (2-vCPU Intel
# Xeon VM, 2.1 GHz as reported, in a fast phase). Only ratios between runs
# matter; the constant keeps the reported values in seconds of that machine.
REFERENCE_S = 0.050
SAMPLES = 3  # a calibration point next to an op is the mean of this many kernel runs
SETUP_SAMPLES = 6  # a set-up process has a single calibration point, so it gets more runs


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.rows = [f"a{rng.integers(1000):04d},a{rng.integers(1000):04d},{v:.6g}"
                     for v in rng.uniform(-1.0, 1.0, 32_000)]
        self.x = rng.normal(size=1_200_000)

    def run_once(self) -> float:
        table = {}
        for row in self.rows:
            a, b, r = row.split(",")
            key = (a, b) if a < b else (b, a)
            table[key] = table.get(key, 0.0) + float(r)
        x = self.x
        total = float((np.log1p(np.exp(-np.abs(x))) * np.power(np.abs(x) + 1.0, 1.5)).sum())
        return total + len(table)

    def sample(self, runs: int = SAMPLES) -> float:
        """Mean wall seconds of ``runs`` kernel runs."""
        start = time.perf_counter()
        for _ in range(runs):
            self.run_once()
        return (time.perf_counter() - start) / runs
