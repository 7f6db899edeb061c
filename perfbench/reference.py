"""A fixed numpy kernel that tells how fast the machine runs right now.

On a shared host the speed of the machine drifts by a fifth and more over
minutes, on both cores alike, and CPU time drifts with wall time: the loss
is slower execution, not time spent descheduled.  A median over one run
cannot remove a drift that lasts longer than the run.  So an untraced run
times this kernel between its steps and scales every end-to-end timing by
``REF_MS`` over the kernel's median in that run: a timing reads as wall
time on a machine where the kernel takes ``REF_MS``.  The run's wall times
are printed with its metadata.

The kernel does the program's kinds of work on a working set larger than
the caches: a Python loop of small elementwise steps that stores every
state, as a scan does, over 37 MB, and a nonlinearity over a 48x128x128
feature map.  Its inputs are fixed, so it does the same work in every run
and in every version of the program.
"""

from __future__ import annotations

import time

import numpy as np

# A fixed scale: about the kernel's median on a 2-vCPU x86-64 VM with one
# BLAS thread, so that scaled timings there read close to wall times.
REF_MS = 17.0
STEPS = 2000


class Reference:
    """Times the kernel on demand and keeps every sample (ms)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.decay = rng.uniform(0.5, 0.9, (48, 24))
        self.inputs = rng.normal(size=(STEPS, 48, 24))
        self.states = np.empty_like(self.inputs)
        self.fmap = rng.normal(size=(48, 128, 128))
        self.samples: list[float] = []

    def kernel(self) -> float:
        h = np.zeros_like(self.decay)
        for t in range(STEPS):
            h = self.decay * h + self.inputs[t]
            self.states[t] = h
        y = np.tanh(self.fmap) * self.fmap
        return float(self.states.sum() + y.sum())

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t = time.perf_counter()
            self.kernel()
            self.samples.append(1e3 * (time.perf_counter() - t))

    def median_ms(self) -> float:
        return float(np.median(self.samples))

    def scale(self) -> float:
        """The factor that takes this run's wall times to times at
        ``REF_MS``; 1 before any sample."""
        return REF_MS / self.median_ms() if self.samples else 1.0
