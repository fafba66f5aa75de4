"""Machine-speed calibration: a fixed kernel that does not use the library.

On a shared host the CPU a pass runs on is at times busy with other work
outside the machine, and the same pass then takes up to twice as long
(README.md, Baseline).  Every benchmark process times this kernel just
before its work, every ``PERIOD_S`` during it (``Sampler``) and just after
it.  Its times are multiplied by ``scale(kernel_times)``, so they read as
seconds on a machine on which the kernel takes ``REFERENCE_S``.

The kernel is timed by the CPU time of the thread that runs it: waiting for
the interpreter lock while the work runs does not count, a slower CPU does.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

# The kernel's median time on the reference machine (README.md) while it was
# not slowed; it only fixes the unit of the scaled times.
REFERENCE_S = 0.004
REPEATS = 10
PERIOD_S = 0.25

_rng = np.random.default_rng(0)
_MATRICES = _rng.standard_normal((64, 6, 6))
_VECTOR = _rng.standard_normal(2000)


def _kernel():
    # The library's mix in small: interpreted arithmetic and dict traffic,
    # then small batched linear algebra and array arithmetic.
    counts = {}
    for i in range(12000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(20):
        np.linalg.inv(_MATRICES)
        np.einsum("nij,njk->nik", _MATRICES, _MATRICES)
        (_VECTOR * 2.0 + _VECTOR).sum()


def kernel_times(repeats=REPEATS):
    """CPU seconds per kernel run, for ``repeats`` runs."""
    out = []
    for _ in range(repeats):
        start = time.thread_time()
        _kernel()
        out.append(time.thread_time() - start)
    return out


def scale(times):
    """Factor that turns this process's seconds into reference seconds.

    The mean, not the median: the speed can change many times within a
    pass, and the samples are spread over it, so their mean is the pass's
    average speed.
    """
    return REFERENCE_S / statistics.fmean(times)


def pin_to_one_cpu():
    """Keep this process, and so the sampler and the work, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """Times the kernel every ``PERIOD_S`` in a background thread while the work runs."""

    def __init__(self):
        self.times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self.times += kernel_times(1)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
