"""Host-speed calibration: a fixed kernel timed next to the measured work.

The benchmark runs on a few cores of a shared host whose speed drifts by
20% or more over a minute or two: the same `merge-beta` experiment reads
1.4 s in one minute and 1.9 s in the next, in CPU time as in wall time.
``kernel`` is a fixed piece of work of the same kind as the simulator's:
many small numpy and scipy calls (``gammaln`` over a count vector, a
log-sum-exp, normalising a two-element array), whose cost is mostly call
overhead. It imports nothing from ``mergebet``, so no change to the program
moves its time. Timed next to each measured piece of work, it tells how
fast the host ran then, and ``scale`` restates a time measured then at the
speed of a host on which the kernel takes ``REFERENCE_S``.

Small numpy and scipy calls were chosen over a pure-Python loop of dict
updates and ``math`` calls because, timed in turn with short experiments
for four minutes, their time followed the experiments' time more closely:
the ratio of experiment to kernel time (means over eight neighbouring
timings) varied by 4.3%, 2.7%, 4.7% and 5.3% on singular, merge, diverge
and markov-mix experiments, against 6.5%, 5.1%, 4.3% and 8.0% for the loop.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np
from scipy.special import gammaln

#: median time of ``kernel`` over 120 timings on the 2-core shared host
#: (Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4, scipy 1.17) that the
#: README's figures come from; a fixed scale, the same for every run and
#: commit
REFERENCE_S = 0.09


def kernel() -> float:
    counts = np.arange(65.0)
    acc = 0.0
    for i in range(6000):
        acc += float(gammaln(counts + 1.5 + i).sum())
        acc += float(np.logaddexp.reduce(-0.01 * counts))
        w = np.array([0.3, 0.7])
        acc += float((w / w.sum())[0])
    return acc


def calibrate() -> float:
    """Seconds the kernel takes now, with the garbage collector held off so
    that the measured work's garbage is not collected inside the timing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, restated at
    the reference speed."""
    return seconds * REFERENCE_S / kernel_s
