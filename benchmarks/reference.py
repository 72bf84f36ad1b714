"""Fixed reference kernels that measure how fast the host runs right now.

On a shared host the same request can take 30% longer from one second to
the next, because other tenants contend for the cores and caches. Timing a
kernel just before and just after a group of requests tells how fast the
host was while they ran, and dividing the requests' times by it gives their
cost in reference units, which moves far less with the host's speed. The
kernels run no kljnsim code, so a change to kljnsim cannot move them.

Contention slows different kinds of work differently, so each workload is
calibrated with the kernel that resembles its own work:

* ``waveform_kernel``: 1000-sample inverse real FFTs with element-wise
  numpy work and small-dict Python work, like a bit period;
* ``event_kernel``: pushes and pops through a 6000-entry heap of event
  tuples with dict lookups, like the discrete-event network engine.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

import numpy as np

#: Kernel executions per burst; a burst reports their median time.
BURST = 5

#: A burst runs after each group of requests that took at least this long.
INTERVAL_S = 0.05

_SPECTRUM = np.random.default_rng(0).standard_normal(501) * (1 + 1j)
_EVENT_TIMES = [t / 1e9 for t in random.Random(0).sample(range(10**9), 6000)]


def waveform_kernel() -> float:
    acc = 0.0
    for _ in range(40):
        samples = np.fft.irfft(_SPECTRUM, 1000)
        acc += float(np.mean(samples * samples))
        table = {i: i * acc for i in range(50)}
        acc += sum(table.values()) * 1e-9
    return acc


def event_kernel() -> float:
    heap = []
    table = {}
    for i, t in enumerate(_EVENT_TIMES):
        heapq.heappush(heap, (t, i, "event"))
        table[i] = t
    acc = 0.0
    while heap:
        _, i, _ = heapq.heappop(heap)
        acc += table[i]
    return acc


def burst(kernel) -> float:
    """Median wall time of BURST executions of ``kernel``, in seconds."""
    times = []
    for _ in range(BURST):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
