"""Machine-speed reference: a fixed pure-Python loop timed beside the jobs.

The speed of a shared machine changes by up to twofold within minutes, and
by a third within seconds, with the load that other tenants put on it; a
30-second pass cannot average that out.  The change hits pure-Python code
evenly: over 90 seconds, the 6-second medians of a redcycle search's time
spread by 36%, and those of its time over this loop's time, taken right
before it, by 1%.  So the benchmark times this loop after every job and
reports each time scaled to a machine on which the loop takes
``REFERENCE_S``::

    reported = measured * REFERENCE_S / loop time

For a job, the loop time is the median of the two loop times before it and
the two after it.  A cold start or CLI command runs in another process while
the worker waits, and is scaled by the mean of all the run's loop times;
worker.py keeps the worker and these processes on one CPU.

The loop is the benchmark's own code, not redcycle's, so a change to the
library cannot change the scale.  It allocates no containers, and garbage
collection is off while it runs.
"""

from __future__ import annotations

import gc
import time

#: Seconds the reference loop takes on the machine every reported time is
#: scaled to: about its time in the faster of the two speeds a shared 2-vCPU
#: Xeon virtual machine alternated between while the benchmark was tuned.
REFERENCE_S = 0.0003

_N = 8
_M = [[0] * _N for _ in range(_N)]


def _loop() -> int:
    """Mutation-like in-place updates of a fixed 8x8 integer matrix."""
    m = _M
    for i in range(_N):
        row = m[i]
        for j in range(_N):
            row[j] = (i * 7 + j * 3) % 5 - 2
    acc = 0
    for step in range(40):
        k = step % _N
        rk = m[k]
        for i in range(_N):
            ri = m[i]
            x = ri[k]
            for j in range(_N):
                y = rk[j]
                if x > 0 and y > 0:
                    ri[j] = (ri[j] + x * y) % 97 - 48
                elif x < 0 and y < 0:
                    ri[j] = (ri[j] - x * y) % 97 - 48
        acc += rk[(k + 1) % _N]
    return acc


def probe() -> float:
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the reference loop took ``loop_s`` seconds,
    scaled to the reference machine."""
    return seconds * REFERENCE_S / loop_s
