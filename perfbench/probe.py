"""Machine-speed probes: fixed snippets timed between ops, and a fixed
interpreter start timed between the benchmark's own starts.

The host is shared, and other tenants slow everything in this process by
up to 1.7x for tens of seconds at a time, too long for any statistic
inside one run to see past.  A probe does the same kind of work as the
workload (interpreted Python, or NumPy over arrays), so it slows by about
the same factor; an op's latency divided by the probe's time around it
does not.  Multiplying by the probe's time on a quiet reference machine
(``REFERENCE_NS``: the machine the README's figures come from) turns the
ratio back into that machine's milliseconds.
"""
from __future__ import annotations

import math
import time

import numpy as np

# As large as verify's grid, so that it streams from memory like the oracle
# does; preallocated on first use, so that its time does not depend on the
# allocator's state (after large frees glibc stops mapping fresh pages for
# temporaries) and importing this module allocates nothing.
_ARRAYS = []


def _python() -> float:
    acc = 0.0
    d = {}
    for i in range(1500):
        x = i * 0.5
        acc += math.sqrt(x + 1.0)
        d[i & 63] = (x, acc)
    return acc


def _numpy() -> int:
    if not _ARRAYS:
        xs = np.linspace(0.0, 1.0, 1_000_001)
        _ARRAYS.extend((xs, np.empty_like(xs), np.empty_like(xs)))
    xs, a, b = _ARRAYS
    np.exp(xs, out=a)
    np.multiply(xs, 2.0, out=b)
    np.subtract(a, b, out=a)
    return int(np.argmin(a))


SNIPPETS = {"python": _python, "numpy": _numpy}
# a fresh interpreter that imports NumPy and prints perf_counter() when done
START = "import time, numpy; print(time.perf_counter())"
# minimum time of each probe on the reference machine, ns
REFERENCE_NS = {"python": 195_000, "numpy": 2_240_000, "start": 81_500_000}


def probe(kind: str, repeats: int = 3) -> int:
    """Fastest of ``repeats`` timings of one snippet, ns."""
    fn, clock, best = SNIPPETS[kind], time.perf_counter_ns, None
    for _ in range(repeats):
        t0 = clock()
        fn()
        dt = clock() - t0
        best = dt if best is None or dt < best else best
    return best


def normalised_ns(latencies_ns: list[int], marks: list[tuple[int, int]], kind: str) -> list[float]:
    """Each latency scaled by REFERENCE_NS over the mean of the probes taken
    just before and just after it.

    ``marks`` holds (number of ops timed so far, probe ns), in order, with
    one mark before the first op and one after the last.
    """
    ref, out, j = REFERENCE_NS[kind], [], 0
    for i, lat in enumerate(latencies_ns):
        while marks[j + 1][0] <= i:
            j += 1
        out.append(lat * ref * 2 / (marks[j][1] + marks[j + 1][1]))
    return out
