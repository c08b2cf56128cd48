"""Machine-speed probe: a fixed kernel timed between the configs of a pass.

The host this benchmark runs on is shared, and its speed drifts by 20 to
30 % and more, over seconds to tens of seconds: a fixed single-threaded
loop takes that much longer in a slow stretch than in a fast one, in
wall time and in CPU time alike.  Drift of that size swamps the program's own changes.  So
the worker runs this kernel between configs, and the run reports its
times scaled to the reference speed: a measured time t, taken while the
kernel took k, reads t * REFERENCE_S / k.

The kernel does what fluctem does, in about the same mix: scalar Python
float arithmetic with ``math`` calls, 3x3 blocks assembled pair by pair
into a small matrix, and dense symmetric eigensolves.  It does not
import fluctem, so a change to the package cannot change the kernel.
"""

from __future__ import annotations

import math
import time

import numpy as np
# bound now, so that the tracer's wrapper of numpy.linalg.eigvalsh never
# sees the kernel
from numpy.linalg import eigvalsh

# kernel time that defines the reference speed: about the median on the
# 2-vCPU VM of the README's baseline
REFERENCE_S = 0.020
# least time between two kernel samples
INTERVAL_S = 0.2
# a call is scaled by the median of the samples that start within this
# many seconds of it: the drift is fastest over a few seconds, and single
# samples spread by +-30 %, so the one just before and the one just after
# a long call, and a handful around a short one
MARGIN_S = 1.0

_IDENTITY = np.eye(3)
_SITES = None
_MATRIX = None


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    global _SITES, _MATRIX
    if _SITES is None:
        rng = np.random.default_rng(12345)
        cube = np.mgrid[0:2, 0:2, 0:2].reshape(3, -1).T * 6.0
        _SITES = cube + rng.uniform(-0.25, 0.25, cube.shape)
        m = rng.standard_normal((48, 48))
        _MATRIX = m + m.T
    start = time.perf_counter()
    # quadrature-like: scalar float arithmetic and math calls
    acc = 0.0
    for i in range(1, 18001):
        x = i * 1e-4
        acc += math.exp(-x) * math.cos(x) / (1.0 + x * x)
    table: dict[int, float] = {}
    for i in range(9000):
        table[i & 511] = table.get(i & 511, 0.0) + acc
    # cluster-like: 3x3 dipole blocks of an 8-site cube assembled pair by
    # pair, then the 24x24 eigensolve
    n = len(_SITES)
    for rep in range(18):
        decay = 0.05 * (rep + 1)
        t = np.zeros((3 * n, 3 * n))
        for i in range(n):
            for j in range(i + 1, n):
                d = _SITES[j] - _SITES[i]
                r = math.sqrt(float(d @ d))
                u = d / r
                block = (3.0 * np.outer(u, u) - _IDENTITY) \
                    * (math.exp(-decay * r) / r**3)
                t[3 * i:3 * i + 3, 3 * j:3 * j + 3] = block
                t[3 * j:3 * j + 3, 3 * i:3 * i + 3] = block
        eigvalsh(t)
    # dense eigensolves of a size between the clusters' and the cavity's
    for i in range(24):
        eigvalsh(_MATRIX + i * 1e-3)
    return time.perf_counter() - start


class SpeedLog:
    """Kernel samples as (start, seconds), start on the perf_counter clock."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), kernel()))

    def maybe_sample(self) -> None:
        """Sample unless the last sample ended less than INTERVAL_S ago."""
        if not self.samples \
                or time.perf_counter() - sum(self.samples[-1]) >= INTERVAL_S:
            self.sample()


def factors(samples: list[list[float]], starts: list[float],
            latencies: list[float]) -> list[float]:
    """REFERENCE_S over the median kernel time near each call.

    ``samples`` are (start, seconds) and ``starts`` the calls' start
    times, on one clock; a call takes the samples that start within
    MARGIN_S of it, which always include the one taken just before it.
    """
    begins = np.array([s for s, _ in samples])
    times = np.array([k for _, k in samples])
    out = []
    for start, latency in zip(starts, latencies):
        near = times[(begins >= start - MARGIN_S)
                     & (begins <= start + latency + MARGIN_S)]
        if not len(near):
            raise ValueError(f"no speed sample near the call at {start:.1f} s")
        out.append(REFERENCE_S / float(np.median(near)))
    return out
