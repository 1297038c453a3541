"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes as its neighbours load it, and
that drift, not pacesim, would set the spread of raw wall times between
runs.  So a fixed reference kernel, independent of pacesim, is timed
between every two timed operations, and each operation's wall time is
rescaled by how slow the host was around it:

    scaled = wall * REFERENCE_S / mean(reference before, reference after)

A scaled time is in seconds on a host where the reference kernel takes
REFERENCE_S, about its median on the 2-vCPU machine the benchmark was
written on; a change to pacesim moves it exactly as it moves the raw
time, while a slow spell of the host moves operation and reference
together and cancels.  The kernel mixes the three kinds of work pacesim
does: interpreter-bound scalar Python, many numpy calls on small arrays
(the engine's rounds), and dense rank-1 updates (the LP tableau).  The
raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

#: Reference kernel time, in seconds, that scaled times are expressed at.
REFERENCE_S = 0.07

_RNG = np.random.default_rng(12345)
_SMALL_A = _RNG.random((32, 5))
_SMALL_B = _RNG.random((32, 5))
_DENSE = _RNG.random((400, 400))


def _scalar_python() -> int:
    x = 0
    table = {}
    for i in range(200_000):
        x += (i * 7) % 13
        table[i & 255] = x
    return x


def _small_numpy() -> float:
    a = _SMALL_A.copy()
    for _ in range(2_400):
        b = np.maximum(a - _SMALL_B, 0.0)
        np.argmax(b, axis=1)
        a = a * 0.999 + b.sum(axis=1, keepdims=True) * 1e-6
    return float(a[0, 0])


def _dense_updates() -> float:
    m = _DENSE.copy()
    for i in range(60):
        m -= np.outer(m[:, i], m[i, :]) * 1e-3
    return float(m[0, 0])


def reference() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    _scalar_python()
    _small_numpy()
    _dense_updates()
    return time.perf_counter() - start


def scaled(wall: float, before: float, after: float) -> float:
    """`wall` rescaled to the reference host speed, given the reference
    times measured just before and just after it."""
    return wall * REFERENCE_S * 2.0 / (before + after)
