"""A fixed computation that measures the host's current speed.

The machine this benchmark was written on changes speed by up to ±30% over
minutes, and flips between a fast and a slow state within seconds, for any
kernel (CPU time tracks wall time, so the drift is not steal).  The run loop
therefore calls `measure()` before every operation and after the last one
of a round, and scales each operation's time by REFERENCE_S / (mean of the
measurements on either side of it).  `kernel()` does the same kind of work
as the program (small numpy arrays under a Python recursion).  It is the
benchmark's own code, so it is the same for the parent and for a change; a
change to loopfield moves the scaled times and leaves the kernel alone.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# typical measure() between operations on the reference host (2 vCPUs,
# Python 3.11.7, numpy 2.4.6), so that scaled times read close to wall time there
REFERENCE_S = 0.0031

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(8)
_DEPTH = 2


def _integrand(s, t):
    """Gauss integrand of the unit ring (parameter s) and a circle of
    radius 0.7 about +y through it (parameter t)."""
    ring = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=-1)
    d_ring = np.stack([-np.sin(s), np.cos(s), np.zeros_like(s)], axis=-1)
    loop = np.stack([1.1 + 0.7 * np.cos(t), np.zeros_like(t), 0.7 * np.sin(t)], axis=-1)
    d_loop = np.stack([-0.7 * np.sin(t), np.zeros_like(t), 0.7 * np.cos(t)], axis=-1)
    rel = ring[None, :, :] - loop[:, None, :]
    num = np.einsum("ijk,jk->ij", np.cross(d_loop[:, None, :], rel), d_ring)
    return num * np.einsum("ijk,ijk->ij", rel, rel) ** -1.5


def _cell(a, b, c, d):
    s = 0.5 * (a + b) + 0.5 * (b - a) * _NODES
    t = 0.5 * (c + d) + 0.5 * (d - c) * _NODES
    return 0.25 * (b - a) * (d - c) * (_WEIGHTS @ _integrand(s, t) @ _WEIGHTS)


def _split(a, b, c, d, depth):
    ms, mt = 0.5 * (a + b), 0.5 * (c + d)
    boxes = ((a, ms, c, mt), (a, ms, mt, d), (ms, b, c, mt), (ms, b, mt, d))
    # every level is evaluated, as an adaptive refinement compares coarse
    # and fine cells; only the finest level is summed
    values = [_cell(*box) for box in boxes]
    if depth == _DEPTH:
        return sum(values)
    return sum(_split(*box, depth + 1) for box in boxes)


def kernel() -> float:
    """The linking number of the pair, -1, by two fixed levels of cells."""
    two_pi = 2.0 * math.pi
    return _split(0.0, two_pi, 0.0, two_pi, 1) / (4.0 * math.pi)


def measure() -> float:
    """Seconds for one kernel() with the garbage collector held off, so that
    a collection owed by the program is not charged here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
