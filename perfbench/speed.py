"""Host-speed probe: a fixed piece of work that does not use racelab.

On a shared host the CPU speed one process gets changes from second to
second, so a wall time read alone mixes racelab's work with the host's load.
The worker runs `probe()` between ops (outside their timing) and right after
set-up; run.py divides each wall time by the probes' mean time around it and
multiplies by REF_S, which gives the time at the speed where one probe takes
REF_S.  A change to racelab moves the wall time and leaves the probe alone,
so it shows in full.

The probe mixes the kinds of work racelab does: exact Fraction arithmetic,
complex roots of unity, dict and tuple traffic, and small numpy sorts.
"""

from __future__ import annotations

import cmath
import gc
import time
from fractions import Fraction

import numpy as np

# about the probe's median time between ops on the 2-core x86 VM where the
# benchmark was defined; only a scale, the same on every commit
REF_S = 0.010


def probe() -> float:
    """Run the fixed work once; return its wall time in seconds.  The
    garbage collector is off meanwhile, so the time does not depend on how
    many objects the ops before it left alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, z, counts = Fraction(0), 0j, {}
        for k in range(1, 800):
            acc += Fraction(k % 97, 1 + k % 89)
            z += cmath.exp(2j * cmath.pi * k / 97)
            key = (k % 211, k % 7)
            counts[key] = counts.get(key, 0) + k
        rng = np.random.default_rng(1)
        for _ in range(12):
            a = rng.random((24, 256))
            order = np.argsort(-a, axis=0, kind="stable")
            np.diff(np.take_along_axis(a, order, axis=0), axis=0)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
