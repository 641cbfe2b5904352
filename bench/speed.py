"""The machine's current speed, sampled by a fixed reference slice.

The benchmark runs on shared hosts whose speed drifts by more than half
over minutes, so a raw interval says as much about the host as about
quatalg.  A slice is a fixed piece of pure-Python work that shares no
code with the package: one product of two fixed polynomials with
Fraction coefficients, done by the oracle's reference arithmetic.  The
harness runs a slice after every operation, outside the timed intervals,
and scales each interval by the slices around it, so the reported times
are those of a host on which one slice takes ``NOMINAL_SLICE_S``.  A
change to quatalg leaves the slices alone and moves the scaled times;
a change in the host's speed moves both and cancels out.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

from . import oracle as O

# One slice takes about this long on a 2-vCPU Xeon VM at 2.0 GHz
# (0.7-1.2 ms as the host's load varies); scaled times are reported at it.
NOMINAL_SLICE_S = 0.001

# Slices on each side of an operation that make its local speed.
WINDOW = 4

_TAB = O.table(Fraction(-1), Fraction(-1))


def _poly(rng):
    return {tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4))):
            Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3))) for _ in range(12)}


_RNG = random.Random("speed-slice")
_A, _B = _poly(_RNG), _poly(_RNG)


def slice_s() -> float:
    """Seconds one reference slice takes now.

    The cyclic collector is off during the slice, so its time does not
    depend on how much the operations before it left alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        O.gen_mul(_A, _B, _TAB)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor() -> float:
    """Current slowness of the host: median of 25 slices ÷ nominal slice."""
    return statistics.median(slice_s() for _ in range(25)) / NOMINAL_SLICE_S


def scaled(latencies, slices):
    """Each latency divided by the slowness around it.

    ``slices[j]`` ran just before operation j and ``slices[j + 1]`` just
    after it; the local slowness is the median of the WINDOW slices on
    either side, so one slow slice does not move an operation.
    """
    if len(slices) != len(latencies) + 1:
        raise ValueError(f"{len(slices)} slices for {len(latencies)} operations")
    out = []
    for j, dt in enumerate(latencies):
        near = slices[max(0, j + 1 - WINDOW):j + 1 + WINDOW]
        out.append(dt * NOMINAL_SLICE_S / statistics.median(near))
    return out
