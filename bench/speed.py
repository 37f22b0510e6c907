"""Timing against a reference loop, to cancel the host's changing speed.

On a shared virtual machine the same CPU-bound Python code can run 1.4x
slower for tens of seconds at a time, and process CPU time slows with wall
time, so it is no remedy.  Raw pass times of one workload then spread by a
quarter or more between runs.  Each measured call is therefore bracketed by
a short fixed pure-Python loop, and its time is scaled by how long that loop
took around it:

    scaled = raw * REFERENCE_S / mean(loop before, loop after)

A scaled time reads as seconds on a machine where the loop takes
``REFERENCE_S``.  The loop touches no seqcore code, so a change to seqcore
moves scaled times exactly as it moves raw ones.

The loop fills a dict at scattered keys.  Of the loops tried, its time
tracked the slowdowns of repeated seqcore calls best (correlation 0.76 over
147 calls); a loop over a small table tracked them hardly at all (0.08),
since what slows is mostly memory access, not arithmetic.  The collector is
off while it runs, so that a collection of the caller's heap is not counted
as host speed.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Callable, TypeVar

T = TypeVar("T")

REFERENCE_S = 0.019
_LOOP_ITERATIONS = 60000


def loop_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        for i in range(_LOOP_ITERATIONS):
            table[i * 7919 % 1000003] = (i,)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed(fn: Callable[[], T]) -> tuple[T, float, float]:
    """Run ``fn`` once.  Returns its result, its scaled time and its raw
    time in seconds."""
    before = loop_seconds()
    start = perf_counter()
    result = fn()
    raw = perf_counter() - start
    after = loop_seconds()
    return result, raw * REFERENCE_S * 2 / (before + after), raw
