"""The reference slice: fixed work that tracks the host's speed.

A shared virtual machine can change speed by up to 1.5x over stretches
of 30 to 100 s (seen on 2 vCPUs of a 2.1 GHz Xeon), far more than the
changes the benchmark must resolve. A run therefore interleaves its
timed passes with reference slices, a fixed mix of what the workloads
spend their time on (interpreted Python loops, sorting, element-wise
powers over an array), and reports times in nominal seconds: each call's measured seconds
scaled by REF_NOMINAL_S over the mean time of the slices run just
before and just after it. The slice calls nothing in affdim, so a
change to the program moves the scaled times as much as it moves the
measured ones, while a slower host slows the slices too.

    from reference import Paced
    paced = Paced(tracer)          # use in place of the tracer
    wl.run_pass(inputs, paced)
    paced.close()
    wall_s, cpu_s = paced.nominal()
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from typing import List, Tuple

import numpy as np

# Median slice time on the machine the README's figures come from (2
# vCPUs of a 2.1 GHz Xeon); times are reported at that speed.
REF_NOMINAL_S = 0.0175

_LOOP = 80_000
_ARRAY = np.random.default_rng(20230227).random(600_000)
# the slice works in buffers allocated once, so that its time does not
# depend on what the allocator holds after the call before it
_SORTED = np.empty_like(_ARRAY)
_POWERED = np.empty_like(_ARRAY)
# every term is a multiple of 0.5 below 4, so the float sum is exact
_LOOP_SUM = sum((i % 7) * 0.5 for i in range(_LOOP))


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_slice() -> float:
    """Run the fixed work once; return its wall seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_LOOP):
        acc += (i % 7) * 0.5
    np.copyto(_SORTED, _ARRAY)
    _SORTED.sort()
    np.power(_ARRAY, 0.37, out=_POWERED)
    t1 = time.perf_counter()
    if acc != _LOOP_SUM or _SORTED[0] > _SORTED[-1] or not _POWERED[0] >= 0.0:
        raise RuntimeError("reference slice computed a wrong result")
    return t1 - t0


class Paced:
    """Wraps a tracer so that reference slices bracket every span.

    The workloads open one span per public call. A slice runs before
    every span and close() runs one after the last, so a pass becomes
    slice, call, slice, ..., call, slice. The slices run outside the
    spans; each call's measured wall and CPU seconds are kept.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.slices: List[float] = []
        self.calls: List[Tuple[float, float]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        self.slices.append(reference_slice())
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with self.tracer.span(name, **attrs) as record:
            yield record
        self.calls.append((time.perf_counter() - t0, cpu_seconds() - cpu0))

    def close(self) -> None:
        self.slices.append(reference_slice())

    def scales(self) -> List[float]:
        """Per call, REF_NOMINAL_S over the mean of the two slices around it."""
        return [2.0 * REF_NOMINAL_S / (a + b) for a, b in zip(self.slices, self.slices[1:])]

    def measured(self) -> Tuple[float, float]:
        """Wall and CPU seconds of the calls, as measured."""
        return sum(w for w, _ in self.calls), sum(c for _, c in self.calls)

    def nominal(self) -> Tuple[float, float]:
        """Wall and CPU seconds of the calls, each scaled to nominal speed."""
        scales = self.scales()
        return (sum(w * k for (w, _), k in zip(self.calls, scales)),
                sum(c * k for (_, c), k in zip(self.calls, scales)))
