"""Host speed: a fixed reference kernel timed between short units of work.

On a shared virtual machine the speed of one vCPU swings by up to 3x within
a minute (other tenants' load on the same core and caches), and both the
wall time and the CPU time of the program swing with it, so no median or
quartile of raw timings agrees between runs made minutes apart.  The benchmark
therefore times this kernel right before and right after every short unit
of work (a sim-mix cell, a segment of a served round) and reports the
unit's times *at reference speed*: multiplied by ``REF_S`` over the mean of
the two kernel timings around it.

The kernel is a small set-associative LRU cache model in plain Python
(attribute access, list scans, small objects), close to the instruction mix
of the simulator and the server, so a slow phase of the host stretches both
about equally (the README gives the residual).  It is part of the benchmark's definition: changing it, or
``REF_S``, changes the unit every timing is expressed in.
"""

from __future__ import annotations

import random
import time

from .common import clock

#: the kernel's time on the reference host: timings are scaled to it
REF_S = 0.003

_SETS, _WAYS = 512, 8
#: the kernel's fixed reference stream: skewed addresses, 1 in 4 a write
_RNG = random.Random(5)
_ADDRS = [int(_RNG.paretovariate(0.7)) % 200_000 for _ in range(12_000)]


class _Line:
    __slots__ = ("tag", "stamp", "dirty")

    def __init__(self, tag: int, stamp: int):
        self.tag = tag
        self.stamp = stamp
        self.dirty = False


class _Cache:
    def __init__(self):
        self.sets = [[] for _ in range(_SETS)]
        self.now = 0
        self.hits = 0

    def access(self, addr: int, write: bool) -> bool:
        self.now += 1
        ways = self.sets[addr % _SETS]
        tag = addr // _SETS
        for line in ways:
            if line.tag == tag:
                line.stamp = self.now
                line.dirty |= write
                self.hits += 1
                return True
        if len(ways) >= _WAYS:
            ways.remove(min(ways, key=lambda line: line.stamp))
        ways.append(_Line(tag, self.now))
        return False


def kernel_s() -> float:
    """Wall seconds one pass of the reference kernel takes now."""
    t0 = clock()
    cache = _Cache()
    for i, addr in enumerate(_ADDRS):
        cache.access(addr, i & 3 == 0)
    return clock() - t0


class Ruler:
    """Scales consecutive units of work to reference speed.

    Creating one times the kernel; :meth:`scale` closes a unit: it times
    the kernel again (which also opens the next unit) and returns the
    unit's factor, ``REF_S`` over the mean of the kernel timings on either
    side.  Call it right after the unit, before any other work.
    """

    def __init__(self):
        self.kernel_cpu_s = 0.0  # CPU the kernel itself used
        self.wall_s = 0.0  # the units' wall time as measured
        self.ref_s = 0.0  # the same at reference speed
        self.units = 0
        self._last = self._kernel()

    def _kernel(self) -> float:
        cpu0 = time.process_time()
        took = kernel_s()
        self.kernel_cpu_s += time.process_time() - cpu0
        return took

    def scale(self, wall_s: float) -> float:
        """Close a unit that took ``wall_s``; returns its factor."""
        took = self._kernel()
        factor = 2.0 * REF_S / (self._last + took)
        self._last = took
        self.units += 1
        self.wall_s += wall_s
        self.ref_s += wall_s * factor
        return factor

    @property
    def factor(self) -> float:
        """Mean factor over the units so far, weighted by their time."""
        return self.ref_s / self.wall_s if self.wall_s else 1.0
