"""Host-speed reference: timings scaled to one fixed host speed.

On a shared 2-vCPU host the same pure-Python kernel runs anywhere from
26k to 41k calls per CPU-second depending on the minute, and the lock
service's wall-clock figures follow it (README.md has the measured
spreads).  The driver therefore samples :meth:`HostSpeed.sample` every
100 ms: two fixed, benchmark-owned kernels that never call the program,
1 ms each, timed by the driver thread's own CPU clock so that waiting on
the GIL or a busy program thread does not count.

* a compute kernel of the lock manager's kind of work: attribute access,
  dict get/set/delete, method calls, small objects;
* a memory kernel: a dependent walk through an 8 MB array, one cache
  miss per step.

The lock service is partly one and partly the other.  Over the 1 s
windows of one 40 s run each, its throughput moved with 0.61
(``oltp_local``) and 0.50 (``rollout_local``) of the compute kernel's
speed changes, and with 1.4 and 1.1 of the memory kernel's; against the
geometric mean of the two it moved with 0.97 and 0.75.  So the slowdown
is that geometric mean, each kernel against its reference rate; a
window's rates are multiplied by it and its latencies divided by it.
"""

from __future__ import annotations

import math
import time
from array import array

#: Kernel calls per CPU-second on the reference host (this 2-vCPU Xeon
#: at its typical speed); a scaled figure is what that host would show.
REFERENCE_COMPUTE_RATE = 25_000.0
REFERENCE_MEMORY_RATE = 80_000.0

#: CPU seconds each kernel runs per sample.
KERNEL_S = 0.001

#: The memory kernel's array: 2**20 eight-byte slots, far beyond L2.
_CHAIN_BITS = 20
_WALK_STEPS = 64


class _Slot:
    __slots__ = ("key", "mode", "count")

    def __init__(self, key, mode) -> None:
        self.key = key
        self.mode = mode
        self.count = 1

    def bump(self) -> int:
        self.count += 1
        return self.count


def _compute_kernel() -> None:
    table = {}
    held = []
    for i in range(32):
        key = (i & 7, i * 2654435761 % 50_000)
        slot = table.get(key)
        if slot is None:
            slot = table[key] = _Slot(key, "X" if i & 1 else "S")
        else:
            slot.bump()
        held.append(key)
    while held:
        key = held.pop()
        slot = table.get(key)
        if slot is not None and slot.bump() > 1:
            del table[key]


class HostSpeed:
    """The two reference kernels and their state (the memory walk)."""

    def __init__(self) -> None:
        size = 1 << _CHAIN_BITS
        mask = size - 1
        # A full-period LCG (multiplier 1 mod 4, odd increment) visits
        # every slot once per cycle, in a cache-hostile order; building
        # it from a generator keeps the peak footprint at the array's.
        self._chain = array("l", ((i * 1_103_515_245 + 12_345) & mask for i in range(size)))
        self._at = 0

    def _memory_kernel(self) -> None:
        chain = self._chain
        at = self._at
        for _ in range(_WALK_STEPS):
            at = chain[at]
        self._at = at

    @staticmethod
    def _rate(kernel) -> float:
        clock = time.thread_time
        started = clock()
        calls = 0
        while True:
            kernel()
            calls += 1
            elapsed = clock() - started
            if elapsed >= KERNEL_S:
                return calls / elapsed

    def sample(self) -> float:
        """Slowdown of this host right now against the reference host."""
        compute = REFERENCE_COMPUTE_RATE / self._rate(_compute_kernel)
        memory = REFERENCE_MEMORY_RATE / self._rate(self._memory_kernel)
        return math.sqrt(compute * memory)
