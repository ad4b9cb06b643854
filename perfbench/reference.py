"""A fixed reference computation that scales the benchmark's times.

On a shared virtual machine the CPU's speed can change a lot: on a 2-vCPU
KVM guest it changed by up to 2x, in phases that lasted minutes and in
bursts of a fraction of a second, and every program on it slowed and sped
up together.  A run of a few dozen seconds cannot average over such phases,
and raw times of the same code differed by 15-45% between runs.  The
benchmark therefore times, right after each operation, one reference
computation: a product of two 3x3 quaternion matrices with ``zd``'s
integer arithmetic modulo ``p^N`` of the workload, which does the same
kind of work as hermiwitt (Python integers, tuples and lists) but is part
of the benchmark and never changes with the program.

Each latency is scaled by ``NOMINAL_MS / (reference time around it)``: it
reads as the time the operation would take on a machine on which the
reference takes ``NOMINAL_MS``.  A change that makes the program 20%
faster lowers the scaled times by 20%, as it does the raw ones.
"""

from __future__ import annotations

import gc
import statistics
import time

from zd import SplitMix64, Zd

# About the median time of the reference on the development machine
# (2-vCPU KVM guest, Xeon, CPython 3.11.7), in ms, per (p, N).
NOMINAL_MS = {(5, 32): 0.2, (13, 128): 0.6}
# The reference time of an operation is the median of the references timed
# after it and after its HALF neighbours on each side: with HALF = 1, just
# before it, just after it and after the next operation.
HALF = 1


class Reference:
    """The reference computation for one (p, N)."""

    def __init__(self, p: int, N: int):
        self.zd = Zd(p, N)
        rng = SplitMix64(0)
        self.A = [[tuple(rng.below(self.zd.P) for _ in range(4))
                   for _ in range(3)] for _ in range(3)]
        self.nominal_ns = NOMINAL_MS[(p, N)] * 1e6
        self.time_ns()

    def time_ns(self) -> int:
        """One reference computation, in ns, with no garbage collection
        inside it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            self.zd.mat_mul(self.A, self.A)
            return time.perf_counter_ns() - t0
        finally:
            if enabled:
                gc.enable()


def scaled_ms(latencies_ns, refs_ns, nominal_ns: float) -> list:
    """Each latency in ms, scaled by the nominal reference time over the
    median of the reference times around it."""
    n = len(latencies_ns)
    out = []
    for i, lat in enumerate(latencies_ns):
        local = statistics.median(refs_ns[max(0, i - HALF):min(n, i + HALF + 1)])
        out.append(lat / 1e6 * nominal_ns / local)
    return out
