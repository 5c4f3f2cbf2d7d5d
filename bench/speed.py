"""CPU speed sampler: times a fixed rational-arithmetic kernel on one CPU every 0.1 s.

    python3 bench/speed.py CPU

On a shared virtual machine the speed of a CPU drifts by tens of percent
within seconds and minutes, and the two CPUs drift independently, so raw
wall times of the same pass spread wider than any useful regression bound.
run.py pins a sampler to each CPU the measured processes run on and scales
their times to a reference speed: a time t measured while the kernel took k
seconds of CPU on average becomes t * REFERENCE_KERNEL_S / k.  The kernel
takes about 2.5% of the CPU it shares with the measured process.

Samples are [monotonic start, CPU seconds of one kernel run]; they are
printed as one JSON line when stdin reaches end of file.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time
from fractions import Fraction

INTERVAL_S = 0.1
REFERENCE_KERNEL_S = 0.002  # typical kernel time on a 2.1 GHz x86_64 vCPU


def kernel() -> int:
    """Fixed work like the program's: exact row reduction of a small rational matrix."""
    n, m = 7, 11
    T = [[Fraction((i * 7 + j * 13) % 17 - 8, (i + j) % 5 + 1) for j in range(m)]
         for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if T[r][c]), None)
        if p is None:
            continue
        T[c], T[p] = T[p], T[c]
        T[c] = [x / T[c][c] for x in T[c]]
        for r in range(n):
            if r != c and T[r][c]:
                f = T[r][c]
                T[r] = [x - f * y for x, y in zip(T[r], T[c])]
    return len(T)


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        start, cpu = time.monotonic(), time.thread_time()
        kernel()
        samples.append([start, time.thread_time() - cpu])
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
