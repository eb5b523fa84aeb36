"""CPU speed sampler: runs beside one worker process, on the same CPU.

Every PERIOD seconds it wakes, runs a fixed pure-Python piece of work once
untimed (so that its code and data are back in the caches the worker left)
and once timed, and records the timed piece's thread CPU time with its
``time.monotonic()`` start and end.  Sharing the worker's CPU, it is never
running at the same instant as the worker, so it reads how fast the host
runs that CPU at the moment, not how much the two compete.  On SIGTERM it
prints the samples as JSON, ``[[start, end, cpu_s], ...]``, and exits; it
also exits, printing nothing, when the process that started it has ended.

usage: sampler.py PERIOD_S
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

PIECE = 15_000  # loop iterations of the timed piece: about 2.4 ms
WARM = 3_000


def piece(n: int) -> int:
    s = 0
    d = {}
    for i in range(n):
        s += i * i % 7
        d[i & 255] = s
    return s


def main() -> None:
    period = float(sys.argv[1])
    samples: list[tuple[float, float, float]] = []

    def stop(*_):
        sys.stdout.write(json.dumps(samples))
        sys.stdout.flush()
        sys.exit(0)

    signal.signal(signal.SIGTERM, stop)
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(period)
        piece(WARM)
        t0, c0 = time.monotonic(), time.thread_time()
        piece(PIECE)
        c1, t1 = time.thread_time(), time.monotonic()
        samples.append((t0, t1, c1 - c0))


if __name__ == "__main__":
    main()
