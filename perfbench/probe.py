"""Host-speed probe: how fast the CPU runs code at each moment of a run.

A shared machine can run the same code up to twice as fast at one moment
as at another, depending on what else it runs; the change comes and goes
over seconds to minutes, and each CPU changes on its own.  One probe runs
pinned to each CPU for the whole run.  Every ``PERIOD_S`` it runs a fixed
pure-Python loop and records ``(monotonic time, CPU seconds the loop
took)``.  CPU time leaves out any wait for the CPU, so the probe sees the
CPU's speed, not the benchmark's own load.

Protocol: each line on stdin is answered with one stdout line, a JSON list
of every ``[time, cpu_s]`` sample so far; end of input stops the probe.
Started by :class:`program.SpeedProbe`; by hand::

    python3 perfbench/probe.py CPU
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

#: Loop iterations per sample: about 1-2 ms of CPU.
LOOP = 20_000
#: Pause between samples: the probe keeps about a twentieth of its CPU.
PERIOD_S = 0.025


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    samples = []
    stdin = sys.stdin.fileno()
    while True:
        began = time.perf_counter()
        cpu = time.process_time()
        total = 0
        for i in range(LOOP):
            total += i
        cpu = time.process_time() - cpu
        samples.append((0.5 * (began + time.perf_counter()), cpu))
        ready, _, _ = select.select([stdin], [], [], PERIOD_S)
        if ready:
            if not os.read(stdin, 4096):
                return 0
            sys.stdout.write(json.dumps(samples) + "\n")
            sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
