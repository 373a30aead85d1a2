"""Machine-speed calibration: a fixed pure-Python loop, timed.

The loop does the kind of work the server does most (bytecode dispatch,
integer arithmetic, no allocation beyond small ints), so its time moves with
the CPU speed the server gets from the machine at that moment.

Run as ``python3 perfbench/calibrate.py '<cpus json>'``, the module is the
benchmark's calibrator process.  It pins itself to those CPUs (the server's),
prints ``{"ready": true}`` and answers one-line commands on stdin:

``begin``  start slicing: every ``SLICE_INTERVAL_S`` wall seconds, time one
           ``SLICE_LOOPS`` loop, until the next command
``end``    stop slicing; reply with the slices' count and mean CPU seconds

Any other line, or the end of input, ends the process.

Slicing runs beside a phase, so its readings follow the speed the machine
gives the CPU over the whole phase (on a shared host it changes within a
second), at a cost of about a twentieth of the CPU.  The calibrator is a
process of its own and times its own thread's CPU time, not wall time: work
of the server's on the shared CPU takes turns with a slice without
lengthening its reading, so the program under test cannot slow the
calibration by running more.  Time the hypervisor steals from the CPU is not
in a reading either; ``loadgen.stolen_ticks`` accounts for it per phase.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import sys
import time

#: iterations of the loop recorded before and after every run
RECORD_LOOPS = 3_000_000
#: iterations the reference speed is given for
SPEED_LOOPS = 1_000_000
#: CPU seconds ``SPEED_LOOPS`` took on the reference machine (an Intel Xeon VM
#: at 2.1 GHz, median over quiet moments): normalized timings are expressed at
#: this speed
REFERENCE_SPEED_S = 0.06
#: iterations of one slice (about 1 ms at the reference speed)
SLICE_LOOPS = 16_000
#: wall seconds from the end of one slice to the start of the next
SLICE_INTERVAL_S = 0.02


def loop_seconds(loops: int, clock=time.perf_counter) -> float:
    """Seconds on ``clock`` for ``loops`` iterations of the reference loop."""
    started = clock()
    total = 0
    for value in range(loops):
        total += value & 7
    return clock() - started


def slowness(loop_cpu_s: float, loops: int) -> float:
    """1.0 at the reference speed, 2.0 at half of it."""
    return loop_cpu_s / (REFERENCE_SPEED_S * loops / SPEED_LOOPS)


def _slices(stdin) -> list:
    """Time slices until a command arrives on ``stdin``."""
    times = []
    while True:
        times.append(loop_seconds(SLICE_LOOPS, time.thread_time))
        if select.select([stdin], [], [], SLICE_INTERVAL_S)[0]:
            return times


def main() -> None:
    cpus = json.loads(sys.argv[1])
    if cpus:
        os.sched_setaffinity(0, cpus)

    def reply(payload: dict) -> None:
        print(json.dumps(payload), flush=True)

    reply({"ready": True})
    # one command, then one reply: nothing waits in the stdin buffer while
    # ``select`` watches the descriptor
    while sys.stdin.readline().strip() == "begin":
        reply({"slicing": True})
        slices = _slices(sys.stdin)
        command = sys.stdin.readline().strip()
        reply({"slices": len(slices),
               "slice_cpu_s": statistics.fmean(slices)})
        if command != "end":
            return


if __name__ == "__main__":
    main()
