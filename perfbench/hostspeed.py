"""How fast the host ran during a measured window.

The shared host this benchmark runs on changes speed by a third or more in
phases that last from seconds to minutes, so no run length averages them
out: batch times of a CPU-bound workload spread by about 20% (IQR/median)
between 20-second windows of one long run.  While a workload is measured,
one probe process pinned to each CPU times a fixed pure-Python loop every
``PERIOD`` seconds.  It reads CPU time, not wall time: time spent waiting
for a CPU the workload holds is not counted, so the probe sees how fast
the host ran, not how busy the workload kept it.  The mean loop time over
the window divided by ``REFERENCE_S`` is the window's slowdown; dividing a
CPU-bound timing by it gives the timing at reference speed.  That cut the
spread above to about 4%.  An operation's latency is scaled by the
slowdown over its own interval, which follows the phases more closely.

Run as a script, this module is the probe itself::

    python3 perfbench/hostspeed.py <cpu>

It samples until its standard input closes, then prints its samples as
one JSON list of ``[perf_counter at the sample's end, loop CPU seconds]``
(``perf_counter`` reads the system-wide monotonic clock on Linux, so the
times compare across processes).
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time

#: Loop iterations per sample: about 15 ms on a 2.0 GHz Xeon vCPU.  A
#: sample starts when the probe wakes, which it can only do while the
#: host runs it, so short samples miss part of the host's stalls: 4 ms
#: samples moved 1/1.34 as much as the workloads' timings, 20 ms 1/1.20.
ITERATIONS = 100_000
#: Seconds between samples; the probes take about 4% of each CPU.
PERIOD = 0.35
#: Mean CPU seconds of one sample at reference speed (the fast phase of a
#: 2-vCPU 2.0 GHz Xeon VM with Python 3.11).
REFERENCE_S = 0.0135
#: An interval's slowdown averages the samples that ended within it or
#: within ``PAD`` seconds of it, if there are ``MIN_SAMPLES`` of them.
PAD = 1.0
MIN_SAMPLES = 8


#: The loop updates a dict entry, as interpreted simulation code mostly
#: does; it tracks the workloads' speed better than a local-variable loop.
_STATE = {"total": 0}


def loop_cpu_s() -> float:
    """CPU seconds this thread spends on the fixed loop."""
    state = _STATE
    start = time.thread_time()
    for index in range(ITERATIONS):
        state["total"] += index * index % 7
    return time.thread_time() - start


def probe(cpu: int) -> None:
    """Sample the loop on ``cpu`` until standard input closes."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD)[0]:
        cpu_s = loop_cpu_s()
        samples.append((time.perf_counter(), cpu_s))
    print(json.dumps(samples))


def _kill(procs: list[subprocess.Popen]) -> None:
    """Stop every probe still running and wait for it to end."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


class HostSpeed:
    """Probe processes on every CPU this process may use, for one window."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []
        #: ``(end, cpu_s)`` of every sample, in time order once stopped.
        self.samples: list[tuple[float, float]] = []

    def start(self) -> "HostSpeed":
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self.procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
        except BaseException:
            _kill(self.procs)
            raise
        return self

    def stop(self) -> float:
        """End the window; returns its slowdown against reference speed."""
        procs, self.procs = self.procs, []
        try:
            for proc in procs:
                proc.stdin.close()
            for proc in procs:
                out = proc.stdout.read()
                if proc.wait(timeout=30) != 0:
                    raise RuntimeError(f"host speed probe exited {proc.returncode}")
                self.samples.extend(map(tuple, json.loads(out)))
        finally:
            _kill(procs)
        if not self.samples:
            raise RuntimeError("host speed probes took no samples")
        self.samples.sort()
        return self.slowdown()

    def close(self) -> None:
        """Stop any probe still running, as when the window ended in an error."""
        procs, self.procs = self.procs, []
        _kill(procs)

    def slowdown(self, start: float | None = None, end: float | None = None) -> float:
        """Slowdown over the window, or over ``[start, end]`` (perf_counter).

        An interval with fewer than ``MIN_SAMPLES`` samples near it gets
        the whole window's slowdown.
        """
        window = [cpu_s for _, cpu_s in self.samples]
        if start is not None and end is not None:
            ends = [when for when, _ in self.samples]
            near = window[bisect.bisect_left(ends, start - PAD):
                          bisect.bisect_right(ends, end + PAD)]
            if len(near) >= MIN_SAMPLES:
                window = near
        return statistics.fmean(window) / REFERENCE_S


if __name__ == "__main__":
    probe(int(sys.argv[1]))
