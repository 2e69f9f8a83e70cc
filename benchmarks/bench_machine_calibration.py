"""Machine calibration: a fixed workload that no change to ``repro`` moves.

``benchmarks/check_regression.py`` divides each bench's current/baseline
time ratio by this bench's ratio, to factor out the speed of the machine
the benches ran on.  Because nothing here imports ``repro``, a change that
speeds up many benches cannot make the untouched ones look slower, as a
median over all benches would.  The workload mixes pure-Python integer
arithmetic and numpy array passes, the two kinds of work the simulator
does, and runs several rounds so the median is stable.
"""

from __future__ import annotations

import numpy as np


def _workload() -> int:
    state = 0
    for i in range(300_000):
        state = (state * 31 + (i ^ (i >> 3))) & 0xFFFFFFFF
    values = np.arange(1 << 20, dtype=np.int64)
    for shift in range(1, 9):
        values = values ^ (values >> shift)
    return state ^ int(np.bitwise_xor.reduce(values))


def test_bench_machine_calibration(benchmark):
    result = benchmark.pedantic(_workload, rounds=7, iterations=1, warmup_rounds=1)
    assert result == _workload()  # deterministic: the same work every round
