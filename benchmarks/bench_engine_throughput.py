"""Engine throughput: branches/second for the serial vs. parallel runner.

Not a paper experiment — this bench tracks the cost of the staged
simulation engine itself and the scaling of
:meth:`~repro.api.runner.Runner.run_suite` over a worker pool.  It uses gshare
(the cheapest real predictor) so that the loop and dispatch overhead, not
the predictor maths, dominates the measurement.

Quick mode (``REPRO_BENCH_BRANCHES=500``) keeps this under a second; the
recorded ``branches_per_sec`` numbers land in ``--benchmark-json`` output
and in the printed table for trend tracking.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import run_once, suite_runner


def _throughput(suite, elapsed: float) -> float:
    return suite.branches / elapsed if elapsed > 0 else 0.0


def test_bench_engine_throughput_serial(benchmark, bench_suite):
    runner = suite_runner("gshare", max_workers=1)
    start = time.perf_counter()
    suite = run_once(benchmark, lambda: runner.run(bench_suite))
    elapsed = time.perf_counter() - start
    rate = _throughput(suite, elapsed)
    benchmark.extra_info["branches_per_sec"] = round(rate)
    benchmark.extra_info["workers"] = 1
    print(f"\nserial engine throughput: {rate:,.0f} branches/sec "
          f"({suite.branches} branches over {len(suite)} traces)")
    assert suite.branches > 0


def test_bench_engine_throughput_parallel(benchmark, bench_suite):
    workers = max(2, min(4, os.cpu_count() or 2))
    serial = suite_runner("gshare", max_workers=1).run(bench_suite)
    runner = suite_runner("gshare", max_workers=workers)
    start = time.perf_counter()
    suite = run_once(benchmark, lambda: runner.run(bench_suite))
    elapsed = time.perf_counter() - start
    rate = _throughput(suite, elapsed)
    benchmark.extra_info["branches_per_sec"] = round(rate)
    benchmark.extra_info["workers"] = workers
    print(f"\nparallel engine throughput ({workers} workers): "
          f"{rate:,.0f} branches/sec")
    # Whatever the worker count, aggregates must match the serial path.
    assert suite.mispredictions == serial.mispredictions
    assert suite.mppki == serial.mppki
    assert [r.trace_name for r in suite.results] == [r.trace_name for r in serial.results]
