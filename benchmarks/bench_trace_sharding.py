"""Trace sharding: one long trace fanned across the warm worker pool.

Not a paper experiment — this bench justifies the sharding layer: a
single long branch stream used to serialize on one worker while the rest
of the pool idled; splitting it into warmup+measure shards turns the one
trace into pool-wide work.  Three measurements on one long synthetic
trace:

* **unsharded** — the whole trace as one task on the persistent pool,
* **sharded (warmup mode)** — the same trace as ``SHARDS`` independent
  shard tasks on the same pool, merged back into one result; wall-clock
  speedup should approach the shard count when enough cores exist,
* **exact-mode parity** — an exact-mode request, which runs the trace
  whole (no speedup by design), asserted bit-identical to the unsharded
  run.

The warmup-mode result is also checked against the unsharded numbers
(MPKI within a documented tolerance).  The ≥2x speedup assertion only
fires when the machine has at least 4 cores — on fewer cores there is
nothing for the shards to fan out to (set
``REPRO_BENCH_ASSERT_SPEEDUP=1`` to force it anyway).

Sizing: the trace is ``REPRO_BENCH_SHARD_BRANCHES`` branches long
(default ``40 * REPRO_BENCH_BRANCHES``, so quick CI mode stays small and
an explicit 200k+ run demonstrates the acceptance numbers)::

    REPRO_BENCH_SHARD_BRANCHES=400000 PYTHONPATH=src \
        python -m pytest benchmarks/bench_trace_sharding.py -x -q -s
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import BENCH_BRANCHES, run_once
from repro.api import Runner, RunnerConfig, RunRequest, ShardingPolicy

SHARDS = 4
SHARD_BRANCHES = int(
    os.environ.get("REPRO_BENCH_SHARD_BRANCHES", str(40 * BENCH_BRANCHES))
)
WARMUP = min(2000, max(10, SHARD_BRANCHES // 40))
TRACE = f"synthetic:mixed?length={SHARD_BRANCHES}&seed=17"
KIND = os.environ.get("REPRO_BENCH_SHARD_KIND", "gshare")

#: Documented bounded-warmup accuracy tolerance (fraction of MPKI).
MPKI_TOLERANCE = 0.05


def _runner() -> Runner:
    config = RunnerConfig(
        workers=min(SHARDS, os.cpu_count() or 1),
        auto_shard_branches=None,  # the bench shards explicitly
    )
    return Runner(config, persistent=True)


def _timed(runner: Runner, policy: ShardingPolicy | None):
    request = RunRequest(KIND, TRACE, sharding=policy)
    started = time.perf_counter()
    suite = runner.run(request)
    return suite.results[0], time.perf_counter() - started


def test_sharded_speedup_on_warm_pool(benchmark):
    with _runner() as runner:
        # Warm the pool (process spawn + predictor build) and memoise the
        # trace resolution out of the timing.
        runner.run(RunRequest(KIND, "synthetic:mixed?length=500&seed=17"))
        runner.resolve(TRACE)

        base, base_seconds = _timed(runner, ShardingPolicy(shards=1))

        def sharded():
            return _timed(runner, ShardingPolicy(shards=SHARDS, warmup=WARMUP))

        merged, shard_seconds = run_once(benchmark, sharded)

        exact, _ = _timed(runner, ShardingPolicy(shards=SHARDS, mode="exact"))

    assert merged.branches == base.branches
    assert merged.instructions == base.instructions
    assert abs(merged.mpki - base.mpki) <= MPKI_TOLERANCE * max(base.mpki, 1.0)
    assert exact == base, "an exact-mode run must be bit-identical to the unsharded run"

    speedup = base_seconds / shard_seconds if shard_seconds else float("inf")
    print(
        f"\ntrace {TRACE} ({merged.branches} branches), {SHARDS} shards, "
        f"warmup {WARMUP}: unsharded {base_seconds:.2f}s, "
        f"sharded {shard_seconds:.2f}s, speedup {speedup:.2f}x "
        f"(mpki {merged.mpki:.3f} vs {base.mpki:.3f}; exact mode, run whole, "
        f"matches the unsharded run)"
    )

    cores = os.cpu_count() or 1
    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") or cores >= SHARDS:
        assert speedup >= 2.0, (
            f"expected >=2x speedup at {SHARDS} shards on {cores} cores, "
            f"got {speedup:.2f}x"
        )
