"""Service throughput: cold pool vs. persistent pool, and HTTP latency.

Not a paper experiment — this bench justifies the service architecture:
a long-lived :class:`~repro.pipeline.parallel.WorkerPool` whose worker
processes outlive each batch must beat rebuilding a process pool per
batch when many small requests arrive back to back (the ROADMAP's
many-small-requests scenario).  Three measurements:

* **cold pool** — a fresh ephemeral-mode :class:`Runner` per request
  round: every round pays process spawn,
* **persistent pool** — one persistent-mode runner across all rounds:
  spawn once (both paths build a fresh predictor per task),
* **HTTP end-to-end** — the same rounds as ``POST /v2/runs?wait=1``
  against a live in-process server, reporting requests/sec and
  p50/p95 latency,
* **mixed load** — 64 interactive clients waiting on tiny submissions
  while one fig10-sized batch occupies the service: the server with
  priority lanes must beat the same server with a single dispatch lane
  by at least 2x on interactive p95 (the lanes' headline claim,
  asserted in-bench so it stays regression-gated).

Quick mode (``REPRO_BENCH_BRANCHES=500``) keeps the whole file under ~60 s.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import urllib.request

from benchmarks.conftest import BENCH_BRANCHES, run_once
from repro.api import Runner, RunnerConfig, RunRequest
from repro.service import ServiceClient, SimulationService, make_server

#: Each round is one small mixed-spec batch — two tasks, so the pool
#: (not the serial fallback) executes it.
ROUNDS = 8
_POOL_WORKERS = 2
#: The architecture under test is the interpreter's worker pool: the
#: default route runs gshare/bimodal in-process on the native kernel and
#: never reaches the pool, so every runner here selects ``interp``.
_BACKEND = "interp"


def _requests(round_index: int) -> list[RunRequest]:
    # Alternate trace seeds so rounds are distinct work, same shape.
    seed = 4 + (round_index % 2)
    return [
        RunRequest("gshare", f"synthetic:biased?length={BENCH_BRANCHES}&seed={seed}"),
        RunRequest("bimodal", f"synthetic:loop?iterations=9&length={BENCH_BRANCHES}&seed={seed}"),
    ]


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def _report(label: str, latencies: list[float]) -> None:
    total = sum(latencies)
    print(f"\n{label}: {len(latencies) / total:,.1f} req/s, "
          f"p50 {1000 * statistics.median(latencies):.1f} ms, "
          f"p95 {1000 * _percentile(latencies, 0.95):.1f} ms "
          f"({len(latencies)} rounds)")


def _drive(runner_factory) -> list[float]:
    """Per-round wall-clock latencies; each round may build its own runner."""
    latencies = []
    for round_index in range(ROUNDS):
        requests = _requests(round_index)
        start = time.perf_counter()
        with runner_factory() as runner:
            runner.run_batch(requests)
        latencies.append(time.perf_counter() - start)
    return latencies


def test_bench_cold_vs_persistent_pool(benchmark):
    def measure():
        cold = _drive(lambda: Runner(RunnerConfig(workers=_POOL_WORKERS, backend=_BACKEND)))
        warm_runner = Runner(RunnerConfig(workers=_POOL_WORKERS, backend=_BACKEND), persistent=True)
        with warm_runner:
            warm = []
            for round_index in range(ROUNDS):
                requests = _requests(round_index)
                start = time.perf_counter()
                warm_runner.run_batch(requests)
                warm.append(time.perf_counter() - start)
        return cold, warm

    cold, warm = run_once(benchmark, measure)
    _report("cold pool (fresh executor per round)", cold)
    _report("persistent pool (workers already spawned)", warm)
    benchmark.extra_info["cold_mean_ms"] = round(1000 * statistics.mean(cold), 2)
    benchmark.extra_info["warm_mean_ms"] = round(1000 * statistics.mean(warm), 2)
    # The architectural claim: once spawned, the persistent pool beats
    # paying process construction every round.  Compare steady-state
    # rounds (skip each path's first round to exclude one-off startup
    # noise).
    assert statistics.mean(warm[1:]) < statistics.mean(cold[1:]), (warm, cold)


def test_bench_http_service_latency(benchmark):
    service = SimulationService(
        runner=Runner(RunnerConfig(workers=_POOL_WORKERS, backend=_BACKEND), persistent=True)
    ).start()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.url)

    def measure():
        latencies = []
        for round_index in range(ROUNDS):
            payload = [request.to_dict() for request in _requests(round_index)]
            start = time.perf_counter()
            document = client.submit(payload, wait=True, timeout=120)
            latencies.append(time.perf_counter() - start)
            assert document["status"] == "done", document
        return latencies

    try:
        latencies = run_once(benchmark, measure)
        stats = client.stats()
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)

    _report("HTTP POST /v2/runs?wait=1 (persistent pool)", latencies)
    benchmark.extra_info["http_p50_ms"] = round(1000 * statistics.median(latencies), 2)
    benchmark.extra_info["http_p95_ms"] = round(1000 * _percentile(latencies, 0.95), 2)
    assert stats["jobs"]["completed"] == ROUNDS


# ---------------------------------------------------------------------------
# Mixed load: interactive clients vs. a monopolising batch
# ---------------------------------------------------------------------------

#: Interactive clients submitting concurrently while the batch runs.
MIXED_CLIENTS = 64
#: The monopolising batch: fig10-sized in full mode, scaled down in quick
#: mode but still long enough to dominate a single dispatch lane.
_BATCH_REQUESTS = 8
_BATCH_LENGTH = min(40 * BENCH_BRANCHES, 100_000)
#: Interactive jobs are deliberately tiny — their cost is the *queueing*,
#: which is exactly what the lanes are supposed to fix.
_TINY_LENGTH = 100
#: Lane threshold between the two (branch estimates, see estimate_branches).
_LANE_THRESHOLD = 1_000


def _post_json(url: str, payload, timeout: float = 300.0) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _mixed_load(base_url: str) -> list[float]:
    """Drive the mixed scenario against one server; interactive latencies.

    Raw urllib against ``/v2/runs``, the same for both configurations,
    so the comparison measures the dispatch, not the client.
    """
    url = f"{base_url}/v2/runs"
    # Warm both execution paths so process-spawn cost (hundreds of ms,
    # paid once) does not pollute either side's percentiles.
    _post_json(f"{url}?wait=1&timeout=120",
               RunRequest("bimodal", f"synthetic:biased?length={_TINY_LENGTH}&seed=1").to_dict())
    _post_json(f"{url}?wait=1&timeout=120",
               RunRequest("gshare", f"synthetic:biased?length={_LANE_THRESHOLD + 1}&seed=1").to_dict())

    batch = [
        RunRequest("gshare", f"synthetic:biased?length={_BATCH_LENGTH}&seed={seed}").to_dict()
        for seed in range(_BATCH_REQUESTS)
    ]
    batch_document = _post_json(url, batch)  # async submit, no wait
    time.sleep(0.2)  # let the batch reach its dispatch lane

    latencies: list[float] = []
    lock = threading.Lock()

    def interactive(index: int) -> None:
        payload = RunRequest(
            "bimodal",
            f"synthetic:biased?length={_TINY_LENGTH}&seed={100 + index}",
        ).to_dict()
        start = time.perf_counter()
        document = _post_json(f"{url}?wait=1&timeout=240", payload)
        elapsed = time.perf_counter() - start
        assert document["status"] == "done", document
        with lock:
            latencies.append(elapsed)

    clients = [
        threading.Thread(target=interactive, args=(index,), daemon=True)
        for index in range(MIXED_CLIENTS)
    ]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=300)
    assert len(latencies) == MIXED_CLIENTS
    assert batch_document["status"] in ("queued", "running", "done")
    return latencies


def _serve_mixed_load(service: SimulationService) -> tuple[list[float], dict]:
    """Run the mixed scenario against ``service``; latencies and lane stats."""
    service.start()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        return _mixed_load(server.url), service.stats()["lanes"]["by_lane"]
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


def test_bench_mixed_load_lanes_vs_single_lane(benchmark):
    def measure():
        # Baseline: one ``default`` dispatch lane — every interactive
        # submission queues behind the monopolising batch.
        single, single_stats = _serve_mixed_load(SimulationService(
            runner=Runner(RunnerConfig(workers=1, backend=_BACKEND), persistent=True),
            queue_size=256,
        ))
        # Contender: priority lanes — tiny jobs take the interactive lane
        # and never see the batch.
        lanes, lane_stats = _serve_mixed_load(SimulationService(
            runner=Runner(RunnerConfig(workers=1, backend=_BACKEND), persistent=True),
            interactive_runner=Runner(RunnerConfig(workers=1, backend=_BACKEND), persistent=True),
            small_job_branches=_LANE_THRESHOLD,
            queue_size=256,
        ))
        return single, single_stats, lanes, lane_stats

    single, single_stats, lanes, lane_stats = run_once(benchmark, measure)
    _report(f"single lane, {MIXED_CLIENTS} clients vs batch", single)
    _report(f"lanes,       {MIXED_CLIENTS} clients vs batch", lanes)
    single_p95 = _percentile(single, 0.95)
    lanes_p95 = _percentile(lanes, 0.95)
    ratio = single_p95 / lanes_p95
    print(f"interactive p95: single lane {1000 * single_p95:.0f} ms, "
          f"lanes {1000 * lanes_p95:.0f} ms ({ratio:.1f}x better)")
    benchmark.extra_info["single_lane_p95_ms"] = round(1000 * single_p95, 2)
    benchmark.extra_info["lanes_p95_ms"] = round(1000 * lanes_p95, 2)
    benchmark.extra_info["p95_ratio"] = round(ratio, 2)
    # The baseline really had one lane, and the tiny jobs really took the
    # interactive lane in the contender (not a mislabel win).
    assert set(single_stats) == {"default"}, single_stats
    assert lane_stats["interactive"]["executed"] >= MIXED_CLIENTS
    assert lane_stats["batch"]["executed"] >= 1
    # The headline claim: lanes keep interactive latency at least 2x
    # better than the single-lane baseline under a monopolising batch.
    assert ratio >= 2.0, (single_p95, lanes_p95)
