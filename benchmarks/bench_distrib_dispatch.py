"""Broker-dispatch overhead: local service execution vs. a worker fleet.

Not a paper experiment — this bench characterizes the cost of the
:mod:`repro.distrib` hand-off so the single-host numbers stay honest:
a shared broker pays watcher and worker polling per job, and buys
concurrent jobs across workers in return.  Two measurements:

* **local dispatch** — the default single-process service: jobs run one
  at a time through its lane's in-process broker, which wakes the lane's
  worker thread and the watcher instead of letting them poll,
* **broker dispatch** — the same jobs through a :class:`MemoryBroker`
  and two in-process :class:`~repro.distrib.worker.FleetWorker` loops
  (the ``repro serve --broker`` + ``repro worker`` wiring minus the
  subprocesses and HTTP).

Jobs are deliberately small, so the printed per-job overhead is an
upper bound: real fleets run large batches where simulation dominates.

Quick mode (``REPRO_BENCH_BRANCHES=500``) keeps the file under ~20 s.
"""

from __future__ import annotations

import statistics
import threading
import time

from benchmarks.conftest import BENCH_BRANCHES, run_once
from repro.api import Runner, RunnerConfig
from repro.distrib import FleetWorker, MemoryBroker
from repro.service import SimulationService

JOBS = 6


def _payload(index: int) -> list[dict]:
    seed = 4 + (index % 2)
    return [
        {"predictor": {"kind": "gshare"},
         "trace": f"synthetic:biased?length={BENCH_BRANCHES}&seed={seed}"},
        {"predictor": {"kind": "bimodal"},
         "trace": f"synthetic:loop?iterations=9&length={BENCH_BRANCHES}&seed={seed}"},
    ]


def _drive(service: SimulationService) -> list[float]:
    """Submit-to-terminal wall-clock latency per job."""
    latencies = []
    for index in range(JOBS):
        start = time.perf_counter()
        job = service.submit_payload(_payload(index))
        document = service.wait(job.id, timeout=300)
        latencies.append(time.perf_counter() - start)
        assert document["status"] == "done", document
    return latencies


def test_bench_local_vs_broker_dispatch(benchmark):
    def measure():
        with SimulationService(
            runner=Runner(RunnerConfig(workers=1), persistent=True)
        ) as service:
            local = _drive(service)

        broker = MemoryBroker()
        workers = [
            FleetWorker(broker, runner=Runner(RunnerConfig(workers=1)),
                        worker_id=f"bench-w{index}", poll_interval=0.005)
            for index in (1, 2)
        ]
        threads = [threading.Thread(target=worker.run, daemon=True)
                   for worker in workers]
        with SimulationService(broker=broker, broker_poll=0.005) as service:
            for thread in threads:
                thread.start()
            try:
                fleet = _drive(service)
            finally:
                for worker in workers:
                    worker.request_stop()
                for thread in threads:
                    thread.join(timeout=30)
        completed = sum(worker.completed for worker in workers)
        return local, fleet, completed

    local, fleet, completed = run_once(benchmark, measure)
    local_mean = statistics.mean(local)
    fleet_mean = statistics.mean(fleet)
    print(f"\nlocal dispatch:  {1000 * local_mean:.1f} ms/job "
          f"(p50 {1000 * statistics.median(local):.1f} ms, {JOBS} jobs)")
    print(f"broker dispatch: {1000 * fleet_mean:.1f} ms/job "
          f"(p50 {1000 * statistics.median(fleet):.1f} ms, "
          f"2 workers, {completed} completions)")
    print(f"hand-off overhead: {1000 * (fleet_mean - local_mean):+.1f} ms/job "
          f"on jobs this small")
    benchmark.extra_info["local_mean_ms"] = round(1000 * local_mean, 2)
    benchmark.extra_info["broker_mean_ms"] = round(1000 * fleet_mean, 2)
    benchmark.extra_info["broker_workers"] = 2
    # Correctness, not speed, is the assertable part at bench scale: the
    # fleet finished every job exactly once between the two workers.
    assert completed == JOBS
