"""Local mode: each lane is an in-process broker drained by one worker thread."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.service import SimulationService

REF = "synthetic:biased?length=250&seed=4"
BIG_REF = "synthetic:biased?length=5000&seed=3"


@pytest.fixture()
def registry():
    previous = set_metrics(MetricsRegistry())
    yield get_metrics()
    set_metrics(previous)


class GatedRunner(Runner):
    """A serial runner whose batches wait until the test releases them."""

    def __init__(self) -> None:
        super().__init__(RunnerConfig(workers=1))
        self.entered = threading.Event()
        self.release = threading.Event()

    def run_batch(self, requests):
        self.entered.set()
        assert self.release.wait(30), "the test never released the batch"
        return super().run_batch(requests)


def test_interactive_job_passes_a_running_batch_job():
    """One worker per lane: a long batch job never blocks the interactive lane."""
    batch_runner = GatedRunner()
    service = SimulationService(
        runner=batch_runner,
        interactive_runner=Runner(RunnerConfig(workers=1)),
        small_job_branches=1000,
    ).start()
    try:
        big = service.submit([RunRequest("bimodal", BIG_REF)])
        assert big.lane == "batch"
        assert batch_runner.entered.wait(30)
        small = service.submit([RunRequest("bimodal", REF)])
        assert small.lane == "interactive"
        assert service.wait(small.id, timeout=30)["status"] == "done"
        assert service.job(big.id)["status"] == "running"
        batch_runner.release.set()
        assert service.wait(big.id, timeout=30)["status"] == "done"
    finally:
        batch_runner.release.set()
        service.close()


def _sample(text: str, series: str) -> float:
    (line,) = [line for line in text.splitlines() if line.startswith(series + " ")]
    return float(line.split()[-1])


def test_local_metrics_count_each_job_once(registry, monkeypatch):
    """In-process workers share the registry: no snapshots, no double count."""
    snapshots = []
    original = MetricsRegistry.snapshot
    monkeypatch.setattr(MetricsRegistry, "snapshot",
                        lambda self: snapshots.append(1) or original(self))
    jobs = 3
    with SimulationService(runner=Runner(RunnerConfig(workers=1))) as service:
        for seed in range(jobs):
            job = service.submit([RunRequest("gshare", f"{REF[:-1]}{seed}")])
            assert service.wait(job.id, timeout=30)["status"] == "done"
        text = service.metrics_text()
    assert _sample(text, 'repro_service_jobs_total{status="done"}') == jobs
    assert _sample(text, 'repro_worker_jobs_total{outcome="completed"}') == jobs
    assert snapshots == []


def test_local_path_does_not_poll():
    """Worker and watcher polls at 5 s: a local job still finishes at once."""
    service = SimulationService(runner=Runner(RunnerConfig(workers=1)), broker_poll=5.0)
    (lane,) = service._lanes.values()
    lane.worker.poll_interval = 5.0
    service.start()
    try:
        deadline = time.monotonic() + 5
        while not lane.broker.workers() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # the worker's first lease came back empty: it idles
        for _ in range(2):
            began = time.monotonic()
            job = service.submit([RunRequest("always-taken", REF)])
            assert service.wait(job.id, timeout=5)["status"] == "done"
            assert time.monotonic() - began < 1.0
    finally:
        began = time.monotonic()
        service.close()
    assert time.monotonic() - began < 1.0


def test_concurrent_submitters_settle_every_job_once():
    """More submitting threads than cores, a tiny switch interval: no job
    is lost or settled twice between the workers, the watcher and submit."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    service = SimulationService(
        runner=Runner(RunnerConfig(workers=1)),
        interactive_runner=Runner(RunnerConfig(workers=1)),
        small_job_branches=300,
    ).start()
    jobs: list = []
    try:
        def submitter(offset: int) -> None:
            for index in range(8):
                length = 200 if index % 2 else 400  # both lanes
                jobs.append(service.submit(
                    [RunRequest("always-taken", f"synthetic:biased?length={length}"
                                                f"&seed={offset + index}")]))

        threads = [threading.Thread(target=submitter, args=(100 * n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        documents = [service.wait(job.id, timeout=60) for job in jobs]
    finally:
        sys.setswitchinterval(previous)
        service.close()
    assert [document["status"] for document in documents] == ["done"] * 32
    stats = service.stats()
    assert stats["jobs"]["completed"] == 32
    assert sum(lane["executed"] for lane in stats["lanes"]["by_lane"].values()) == 32
    assert sum(lane.worker.completed for lane in service._lanes.values()) == 32


def test_watcher_reads_only_the_jobs_that_changed():
    """A job running on one lane is not re-read for every state change of
    jobs on the other: an in-process broker names the jobs that moved."""
    batch_runner = GatedRunner()
    service = SimulationService(
        runner=batch_runner,
        interactive_runner=Runner(RunnerConfig(workers=1)),
        small_job_branches=1000,
    )
    batch_broker = service._lanes["batch"].broker
    reads: list[str] = []
    snapshot = batch_broker.snapshot

    def counting(job_id):
        reads.append(job_id)
        return snapshot(job_id)

    batch_broker.snapshot = counting
    service.start()
    try:
        big = service.submit([RunRequest("bimodal", BIG_REF)])
        assert batch_runner.entered.wait(30)
        deadline = time.monotonic() + 10
        while service.job(big.id)["status"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        before = len(reads)
        for _ in range(20):
            small = service.submit([RunRequest("bimodal", REF)])
            assert service.wait(small.id, timeout=30)["status"] == "done"
        assert len(reads) == before
        batch_runner.release.set()
        assert service.wait(big.id, timeout=30)["status"] == "done"
    finally:
        batch_runner.release.set()
        service.close()
