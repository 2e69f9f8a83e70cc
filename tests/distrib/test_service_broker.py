"""SimulationService in broker-dispatch mode, end to end in one process.

The front end publishes to a broker and a real :class:`FleetWorker`
executes on its own runner — the same wiring as ``repro serve --broker``
plus ``repro worker``, minus the subprocesses (CI runs the subprocess
version).  Results must be byte-identical to local execution.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import Runner, RunnerConfig, RunRequest, suite_payload
from repro.distrib import FileBroker, FleetWorker, MemoryBroker
from repro.service import (
    CancelConflictError,
    DiskResultStore,
    MemoryResultStore,
    SimulationService,
)

REF_A = "synthetic:biased?length=250&seed=4"
REF_B = "synthetic:loop?iterations=9&length=250&seed=4"


def reference_payload(request_dict: dict) -> dict:
    request = RunRequest.from_dict(request_dict)
    return json.loads(json.dumps(suite_payload(request, Runner().run(request))))


def start_worker(broker, **kwargs):
    worker = FleetWorker(broker, runner=Runner(RunnerConfig(workers=1)),
                         poll_interval=0.01, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


def stop_worker(worker, thread):
    worker.request_stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_broker_dispatch_results_are_byte_identical():
    requests = [
        {"predictor": {"kind": "tage"}, "trace": REF_A},
        {"predictor": {"kind": "gshare"}, "trace": REF_B},
    ]
    broker = MemoryBroker()
    with SimulationService(broker=broker, broker_poll=0.01) as service:
        worker, thread = start_worker(broker, worker_id="w1")
        try:
            job = service.submit_payload(requests)
            document = service.wait(job.id, timeout=60)
        finally:
            stop_worker(worker, thread)

    assert document["status"] == "done"
    assert document["worker"] == "w1"
    assert document["attempts"] == 1
    assert document["results"] == [reference_payload(entry) for entry in requests]
    # The document is retrievable from the store after completion.
    assert service.job(job.id)["status"] == "done"


def test_jobs_spread_across_two_workers():
    broker = MemoryBroker()
    request = {"predictor": {"kind": "gshare"}, "trace": REF_A}
    with SimulationService(broker=broker, broker_poll=0.01) as service:
        workers = [start_worker(broker, worker_id=f"w{index}") for index in (1, 2)]
        try:
            jobs = [service.submit_payload(request) for _ in range(6)]
            documents = [service.wait(job.id, timeout=60) for job in jobs]
        finally:
            for worker, thread in workers:
                stop_worker(worker, thread)
    assert all(document["status"] == "done" for document in documents)
    # Every job names its executor; with two pulling workers both ids are
    # possible and all six documents carry one of them.
    assert {document["worker"] for document in documents} <= {"w1", "w2"}


def test_crashed_worker_lease_is_redelivered_to_a_live_one():
    """The ISSUE's kill-a-worker drill: a zombie leases the job and
    disappears; the front end reaps the expired lease and a live worker
    completes the job on the second delivery (attempts == 2)."""
    broker = MemoryBroker(visibility=0.3, backoff_base=0.0)
    request = {"predictor": {"kind": "gshare"}, "trace": REF_A}
    with SimulationService(broker=broker, broker_poll=0.01) as service:
        job = service.submit_payload(request)
        # The zombie claims the first delivery and never heartbeats.
        deadline = time.monotonic() + 10
        zombie = None
        while zombie is None and time.monotonic() < deadline:
            zombie = broker.lease("zombie")
            time.sleep(0.01)
        assert zombie is not None and zombie.attempt == 1

        worker, thread = start_worker(broker, worker_id="rescuer")
        try:
            document = service.wait(job.id, timeout=60)
        finally:
            stop_worker(worker, thread)

    assert document["status"] == "done"
    assert document["worker"] == "rescuer"
    assert document["attempts"] == 2
    assert document["results"] == [reference_payload(request)]


def test_a_fleet_job_first_seen_done_keeps_its_start(tmp_path, fresh_registry):
    """The watcher looks once a second; the job runs between two looks.
    Its document still gets the delivery start and a queue-wait sample."""
    from repro.obs import get_metrics

    broker = FileBroker(str(tmp_path / "broker"))
    request = {"predictor": {"kind": "gshare"}, "trace": REF_A}
    queue_wait = get_metrics().histogram("repro_service_queue_wait_seconds", "")
    with SimulationService(broker=broker, broker_poll=1.0) as service:
        job = service.submit_payload(request)
        time.sleep(0.2)  # the watcher's first look finds the job pending
        worker = FleetWorker(broker, runner=Runner(RunnerConfig(workers=1)),
                             worker_id="w1", poll_interval=0.01)
        assert worker.run(max_jobs=1) == 1
        document = service.wait(job.id, timeout=30)

    assert document["status"] == "done"
    assert isinstance(document["started"], float)
    assert document["created"] <= document["started"] <= document["finished"]
    assert queue_wait.count() == 1


def test_dead_letter_fails_the_job():
    broker = MemoryBroker(max_attempts=1)
    bad = {"predictor": {"kind": "gshare", "config": {"bogus": 1}}, "trace": REF_A}
    with SimulationService(broker=broker, broker_poll=0.01) as service:
        worker, thread = start_worker(broker)
        try:
            job = service.submit_payload(bad)
            document = service.wait(job.id, timeout=60)
        finally:
            stop_worker(worker, thread)
    assert document["status"] == "failed"
    assert "dead-letter after 1 attempts" in document["error"]
    assert "bogus" in document["error"]


class _UnpublishableBroker(MemoryBroker):
    def publish(self, job_id, payload, max_attempts=None):
        raise OSError("broker disk full")


def test_publish_failure_settles_like_every_failed_job(fresh_registry):
    from repro.obs import SpanRecorder, get_metrics, set_tracer

    previous = set_tracer(SpanRecorder(sample_rate=1.0))
    try:
        latency = get_metrics().histogram("repro_service_job_seconds", "")
        before = latency.count()
        with SimulationService(broker=_UnpublishableBroker(), broker_poll=0.01) as service:
            job = service.submit_payload({"predictor": {"kind": "gshare"}, "trace": REF_A})
            document = service.wait(job.id, timeout=10)
    finally:
        set_tracer(previous)
    assert document["status"] == "failed"
    assert "OSError: broker disk full" in document["error"]
    (root,) = [record for record in service.spans.get(job.trace_id)
               if record["name"] == "service.request"]
    assert root["parent_id"] is None and root["status"] == "error"
    assert latency.count() == before + 1
    assert service.stats()["jobs"]["failed"] == 1


def test_stats_carry_the_fleet_section():
    broker = MemoryBroker()
    with SimulationService(broker=broker, broker_poll=0.01) as service:
        worker, thread = start_worker(broker, worker_id="observed")
        try:
            deadline = time.monotonic() + 5
            while not broker.workers() and time.monotonic() < deadline:
                time.sleep(0.01)
            stats = service.stats()
        finally:
            stop_worker(worker, thread)
    assert stats["mode"] == "broker"
    assert stats["fleet"]["broker"] == "memory"
    rows = {row["id"]: row for row in stats["fleet"]["workers"]}
    assert rows["observed"]["alive"] is True
    assert "backends" in rows["observed"]["capabilities"]
    assert service.health()["mode"] == "broker"


def test_cancel_published_job_before_any_worker_leases_it():
    broker = MemoryBroker()
    request = {"predictor": {"kind": "gshare"}, "trace": REF_A}
    with SimulationService(broker=broker, broker_poll=0.01) as service:
        job = service.submit_payload(request)
        deadline = time.monotonic() + 5
        while broker.counts()["pending"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        document = service.cancel(job.id)
        assert document["status"] == "cancelled"
        assert broker.snapshot(job.id)["state"] == "cancelled"
        # The tombstone never executes even after a worker shows up.
        worker, thread = start_worker(broker)
        try:
            time.sleep(0.1)
            assert service.job(job.id)["status"] == "cancelled"
        finally:
            stop_worker(worker, thread)


def test_cancel_leased_job_conflicts():
    broker = MemoryBroker()
    request = {"predictor": {"kind": "gshare"}, "trace": REF_A}
    with SimulationService(broker=broker, broker_poll=0.01) as service:
        job = service.submit_payload(request)
        deadline = time.monotonic() + 5
        lease = None
        while lease is None and time.monotonic() < deadline:
            lease = broker.lease("holder")
            time.sleep(0.01)
        assert lease is not None
        # Depending on watcher timing the job reads as leased (broker
        # arbiter) or already running (watcher observed the lease) —
        # either way, cancellation conflicts.
        with pytest.raises(CancelConflictError, match="leased|running"):
            service.cancel(job.id)
        broker.complete(job.id, "holder", [reference_payload(request)])
        assert service.wait(job.id, timeout=30)["status"] == "done"


@pytest.mark.parametrize("store_kind", ["memory", "disk"])
def test_duplicate_completion_against_a_shared_store(store_kind, tmp_path):
    """First write wins in the result store too: a twin front end (or a
    re-observed terminal snapshot) handing over the same job id must not
    clobber the stored document."""
    store = (MemoryResultStore() if store_kind == "memory"
             else DiskResultStore(str(tmp_path / "results")))
    assert store.put_new("job-1", {"status": "done", "writer": "first"}) is True
    assert store.put_new("job-1", {"status": "done", "writer": "second"}) is False
    assert store.get("job-1")["writer"] == "first"
    assert len(store) == 1
