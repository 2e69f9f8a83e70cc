"""FleetWorker: lease → execute → complete, parity with local execution."""

from __future__ import annotations

import json
import threading
import time

from repro.api import Runner, RunnerConfig, RunRequest, suite_payload
from repro.distrib import FleetWorker, MemoryBroker
from repro.distrib.worker import default_capabilities

REF = "synthetic:biased?length=250&seed=4"


def serial_runner() -> Runner:
    return Runner(RunnerConfig(workers=1))


def job_payload(*request_dicts: dict) -> dict:
    return {"requests": list(request_dicts), "batch": len(request_dicts) > 1}


def test_worker_results_match_local_execution():
    request = {"predictor": {"kind": "tage"}, "trace": REF}
    broker = MemoryBroker()
    broker.publish("job-1", job_payload(request))

    worker = FleetWorker(broker, runner=serial_runner(), worker_id="w1",
                         poll_interval=0.01)
    assert worker.run(max_jobs=1) == 1
    assert worker.completed == 1 and worker.failed == 0

    snap = broker.snapshot("job-1")
    assert snap["state"] == "done" and snap["worker"] == "w1"
    reference = suite_payload(RunRequest.from_dict(request),
                              Runner().run(RunRequest.from_dict(request)))
    assert json.loads(json.dumps(snap["results"])) == [json.loads(json.dumps(reference))]


def test_worker_batch_executes_as_one_run_batch():
    requests = [
        {"predictor": {"kind": "tage"}, "trace": REF},
        {"predictor": {"kind": "gshare"}, "trace": REF},
    ]
    broker = MemoryBroker()
    broker.publish("job-1", job_payload(*requests))
    worker = FleetWorker(broker, runner=serial_runner(), poll_interval=0.01)
    assert worker.run(max_jobs=1) == 1
    results = broker.snapshot("job-1")["results"]
    assert [payload["predictor"].split("-")[0] for payload in results] == ["tage", "gshare"]


def test_execution_failure_is_failed_not_fatal():
    """A job whose config explodes in the factory fails the *job* (and,
    with a one-attempt budget, dead-letters) — the worker loop survives
    and still processes the next job."""
    bad = {"predictor": {"kind": "gshare", "config": {"bogus": 1}}, "trace": REF}
    good = {"predictor": {"kind": "gshare"}, "trace": REF}
    broker = MemoryBroker(max_attempts=1)
    broker.publish("job-bad", job_payload(bad))
    broker.publish("job-good", job_payload(good))

    worker = FleetWorker(broker, runner=serial_runner(), poll_interval=0.01)
    assert worker.run(max_jobs=2) == 2
    assert worker.failed == 1 and worker.completed == 1
    assert broker.snapshot("job-bad")["state"] == "dead"
    assert "bogus" in broker.snapshot("job-bad")["error"]
    assert broker.snapshot("job-good")["state"] == "done"


def test_worker_registers_with_capability_tags():
    broker = MemoryBroker()
    runner = serial_runner()
    capabilities = default_capabilities(runner)
    assert "interp" in capabilities["backends"]
    assert capabilities["cores"] >= 1

    worker = FleetWorker(broker, runner=runner, worker_id="tagged",
                         poll_interval=0.01)
    worker.run(max_jobs=0)  # register, process nothing, deregister
    # Registration is scoped to the run: the worker cleaned up after itself.
    assert broker.workers() == []


def test_request_stop_drains_the_loop():
    broker = MemoryBroker()
    worker = FleetWorker(broker, runner=serial_runner(), poll_interval=0.01)
    worker.request_stop()
    assert worker.stopping
    assert worker.run() == 0  # returns immediately instead of polling forever


def _heartbeat_threads() -> list[threading.Thread]:
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("repro-worker-heartbeat-")]


def _wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


class TestHeartbeatThread:
    """One heartbeat thread per worker lifetime, beating the running lease."""

    def test_one_heartbeat_thread_serves_every_job(self):
        broker = MemoryBroker()
        runner = serial_runner()
        seen = []
        run_batch = runner.run_batch

        def recording(requests):
            seen.append(_heartbeat_threads())
            return run_batch(requests)

        runner.run_batch = recording
        worker = FleetWorker(broker, runner=runner, worker_id="w1", poll_interval=0.01)
        request = {"predictor": {"kind": "always-taken"}, "trace": REF}
        broker.publish("job-0", job_payload(request))
        loop = threading.Thread(target=worker.run)
        loop.start()
        try:
            _wait_for(lambda: worker.completed == 1)
            after_first = threading.active_count()
            for index in range(1, 50):
                broker.publish(f"job-{index}", job_payload(request))
            _wait_for(lambda: worker.completed == 50)
            assert threading.active_count() == after_first
        finally:
            worker.request_stop()
            loop.join(timeout=10)
        assert len(seen) == 50
        assert all(len(threads) == 1 for threads in seen)
        assert all(threads[0] is seen[0][0] for threads in seen)

    def test_job_longer_than_the_interval_keeps_its_lease(self):
        broker = MemoryBroker(visibility=0.2)
        runner = serial_runner()
        run_batch = runner.run_batch
        reaped = []

        def slow(requests):
            # Reap as a watcher would for four visibility windows.
            for _ in range(16):
                time.sleep(0.05)
                reaped.append(broker.reap())
            return run_batch(requests)

        runner.run_batch = slow
        broker.publish("job-1", job_payload({"predictor": {"kind": "gshare"}, "trace": REF}))
        worker = FleetWorker(broker, runner=runner, worker_id="w1",
                             poll_interval=0.01, heartbeat_interval=0.05)
        assert worker.run(max_jobs=1) == 1
        assert sum(reaped) == 0
        snap = broker.snapshot("job-1")
        assert snap["state"] == "done" and snap["attempts"] == 1

    def test_failing_job_stops_its_heartbeat(self):
        broker = MemoryBroker(max_attempts=1)
        beats = []
        heartbeat = broker.heartbeat

        def counting(job_id, worker_id):
            beats.append(time.monotonic())
            return heartbeat(job_id, worker_id)

        broker.heartbeat = counting
        runner = serial_runner()

        def failing(requests):
            time.sleep(0.12)  # long enough for a few beats
            raise RuntimeError("boom")

        runner.run_batch = failing
        broker.publish("job-1", job_payload({"predictor": {"kind": "gshare"}, "trace": REF}))
        worker = FleetWorker(broker, runner=runner, worker_id="w1",
                             poll_interval=0.01, heartbeat_interval=0.02)
        loop = threading.Thread(target=worker.run)
        loop.start()
        try:
            _wait_for(lambda: worker.failed == 1)
            failed_at = time.monotonic()
            assert beats, "the job was never heartbeaten"
            time.sleep(0.15)
            assert all(beat <= failed_at for beat in beats)
            assert broker.snapshot("job-1")["state"] == "dead"
        finally:
            worker.request_stop()
            loop.join(timeout=10)

    def test_no_heartbeat_thread_outlives_run(self):
        broker = MemoryBroker()
        for index in range(2):
            broker.publish(f"job-{index}",
                           job_payload({"predictor": {"kind": "gshare"}, "trace": REF}))
        before = threading.active_count()
        worker = FleetWorker(broker, runner=serial_runner(), poll_interval=0.01)
        assert worker.run(max_jobs=2) == 2
        assert _heartbeat_threads() == []
        assert threading.active_count() == before
