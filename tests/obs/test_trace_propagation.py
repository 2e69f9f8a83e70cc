"""Trace-id propagation: CLI/HTTP → service → broker → worker and back.

The satellite guarantee: one id greps a job's whole lifecycle — the job
document, the broker ticket payload, the executing worker's log lines
and the result payload all carry the id the submitter chose, including
after a lease-expiry re-delivery.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.request

import pytest

from repro.api import Runner, RunnerConfig
from repro.distrib import FileBroker, FleetWorker, MemoryBroker
from repro.obs import configure_logging
from repro.service import ServiceClient, SimulationService, make_server

REF = "synthetic:biased?length=250&seed=4"
REQUEST = {"predictor": {"kind": "gshare"}, "trace": REF}


@pytest.fixture()
def local_server():
    service = SimulationService(runner=Runner(RunnerConfig(workers=1))).start()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


class TestHTTPTraceIds:
    def test_client_supplied_id_is_adopted_and_echoed(self, local_server):
        client = ServiceClient(local_server.url)
        document = client.submit(REQUEST, wait=True, trace_id="cli-abc-1")
        assert document["status"] == "done"
        assert document["trace_id"] == "cli-abc-1"
        # The stored document keeps it too.
        assert client.job(document["id"])["trace_id"] == "cli-abc-1"

    def test_response_header_echoes_the_id(self, local_server):
        body = json.dumps(REQUEST).encode()
        request = urllib.request.Request(
            f"{local_server.url}/v2/runs", data=body, method="POST",
            headers={"Content-Type": "application/json",
                     "X-Trace-Id": "hdr-echo-7"})
        with urllib.request.urlopen(request) as response:
            assert response.headers["X-Trace-Id"] == "hdr-echo-7"
            assert json.loads(response.read())["trace_id"] == "hdr-echo-7"

    def test_invalid_header_is_replaced_not_rejected(self, local_server):
        client = ServiceClient(local_server.url)
        document = client.submit(REQUEST, trace_id="not valid!")
        assert document["trace_id"] != "not valid!"
        assert document["trace_id"].startswith("tr-")

    def test_absent_header_mints_one(self, local_server):
        document = ServiceClient(local_server.url).submit(REQUEST)
        assert document["trace_id"].startswith("tr-")


class TestBrokerRoundTrip:
    def test_file_broker_round_trip_carries_the_id_everywhere(self, tmp_path):
        stream = io.StringIO()
        configure_logging(level="info", json_mode=True, stream=stream)
        broker = FileBroker(str(tmp_path / "broker"))
        with SimulationService(broker=broker, broker_poll=0.01) as service:
            worker = FleetWorker(broker, runner=Runner(RunnerConfig(workers=1)),
                                 poll_interval=0.01)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                job = service.submit_payload(REQUEST, trace_id="round-trip-9")
                assert job.trace_id == "round-trip-9"
                document = service.wait(job.id, timeout=60)
            finally:
                worker.request_stop()
                thread.join(timeout=10)
        assert document["status"] == "done"
        # 1. The job document (what clients see) carries the id.
        assert document["trace_id"] == "round-trip-9"
        # 2. The broker payload carried it to the worker.
        snapshot = broker.snapshot(job.id)
        assert snapshot["state"] == "done"
        # 3. Worker log lines carry the id bound from the lease payload.
        worker_lines = [
            json.loads(line) for line in stream.getvalue().splitlines()
            if '"repro.distrib.worker"' in line
        ]
        executed = [line for line in worker_lines
                    if line["message"] in ("job leased", "job completed")]
        assert len(executed) >= 2
        assert all(line["trace_id"] == "round-trip-9" for line in executed)
        # 4. Service-side lines share the same id.
        service_lines = [
            json.loads(line) for line in stream.getvalue().splitlines()
            if '"repro.service"' in line
        ]
        assert any(line.get("trace_id") == "round-trip-9"
                   for line in service_lines)

    def test_redelivery_after_lease_expiry_keeps_the_id(self):
        class Clock:
            now = 1000.0

            def __call__(self):
                return self.now

        clock = Clock()
        broker = MemoryBroker(visibility=5, clock=clock, backoff_base=0.0)
        broker.publish("job-x", {"requests": [REQUEST],
                                 "trace_id": "sticky-attempt-id"})
        first = broker.lease("w1")
        assert first.attempt == 1
        assert first.payload["trace_id"] == "sticky-attempt-id"
        # w1 dies silently; the lease expires and the job is re-delivered.
        clock.now += 20
        broker.reap()
        second = broker.lease("w2")
        assert second is not None and second.job_id == "job-x"
        assert second.attempt == 2
        assert second.payload["trace_id"] == "sticky-attempt-id"

    def test_worker_logs_keep_id_on_second_delivery(self, tmp_path):
        stream = io.StringIO()
        configure_logging(level="info", json_mode=True, stream=stream)
        broker = FileBroker(str(tmp_path / "broker"), visibility=0.2,
                            max_attempts=3, backoff_base=0.0)
        broker.publish("job-r", {"requests": [REQUEST],
                                 "trace_id": "redelivered-id"})
        # First delivery: claim the lease and abandon it (no heartbeat).
        first = broker.lease("dead-worker")
        assert first.attempt == 1
        import time as _time

        deadline = _time.time() + 10
        while broker.counts()["pending"] == 0 and _time.time() < deadline:
            _time.sleep(0.05)
            broker.reap()
        # Second delivery: a live worker executes it for real.
        worker = FleetWorker(broker, runner=Runner(RunnerConfig(workers=1)),
                             poll_interval=0.01)
        worker.broker.register_worker(worker.worker_id, {})
        lease = broker.lease(worker.worker_id)
        assert lease is not None and lease.attempt == 2
        worker._execute(lease)
        worker.runner.close()
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        completed = [line for line in lines if line["message"] == "job completed"]
        assert len(completed) == 1
        assert completed[0]["trace_id"] == "redelivered-id"
        assert completed[0]["attempt"] == 2
