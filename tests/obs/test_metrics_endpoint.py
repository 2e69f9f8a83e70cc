"""GET /v2/metrics: Prometheus text exposition over live services."""

from __future__ import annotations

import threading
import urllib.request

import pytest

from repro.api import Runner, RunnerConfig
from repro.distrib import FleetWorker, MemoryBroker
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


class TestLocalModeScrape:
    def test_content_type_and_core_series(self, local_server):
        client = ServiceClient(local_server.url)
        client.submit(REQUEST, wait=True)
        with urllib.request.urlopen(f"{local_server.url}/v2/metrics") as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        for series in (
            "repro_service_queue_depth",
            "repro_service_submitted_total",
            "repro_service_queue_wait_seconds_count",
            "repro_service_job_seconds_count",
            "repro_runner_batches_total",
            "repro_sched_tasks_total",
            "repro_runner_plan_seconds",
        ):
            assert series in text, f"missing series {series}"

    def test_client_metrics_helper_returns_raw_text(self, local_server):
        client = ServiceClient(local_server.url)
        client.submit(REQUEST, wait=True)
        text = client.metrics()
        assert isinstance(text, str)
        assert "# TYPE repro_service_queue_depth gauge" in text

    def test_series_count_meets_acceptance_floor(self, local_server):
        """ISSUE acceptance: >= 12 distinct metric families on a scrape."""
        client = ServiceClient(local_server.url)
        client.submit(REQUEST, wait=True)
        families = {
            line.split()[2]
            for line in client.metrics().splitlines()
            if line.startswith("# TYPE ")
        }
        assert len(families) >= 12, sorted(families)


class TestBrokerModeScrape:
    def test_scrape_folds_worker_shipped_series(self):
        broker = MemoryBroker()
        with SimulationService(broker=broker, broker_poll=0.01) as service:
            worker = FleetWorker(broker, runner=Runner(RunnerConfig(workers=1)),
                                 poll_interval=0.01, heartbeat_interval=0.05)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                job = service.submit_payload(REQUEST)
                document = service.wait(job.id, timeout=60)
                assert document["status"] == "done"
                # Force a registration heartbeat so the completed job's
                # counters reach the broker before we scrape.
                worker._touch_registration()
                text = service.metrics_text()
            finally:
                worker.request_stop()
                thread.join(timeout=10)
        assert "repro_broker_events_total" in text
        assert 'event="published"' in text
        assert 'event="leased"' in text
        assert 'event="completed"' in text
        assert "repro_fleet_workers_alive 1" in text
        # Worker-side series shipped via heartbeat snapshots.
        assert 'repro_worker_jobs_total{outcome="completed"}' in text
        assert "repro_worker_execute_seconds_count" in text
