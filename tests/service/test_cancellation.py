"""Job cancellation: core semantics, the DELETE endpoint, client and CLI."""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.api.cli import main
from repro.service import (
    CancelConflictError,
    JobStatus,
    ServiceClient,
    ServiceClientError,
    SimulationService,
    UnknownJobError,
    make_server,
)

REF = "synthetic:biased?length=250&seed=4"


def idle_service() -> SimulationService:
    """A service whose dispatcher has NOT started: jobs stay queued."""
    return SimulationService(runner=Runner(RunnerConfig(workers=1)))


class TestCoreCancel:
    def test_queued_job_cancels(self):
        service = idle_service()
        try:
            job = service.submit([RunRequest("gshare", REF)])
            document = service.cancel(job.id)
            assert document["status"] == "cancelled"
            assert document["finished"] is not None
            assert document["results"] is None
            # The terminal document is served through the normal lookup.
            assert service.job(job.id)["status"] == "cancelled"
            assert job.done_event.is_set()
            assert service.cancelled == 1
        finally:
            service.close()

    def test_dispatcher_skips_the_tombstone(self):
        service = idle_service()
        try:
            cancelled = service.submit([RunRequest("gshare", REF)])
            kept = service.submit([RunRequest("gshare", REF)])
            service.cancel(cancelled.id)
            service.start()
            done = service.wait(kept.id, timeout=60)
            assert done["status"] == "done"
            assert service.job(cancelled.id)["status"] == "cancelled"
            stats = service.stats()
            assert stats["jobs"] == {
                "submitted": 2, "completed": 1, "failed": 0, "cancelled": 1, "running": 0,
            }
        finally:
            service.close()

    def test_cancel_frees_queue_capacity(self):
        """A cancelled tombstone must not keep consuming the submit bound."""
        from repro.service import QueueFullError

        service = SimulationService(runner=Runner(RunnerConfig(workers=1)), queue_size=2)
        try:
            first = service.submit([RunRequest("gshare", REF)])
            service.submit([RunRequest("gshare", REF)])
            with pytest.raises(QueueFullError):
                service.submit([RunRequest("gshare", REF)])
            service.cancel(first.id)
            # The cancel removes the broker's pending ticket too: cancelled
            # jobs must not accumulate there while the worker is busy.
            assert sum(lane.broker.counts()["pending"] for lane in service._lanes.values()) == 1
            replacement = service.submit([RunRequest("gshare", REF)])  # no 503
            assert service.stats()["queue"]["depth"] == 2
            assert sum(lane.broker.counts()["pending"] for lane in service._lanes.values()) == 2
            assert replacement.status is JobStatus.QUEUED
        finally:
            service.close()

    def test_unknown_job_raises(self):
        service = idle_service()
        try:
            with pytest.raises(UnknownJobError):
                service.cancel("job-404-deadbeef")
        finally:
            service.close()

    def test_running_job_conflicts(self):
        service = idle_service()
        try:
            job = service.submit([RunRequest("gshare", REF)])
            job.status = JobStatus.RUNNING  # as the dispatcher would, mid-batch
            with pytest.raises(CancelConflictError, match="running"):
                service.cancel(job.id)
        finally:
            service.close()

    def test_terminal_job_conflicts(self):
        service = idle_service().start()
        try:
            job = service.submit([RunRequest("gshare", REF)])
            assert service.wait(job.id, timeout=60)["status"] == "done"
            with pytest.raises(CancelConflictError, match="done"):
                service.cancel(job.id)
        finally:
            service.close()


@pytest.fixture()
def idle_server():
    """An HTTP server over an idle (dispatcher-less) service: jobs queue."""
    service = idle_service()
    http_server = make_server(service)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    try:
        yield http_server
    finally:
        http_server.shutdown()
        http_server.server_close()
        service.close()
        thread.join(timeout=10)


class TestHTTPAndClient:
    def test_delete_cancels_a_queued_job(self, idle_server):
        client = ServiceClient(idle_server.url)
        job = client.submit(RunRequest("gshare", REF))
        document = client.cancel(job["id"])
        assert document["status"] == "cancelled"
        assert client.job(job["id"])["status"] == "cancelled"
        # A second DELETE is a conflict: the job is already terminal.
        with pytest.raises(ServiceClientError) as conflict:
            client.cancel(job["id"])
        assert conflict.value.status == 409

    def test_delete_unknown_job_is_404(self, idle_server):
        client = ServiceClient(idle_server.url)
        with pytest.raises(ServiceClientError) as missing:
            client.cancel("job-404-deadbeef")
        assert missing.value.status == 404

    def test_delete_bad_path_is_404(self, idle_server):
        client = ServiceClient(idle_server.url)
        with pytest.raises(ServiceClientError) as missing:
            client._call("DELETE", "/v2/runs/job-1/extra")
        assert missing.value.status == 404

    def test_cli_cancel_round_trip(self, idle_server, capsys):
        client = ServiceClient(idle_server.url)
        job = client.submit(RunRequest("gshare", REF))
        code = main(["cancel", job["id"], "--url", idle_server.url, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["id"] == job["id"]
        assert payload["status"] == "cancelled"

    def test_cli_cancel_conflict_is_a_clean_error(self, idle_server, capsys):
        client = ServiceClient(idle_server.url)
        job = client.submit(RunRequest("gshare", REF))
        client.cancel(job["id"])
        code = main(["cancel", job["id"], "--url", idle_server.url])
        assert code == 2
        assert "409" in capsys.readouterr().err

    def test_waiting_submit_reports_a_cancellation_cleanly(self, idle_server, capsys):
        """Another client cancelling the awaited job must not crash submit."""
        service = idle_server.service
        outcome: dict = {}

        def submit_and_wait():
            outcome["code"] = main([
                "submit", "gshare", "--trace", REF,
                "--url", idle_server.url, "--timeout", "30",
            ])

        waiter = threading.Thread(target=submit_and_wait)
        waiter.start()
        try:
            for _ in range(200):  # until the submission lands in the queue
                with service._lock:
                    queued = [job for job in service._live.values()
                              if job.status is JobStatus.QUEUED]
                if queued:
                    break
                waiter.join(timeout=0.05)
            assert queued, "submission never reached the queue"
            service.cancel(queued[0].id)
            waiter.join(timeout=30)
            assert not waiter.is_alive()
        finally:
            waiter.join(timeout=5)
        assert outcome["code"] == 1
        assert "was cancelled" in capsys.readouterr().err
