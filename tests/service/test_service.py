"""SimulationService core: queue, dispatcher, stores, determinism."""

import json
import threading

import pytest

from repro.api import Runner, RunnerConfig, RunRequest, suite_payload
from repro.service import (
    DiskResultStore,
    MemoryResultStore,
    QueueFullError,
    ServiceClosedError,
    SimulationService,
    UnknownJobError,
)
from repro.service.protocol import MAX_BATCH_REQUESTS, ProtocolError, parse_submission

REF_A = "synthetic:biased?length=250&seed=4"
REF_B = "synthetic:loop?iterations=9&length=250&seed=4"


def serial_service(**kwargs) -> SimulationService:
    """A service on a serial in-process runner (fast, no child processes)."""
    return SimulationService(runner=Runner(RunnerConfig(workers=1)), **kwargs)


def reference_payload(request: RunRequest) -> dict:
    return json.loads(json.dumps(suite_payload(request, Runner().run(request))))


class TestSubmission:
    def test_single_request_runs_to_done_with_parity(self):
        request = RunRequest("gshare", REF_A)
        with serial_service() as service:
            job = service.submit([request], batch=False)
            document = service.wait(job.id, timeout=30)
        assert document["status"] == "done"
        assert document["batch"] is False
        assert document["started"] >= document["created"]
        assert document["finished"] >= document["started"]
        assert json.loads(json.dumps(document["results"][0])) == reference_payload(request)

    def test_batch_preserves_request_order(self):
        requests = [
            RunRequest("gshare", REF_A),
            RunRequest("bimodal", REF_B, scenario="A"),
            RunRequest("gshare", REF_B),
        ]
        with serial_service() as service:
            job = service.submit(requests)
            document = service.wait(job.id, timeout=30)
        assert document["status"] == "done"
        got = [(p["spec"]["kind"], p["trace"]) for p in document["results"]]
        assert got == [(r.predictor.kind, r.trace) for r in requests]

    def test_unknown_kind_is_rejected_at_submission(self):
        """A typo'd kind is a 400 at the door, not a failed job later."""
        with serial_service() as service:
            with pytest.raises(ProtocolError, match="no-such-kind"):
                service.submit_payload(
                    {"predictor": {"kind": "no-such-kind", "config": {}}, "trace": REF_A}
                )

    def test_failed_job_reports_error_not_crash(self):
        # A registered kind with a config its factory rejects passes
        # submission validation and fails at execution time.
        with serial_service() as service:
            job = service.submit_payload(
                {"predictor": {"kind": "gshare", "config": {"bogus": 1}}, "trace": REF_A}
            )
            document = service.wait(job.id, timeout=30)
            assert document["status"] == "failed"
            assert "bogus" in document["error"]
            # The dispatcher survives a failed job.
            ok = service.submit([RunRequest("always-taken", REF_A)], batch=False)
            assert service.wait(ok.id, timeout=30)["status"] == "done"

    def test_unknown_job_raises(self):
        with serial_service() as service:
            with pytest.raises(UnknownJobError):
                service.job("job-does-not-exist")

    def test_queue_full_rejects(self):
        service = serial_service(queue_size=2)  # dispatcher deliberately not started
        service.submit([RunRequest("always-taken", REF_A)], batch=False)
        service.submit([RunRequest("always-taken", REF_A)], batch=False)
        with pytest.raises(QueueFullError, match="full"):
            service.submit([RunRequest("always-taken", REF_A)], batch=False)

    def test_queued_job_document_is_served_before_execution(self):
        service = serial_service()  # not started: job stays queued
        job = service.submit([RunRequest("always-taken", REF_A)], batch=False)
        document = service.job(job.id)
        assert document["status"] == "queued"
        assert document["results"] is None

    def test_closed_service_rejects_submissions(self):
        service = serial_service()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit([RunRequest("always-taken", REF_A)], batch=False)

    def test_close_is_idempotent_and_drains(self):
        service = serial_service().start()
        job = service.submit([RunRequest("always-taken", REF_A)], batch=False)
        service.close()
        service.close()
        assert service.job(job.id)["status"] == "done"

    def test_close_never_blocks_on_a_full_queue(self):
        service = serial_service(queue_size=1)  # dispatcher never started
        service.submit([RunRequest("always-taken", REF_A)], batch=False)
        service.close(timeout=1)  # must return promptly despite the full queue


class TestParseSubmission:
    def test_object_vs_list_sets_batch_flag(self):
        payload = RunRequest("gshare", REF_A).to_dict()
        assert parse_submission(payload)[1] is False
        requests, batch = parse_submission([payload, payload])
        assert batch is True and len(requests) == 2

    def test_rejects_garbage(self):
        for bogus in (42, "text", [], [{"predictor": "gshare"}, 7]):
            with pytest.raises(ProtocolError):
                parse_submission(bogus)

    def test_rejects_oversized_batches(self):
        payload = RunRequest("gshare", REF_A).to_dict()
        with pytest.raises(ProtocolError, match="exceeds"):
            parse_submission([payload] * (MAX_BATCH_REQUESTS + 1))

    def test_names_the_offending_batch_entry(self):
        good = RunRequest("gshare", REF_A).to_dict()
        with pytest.raises(ProtocolError, match="request 1"):
            parse_submission([good, {"trace": REF_A}])  # missing predictor


class TestStores:
    def test_memory_store_bounds_entries(self):
        store = MemoryResultStore(max_entries=2)
        for index in range(3):
            store.put(f"job-{index}", {"n": index})
        assert len(store) == 2
        assert store.get("job-0") is None and store.get("job-2") == {"n": 2}

    def test_disk_store_round_trips_and_survives_reopen(self, tmp_path):
        store = DiskResultStore(str(tmp_path))
        store.put("job-1-abc", {"status": "done", "results": [1, 2]})
        reopened = DiskResultStore(str(tmp_path))
        assert reopened.get("job-1-abc") == {"status": "done", "results": [1, 2]}
        assert len(reopened) == 1
        assert reopened.stats()["directory"] == str(tmp_path)

    def test_disk_store_rejects_path_escapes(self, tmp_path):
        store = DiskResultStore(str(tmp_path))
        with pytest.raises(ValueError, match="invalid job id"):
            store.put("../escape", {})
        assert store.get("../escape") is None

    def test_service_serves_terminal_jobs_from_the_store(self, tmp_path):
        store = DiskResultStore(str(tmp_path))
        request = RunRequest("always-taken", REF_A)
        with serial_service(store=store) as service:
            job = service.submit([request], batch=False)
            document = service.wait(job.id, timeout=30)
        # A fresh service over the same store still serves the document.
        with serial_service(store=DiskResultStore(str(tmp_path))) as fresh:
            assert fresh.job(job.id) == document


class TestStats:
    def test_stats_shape_and_counters(self):
        with serial_service() as service:
            job = service.submit([RunRequest("gshare", REF_A)], batch=False)
            service.wait(job.id, timeout=30)
            stats = service.stats()
        assert stats["jobs"]["submitted"] == 1 and stats["jobs"]["completed"] == 1
        assert stats["queue"]["capacity"] == 64
        assert 0.0 <= stats["dispatcher"]["utilization"] <= 1.0
        assert stats["store"]["entries"] == 1
        assert stats["pool"] is None  # serial runner: no persistent pool

    def test_stats_expose_warm_pool_and_cache(self, tmp_path):
        runner = Runner(
            RunnerConfig(workers=1, cache_dir=str(tmp_path), backend="interp"), persistent=True
        )
        with SimulationService(runner=runner) as service:
            request = RunRequest("always-taken", REF_A)
            for _ in range(2):
                job = service.submit([request], batch=False)
                service.wait(job.id, timeout=30)
            stats = service.stats()
        assert stats["pool"]["workers"] == 1
        assert stats["pool"]["batches"] == 1  # second run served from the cache
        assert stats["result_cache"]["hits"] == 1
        assert stats["result_cache"]["hit_rate"] == 0.5


class TestDeterminism:
    def test_concurrent_mixed_spec_submissions_are_deterministic(self):
        """Many clients submitting mixed-spec batches concurrently must get
        exactly what a serial reference run produces."""
        batches = [
            [RunRequest("gshare", REF_A), RunRequest("bimodal", REF_B)],
            [RunRequest("bimodal", REF_A, scenario="A")],
            [RunRequest("gshare", REF_B, scenario="C"), RunRequest("gshare", REF_A)],
            [RunRequest("always-taken", REF_B)],
        ]
        reference = [[reference_payload(request) for request in batch] for batch in batches]

        with serial_service() as service:
            documents: dict[int, dict] = {}

            def client(index: int) -> None:
                job = service.submit(batches[index])
                documents[index] = service.wait(job.id, timeout=60)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        for index, batch in enumerate(batches):
            document = documents[index]
            assert document["status"] == "done", document
            got = json.loads(json.dumps(document["results"]))
            assert got == reference[index]
