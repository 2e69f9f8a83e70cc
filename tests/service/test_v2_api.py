"""The /v2 surface: envelopes, pagination, capabilities, lanes, drain, /v1 removal."""

import json
import pathlib
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.service import (
    DiskResultStore,
    ServiceClient,
    ServiceClientError,
    SimulationService,
    TokenAuth,
    make_server,
)
from repro.service.spec import BEGIN_MARKER, END_MARKER, render_table

REF = "synthetic:biased?length=200&seed=3"


def _serve(service, **kwargs):
    server = make_server(service, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, service, thread):
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=10)


@pytest.fixture()
def server():
    service = SimulationService(runner=Runner(RunnerConfig(workers=1))).start()
    http_server, thread = _serve(service)
    try:
        yield http_server
    finally:
        _stop(http_server, service, thread)


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


def _post_raw(url: str, body: bytes, headers: dict | None = None):
    return urllib.request.urlopen(urllib.request.Request(
        f"{url}/v2/runs", data=body, method="POST",
        headers={"Content-Type": "application/json", **(headers or {})}))


class TestErrorEnvelope:
    """Every v2 error is ``{"error": {code, message, trace_id}}``."""

    @pytest.mark.parametrize("payload, code", [
        (b"[]", "empty_batch"),
        (b"17", "invalid_submission"),
        (json.dumps([RunRequest("gshare", REF).to_dict()] * 300).encode(),
         "batch_too_large"),
        (json.dumps(dict(RunRequest("gshare", REF).to_dict(),
                         predictor={"kind": "nope", "config": {}})).encode(),
         "unknown_predictor"),
        (json.dumps({"kind": "gshare"}).encode(), "invalid_request"),
        (b"{not json", "invalid_json"),
    ])
    def test_submission_codes_are_stable(self, server, payload, code):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(server.url, payload)
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read())["error"]
        # Machine-readable: clients branch on the code, not the prose.
        assert envelope["code"] == code
        assert envelope["message"]
        assert envelope["trace_id"]

    def test_unknown_route_code(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._call("GET", "/v2/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"
        assert excinfo.value.trace_id

    def test_unknown_job_code(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("job-missing")
        assert (excinfo.value.status, excinfo.value.code) == (404, "unknown_job")

    def test_method_not_allowed(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._call("DELETE", "/v2/stats")
        assert excinfo.value.status == 405
        assert excinfo.value.code == "method_not_allowed"

    def test_cancel_conflict_code(self, client):
        document = client.run(RunRequest("bimodal", REF), timeout=30)
        with pytest.raises(ServiceClientError) as excinfo:
            client.cancel(document["id"])
        assert (excinfo.value.status, excinfo.value.code) == (409, "cancel_conflict")


class TestSubmission:
    def test_async_submit_is_202_with_location(self, server):
        body = json.dumps(RunRequest("bimodal", REF).to_dict()).encode()
        with _post_raw(server.url, body, {"X-Trace-Id": "tr-v2api"}) as response:
            assert response.status == 202
            document = json.loads(response.read())
            assert response.headers["Location"] == f"/v2/runs/{document['id']}"
            assert response.headers["X-Trace-Id"] == "tr-v2api"
            assert document["trace_id"] == "tr-v2api"

    def test_wait_returns_200_when_done(self, server):
        body = json.dumps(RunRequest("bimodal", REF).to_dict()).encode()
        request = urllib.request.Request(
            f"{server.url}/v2/runs?wait=1&timeout=30", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.status == 200
            assert json.loads(response.read())["status"] == "done"

    def test_wait_timeout_returns_202(self, server):
        # timeout=0 cannot win the race against execution start, but the
        # contract is status-code-by-terminality, so accept either.
        body = json.dumps(RunRequest("gshare", REF).to_dict()).encode()
        request = urllib.request.Request(
            f"{server.url}/v2/runs?wait=1&timeout=0", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=60) as response:
            document = json.loads(response.read())
            terminal = document["status"] in ("done", "failed", "cancelled")
            assert response.status == (200 if terminal else 202)


class TestListing:
    def test_pagination_walks_newest_first_without_dups(self, client):
        submitted = [
            client.run(RunRequest("bimodal", REF), timeout=30)["id"]
            for _ in range(5)
        ]
        seen, cursor = [], None
        while True:
            page = client.runs(limit=2, cursor=cursor)
            assert page["count"] == len(page["runs"]) <= 2
            seen.extend(run["id"] for run in page["runs"])
            cursor = page["next_cursor"]
            if cursor is None:
                break
        assert sorted(seen) == sorted(submitted)
        assert len(set(seen)) == len(seen)
        created = [run for run in seen]  # newest first by (created, id)
        assert created == seen

    def test_status_filter(self, client):
        client.run(RunRequest("bimodal", REF), timeout=30)
        done = client.runs(status="done")
        assert done["count"] >= 1
        assert all(run["status"] == "done" for run in done["runs"])
        assert client.runs(status="failed")["count"] == 0

    @pytest.mark.parametrize("query, code", [
        ("?status=bogus", "invalid_status"),
        ("?limit=0", "invalid_limit"),
        ("?limit=banana", "invalid_limit"),
        ("?cursor=!!!", "invalid_cursor"),
    ])
    def test_bad_query_codes(self, client, query, code):
        with pytest.raises(ServiceClientError) as excinfo:
            client._call("GET", f"/v2/runs{query}")
        assert excinfo.value.status == 400
        assert excinfo.value.code == code


class TestCapabilitiesAndStats:
    def test_capabilities_shape(self, client):
        capabilities = client.capabilities()
        assert capabilities["api_versions"] == ["v2"]
        assert capabilities["mode"] == "local"
        assert capabilities["auth"]["enabled"] is False
        assert capabilities["lanes"]["enabled"] is False
        limits = capabilities["limits"]
        assert limits["max_batch_requests"] == 256
        assert limits["queue_size"] == 64
        assert "bimodal" in capabilities["backends"] or capabilities["backends"]

    def test_index_advertises_both_versions(self, server):
        with urllib.request.urlopen(f"{server.url}/") as response:
            index = json.loads(response.read())
        assert index["api_versions"] == ["v2"]
        assert "deprecated" not in index

    def test_v2_stats_carries_new_sections(self, client):
        stats = client.stats()
        assert stats["draining"] is False
        assert "lanes" in stats and "by_lane" in stats["lanes"]
        assert "http" in stats and stats["http"]["open_connections"] >= 1

    def test_lanes_split_when_enabled(self):
        service = SimulationService(
            runner=Runner(RunnerConfig(workers=1)),
            small_job_branches=1000,
            interactive_runner=Runner(RunnerConfig(workers=1)),
        ).start()
        server, thread = _serve(service)
        client = ServiceClient(server.url)
        try:
            assert service.lanes == ("interactive", "batch")
            small = client.run(RunRequest("bimodal", REF), timeout=30)
            big = client.run(
                RunRequest("bimodal", "synthetic:biased?length=5000&seed=3"),
                timeout=30)
            assert small["status"] == big["status"] == "done"
            by_lane = client.stats()["lanes"]["by_lane"]
            assert by_lane["interactive"]["executed"] >= 1
            assert by_lane["batch"]["executed"] >= 1
            capabilities = client.capabilities()
            assert capabilities["lanes"] == {
                "enabled": True, "threshold_branches": 1000,
                "names": ["interactive", "batch"]}
        finally:
            _stop(server, service, thread)


class TestV1Shim:
    """The first API generation is gone: every ``/v1`` path answers 410."""

    def test_v2_does_not_carry_deprecation_header(self, server):
        with urllib.request.urlopen(f"{server.url}/v2/healthz") as response:
            assert response.headers["Deprecation"] is None

    def test_every_v1_path_answers_410_gone_after_auth(self):
        service = SimulationService(runner=Runner(RunnerConfig(workers=1))).start()
        auth = TokenAuth({"sekrit": "ci"}, allow_loopback=False)
        server, thread = _serve(service, auth=auth)
        body = json.dumps(RunRequest("bimodal", REF).to_dict()).encode()

        def call(method, path, headers):
            return urllib.request.urlopen(urllib.request.Request(
                f"{server.url}{path}", method=method,
                data=body if method == "POST" else None,
                headers={"X-Trace-Id": "tr-gone-1", **headers}))

        try:
            for method, path, replacement in [
                ("GET", "/v1", "/v2"),
                ("GET", "/v1/healthz", "/v2/healthz"),
                ("GET", "/v1/metrics", "/v2/metrics"),
                ("GET", "/v1/runs/job-1", "/v2/runs/job-1"),
                ("POST", "/v1/runs", "/v2/runs"),
                ("DELETE", "/v1/runs/job-1", "/v2/runs/job-1"),
            ]:
                with pytest.raises(urllib.error.HTTPError) as unauthenticated:
                    call(method, path, {})
                assert unauthenticated.value.code == 401, (method, path)
                with pytest.raises(urllib.error.HTTPError) as gone:
                    call(method, path, {"Authorization": "Bearer sekrit"})
                assert gone.value.code == 410, (method, path)
                assert gone.value.headers["X-Trace-Id"] == "tr-gone-1"
                envelope = json.loads(gone.value.read())["error"]
                assert envelope["code"] == "gone"
                assert envelope["trace_id"] == "tr-gone-1"
                assert f"'{replacement}'" in envelope["message"]
            assert service.documents() == []  # the POST submitted nothing
        finally:
            _stop(server, service, thread)


class TestDrain:
    def test_draining_rejects_submits_with_close(self, server):
        server.service.begin_drain()
        body = json.dumps(RunRequest("bimodal", REF).to_dict()).encode()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(server.url, body)
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["error"]["code"] == "draining"
        assert excinfo.value.headers["Connection"] == "close"
        # Reads still work while draining.
        with urllib.request.urlopen(f"{server.url}/v2/healthz") as response:
            assert json.loads(response.read())["draining"] is True

    def test_park_and_recover_round_trip(self, tmp_path):
        store = DiskResultStore(str(tmp_path))
        # No dispatcher: the job stays queued, so drain() must park it.
        first = SimulationService(
            runner=Runner(RunnerConfig(workers=1)), store=store)
        job = first.submit([RunRequest("bimodal", REF)], batch=False)
        assert first.drain() == 1
        parked = store.get(job.id)
        assert parked["status"] == "queued"

        second = SimulationService(
            runner=Runner(RunnerConfig(workers=1)), store=store)
        assert second.recover() == 1
        with second:  # starts the dispatcher; the recovered job executes
            document = second.wait(job.id, timeout=30)
        assert document["status"] == "done"
        assert document["id"] == job.id
        assert store.get(job.id)["status"] == "done"


class TestSpec:
    def test_readme_endpoint_table_matches_implementation(self):
        readme = pathlib.Path(__file__).resolve().parents[2] / "README.md"
        text = readme.read_text(encoding="utf-8")
        start = text.index(BEGIN_MARKER) + len(BEGIN_MARKER)
        documented = text[start:text.index(END_MARKER, start)].strip()
        assert documented == render_table()
