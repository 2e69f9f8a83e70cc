"""The HTTP layer: endpoints, status codes, wire parity with `repro run`."""

import json
import threading
import urllib.request

import pytest

from repro.api import Runner, RunnerConfig, RunRequest, suite_payload
from repro.api.cli import main
from repro.service import ServiceClient, ServiceClientError, SimulationService, make_server

REF_A = "synthetic:biased?length=250&seed=4"
REF_B = "synthetic:loop?iterations=9&length=250&seed=4"


@pytest.fixture()
def server():
    service = SimulationService(runner=Runner(RunnerConfig(workers=1))).start()
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


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


def reference_payload(request: RunRequest) -> dict:
    return json.loads(json.dumps(suite_payload(request, Runner().run(request))))


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok" and health["dispatcher_running"] is True

    def test_sync_run_matches_direct_runner(self, client):
        request = RunRequest("gshare", REF_A, scenario="A")
        document = client.submit(request, wait=True)
        assert document["status"] == "done"
        assert document["results"][0] == reference_payload(request)

    def test_async_submit_then_poll(self, client):
        request = RunRequest("bimodal", REF_B)
        submitted = client.submit(request)
        assert submitted["status"] in ("queued", "running", "done")
        document = client.poll(submitted["id"], timeout=30)
        assert document["status"] == "done"
        assert document["results"][0] == reference_payload(request)

    def test_batch_round_trip(self, client):
        requests = [RunRequest("gshare", REF_A), RunRequest("bimodal", REF_B)]
        document = client.run(requests, timeout=30)
        assert document["status"] == "done" and document["batch"] is True
        assert [p["spec"]["kind"] for p in document["results"]] == ["gshare", "bimodal"]

    def test_get_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("job-unknown")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._call("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v2/runs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_invalid_submission_is_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"trace": REF_A})  # missing predictor
        assert excinfo.value.status == 400

    def test_empty_body_is_400(self, server):
        request = urllib.request.Request(f"{server.url}/v2/runs", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_oversized_body_is_413_and_closes_the_connection(self, server):
        """An unread body must not poison the next keep-alive request."""
        import http.client

        from repro.service.app import MAX_BODY_BYTES

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/v2/runs")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()  # headers only; the server must not wait for the body
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_stats_document(self, client):
        client.submit(RunRequest("always-taken", REF_A), wait=True)
        stats = client.stats()
        assert {"uptime_seconds", "queue", "jobs", "dispatcher", "pool", "store"} <= set(stats)
        assert stats["jobs"]["submitted"] >= 1


class TestQueueBackpressure:
    def test_full_queue_is_503_with_retry_after(self):
        # Dispatcher deliberately not started: submissions pile up.
        service = SimulationService(
            runner=Runner(RunnerConfig(workers=1)), queue_size=1
        )
        http_server = make_server(service)
        thread = threading.Thread(target=http_server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(http_server.url)
        payload = RunRequest("always-taken", REF_A)
        try:
            first = client.submit(payload)
            assert first["status"] == "queued"
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(payload)
            assert excinfo.value.status == 503
        finally:
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=10)


class TestSubmitCLI:
    def test_submit_json_matches_run_json(self, server, capsys):
        argv = ["gshare", "--trace", REF_A, "--scenario", "A", "--json"]
        assert main(["run", *argv]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert main(["submit", *argv, "--url", server.url]) == 0
        via_http = json.loads(capsys.readouterr().out)
        assert via_http == direct

    def test_submit_sync_mode(self, server, capsys):
        code = main([
            "submit", "always-taken", "--trace", REF_A,
            "--url", server.url, "--sync", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["branches"] == 250

    def test_submit_no_wait_prints_job_document(self, server, capsys):
        code = main([
            "submit", "always-taken", "--trace", REF_A,
            "--url", server.url, "--no-wait",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["id"].startswith("job-")
        assert document["status"] in ("queued", "running", "done")

    def test_submit_against_dead_server_is_clean_error(self, capsys):
        code = main([
            "submit", "always-taken", "--trace", REF_A,
            "--url", "http://127.0.0.1:9",  # discard port: nothing listens
        ])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err
