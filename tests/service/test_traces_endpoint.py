"""``GET /v2/traces/{id}`` and the open-metrics auth exemption."""

import threading
import urllib.error
import urllib.request

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.obs import SpanRecorder, new_trace_id, set_tracer
from repro.service import (
    ServiceClient,
    ServiceClientError,
    SimulationService,
    TokenAuth,
    make_server,
)

REF = "synthetic:biased?length=200&seed=9"


@pytest.fixture(autouse=True)
def fresh_tracer():
    """The service drains the process-global recorder; isolate per test."""
    previous = set_tracer(SpanRecorder(sample_rate=1.0))
    yield
    set_tracer(previous)


def _serve(service, **server_kwargs):
    server = make_server(service, **server_kwargs)
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


class TestTracesEndpoint:
    def test_completed_request_yields_a_stitched_tree(self, client):
        trace_id = new_trace_id()
        document = client.run(RunRequest("gshare", REF), trace_id=trace_id)
        assert document["status"] == "done"
        assert document["trace_id"] == trace_id

        trace = client.trace(trace_id)
        assert trace["trace_id"] == trace_id
        assert trace["span_count"] == len(trace["spans"]) >= 3

        (root,) = trace["tree"]
        assert root["span"]["name"] == "service.request"
        assert root["span"]["parent_id"] is None
        assert root["span"]["attrs"]["job"] == document["id"]
        children = {child["span"]["name"] for child in root["children"]}
        # Queue wait and the lane worker's execution both hang off the
        # request root...
        assert {"service.queue", "worker.execute"} <= children
        execute = next(child for child in root["children"]
                       if child["span"]["name"] == "worker.execute")
        # ...and the runner's own spans nest under the execution.
        assert {node["span"]["name"] for node in execute["children"]} \
            >= {"runner.batch"}
        assert {record["trace_id"] for record in trace["spans"]} == {trace_id}

    def test_unknown_trace_is_a_clean_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.trace("tr-0000000000000000")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_trace"

    def test_subpaths_are_not_a_trace(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.trace("a/b")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"


# ---------------------------------------------------------------------------
# Open metrics: the scraper exemption
# ---------------------------------------------------------------------------


def _get(url: str, path: str):
    return urllib.request.urlopen(f"{url}{path}", timeout=10)


@pytest.fixture()
def authed_service():
    service = SimulationService(runner=Runner(RunnerConfig(workers=1))).start()
    auth = TokenAuth({"sekrit": "ci"}, allow_loopback=False)
    return service, auth


def test_default_keeps_metrics_behind_auth(authed_service):
    service, auth = authed_service
    server, thread = _serve(service, auth=auth)
    try:
        for path in ("/v2/metrics", "/v1/metrics", "/v2/stats"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url, path)
            assert excinfo.value.code == 401
        _get(server.url, "/v2/healthz")  # probes stay open either way
    finally:
        _stop(server, service, thread)


def test_open_metrics_exempts_only_the_scrape_endpoints(authed_service):
    service, auth = authed_service
    server, thread = _serve(service, auth=auth, open_metrics=True)
    try:
        with _get(server.url, "/v2/metrics") as response:
            body = response.read().decode()
        assert "repro_" in body  # a real Prometheus exposition
        # Everything else keeps requiring the bearer token.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url, "/v2/stats")
        assert excinfo.value.code == 401
        assert "uptime_seconds" in ServiceClient(server.url,
                                                 token="sekrit").stats()
    finally:
        _stop(server, service, thread)
