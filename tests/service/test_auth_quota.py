"""Token authentication and per-client quotas, unit and over HTTP."""

import json
import threading
import urllib.request

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.service import (
    AuthError,
    ClientQuota,
    QuotaPolicy,
    RateLimitedError,
    ServiceClient,
    ServiceClientError,
    SimulationService,
    TokenAuth,
    is_loopback_host,
    make_server,
)

REF = "synthetic:biased?length=200&seed=7"


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


class TestTokenAuth:
    def test_loopback_hosts(self):
        assert is_loopback_host("127.0.0.1")
        assert is_loopback_host("::1")
        assert is_loopback_host("localhost")
        assert not is_loopback_host("10.0.0.5")
        assert not is_loopback_host("example.com")

    def test_from_sources_parses_identities(self):
        auth = TokenAuth.from_sources(env_value="ci=sekrit, baretoken")
        assert auth is not None
        assert auth.identify("sekrit", "10.0.0.5") == "ci"
        # A bare token gets a stable derived identity.
        derived = auth.identify("baretoken", "10.0.0.5")
        assert derived.startswith("token-") and len(derived) == len("token-") + 8
        assert auth.clients == sorted(["ci", derived])

    def test_no_sources_disables_auth(self):
        assert TokenAuth.from_sources(env_value="") is None

    def test_token_file_wins_over_env(self, tmp_path):
        token_file = tmp_path / "tokens"
        token_file.write_text("# comment\n\nci=filetoken\n")
        auth = TokenAuth.from_sources(env_value="ci=envtoken",
                                      token_file=str(token_file))
        assert auth.identify("filetoken", None) == "ci"
        assert auth.identify("envtoken", None) == "ci"  # merged, both valid

    def test_malformed_entry_is_an_error(self):
        with pytest.raises(ValueError, match="malformed token entry"):
            TokenAuth.from_sources(env_value="client=")

    def test_invalid_token_fails_even_from_loopback(self):
        auth = TokenAuth({"sekrit": "ci"})
        with pytest.raises(AuthError):
            auth.identify("wrong", "127.0.0.1")

    def test_missing_token_exempt_only_on_loopback(self):
        auth = TokenAuth({"sekrit": "ci"})
        assert auth.identify(None, "127.0.0.1") == "loopback"
        with pytest.raises(AuthError):
            auth.identify(None, "10.0.0.5")

    def test_loopback_exemption_can_be_disabled(self):
        auth = TokenAuth({"sekrit": "ci"}, allow_loopback=False)
        with pytest.raises(AuthError):
            auth.identify(None, "127.0.0.1")
        assert auth.identify("sekrit", "127.0.0.1") == "ci"


class TestClientQuota:
    def test_rate_limit_rejects_then_recovers(self):
        clock = FakeClock()
        quota = ClientQuota(QuotaPolicy(rate=1.0, burst=2), clock=clock)
        quota.admit("ci", live_jobs=0)
        quota.admit("ci", live_jobs=0)
        with pytest.raises(RateLimitedError) as excinfo:
            quota.admit("ci", live_jobs=0)
        assert excinfo.value.code == "rate_limited"
        assert 0.0 < excinfo.value.retry_after <= 1.0
        clock.advance(1.0)  # one token refilled
        quota.admit("ci", live_jobs=0)

    def test_buckets_are_per_client(self):
        quota = ClientQuota(QuotaPolicy(rate=1.0, burst=1), clock=FakeClock())
        quota.admit("a", live_jobs=0)
        quota.admit("b", live_jobs=0)  # b's bucket is untouched by a
        with pytest.raises(RateLimitedError):
            quota.admit("a", live_jobs=0)

    def test_live_job_cap(self):
        quota = ClientQuota(QuotaPolicy(max_client_jobs=2))
        quota.admit("ci", live_jobs=1)
        with pytest.raises(RateLimitedError) as excinfo:
            quota.admit("ci", live_jobs=2)
        assert excinfo.value.code == "quota_exceeded"

    def test_stats_report_tokens_and_rejections(self):
        clock = FakeClock()
        quota = ClientQuota(QuotaPolicy(rate=1.0, burst=1), clock=clock)
        quota.admit("ci", live_jobs=0)
        with pytest.raises(RateLimitedError):
            quota.admit("ci", live_jobs=0)
        stats = quota.stats()
        assert stats["policy"]["rate_per_second"] == 1.0
        assert stats["clients"]["ci"]["rejected"] == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            QuotaPolicy(rate=0.0)
        with pytest.raises(ValueError):
            QuotaPolicy(burst=0)
        with pytest.raises(ValueError):
            QuotaPolicy(max_client_jobs=0)
        assert not QuotaPolicy.unlimited().enforced
        assert QuotaPolicy(rate=1.0).enforced


# ---------------------------------------------------------------------------
# Over HTTP
# ---------------------------------------------------------------------------


def _serve(service, auth=None):
    server = make_server(service, auth=auth)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, service, thread):
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=10)


@pytest.fixture()
def authed_server():
    service = SimulationService(runner=Runner(RunnerConfig(workers=1))).start()
    auth = TokenAuth({"sekrit": "ci"}, allow_loopback=False)
    server, thread = _serve(service, auth=auth)
    try:
        yield server
    finally:
        _stop(server, service, thread)


class TestAuthOverHTTP:
    def test_missing_token_is_401_with_challenge(self, authed_server):
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(authed_server.url).stats()
        assert excinfo.value.status == 401
        assert excinfo.value.code == "unauthorized"
        request = urllib.request.Request(f"{authed_server.url}/v2/stats")
        try:
            urllib.request.urlopen(request)
        except urllib.error.HTTPError as error:
            assert error.headers.get("WWW-Authenticate") == "Bearer"

    def test_bad_token_is_401_even_from_loopback(self, authed_server):
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(authed_server.url, token="wrong").stats()
        assert excinfo.value.status == 401

    def test_good_token_is_admitted(self, authed_server):
        client = ServiceClient(authed_server.url, token="sekrit")
        assert client.healthz()["status"] == "ok"
        document = client.run(RunRequest("bimodal", REF), timeout=30)
        assert document["status"] == "done"

    def test_healthz_is_auth_exempt(self, authed_server):
        # Liveness probes must work without credentials.
        with urllib.request.urlopen(f"{authed_server.url}/v2/healthz") as response:
            assert json.loads(response.read())["status"] == "ok"

    def test_v1_shim_is_authenticated_too(self, authed_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{authed_server.url}/v1/stats")
        assert excinfo.value.code == 401

    def test_loopback_exemption_when_enabled(self):
        service = SimulationService(runner=Runner(RunnerConfig(workers=1))).start()
        auth = TokenAuth({"sekrit": "ci"}, allow_loopback=True)
        server, thread = _serve(service, auth=auth)
        try:
            assert ServiceClient(server.url).stats()["uptime_seconds"] >= 0
        finally:
            _stop(server, service, thread)

    def test_capabilities_reports_auth_mode(self, authed_server):
        capabilities = ServiceClient(
            authed_server.url, token="sekrit").capabilities()
        assert capabilities["auth"] == {
            "enabled": True, "loopback_exempt": False, "clients": ["ci"]}


class TestQuotaOverHTTP:
    def test_rate_limit_429_then_recovery(self):
        clock = FakeClock()
        quota = ClientQuota(QuotaPolicy(rate=1.0, burst=1), clock=clock)
        service = SimulationService(
            runner=Runner(RunnerConfig(workers=1)), quota=quota).start()
        server, thread = _serve(service)
        client = ServiceClient(server.url)
        payload = RunRequest("bimodal", REF)
        try:
            assert client.submit(payload)["id"]
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(payload)
            assert excinfo.value.status == 429
            assert excinfo.value.code == "rate_limited"
            assert excinfo.value.retry_after is not None
            clock.advance(2.0)
            assert client.submit(payload)["id"]  # bucket refilled
        finally:
            _stop(server, service, thread)

    def test_retry_after_header_is_set(self):
        quota = ClientQuota(QuotaPolicy(rate=1.0, burst=1), clock=FakeClock())
        service = SimulationService(
            runner=Runner(RunnerConfig(workers=1)), quota=quota).start()
        server, thread = _serve(service)
        try:
            body = json.dumps(RunRequest("bimodal", REF).to_dict()).encode()
            def post():
                return urllib.request.urlopen(urllib.request.Request(
                    f"{server.url}/v2/runs", data=body, method="POST",
                    headers={"Content-Type": "application/json"}))
            post()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post()
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers["Retry-After"]) >= 1
        finally:
            _stop(server, service, thread)

    def test_live_job_cap_over_http(self):
        # No dispatcher: submitted jobs stay queued, i.e. live, so the
        # second submit must trip the per-client cap.
        quota = ClientQuota(QuotaPolicy(max_client_jobs=1))
        service = SimulationService(
            runner=Runner(RunnerConfig(workers=1)), quota=quota)
        server, thread = _serve(service)
        client = ServiceClient(server.url)
        payload = RunRequest("bimodal", REF)
        try:
            assert client.submit(payload)["status"] == "queued"
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(payload)
            assert excinfo.value.status == 429
            assert excinfo.value.code == "quota_exceeded"
        finally:
            _stop(server, service, thread)

    def test_queue_full_wins_over_quota(self):
        # A full queue answers 503 before burning the client's tokens.
        clock = FakeClock()
        quota = ClientQuota(QuotaPolicy(rate=1.0, burst=1), clock=clock)
        service = SimulationService(
            runner=Runner(RunnerConfig(workers=1)), queue_size=1, quota=quota)
        server, thread = _serve(service)
        client = ServiceClient(server.url)
        payload = RunRequest("bimodal", REF)
        try:
            client.submit(payload)  # fills the queue (no dispatcher)
            clock.advance(2.0)      # bucket is full again
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(payload)
            assert excinfo.value.status == 503
            assert excinfo.value.code == "queue_full"
        finally:
            _stop(server, service, thread)
