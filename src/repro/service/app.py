"""The HTTP application over :class:`SimulationService` — asyncio edition.

Stdlib only, no frameworks: the transport is
:class:`~repro.service.aio.AsyncHTTPServer` (one coroutine per
connection), so thousands of idle ``?wait=1`` long-polls cost an
``asyncio.Event`` each instead of a thread.  Job completion wakes
waiters through :meth:`SimulationService.subscribe` callbacks bridged
onto the event loop with ``loop.call_soon_threadsafe``.

One router, one JSON error envelope
``{"error": {"code", "message", "retry_after?", "trace_id"}}`` on every
non-2xx, paginated run listing, capability discovery:

=================================  ==========================================
``POST /v2/runs``                  submit; ``202`` + ``Location``
                                   (``?wait=1&timeout=S`` holds: ``200``
                                   terminal / ``202`` on timeout)
``GET /v2/runs``                   list known runs:
                                   ``?status=&limit=&cursor=``
``GET /v2/runs/<id>``              one job document
``DELETE /v2/runs/<id>``           cancel a queued job
``GET /v2/capabilities``           backends, lanes, auth mode, limits
``GET /v2/healthz``                liveness (+ drain state)
``GET /v2/stats``                  queue/lane/client/pool statistics
``GET /v2/metrics``                Prometheus text exposition
``GET /v2/traces/<id>``            one trace's stitched span tree
=================================  ==========================================

The first API generation is gone: ``/v1`` and everything under it
answer ``410`` (code ``gone``) for every method, naming the ``/v2``
path to use instead.

Auth: when a :class:`~repro.service.auth.TokenAuth` is configured,
every endpoint except ``/v2/healthz`` requires ``Authorization: Bearer
<token>`` (unauthenticated loopback peers are exempt unless disabled).
``open_metrics=True`` (``repro serve --open-metrics`` /
``REPRO_SERVICE_OPEN_METRICS=1``) additionally exempts the
Prometheus endpoint so a scraper needs no credentials — a deliberate
trade-off that exposes operational counters (never results) to anyone
who can reach the port; the default keeps them locked.
The token's client identity keys per-client quotas
(:mod:`repro.service.quota`) — over-limit submits get ``429`` with
``Retry-After``.

Graceful drain: once :meth:`SimulationService.begin_drain` runs, new
submissions get ``503`` with ``Connection: close`` while reads and
waits keep working, so a load balancer can rotate the instance out
without failing in-flight clients.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import contextlib
import json
import math
from typing import Any

import repro
from repro.obs import build_tree, ensure_trace_id, get_metrics, new_trace_id
from repro.backends import live_backends
from repro.service.aio import (
    MAX_BODY_BYTES,
    AsyncHTTPServer,
    HTTPRequest,
    HTTPResponse,
    within,
)
from repro.service.auth import ANONYMOUS_CLIENT, AuthError, TokenAuth
from repro.service.core import (
    CancelConflictError,
    QueueFullError,
    ServiceClosedError,
    SimulationService,
    UnknownJobError,
)
from repro.service.protocol import (
    MAX_BATCH_REQUESTS,
    TERMINAL_STATUSES,
    JobStatus,
    ProtocolError,
)
from repro.service.quota import RateLimitedError

__all__ = ["ServiceHTTPServer", "make_server", "serve"]

#: Default/ceiling for the synchronous ``?wait=1`` hold, seconds.
DEFAULT_WAIT_TIMEOUT = 60.0
MAX_WAIT_TIMEOUT = 600.0

_TRUTHY = {"1", "true", "yes", "on"}

_STATUS_VALUES = frozenset(status.value for status in JobStatus)

_DEFAULT_PAGE = 50
_MAX_PAGE = 500


def _http_requests():
    return get_metrics().counter(
        "repro_service_http_requests_total",
        "HTTP requests served, by method and status.", ("method", "status"))


def _parser_error_response(status: int, code: str, message: str) -> HTTPResponse:
    """Render transport-level parse failures in the error envelope."""
    trace_id = new_trace_id()
    return HTTPResponse.json(
        status,
        {"error": {"code": code, "message": message, "trace_id": trace_id}},
        headers={"X-Trace-Id": trace_id},
        close=True,
    )


def _encode_cursor(document: dict[str, Any]) -> str:
    raw = f"{document.get('created') or 0.0}|{document['id']}".encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii")


def _decode_cursor(cursor: str) -> tuple[float, str]:
    raw = base64.urlsafe_b64decode(cursor.encode("ascii")).decode("utf-8")
    created, _, job_id = raw.partition("|")
    if not job_id:
        raise ValueError(cursor)
    return float(created), job_id


class ServiceHTTPServer(AsyncHTTPServer):
    """The asyncio HTTP server bound to one :class:`SimulationService`."""

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
        auth: TokenAuth | None = None,
        header_timeout: float | None = None,
        body_timeout: float | None = None,
        open_metrics: bool = False,
    ) -> None:
        self.service = service
        self.auth = auth
        self.open_metrics = open_metrics
        kwargs: dict[str, Any] = {
            "max_body_bytes": MAX_BODY_BYTES,
            "error_renderer": _parser_error_response,
            "quiet": quiet,
        }
        if header_timeout is not None:
            kwargs["header_timeout"] = header_timeout
        if body_timeout is not None:
            kwargs["body_timeout"] = body_timeout
        super().__init__(self._handle, host, port, **kwargs)

    # ------------------------------------------------------------------
    # Router
    # ------------------------------------------------------------------

    async def _handle(self, request: HTTPRequest) -> HTTPResponse:
        path = request.path.rstrip("/") or "/"
        response = await self._route(request, path)
        _http_requests().inc(method=request.method, status=str(response.status))
        return response

    async def _route(self, request: HTTPRequest, path: str) -> HTTPResponse:
        try:
            client = self._authenticate(request, path)
        except AuthError as error:
            trace_id = ensure_trace_id(request.header("x-trace-id"))
            return self._v2_error(
                401, "unauthorized", str(error), trace_id,
                headers={"WWW-Authenticate": "Bearer"},
            )
        if path == "/v2" or path.startswith("/v2/"):
            return await self._v2(request, path, client)
        if path == "/" and request.method == "GET":
            return HTTPResponse.json(200, {
                "service": "repro",
                "version": repro.__version__,
                "api_versions": ["v2"],
                "capabilities": "/v2/capabilities",
            })
        trace_id = ensure_trace_id(request.header("x-trace-id"))
        if path == "/v1" or path.startswith("/v1/"):
            return self._v2_error(
                410, "gone", f"the /v1 API was removed; use '/v2{path[3:]}'",
                trace_id)
        return self._v2_error(
            404, "not_found", f"no such resource {path!r}", trace_id)

    def _authenticate(self, request: HTTPRequest, path: str) -> str:
        """The request's client identity; raises :class:`AuthError`.

        ``/v2/healthz`` stays open — load balancers probe it without
        credentials.  With ``open_metrics`` the Prometheus endpoint
        joins the exemption (scrapers rarely carry bearer tokens); that
        is opt-in because it exposes operational counters to anyone
        who can reach the port.
        """
        if self.auth is None:
            return ANONYMOUS_CLIENT
        if path == "/v2/healthz":
            return ANONYMOUS_CLIENT
        if self.open_metrics and path == "/v2/metrics":
            return ANONYMOUS_CLIENT
        token = None
        header = request.header("authorization")
        if header is not None and header.lower().startswith("bearer "):
            token = header[len("bearer "):].strip()
        return self.auth.identify(token, request.peer_host)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    async def _await_job(self, job_id: str, timeout: float) -> dict[str, Any]:
        """Hold the request coroutine until the job is terminal.

        The service's watcher thread fires the subscription callback,
        which hops onto this loop via ``call_soon_threadsafe`` — the
        waiting connection costs one coroutine and one ``asyncio.Event``,
        never a thread.
        """
        service = self.service
        loop = asyncio.get_running_loop()
        event = asyncio.Event()
        subscribed = service.subscribe(
            job_id, lambda: loop.call_soon_threadsafe(event.set))
        if subscribed and timeout > 0:
            with contextlib.suppress(asyncio.TimeoutError):
                await within(loop.time() + timeout, event.wait())
        return service.job(job_id)

    @staticmethod
    def _wait_params(request: HTTPRequest) -> tuple[bool, float]:
        wait = request.query.get("wait", "").lower() in _TRUTHY
        try:
            timeout = float(request.query.get("timeout", DEFAULT_WAIT_TIMEOUT))
        except ValueError:
            timeout = DEFAULT_WAIT_TIMEOUT
        return wait, max(0.0, min(timeout, MAX_WAIT_TIMEOUT))

    # ------------------------------------------------------------------
    # v2 — the current surface
    # ------------------------------------------------------------------

    @staticmethod
    def _v2_error(status: int, code: str, message: str, trace_id: str,
                  retry_after: float | None = None,
                  headers: dict[str, str] | None = None,
                  close: bool = False) -> HTTPResponse:
        envelope: dict[str, Any] = {
            "code": code, "message": message, "trace_id": trace_id,
        }
        extra = dict(headers or {})
        if retry_after is not None:
            envelope["retry_after"] = retry_after
            extra["Retry-After"] = str(max(1, math.ceil(retry_after)))
        extra["X-Trace-Id"] = trace_id
        return HTTPResponse.json(status, {"error": envelope}, extra, close=close)

    async def _v2(self, request: HTTPRequest, path: str, client: str) -> HTTPResponse:
        service = self.service
        method = request.method
        trace_id = ensure_trace_id(request.header("x-trace-id"))
        if path == "/v2/runs":
            if method == "POST":
                return await self._v2_submit(request, client, trace_id)
            if method == "GET":
                return self._v2_list(request, trace_id)
            return self._v2_error(
                405, "method_not_allowed", f"{method} not allowed on {path}",
                trace_id, headers={"Allow": "GET, POST"})
        if path.startswith("/v2/runs/"):
            job_id = path[len("/v2/runs/"):]
            if "/" in job_id or not job_id:
                return self._v2_error(
                    404, "not_found", f"no such resource {path!r}", trace_id)
            if method == "GET":
                try:
                    return HTTPResponse.json(200, service.job(job_id))
                except UnknownJobError:
                    return self._v2_error(
                        404, "unknown_job", f"unknown job {job_id!r}", trace_id)
            if method == "DELETE":
                try:
                    return HTTPResponse.json(200, service.cancel(job_id))
                except UnknownJobError:
                    return self._v2_error(
                        404, "unknown_job", f"unknown job {job_id!r}", trace_id)
                except CancelConflictError as error:
                    return self._v2_error(
                        409, "cancel_conflict", str(error), trace_id)
            return self._v2_error(
                405, "method_not_allowed", f"{method} not allowed on {path}",
                trace_id, headers={"Allow": "GET, DELETE"})
        if method != "GET":
            return self._v2_error(
                405, "method_not_allowed", f"{method} not allowed on {path}",
                trace_id, headers={"Allow": "GET"})
        if path == "/v2/healthz":
            return HTTPResponse.json(200, {
                "status": "ok",
                "version": repro.__version__,
                **service.health(),
                "draining": service.draining,
            })
        if path == "/v2/stats":
            stats = service.stats()
            stats["http"] = {"open_connections": self.open_connections}
            return HTTPResponse.json(200, stats)
        if path == "/v2/metrics":
            return HTTPResponse.text(
                200, service.metrics_text(),
                "text/plain; version=0.0.4; charset=utf-8")
        if path == "/v2/capabilities":
            return HTTPResponse.json(200, self._capabilities())
        if path.startswith("/v2/traces/"):
            wanted = path[len("/v2/traces/"):]
            if "/" in wanted or not wanted:
                return self._v2_error(
                    404, "not_found", f"no such resource {path!r}", trace_id)
            spans = service.spans.get(wanted)
            if not spans:
                return self._v2_error(
                    404, "unknown_trace",
                    f"no spans recorded for trace {wanted!r} (sampled out, "
                    "expired from the store, or never seen)", trace_id)
            return HTTPResponse.json(200, {
                "trace_id": wanted,
                "span_count": len(spans),
                "spans": spans,
                "tree": build_tree(spans),
            })
        return self._v2_error(
            404, "not_found", f"no such resource {path!r}", trace_id)

    def _capabilities(self) -> dict[str, Any]:
        service = self.service
        quota = service.quota
        return {
            "version": repro.__version__,
            "api_versions": ["v2"],
            "mode": "broker" if service.broker is not None else "local",
            "draining": service.draining,
            "backends": live_backends(),
            "lanes": {
                "enabled": service.small_job_branches is not None,
                "threshold_branches": service.small_job_branches,
                "names": list(service.lanes),
            },
            "auth": {
                "enabled": self.auth is not None,
                "loopback_exempt": self.auth.allow_loopback if self.auth else True,
                "clients": self.auth.clients if self.auth else [],
            },
            "limits": {
                "max_body_bytes": self.max_body_bytes,
                "max_batch_requests": MAX_BATCH_REQUESTS,
                "queue_size": service.queue_size,
                "max_wait_timeout_seconds": MAX_WAIT_TIMEOUT,
                "quota": quota.policy.to_dict() if quota is not None else None,
            },
        }

    def _v2_list(self, request: HTTPRequest, trace_id: str) -> HTTPResponse:
        query = request.query
        status = query.get("status")
        if status is not None and status not in _STATUS_VALUES:
            return self._v2_error(
                400, "invalid_status",
                f"unknown status {status!r}; one of {sorted(_STATUS_VALUES)}",
                trace_id)
        try:
            limit = int(query.get("limit", _DEFAULT_PAGE))
            if limit < 1:
                raise ValueError(limit)
        except ValueError:
            return self._v2_error(
                400, "invalid_limit",
                f"limit must be a positive integer, got {query.get('limit')!r}",
                trace_id)
        limit = min(limit, _MAX_PAGE)
        after: tuple[float, str] | None = None
        cursor = query.get("cursor")
        if cursor:
            try:
                after = _decode_cursor(cursor)
            except (ValueError, binascii.Error, UnicodeDecodeError):
                return self._v2_error(
                    400, "invalid_cursor", f"malformed cursor {cursor!r}",
                    trace_id)
        documents = self.service.documents()
        if status is not None:
            documents = [doc for doc in documents if doc.get("status") == status]
        # Newest first; the cursor pins (created, id) so pagination is
        # stable under concurrent submissions.
        documents.sort(
            key=lambda doc: (doc.get("created") or 0.0, doc["id"]), reverse=True)
        if after is not None:
            documents = [
                doc for doc in documents
                if (doc.get("created") or 0.0, doc["id"]) < after
            ]
        page = documents[:limit]
        next_cursor = _encode_cursor(page[-1]) if len(documents) > limit else None
        return HTTPResponse.json(200, {
            "runs": page,
            "count": len(page),
            "next_cursor": next_cursor,
        })

    async def _v2_submit(self, request: HTTPRequest, client: str,
                         trace_id: str) -> HTTPResponse:
        service = self.service
        if request.body_issue == "chunked":
            return self._v2_error(
                400, "chunked_not_supported",
                "chunked transfer encoding is not supported; "
                "send Content-Length", trace_id, close=True)
        if request.body_issue == "bad_length":
            return self._v2_error(
                400, "bad_content_length", "invalid Content-Length",
                trace_id, close=True)
        if request.body_issue == "too_large":
            return self._v2_error(
                413, "body_too_large",
                f"request body of {request.declared_length} bytes exceeds "
                f"{self.max_body_bytes} bytes", trace_id, close=True)
        if not request.body:
            return self._v2_error(
                400, "empty_body", "request body required", trace_id)
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return self._v2_error(
                400, "invalid_json", f"invalid JSON body: {error}", trace_id)
        try:
            job = service.submit_payload(
                payload, trace_id=request.header("x-trace-id"), client=client)
        except ProtocolError as error:
            return self._v2_error(400, error.code, str(error), trace_id)
        except QueueFullError as error:
            return self._v2_error(
                503, "queue_full", str(error), trace_id, retry_after=1.0)
        except RateLimitedError as error:
            return self._v2_error(
                429, error.code, str(error), trace_id,
                retry_after=error.retry_after)
        except ServiceClosedError as error:
            draining = service.draining
            return self._v2_error(
                503, "draining" if draining else "closed", str(error),
                trace_id, close=draining)

        location = {"Location": f"/v2/runs/{job.id}", "X-Trace-Id": job.trace_id}
        wait, timeout = self._wait_params(request)
        if wait:
            document = await self._await_job(job.id, timeout)
            finished = document["status"] in TERMINAL_STATUSES
            return HTTPResponse.json(200 if finished else 202, document, location)
        return HTTPResponse.json(202, job.to_dict(), location)


def make_server(
    service: SimulationService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    auth: TokenAuth | None = None,
    header_timeout: float | None = None,
    body_timeout: float | None = None,
    open_metrics: bool = False,
) -> ServiceHTTPServer:
    """Bind (but do not run) the HTTP server; ``port=0`` picks a free port."""
    return ServiceHTTPServer(
        service, host, port, quiet=quiet, auth=auth,
        header_timeout=header_timeout, body_timeout=body_timeout,
        open_metrics=open_metrics)


def serve(
    service: SimulationService,
    host: str = "127.0.0.1",
    port: int = 8321,
    quiet: bool = True,
    auth: TokenAuth | None = None,
    open_metrics: bool = False,
) -> None:
    """Run the service until interrupted, then shut down cleanly."""
    server = make_server(service, host, port, quiet=quiet, auth=auth,
                         open_metrics=open_metrics)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
