"""A small urllib client for the HTTP service (v2 surface).

Used by ``repro submit``, the tests and the throughput benchmark — and a
reasonable starting point for any external caller.  Stdlib only.

Speaks the v2 API: errors arrive in the uniform envelope
(``{"error": {"code", "message", "retry_after?", "trace_id"}}``) and are
surfaced as :class:`ServiceClientError` carrying the machine-readable
``code`` alongside the status; ``token`` adds the ``Authorization:
Bearer`` header required by authenticated deployments.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Sequence

from repro.api.request import RunRequest
from repro.service.protocol import TERMINAL_STATUSES

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(RuntimeError):
    """An HTTP-level failure: status, server message, envelope code."""

    def __init__(self, status: int, message: str, code: str | None = None,
                 retry_after: float | None = None,
                 trace_id: str | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.code = code
        self.retry_after = retry_after
        self.trace_id = trace_id


class ServiceClient:
    """Typed calls against one service base URL (e.g. ``http://127.0.0.1:8321``)."""

    def __init__(self, base_url: str, timeout: float = 30.0,
                 token: str | None = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.token = token

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _call(self, method: str, path: str, payload: Any = None,
              timeout: float | None = None,
              headers: dict[str, str] | None = None, raw: bool = False) -> Any:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request_headers = {"Content-Type": "application/json"} if body else {}
        if self.token:
            request_headers["Authorization"] = f"Bearer {self.token}"
        request_headers.update(headers or {})
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=body,
            method=method,
            headers=request_headers,
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            ) as response:
                text = response.read().decode("utf-8")
                return text if raw else json.loads(text)
        except urllib.error.HTTPError as error:
            raise self._decode_error(error) from None
        except urllib.error.URLError as error:
            raise ServiceClientError(
                0, f"cannot reach {self.base_url}: {error.reason}") from None

    @staticmethod
    def _decode_error(error: urllib.error.HTTPError) -> ServiceClientError:
        detail = error.read().decode("utf-8", errors="replace")
        code = retry_after = trace_id = None
        try:
            envelope = json.loads(detail).get("error", detail)
        except (json.JSONDecodeError, AttributeError):
            envelope = detail
        if isinstance(envelope, dict):
            # The v2 envelope: code + message + optional retry_after.
            detail = str(envelope.get("message", detail))
            code = envelope.get("code")
            retry_after = envelope.get("retry_after")
            trace_id = envelope.get("trace_id")
        return ServiceClientError(
            error.code, detail, code=code, retry_after=retry_after,
            trace_id=trace_id)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        return self._call("GET", "/v2/healthz")

    def stats(self) -> dict:
        return self._call("GET", "/v2/stats")

    def capabilities(self) -> dict:
        """Live backends, lanes, auth mode and limits (``GET /v2/capabilities``)."""
        return self._call("GET", "/v2/capabilities")

    def metrics(self) -> str:
        """The raw Prometheus text served by ``GET /v2/metrics``."""
        return self._call("GET", "/v2/metrics", raw=True)

    def trace(self, trace_id: str) -> dict:
        """One trace's stitched span tree (``GET /v2/traces/{id}``).

        Raises :class:`ServiceClientError` with status 404 when the
        trace was sampled out or has expired from the span store.
        """
        return self._call("GET", f"/v2/traces/{trace_id}")

    def fleet(self) -> dict:
        """The broker's fleet section of ``/v2/stats``.

        Raises :class:`ServiceClientError` (status 0) when the server is
        not running in broker mode — ``repro fleet`` turns that into a
        clear message instead of an empty table.
        """
        stats = self.stats()
        fleet = stats.get("fleet")
        if fleet is None:
            raise ServiceClientError(
                0, f"{self.base_url} is a single-process service (no broker fleet)"
            )
        return fleet

    def runs(self, status: str | None = None, limit: int | None = None,
             cursor: str | None = None) -> dict:
        """One page of the run listing (``GET /v2/runs``).

        Returns ``{"runs": [...], "count": n, "next_cursor": ...}``;
        pass the ``next_cursor`` back to walk further pages.
        """
        params = []
        if status is not None:
            params.append(f"status={status}")
        if limit is not None:
            params.append(f"limit={limit}")
        if cursor is not None:
            params.append(f"cursor={cursor}")
        suffix = f"?{'&'.join(params)}" if params else ""
        return self._call("GET", f"/v2/runs{suffix}")

    def job(self, job_id: str) -> dict:
        return self._call("GET", f"/v2/runs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        """DELETE a queued job; returns its cancelled document.

        Raises :class:`ServiceClientError` with status 404 for unknown
        jobs and 409 when the job is already running or terminal.
        """
        return self._call("DELETE", f"/v2/runs/{job_id}")

    def submit(
        self,
        requests: Sequence[RunRequest] | RunRequest | Sequence[dict] | dict,
        wait: bool = False,
        timeout: float | None = None,
        trace_id: str | None = None,
    ) -> dict:
        """POST a submission; returns the job document.

        ``requests`` may be live :class:`RunRequest` objects or
        already-serialized payload dicts; a single request posts an
        object, several post a list (the server preserves the shape in
        the document's ``batch`` flag).  ``trace_id`` travels as the
        ``X-Trace-Id`` header; the server adopts it (or mints one) and
        echoes it in the job document.
        """
        payload = self._submission_payload(requests)
        headers = {"X-Trace-Id": trace_id} if trace_id else None
        if not wait:
            return self._call("POST", "/v2/runs", payload, headers=headers)
        hold = timeout if timeout is not None else 60
        # The transport timeout must outlive the server-side hold we just
        # asked for, or long jobs would abort client-side mid-wait.
        return self._call(
            "POST", f"/v2/runs?wait=1&timeout={hold}", payload,
            timeout=max(self.timeout, hold + 10), headers=headers,
        )

    def poll(self, job_id: str, timeout: float = 60.0, interval: float = 0.05) -> dict:
        """GET the job until it reaches a terminal state (or ``timeout``)."""
        deadline = time.monotonic() + timeout
        while True:
            document = self.job(job_id)
            if document["status"] in TERMINAL_STATUSES or time.monotonic() >= deadline:
                return document
            time.sleep(interval)

    def run(
        self,
        requests: Sequence[RunRequest] | RunRequest | Sequence[dict] | dict,
        timeout: float = 60.0,
        trace_id: str | None = None,
    ) -> dict:
        """Submit asynchronously, then poll to completion (both endpoints)."""
        document = self.submit(requests, trace_id=trace_id)
        if document["status"] not in TERMINAL_STATUSES:
            document = self.poll(document["id"], timeout=timeout)
        return document

    @staticmethod
    def _submission_payload(
        requests: Sequence[RunRequest] | RunRequest | Sequence[dict] | dict,
    ) -> Any:
        def encode(entry: RunRequest | dict) -> dict:
            return entry.to_dict() if isinstance(entry, RunRequest) else entry

        if isinstance(requests, (RunRequest, dict)):
            return encode(requests)
        entries = [encode(entry) for entry in requests]
        return entries[0] if len(entries) == 1 else entries
