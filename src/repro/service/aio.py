"""A minimal asyncio HTTP/1.1 server on stdlib streams.

``http.server`` gave the service one thread per connection, which made
long-poll waiting (``POST /v2/runs?wait=1``) cost a thread per idle
client.  This module replaces the transport with ``asyncio`` streams —
one coroutine per connection — while keeping the exact thread-facing
facade the rest of the code base drives
(:meth:`AsyncHTTPServer.serve_forever` / :meth:`~AsyncHTTPServer.shutdown`
/ :meth:`~AsyncHTTPServer.server_close`, socket bound in the
constructor so ``port=0`` resolves immediately).

The parser is deliberately small and deliberately strict:

* request line and header lines are size-capped, the header count is
  capped, and the whole head must arrive within ``header_timeout``
  seconds — a slow-loris connection is dropped with a 408 instead of
  holding memory forever;
* bodies are read only up to a declared, sane ``Content-Length``;
  ``Transfer-Encoding: chunked`` is rejected cleanly (the service's
  JSON submissions have no use for it) and oversized or unparsable
  lengths are surfaced to the application as a *body issue* rather
  than handled here, because only the application knows the route: a
  bad body on the submit route is a 400 or 413, while any other route
  gives its own answer (404, 405, 410);
* keep-alive and pipelining work the obvious way: the connection
  coroutine loops, and any request that leaves unread bytes on the
  socket forces ``Connection: close`` so a later request can never
  parse a stale body as its head.

The application is one ``async handler(request) -> HTTPResponse``
callable; parse-level failures are rendered through a pluggable
``error_renderer`` so the application controls the error body shape.
"""

from __future__ import annotations

import asyncio
import contextlib
import email.utils
import json
import logging
import socket
import threading
from dataclasses import dataclass, field
from http.client import responses as _REASONS
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qs, urlsplit

import repro
from repro.obs import get_logger, log_event

__all__ = [
    "AsyncHTTPServer",
    "HTTPRequest",
    "HTTPResponse",
    "MAX_BODY_BYTES",
    "MAX_HEADER_COUNT",
    "MAX_LINE_BYTES",
]

_LOG = get_logger("service.http")

#: Submission bodies above this are rejected unread (413).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Longest accepted request line or single header line, bytes.
MAX_LINE_BYTES = 8190
#: Most header lines accepted on one request.
MAX_HEADER_COUNT = 100
#: Seconds the complete request head must arrive within (slow-loris cap);
#: also the keep-alive idle timeout between pipelined requests.
DEFAULT_HEADER_TIMEOUT = 30.0
#: Seconds a declared body must arrive within once the head is read.
DEFAULT_BODY_TIMEOUT = 60.0

_SERVER = f"repro-service/{repro.__version__}"


@dataclass
class HTTPRequest:
    """One parsed request, body included (or its defect)."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    peer_host: str
    version: str
    #: ``None`` when the body was read cleanly; otherwise one of
    #: ``"bad_length"`` (unparsable/negative ``Content-Length``),
    #: ``"too_large"`` (declared length over the cap, body unread) or
    #: ``"chunked"`` (``Transfer-Encoding`` present).  The connection
    #: always closes after a body issue.
    body_issue: str | None = None
    #: The declared ``Content-Length`` (−1 when unparsable, 0 when absent).
    declared_length: int = 0

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)


@dataclass
class HTTPResponse:
    """What the handler returns; the server adds framing headers."""

    status: int
    body: bytes
    headers: list[tuple[str, str]] = field(default_factory=list)
    #: Force ``Connection: close`` after this response.
    close: bool = False

    @classmethod
    def json(cls, status: int, payload: Any,
             headers: dict[str, str] | None = None,
             close: bool = False) -> "HTTPResponse":
        pairs = [("Content-Type", "application/json")]
        pairs.extend((headers or {}).items())
        return cls(status, json.dumps(payload).encode("utf-8"), pairs, close)

    @classmethod
    def text(cls, status: int, text: str, content_type: str,
             headers: dict[str, str] | None = None) -> "HTTPResponse":
        pairs = [("Content-Type", content_type)]
        pairs.extend((headers or {}).items())
        return cls(status, text.encode("utf-8"), pairs)


@dataclass
class _Failure:
    """A request that never became an :class:`HTTPRequest`."""

    status: int
    code: str
    message: str


def _default_renderer(status: int, code: str, message: str) -> HTTPResponse:
    return HTTPResponse.json(
        status, {"error": {"code": code, "message": message}}, close=True)


class AsyncHTTPServer:
    """One listening socket, one event loop, one coroutine per connection.

    The constructor *binds* (so ``port=0`` resolves to a real port right
    away); :meth:`serve_forever` runs the event loop in the calling
    thread until :meth:`shutdown` is called from any other thread —
    the same contract as ``http.server``, which lets every existing
    test/bench/CLI call site drive this server unchanged.
    """

    def __init__(
        self,
        handler: Callable[[HTTPRequest], Awaitable[HTTPResponse]],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_body_bytes: int = MAX_BODY_BYTES,
        max_line_bytes: int = MAX_LINE_BYTES,
        max_header_count: int = MAX_HEADER_COUNT,
        header_timeout: float = DEFAULT_HEADER_TIMEOUT,
        body_timeout: float = DEFAULT_BODY_TIMEOUT,
        error_renderer: Callable[[int, str, str], HTTPResponse] | None = None,
        quiet: bool = True,
    ) -> None:
        self.handler = handler
        self.max_body_bytes = max_body_bytes
        self.max_line_bytes = max_line_bytes
        self.max_header_count = max_header_count
        self.header_timeout = header_timeout
        self.body_timeout = body_timeout
        self.error_renderer = error_renderer or _default_renderer
        self.quiet = quiet
        self._sock = socket.create_server((host, port), backlog=128)
        self._sock.setblocking(False)
        self.server_address = self._sock.getsockname()[:2]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._connections: set[asyncio.Task] = set()
        self._started = threading.Event()
        self._finished = threading.Event()
        self._closed = False

    # ------------------------------------------------------------------
    # Thread-facing lifecycle (the http.server facade)
    # ------------------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self.server_address
        return f"http://{host}:{port}"

    @property
    def open_connections(self) -> int:
        return len(self._connections)

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown`; blocks the caller."""
        try:
            asyncio.run(self._main())
        finally:
            self._finished.set()

    def shutdown(self, timeout: float | None = 10.0) -> None:
        """Stop ``serve_forever`` from another thread and wait for it."""
        if not self._started.wait(timeout=0.001) and not self._finished.is_set():
            # serve_forever may be mid-startup in its thread: give it a
            # moment to reach the running state before signalling.
            self._started.wait(timeout=5.0)
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop.set)
        self._finished.wait(timeout=timeout)

    def server_close(self) -> None:
        """Release the listening socket (idempotent)."""
        self._closed = True
        with contextlib.suppress(OSError):
            self._sock.close()

    # ------------------------------------------------------------------
    # Event-loop side
    # ------------------------------------------------------------------

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._serve_connection, sock=self._sock,
            limit=max(self.max_line_bytes * 4, 65536))
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            with contextlib.suppress(OSError):
                await server.wait_closed()
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(*self._connections, return_exceptions=True)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) and peer else ""
        try:
            while True:
                outcome = await self._read_request(reader, writer, peer_host)
                if outcome is None:
                    break  # clean EOF between requests
                if isinstance(outcome, _Failure):
                    response = self.error_renderer(
                        outcome.status, outcome.code, outcome.message)
                    response.close = True
                    await self._write_response(writer, response, "HEAD-less")
                    break
                request = outcome
                try:
                    response = await self.handler(request)
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - a handler fault must not kill the loop
                    log_event(_LOG, logging.ERROR, "handler crashed",
                              method=request.method, path=request.path,
                              error=repr(error))
                    response = self.error_renderer(
                        500, "internal_error", "internal server error")
                    response.close = True
                close = (
                    response.close
                    or request.body_issue is not None
                    or request.version == "HTTP/1.0"
                    or (request.header("connection") or "").lower() == "close"
                )
                response.close = close
                await self._write_response(writer, response, request.method)
                if not self.quiet:
                    log_event(_LOG, logging.INFO, "request",
                              method=request.method, path=request.path,
                              status=response.status, peer=peer_host)
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown cancelled us mid-request
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        peer_host: str,
    ) -> "HTTPRequest | _Failure | None":
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.header_timeout

        async def read_line() -> bytes | None:
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise asyncio.TimeoutError
            try:
                return await asyncio.wait_for(
                    reader.readuntil(b"\n"), timeout=remaining)
            except asyncio.IncompleteReadError as eof:
                if not eof.partial:
                    return None
                raise

        # -- request line ----------------------------------------------
        try:
            raw = await read_line()
        except asyncio.TimeoutError:
            return _Failure(408, "header_timeout",
                            f"request head not received within "
                            f"{self.header_timeout:g}s")
        except asyncio.IncompleteReadError:
            return _Failure(400, "truncated_request",
                            "connection closed mid request line")
        except asyncio.LimitOverrunError:
            return _Failure(414, "uri_too_long", "request line too long")
        if raw is None:
            return None
        if len(raw) > self.max_line_bytes:
            return _Failure(414, "uri_too_long",
                            f"request line exceeds {self.max_line_bytes} bytes")
        parts = raw.decode("latin-1").rstrip("\r\n").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return _Failure(400, "malformed_request",
                            "request line is not 'METHOD TARGET HTTP/x.y'")
        method, target, version = parts
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            return _Failure(505, "http_version_not_supported",
                            f"unsupported protocol version {version}")

        # -- headers ---------------------------------------------------
        headers: dict[str, str] = {}
        count = 0
        while True:
            try:
                raw = await read_line()
            except asyncio.TimeoutError:
                return _Failure(408, "header_timeout",
                                f"request head not received within "
                                f"{self.header_timeout:g}s")
            except asyncio.IncompleteReadError:
                return _Failure(400, "truncated_headers",
                                "connection closed mid headers")
            except asyncio.LimitOverrunError:
                return _Failure(431, "header_too_large", "header line too long")
            if raw is None:
                return _Failure(400, "truncated_headers",
                                "connection closed mid headers")
            if raw in (b"\r\n", b"\n"):
                break
            if len(raw) > self.max_line_bytes:
                return _Failure(431, "header_too_large",
                                f"header line exceeds {self.max_line_bytes} bytes")
            count += 1
            if count > self.max_header_count:
                return _Failure(431, "too_many_headers",
                                f"more than {self.max_header_count} headers")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep or not name.strip():
                return _Failure(400, "malformed_header",
                                f"malformed header line {raw!r}")
            headers[name.strip().lower()] = value.strip()

        split = urlsplit(target)
        query = {key: values[-1]
                 for key, values in parse_qs(split.query).items()}
        request = HTTPRequest(
            method=method, target=target, path=split.path, query=query,
            headers=headers, body=b"", peer_host=peer_host, version=version)

        # -- body ------------------------------------------------------
        encoding = headers.get("transfer-encoding", "")
        if encoding and encoding.lower() != "identity":
            request.body_issue = "chunked"
            return request
        declared = headers.get("content-length")
        if declared is None:
            return request
        try:
            length = int(declared)
            if length < 0:
                raise ValueError(declared)
        except ValueError:
            request.body_issue = "bad_length"
            request.declared_length = -1
            return request
        request.declared_length = length
        if length == 0:
            return request
        if length > self.max_body_bytes:
            # Unread on purpose: draining 8 MiB+ to politely keep the
            # connection alive is a free amplification lever.
            request.body_issue = "too_large"
            return request
        if (headers.get("expect") or "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        try:
            request.body = await asyncio.wait_for(
                reader.readexactly(length), timeout=self.body_timeout)
        except asyncio.IncompleteReadError:
            return _Failure(400, "truncated_body",
                            f"connection closed {length} bytes short of "
                            f"the declared body")
        except asyncio.TimeoutError:
            return _Failure(408, "body_timeout",
                            f"declared body not received within "
                            f"{self.body_timeout:g}s")
        return request

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: HTTPResponse, method: str) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        lines = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Server: {_SERVER}",
            f"Date: {email.utils.formatdate(usegmt=True)}",
        ]
        lines.extend(f"{name}: {value}" for name, value in response.headers)
        lines.append(f"Content-Length: {len(response.body)}")
        if response.close:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head if method == "HEAD" else head + response.body)
        await writer.drain()
