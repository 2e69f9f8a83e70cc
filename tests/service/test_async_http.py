"""The asyncio HTTP transport: malformed requests, slow clients, keep-alive.

These tests speak raw sockets on purpose — the point of the hand-rolled
parser is exactly the traffic a well-behaved urllib client never sends:
truncated heads, lying Content-Length headers, header floods, pipelined
requests and connections that just stop typing.
"""

import json
import socket
import threading

import pytest

from repro.api import Runner, RunnerConfig
from repro.service import SimulationService, make_server

#: Short timeouts so the slow-client tests finish in well under a second.
HEADER_TIMEOUT = 0.4
BODY_TIMEOUT = 0.4


@pytest.fixture()
def server():
    service = SimulationService(runner=Runner(RunnerConfig(workers=1))).start()
    http_server = make_server(service, header_timeout=HEADER_TIMEOUT,
                              body_timeout=BODY_TIMEOUT)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    try:
        yield http_server
    finally:
        http_server.shutdown()
        http_server.server_close()
        service.close()
        thread.join(timeout=10)


def _split_responses(blob: bytes) -> list[tuple[int, dict, bytes]]:
    """Parse consecutive HTTP/1.1 responses out of one byte stream."""
    responses = []
    rest = blob
    while b"\r\n\r\n" in rest:
        head, rest = rest.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        if len(rest) < length:
            break
        body, rest = rest[:length], rest[length:]
        responses.append((status, headers, body))
    return responses


def exchange(server, data: bytes, *, expect: int = 1, half_close: bool = False,
             timeout: float = 5.0) -> list[tuple[int, dict, bytes]]:
    """Send raw bytes, return the parsed responses that come back."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        buffer = b""
        sock.settimeout(timeout)
        while len(_split_responses(buffer)) < expect:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            buffer += chunk
        return _split_responses(buffer)


def error_code(body: bytes) -> str:
    return json.loads(body)["error"]["code"]


class TestSlowAndTruncatedClients:
    def test_slow_loris_header_times_out(self, server):
        # The whole header phase shares one deadline: trickling a byte at
        # a time cannot hold a connection open past header_timeout.
        responses = exchange(
            server, b"GET /v2/healthz HTTP/1.1\r\nHost: x\r\nX-Slow: ")
        assert len(responses) == 1
        status, headers, body = responses[0]
        assert status == 408
        assert error_code(body) == "header_timeout"
        assert headers.get("connection") == "close"

    def test_truncated_headers_are_400(self, server):
        responses = exchange(
            server, b"GET /v2/healthz HTTP/1.1\r\nHost: x\r\n", half_close=True)
        assert responses[0][0] == 400
        assert error_code(responses[0][2]) == "truncated_headers"

    def test_truncated_request_line_is_400(self, server):
        responses = exchange(server, b"GET /v2/healthz", half_close=True)
        assert responses[0][0] == 400
        assert error_code(responses[0][2]) == "truncated_request"

    def test_truncated_body_is_400(self, server):
        request = (b"POST /v2/runs HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: 50\r\n\r\n{\"kind\"")
        responses = exchange(server, request, half_close=True)
        assert responses[0][0] == 400
        assert error_code(responses[0][2]) == "truncated_body"

    def test_stalled_body_times_out(self, server):
        request = (b"POST /v2/runs HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: 50\r\n\r\n{\"kind\"")
        responses = exchange(server, request)  # keep writing side open
        assert responses[0][0] == 408
        assert error_code(responses[0][2]) == "body_timeout"


class TestMalformedRequests:
    def test_bad_content_length_is_400_and_closes(self, server):
        request = (b"POST /v2/runs HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: banana\r\n\r\n")
        status, headers, body = exchange(server, request, half_close=True)[0]
        assert status == 400
        assert error_code(body) == "bad_content_length"
        assert headers.get("connection") == "close"

    def test_oversized_body_is_413_and_closes_unread(self, server):
        # The server must answer before reading 16 MiB it will not use.
        request = (b"POST /v2/runs HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: 16777216\r\n\r\n" + b"x" * 1024)
        status, headers, body = exchange(server, request)[0]
        assert status == 413
        assert error_code(body) == "body_too_large"
        assert headers.get("connection") == "close"

    def test_chunked_transfer_encoding_is_rejected(self, server):
        request = (b"POST /v2/runs HTTP/1.1\r\nHost: x\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   b"5\r\nhello\r\n0\r\n\r\n")
        status, headers, body = exchange(server, request)[0]
        assert status == 400
        assert error_code(body) == "chunked_not_supported"
        assert headers.get("connection") == "close"

    def test_header_flood_is_431(self, server):
        flood = b"".join(b"X-Filler-%d: v\r\n" % i for i in range(150))
        request = b"GET /v2/healthz HTTP/1.1\r\nHost: x\r\n" + flood + b"\r\n"
        status, _, body = exchange(server, request)[0]
        assert status == 431
        assert error_code(body) == "too_many_headers"

    def test_oversized_header_line_is_431(self, server):
        request = (b"GET /v2/healthz HTTP/1.1\r\nHost: x\r\n"
                   b"X-Big: " + b"v" * 10_000 + b"\r\n\r\n")
        status, _, body = exchange(server, request)[0]
        assert status == 431
        assert error_code(body) == "header_too_large"

    def test_oversized_request_line_is_414(self, server):
        request = b"GET /v2/" + b"a" * 10_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n"
        status, _, body = exchange(server, request)[0]
        assert status == 414
        assert error_code(body) == "uri_too_long"

    def test_gibberish_request_line_is_400(self, server):
        status, _, body = exchange(server, b"lol what\r\n\r\n")[0]
        assert status == 400
        assert error_code(body) == "malformed_request"

    def test_unsupported_http_version_is_505(self, server):
        status, _, body = exchange(
            server, b"GET /v2/healthz HTTP/2.0\r\nHost: x\r\n\r\n")[0]
        assert status == 505
        assert error_code(body) == "http_version_not_supported"


class TestKeepAlive:
    def test_pipelined_requests_share_one_connection(self, server):
        one = b"GET /v2/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        responses = exchange(server, one * 3, expect=3)
        assert [status for status, _, _ in responses] == [200, 200, 200]
        for _, headers, body in responses:
            assert headers.get("connection") != "close"
            assert json.loads(body)["status"] == "ok"

    def test_error_responses_keep_the_connection_when_body_was_read(self, server):
        # A consumed-body 400 (bad JSON) must not poison the connection:
        # the next pipelined request still gets served.
        bad = (b"POST /v2/runs HTTP/1.1\r\nHost: x\r\n"
               b"Content-Length: 9\r\n\r\n{not json")
        good = b"GET /v2/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        responses = exchange(server, bad + good, expect=2)
        assert [status for status, _, _ in responses] == [400, 200]
        assert error_code(responses[0][2]) == "invalid_json"

    def test_http_10_closes_after_response(self, server):
        status, headers, _ = exchange(
            server, b"GET /v2/healthz HTTP/1.0\r\nHost: x\r\n\r\n")[0]
        assert status == 200
        assert headers.get("connection") == "close"

    def test_explicit_connection_close_is_honoured(self, server):
        status, headers, _ = exchange(
            server,
            b"GET /v2/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )[0]
        assert status == 200
        assert headers.get("connection") == "close"

    def test_idle_keep_alive_connection_closes_without_a_response(self, server):
        # No byte of a next request: a 408 there would be read as the
        # answer to whatever the client sends next, so none is written.
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b"GET /v2/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            buffer = b""
            while not _split_responses(buffer):
                buffer += sock.recv(65536)
            assert [status for status, _, _ in _split_responses(buffer)] == [200]
            # The server closes after HEADER_TIMEOUT, sending nothing more.
            assert sock.recv(65536) == b""

    def test_silent_fresh_connection_closes_without_a_response(self, server):
        assert exchange(server, b"") == []
