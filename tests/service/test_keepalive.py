"""Kept-alive client connections: reuse, idle close, and never a second POST.

The server counts every accepted connection as
``repro_service_http_connections_total``; these tests read that counter
to see how many TCP connections a run of client calls really opened.
"""

import socket
import threading
import time

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.obs import get_metrics
from repro.service import ServiceClient, SimulationService, make_server

REF = "synthetic:biased?length=250&seed=4"
#: Idle keep-alive connections close after this long in the idle test.
IDLE_TIMEOUT = 0.3


def accepted() -> float:
    return get_metrics().counter("repro_service_http_connections_total").value()


@pytest.fixture()
def running():
    service = SimulationService(runner=Runner(RunnerConfig(workers=1))).start()
    http_server = make_server(service, header_timeout=IDLE_TIMEOUT)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, http_server
    finally:
        http_server.shutdown()
        http_server.server_close()
        service.close()
        thread.join(timeout=10)


class TestConnectionReuse:
    def test_fifty_calls_from_one_thread_share_one_connection(self, running):
        _, server = running
        client = ServiceClient(server.url)
        before = accepted()
        for index in range(50):
            if index % 5 == 0:
                document = client.submit(RunRequest("gshare", REF), wait=True)
                assert document["status"] == "done"
            else:
                assert client.healthz()["status"] == "ok"
        assert accepted() - before == 1

    def test_two_threads_sharing_a_client_use_two_connections(self, running):
        _, server = running
        client = ServiceClient(server.url)
        before = accepted()
        barrier = threading.Barrier(2)
        failures = []

        def calls():
            try:
                barrier.wait(timeout=5)
                for _ in range(10):
                    document = client.submit(RunRequest("bimodal", REF), wait=True)
                    assert document["status"] == "done"
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        threads = [threading.Thread(target=calls) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert failures == []
        assert accepted() - before == 2

    def test_idle_closed_connection_is_replaced(self, running):
        service, server = running
        client = ServiceClient(server.url)
        assert client.submit(RunRequest("gshare", REF), wait=True)["status"] == "done"
        before, submitted = accepted(), service.submitted
        time.sleep(IDLE_TIMEOUT * 3)  # the server closes the idle connection
        assert client.submit(RunRequest("gshare", REF), wait=True)["status"] == "done"
        assert service.submitted == submitted + 1
        assert accepted() - before == 1


class _OneShotServer:
    """A raw HTTP peer: answers the first ``answered`` requests of each
    connection with a small 200, then drops the connection unanswered."""

    def __init__(self, answered: int) -> None:
        self.answered = answered
        self.requests: list[bytes] = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                buffer = b""
                for served in range(self.answered + 1):
                    while b"\r\n\r\n" not in buffer:
                        chunk = conn.recv(65536)
                        if not chunk:
                            break
                        buffer += chunk
                    head, _, buffer = buffer.partition(b"\r\n\r\n")
                    if not head:
                        break
                    length = 0
                    for line in head.split(b"\r\n")[1:]:
                        name, _, value = line.partition(b":")
                        if name.strip().lower() == b"content-length":
                            length = int(value)
                    while len(buffer) < length:
                        buffer += conn.recv(65536)
                    buffer = buffer[length:]
                    self.requests.append(head.split(b"\r\n", 1)[0])
                    if served == self.answered:
                        break  # drop it: the request was sent, never answered
                    body = b'{"status": "ok"}'
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                                 b"Content-Length: %d\r\n\r\n%s" % (len(body), body))

    def close(self) -> None:
        self._sock.close()


class TestNoRetryAfterSend:
    def test_post_on_a_reused_connection_is_sent_once(self):
        peer = _OneShotServer(answered=1)
        try:
            client = ServiceClient(peer.url, timeout=5)
            assert client.healthz() == {"status": "ok"}
            with pytest.raises(ConnectionError):
                client.submit(RunRequest("gshare", REF))
            assert [line.split()[0] for line in peer.requests] == [b"GET", b"POST"]
        finally:
            peer.close()

    def test_get_dropped_on_a_reused_connection_is_sent_once_more(self):
        peer = _OneShotServer(answered=1)
        try:
            client = ServiceClient(peer.url, timeout=5)
            assert client.healthz() == {"status": "ok"}
            assert client.healthz() == {"status": "ok"}  # dropped, then re-sent
            assert [line.split()[0] for line in peer.requests] == [b"GET"] * 3
        finally:
            peer.close()

    def test_post_on_a_fresh_connection_is_sent_once(self):
        peer = _OneShotServer(answered=0)
        try:
            with pytest.raises(ConnectionError):
                ServiceClient(peer.url, timeout=5).submit(RunRequest("gshare", REF))
            assert [line.split()[0] for line in peer.requests] == [b"POST"]
        finally:
            peer.close()
