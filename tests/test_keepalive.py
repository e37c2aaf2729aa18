"""Persistent HTTP/1.1 connections on every hop: client, router, shard.

Covers the shared connection loop (:mod:`repro.service.http1`), the
router's shard-connection pool and the client's per-thread sockets:
reuse, ``Connection: close``, pipelining, refused bodies, stale
sockets on either side, and drains with idle connections open.
"""

import asyncio
import gc
import http.client
import json
import os
import socket
import socketserver
import threading
import time
import warnings

import pytest

import repro.service.client as client_module
import repro.service.jobs as jobs
from repro.cli import main as cli_main
from repro.fabric import BackgroundFabric, FabricConfig
from repro.fabric.router import FabricRouter
from repro.service.background import BackgroundServer
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig

SCALE = 1 / 32
PREDICT = {"stencil": "3d7pt", "grid": [16, 16, 32], "cache_scale": SCALE}


def _cfg(**overrides) -> ServiceConfig:
    return ServiceConfig(port=0, executor="thread", workers=1, **overrides)


def _read_to_eof(sock: socket.socket) -> bytes:
    """Everything the peer sends until it closes the connection."""
    sock.settimeout(10)
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _parse(stream: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Split a byte stream into ``(status, headers, body)`` responses."""
    responses = []
    while stream:
        head, _, rest = stream.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        responses.append((int(lines[0].split()[1]), headers, rest[:length]))
        stream = rest[length:]
    return responses


def _exchange(port: int, data: bytes):
    """Send raw bytes on one connection; the responses the server sent
    before closing it (the call fails unless the server closes)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        return _parse(_read_to_eof(sock))


def _wait_for(predicate, what: str, timeout_s: float = 15.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.005)


class _RouterThread:
    """A FabricRouter on its own loop thread, over given shard ports."""

    def __init__(self, config: FabricConfig, ports: dict[int, int]):
        self.router = FabricRouter(config, ports, supervisor=None)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        self.port = asyncio.run_coroutine_threadsafe(
            self.router.start(), self.loop
        ).result(timeout=15.0)

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.router.stop(), self.loop
        ).result(timeout=15.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()


@pytest.fixture(scope="module")
def single():
    with BackgroundServer(_cfg()) as bg:
        yield bg


@pytest.fixture(scope="module")
def fabric(tmp_path_factory):
    config = FabricConfig(
        fabric_dir=str(tmp_path_factory.mktemp("fabric")),
        port=0,
        shards=2,
        probe_interval_s=0.2,
        restart_shards=False,
        shard=ServiceConfig(executor="thread", workers=1, steal_interval_s=0.2),
    )
    with BackgroundFabric(config) as fab:
        yield fab


# ----------------------------------------------------------------------
# The server loop
# ----------------------------------------------------------------------
class TestServerConnections:
    def test_two_requests_reuse_one_socket(self, single):
        conn = http.client.HTTPConnection("127.0.0.1", single.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            first = conn.getresponse()
            first.read()
            sock = conn.sock
            conn.request(
                "POST", "/predict", json.dumps(PREDICT),
                {"Content-Type": "application/json"},
            )
            second = conn.getresponse()
            second.read()
            assert sock is not None and conn.sock is sock
        finally:
            conn.close()
        assert first.status == second.status == 200
        assert first.getheader("Connection") == "keep-alive"
        assert second.getheader("Connection") == "keep-alive"

    def test_connection_close_is_answered_and_closed(self, single):
        [(status, headers, _)] = _exchange(
            single.port,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        assert status == 200
        assert headers["connection"] == "close"

    def test_http10_request_is_answered_and_closed(self, single):
        [(status, headers, _)] = _exchange(
            single.port, b"GET /healthz HTTP/1.0\r\n\r\n"
        )
        assert status == 200
        assert headers["connection"] == "close"

    def test_pipelined_requests_are_answered_in_order(self, single):
        body = json.dumps(PREDICT).encode()
        stream = (
            b"POST /predict HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body
            + b"GET /nowhere HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        responses = _exchange(single.port, stream)
        assert [status for status, _, _ in responses] == [200, 404]
        assert [h["connection"] for _, h, _ in responses] == [
            "keep-alive", "close",
        ]
        assert json.loads(responses[0][2])["endpoint"] == "/predict"


# ----------------------------------------------------------------------
# Bodies the reader refuses: the same answer with or without a router
# ----------------------------------------------------------------------
_LIMIT = ServiceConfig.max_body_bytes


@pytest.mark.parametrize(
    "header, status",
    [
        (b"Content-Length: %d" % (_LIMIT + 1), 413),
        (b"Content-Length: 12abc", 400),
        (b"Content-Length: -1", 400),
        (b"Transfer-Encoding: chunked", 501),
    ],
    ids=["over-limit", "malformed", "negative", "chunked"],
)
def test_refused_body_is_answered_and_closed(fabric, header, status):
    # Headers only: the server must answer without reading a body and
    # close, since any body bytes would be parsed as the next request.
    request = b"POST /predict HTTP/1.1\r\nHost: t\r\n" + header + b"\r\n\r\n"
    [(via_status, via_headers, via_body)] = _exchange(fabric.port, request)
    shard_port = fabric.supervisor.ports()[0]
    [(direct_status, _, direct_body)] = _exchange(shard_port, request)
    assert via_status == direct_status == status
    assert via_headers["connection"] == "close"
    assert via_body == direct_body


# ----------------------------------------------------------------------
# Stale sockets
# ----------------------------------------------------------------------
class TestStaleSockets:
    @pytest.mark.parametrize("detect", [True, False], ids=["poll", "replay"])
    def test_client_survives_an_idle_close(self, monkeypatch, detect):
        if not detect:
            # Skip the readability check, so the request goes out on
            # the closed socket and must be replayed on a fresh one.
            monkeypatch.setattr(client_module, "_dropped", lambda sock: False)
        with BackgroundServer(_cfg()) as bg:
            bg.service.read_timeout_s = 0.3
            client = ServiceClient(port=bg.port, retries=0)
            client.request("POST", "/predict", PREDICT)
            _wait_for(
                lambda: not bg.service._connections, "the idle close"
            )
            client.request("POST", "/predict", PREDICT)
            snap = bg.metrics_snapshot()
        assert client.retries_denied == 0
        assert snap["endpoints"]["/predict"]["requests"] == 2

    def test_router_survives_a_shard_closing_a_pooled_connection(
        self, tmp_path
    ):
        config = FabricConfig(
            fabric_dir=str(tmp_path), shards=2, probe_interval_s=60.0
        )
        shards = [BackgroundServer(_cfg()).start() for _ in range(2)]
        hosted = None
        try:
            for bg in shards:
                bg.service.read_timeout_s = 0.3
            hosted = _RouterThread(
                config, {i: bg.port for i, bg in enumerate(shards)}
            )
            client = ServiceClient(port=hosted.port, retries=0)
            client.request("POST", "/predict", PREDICT)
            _wait_for(
                lambda: all(not bg.service._connections for bg in shards),
                "the shards' idle close",
            )
            before = dict(hosted.router.counters)
            out = client.request("POST", "/predict", PREDICT)
            after = dict(hosted.router.counters)
        finally:
            if hosted is not None:
                hosted.close()
            for bg in shards:
                bg.stop()
        assert out["served"] == "response-cache"
        assert after["routed"] == before["routed"] + 1
        for counter in ("shard_down", "rerouted", "no_backend"):
            assert after[counter] == before[counter], counter

    def test_pooled_connection_closed_mid_request_is_retried_once(
        self, tmp_path
    ):
        # The race the readability check cannot see: the shard closes a
        # pooled connection just as a request arrives on it.  The
        # router sends it again on a fresh connection to the same
        # shard, without marking the shard down or rerouting.
        with socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), _AnswerOnceHandler
        ) as shard:
            shard.daemon_threads = True
            threading.Thread(target=shard.serve_forever, daemon=True).start()
            config = FabricConfig(
                fabric_dir=str(tmp_path), shards=1, probe_interval_s=60.0
            )
            hosted = _RouterThread(config, {0: shard.server_address[1]})
            try:
                client = ServiceClient(port=hosted.port, retries=0)
                first = client.request("POST", "/predict", PREDICT)
                second = client.request("POST", "/predict", PREDICT)
                counters = dict(hosted.router.counters)
            finally:
                hosted.close()
                shard.shutdown()
        assert first == second == {"answered": True}
        assert counters["shard_connects"] == 2
        assert counters["shard_reuses"] == 1
        assert counters["routed"] == 2
        assert counters["shard_down"] == counters["rerouted"] == 0


class _AnswerOnceHandler(socketserver.StreamRequestHandler):
    """A fake shard: answers a connection's first request keep-alive and
    closes it, unanswered, on the second."""

    def handle(self):
        for answered in (False, True):
            if not self.rfile.readline():
                return
            length = 0
            while True:
                line = self.rfile.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            self.rfile.read(length)
            if answered:
                return
            body = b'{"answered": true}'
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
                % len(body) + body
            )


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_stop_closes_idle_connections_promptly(self):
        bg = BackgroundServer(_cfg(drain_timeout_s=30.0)).start()
        conns = []
        try:
            for _ in range(3):
                conn = http.client.HTTPConnection(
                    "127.0.0.1", bg.port, timeout=10
                )
                conn.request("GET", "/healthz")
                conn.getresponse().read()
                conns.append(conn)
            t0 = time.monotonic()
            bg.stop()
            elapsed = time.monotonic() - t0
            for conn in conns:
                assert conn.sock.recv(1) == b""  # the server closed it
        finally:
            for conn in conns:
                conn.close()
        assert elapsed < 5.0
        assert not bg.service._connections

    def test_connection_starting_after_close_began_is_not_served(self):
        # The race a drain can hit: the listener accepted a connection
        # whose serving task starts only once the final close began.
        # Such a connection must close at once, not wait out its idle
        # deadline (which would hold Server.wait_closed() since 3.12).
        with BackgroundServer(_cfg()) as bg:
            bg.service._closing = True
            assert _exchange(bg.port, b"") == []  # EOF, not a 30 s wait

    def test_in_flight_request_completes_with_connection_close(
        self, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()

        def gated_predict(payload):
            entered.set()
            release.wait(timeout=30)
            return jobs.predict_job(payload)

        monkeypatch.setitem(
            jobs.JOBS, "/predict", (jobs.normalize_predict, gated_predict)
        )
        bg = BackgroundServer(_cfg()).start()
        idle = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=10)
        idle.request("GET", "/healthz")
        idle.getresponse().read()
        seen = {}

        def call():
            conn = http.client.HTTPConnection(
                "127.0.0.1", bg.port, timeout=30
            )
            try:
                conn.request(
                    "POST", "/predict", json.dumps(PREDICT),
                    {"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                seen["status"] = resp.status
                seen["connection"] = resp.getheader("Connection")
                seen["body"] = json.loads(resp.read())
            finally:
                conn.close()

        caller = threading.Thread(target=call)
        caller.start()
        stopper = threading.Thread(target=bg.stop)
        try:
            _wait_for(entered.is_set, "the request")
            _wait_for(lambda: bg.service._active_requests == 1, "the count")
            stopper.start()
            _wait_for(lambda: bg.service.draining, "the drain")
            # The idle connection closes at once, not after the drain.
            assert idle.sock.recv(1) == b""
            assert bg.service._active_requests == 1
        finally:
            release.set()
            caller.join(timeout=30)
            if stopper.ident is None:
                bg.stop()
            else:
                stopper.join(timeout=30)
            idle.close()
        assert seen["status"] == 200
        assert seen["connection"] == "close"
        assert seen["body"]["served"] == "fresh"


# ----------------------------------------------------------------------
# Reuse through the fabric
# ----------------------------------------------------------------------
def test_sequential_requests_reuse_every_hop(tmp_path, capsys):
    config = FabricConfig(
        fabric_dir=str(tmp_path),
        port=0,
        shards=2,
        probe_interval_s=0.2,
        restart_shards=False,
        shard=ServiceConfig(executor="thread", workers=1, steal_interval_s=0.2),
    )
    payloads = [dict(PREDICT, grid=[16, 16, 32 + 8 * i]) for i in range(5)]
    with BackgroundFabric(config) as fab:
        client = fab.client
        for i in range(50):
            client.request("POST", "/predict", payloads[i % len(payloads)])
        counters = dict(fab.router.counters)
        client.close()
        assert cli_main(["fabric", "status", "--port", str(fab.port)]) == 0
    assert counters["accepted"] == 1
    assert counters["shard_reuses"] >= 50 - config.shards
    out = capsys.readouterr().out
    assert "connections:" in out
    assert "shard_reuses=" in out


# ----------------------------------------------------------------------
# Client hygiene
# ----------------------------------------------------------------------
class TestClientSockets:
    def test_dropped_client_emits_no_resource_warning(self, single):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            client = ServiceClient(port=single.port)
            client.healthz()
            worker = threading.Thread(target=client.healthz)
            worker.start()
            worker.join()
            del client, worker
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_one_socket_per_thread(self, single):
        client = ServiceClient(port=single.port)
        try:
            client.healthz()
            client.healthz()
            socks = {}

            def use(name):
                client.healthz()
                socks[name] = client._connection().sock

            threads = [
                threading.Thread(target=use, args=(n,)) for n in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            mine = client._connection().sock
        finally:
            client.close()
        assert len({id(mine), id(socks["a"]), id(socks["b"])}) == 3

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_never_reuses_the_parents_socket(self, single):
        client = ServiceClient(port=single.port)
        client.healthz()
        parent_sock = client._connection().sock
        read_fd, write_fd = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: answer through the pipe, then exit
            try:
                ok = client.healthz()["http_status"] == 200
                fresh = client._connection().sock is not parent_sock
                os.write(write_fd, b"fresh" if ok and fresh else b"shared")
            finally:
                os._exit(0)
        os.close(write_fd)
        try:
            verdict = os.read(read_fd, 16)
        finally:
            os.close(read_fd)
            os.waitpid(pid, 0)
        assert verdict == b"fresh"
        # The child closing its copy left the parent's socket working.
        assert client.healthz()["http_status"] == 200
        assert client._connection().sock is parent_sock
        client.close()
