"""The protocol transport of :mod:`repro.service.http1`.

Connections are driven here through fake transports on a real event
loop, so each case controls exactly which bytes arrive in which
``data_received`` call: heads and bodies split anywhere, pipelined
requests, a client that stops reading or leaves mid-request, and the
router's shard connections (answers split across reads, read to EOF,
cut short).  Two pins check where the warm path writes: a warm
``/predict`` hit before ``data_received`` returns, and a pooled router
forward inside the client's callback, its relay inside the shard's.
"""

from __future__ import annotations

import asyncio
import json
import socketserver
import threading

import pytest

from repro.engine import parse_request
from repro.fabric import FabricConfig
from repro.fabric.router import FabricRouter
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.http1 import (
    MAX_HEAD,
    ClientConnection,
    Http1Server,
    NoResponse,
    Response,
)
from repro.service.server import ReproService

from tests.test_keepalive import _RouterThread

PREDICT = {"stencil": "3d7pt", "grid": [16, 16, 32], "cache_scale": 1 / 32}


class FakeTransport(asyncio.Transport):
    """Records writes; closes the way a socket transport does (the
    protocol hears ``connection_lost`` on the next loop turn).  With
    ``high_water`` it pauses the protocol's writes once that many bytes
    are unread, until :meth:`drain`."""

    def __init__(self, protocol: asyncio.BaseProtocol,
                 high_water: int | None = None) -> None:
        super().__init__()
        self.protocol = protocol
        self.written: list[bytes] = []
        self.closing = False
        self.reading = True
        self.high_water = high_water
        self.unread = 0
        self.paused = False
        protocol.connection_made(self)

    def write(self, data: bytes) -> None:
        assert not self.closing, "write after close"
        self.written.append(bytes(data))
        self.unread += len(data)
        if (self.high_water is not None and not self.paused
                and self.unread > self.high_water):
            self.paused = True
            self.protocol.pause_writing()

    def drain(self) -> None:
        """The peer read everything."""
        self.unread = 0
        if self.paused:
            self.paused = False
            self.protocol.resume_writing()

    def close(self) -> None:
        if not self.closing:
            self.closing = True
            asyncio.get_running_loop().call_soon(
                self.protocol.connection_lost, None
            )

    abort = close

    def is_closing(self) -> bool:
        return self.closing

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def is_reading(self) -> bool:
        return self.reading


def _responses(chunks: list[bytes]) -> list[tuple[int, dict, bytes]]:
    """``(status, headers, body)`` of every response in ``chunks``."""
    stream = b"".join(chunks)
    out = []
    while stream:
        head, _, rest = stream.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        out.append((int(lines[0].split()[1]), headers, rest[:length]))
        stream = rest[length:]
    return out


def _run(scenario) -> None:
    """Run ``scenario()`` on a fresh loop, failing on anything the loop
    logged (a failed callback, a request handler that raised)."""
    errors: list[dict] = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        await scenario()

    asyncio.run(main())
    assert not errors, errors


async def _turn(n: int = 2) -> None:
    for _ in range(n):
        await asyncio.sleep(0)


class _Echo(Http1Server):
    """Answers with the request's body (or target); ``/slow`` waits for
    ``gate`` in a coroutine."""

    server_name = "echo"

    def __init__(self, body_size: int = 0) -> None:
        super().__init__(max_body_bytes=1 << 20)
        self.gate = asyncio.Event()
        self.body_size = body_size

    def respond(self, request):
        if request.target == "/slow":
            return self._slow()
        if self.body_size:
            return Response(200, b"x" * self.body_size)
        return Response(200, request.body or request.target.encode())

    async def _slow(self) -> Response:
        await self.gate.wait()
        return Response(200, b"late")


def _post(target: str, body: bytes, close: bool = False) -> bytes:
    return (b"POST %s HTTP/1.1\r\nHost: t\r\n%sContent-Length: %d\r\n\r\n"
            % (target.encode(), b"Connection: close\r\n" if close else b"",
               len(body)) + body)


# ----------------------------------------------------------------------
# The server connection
# ----------------------------------------------------------------------
class TestServerConnection:
    def test_request_fed_one_byte_per_read(self):
        async def scenario():
            server = _Echo()
            transport = FakeTransport(server._accept())
            request = _post("/a", b'{"k": 1}')
            for i in range(len(request) - 1):
                transport.protocol.data_received(request[i:i + 1])
                assert transport.written == []
            transport.protocol.data_received(request[-1:])
            [(status, headers, body)] = _responses(transport.written)
            assert (status, body) == (200, b'{"k": 1}')
            assert headers["connection"] == "keep-alive"
            assert server._active_requests == 0

        _run(scenario)

    def test_body_split_across_reads(self):
        async def scenario():
            server = _Echo()
            transport = FakeTransport(server._accept())
            request = _post("/a", b"0123456789")
            head_end = request.index(b"\r\n\r\n") + 4
            transport.protocol.data_received(request[:head_end + 3])
            assert transport.written == []
            assert server._active_requests == 1  # counted from its head
            transport.protocol.data_received(request[head_end + 3:])
            [(status, _, body)] = _responses(transport.written)
            assert (status, body) == (200, b"0123456789")
            assert server._active_requests == 0

        _run(scenario)

    def test_pipelined_request_in_the_same_read_as_a_body(self):
        async def scenario():
            server = _Echo()
            transport = FakeTransport(server._accept())
            transport.protocol.data_received(
                _post("/a", b"first") + _post("/b", b"second", close=True)
            )
            answers = _responses(transport.written)
            assert [body for _, _, body in answers] == [b"first", b"second"]
            assert [h["connection"] for _, h, _ in answers] == [
                "keep-alive", "close",
            ]
            assert transport.closing

        _run(scenario)

    def test_head_over_the_limit_is_closed_unanswered(self):
        async def scenario():
            server = _Echo()
            for tail in (b"", b"\r\n\r\n"):
                transport = FakeTransport(server._accept())
                transport.protocol.data_received(
                    b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEAD + tail
                )
                assert transport.closing
                assert transport.written == []
            await _turn()
            assert server._active_requests == 0
            assert not server._connections

        _run(scenario)

    def test_client_that_stops_reading_pauses_reads(self):
        async def scenario():
            server = _Echo(body_size=100_000)
            transport = FakeTransport(server._accept(), high_water=65536)
            get = b"GET /a HTTP/1.1\r\nHost: t\r\n\r\n"
            transport.protocol.data_received(get + get)
            # The first answer filled the buffer: reading stops, and the
            # pipelined request waits with the first still in flight.
            assert len(transport.written) == 1
            assert not transport.reading
            assert server._active_requests == 1
            transport.drain()
            assert len(transport.written) == 2
            assert not transport.reading  # the second answer filled it
            transport.drain()
            assert transport.reading
            assert server._active_requests == 0
            assert [s for s, _, _ in _responses(transport.written)] == [
                200, 200,
            ]

        _run(scenario)

    def test_client_gone_mid_job_is_written_nothing(self):
        async def scenario():
            server = _Echo()
            transport = FakeTransport(server._accept())
            transport.protocol.data_received(
                b"GET /slow HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            assert server._active_requests == 1
            transport.close()  # the client leaves
            await _turn()
            assert not server._connections
            server.gate.set()
            await _turn(4)
            assert transport.written == []
            assert server._active_requests == 0

        _run(scenario)

    def test_a_failing_handler_closes_the_connection(self):
        logged = []

        class Broken(_Echo):
            def respond(self, request):
                raise RuntimeError("handler bug")

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: logged.append(context["exception"])
            )
            server = Broken()
            transport = FakeTransport(server._accept())
            transport.protocol.data_received(b"GET / HTTP/1.1\r\n\r\n")
            assert transport.closing
            assert transport.written == []
            assert server._active_requests == 0

        asyncio.run(scenario())
        assert [str(exc) for exc in logged] == ["handler bug"]


# ----------------------------------------------------------------------
# The client half (the router's shard connections)
# ----------------------------------------------------------------------
def _exchange():
    conn = ClientConnection()
    transport = FakeTransport(conn)
    outcomes = []
    conn.send(b"GET / HTTP/1.1\r\n\r\n", 30.0,
              lambda reply, exc: outcomes.append((reply, exc)))
    return conn, transport, outcomes


BODY = b'{"ok": true}'
ANSWER = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
          b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n%s"
          % (len(BODY), BODY))


class TestClientConnection:
    def test_answer_split_across_reads(self):
        async def scenario():
            conn, transport, outcomes = _exchange()
            for i in range(0, len(ANSWER) - 1, 3):
                conn.data_received(ANSWER[i:min(i + 3, len(ANSWER) - 1)])
                assert outcomes == []
            conn.data_received(ANSWER[-1:])
            [((status, body, headers), exc)] = outcomes
            assert exc is None
            assert (status, body) == (200, BODY)
            assert headers["connection"] == "keep-alive"
            assert not conn.closed

        _run(scenario)

    def test_answer_without_content_length_is_read_to_eof(self):
        async def scenario():
            conn, transport, outcomes = _exchange()
            conn.data_received(b"HTTP/1.0 200 OK\r\n\r\n{\"served\": ")
            conn.data_received(b'"eof"}')
            assert outcomes == []
            transport.close()  # the shard's EOF
            await _turn()
            [((status, body, _), exc)] = outcomes
            assert exc is None
            assert (status, body) == (200, b'{"served": "eof"}')

        _run(scenario)

    @pytest.mark.parametrize("sent, error", [
        (b"", NoResponse),
        (b"HTTP/1.1 200 OK\r\nContent-Le", ConnectionError),
        (ANSWER[:-4], ConnectionError),
    ], ids=["before-status-line", "mid-head", "mid-body"])
    def test_shard_closing_early(self, sent, error):
        async def scenario():
            conn, transport, outcomes = _exchange()
            if sent:
                conn.data_received(sent)
            transport.close()
            await _turn()
            [(reply, exc)] = outcomes
            assert reply is None
            assert isinstance(exc, error)
            # Only a connection that never answered may be resent.
            assert isinstance(exc, NoResponse) == (not sent)

        _run(scenario)


class _CutShard:
    """A fake shard: reads one request, sends half an answer, closes."""

    def __init__(self) -> None:
        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for line in iter(self.rfile.readline, b"\r\n"):
                    if not line:
                        return
                self.wfile.write(ANSWER[:-4])

        self._server = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), Handler
        )
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        threading.Thread(target=self._server.serve_forever,
                         daemon=True).start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()


def test_shard_closing_mid_body_is_a_refusal(tmp_path):
    # A cut answer is not "never answered": no retry on the same shard,
    # the shard is marked down and the request rerouted (here: nowhere).
    shard = _CutShard()
    hosted = _RouterThread(
        FabricConfig(fabric_dir=str(tmp_path), shards=1,
                     probe_interval_s=60.0),
        {0: shard.port},
    )
    try:
        client = ServiceClient(port=hosted.port, retries=0)
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/predict", PREDICT)
        assert err.value.status == 503
        counters = dict(hosted.router.counters)
    finally:
        hosted.close()
        shard.close()
    assert counters["shard_down"] == counters["rerouted"] == 1
    assert counters["no_backend"] == 1
    assert counters["shard_connects"] == 1


# ----------------------------------------------------------------------
# Pins: where the warm path writes
# ----------------------------------------------------------------------
class _TaskCount:
    """Counts the tasks a loop creates."""

    def __init__(self) -> None:
        self.created = 0

    def __call__(self, loop, coro, **kwargs):
        self.created += 1
        return asyncio.Task(coro, loop=loop, **kwargs)


def test_warm_hit_is_written_inside_data_received():
    body = json.dumps(PREDICT).encode()

    async def scenario():
        tasks = _TaskCount()
        asyncio.get_running_loop().set_task_factory(tasks)
        service = ReproService(ServiceConfig(executor="thread", workers=1))
        key = parse_request("/predict", body).key
        service.response_cache.put(key, b'{"cached": 1}')
        transport = FakeTransport(service._accept())
        transport.protocol.data_received(_post("/predict", body))
        [(status, _, raw)] = _responses(transport.written)
        assert status == 200
        assert json.loads(raw) == {
            "endpoint": "/predict", "served": "response-cache",
            "result": {"cached": 1},
        }
        assert service._active_requests == 0
        assert tasks.created == 0

    _run(scenario)


def _router(tmp_path, probe_timeout_s=5.0, **shard) -> FabricRouter:
    """A router over one shard whose connections the test plants."""
    return FabricRouter(
        FabricConfig(fabric_dir=str(tmp_path), shards=1,
                     probe_timeout_s=probe_timeout_s,
                     shard=ServiceConfig(**shard)),
        {0: 1},
    )


def _pooled_shard(router: FabricRouter) -> FakeTransport:
    shard = FakeTransport(ClientConnection())
    router._put_idle("0", 1, shard.protocol)
    return shard


def test_pooled_forward_runs_in_the_two_callbacks(tmp_path):
    body = json.dumps(PREDICT).encode()

    async def scenario():
        tasks = _TaskCount()
        asyncio.get_running_loop().set_task_factory(tasks)
        router = _router(tmp_path)
        shard = _pooled_shard(router)
        client = FakeTransport(router._accept())
        client.protocol.data_received(_post("/predict", body))
        # Forwarded inside the client's data_received...
        [forward] = shard.written
        assert forward.startswith(b"POST /predict HTTP/1.1\r\n")
        assert forward.endswith(body)
        assert client.written == []
        # ...relayed inside the shard's.
        shard.protocol.data_received(ANSWER)
        [(status, headers, raw)] = _responses(client.written)
        assert (status, raw) == (200, BODY)
        assert headers["x-repro-shard"] == "0"
        assert router._pools["0"] == [shard.protocol]
        assert router.counters["routed"] == 1
        assert router._active_requests == 0
        assert tasks.created == 0

    _run(scenario)


def test_router_stop_drops_the_shard_connections_of_forwards(tmp_path):
    async def scenario():
        router = _router(tmp_path, drain_timeout_s=0.05)
        shard = _pooled_shard(router)
        client = FakeTransport(router._accept())
        client.protocol.data_received(_post("/predict", b"{}"))
        assert len(shard.written) == 1 and not shard.closing
        await router.stop()
        assert shard.closing
        assert client.closing and client.written == []
        assert not router._forwards
        assert router._active_requests == 0

    _run(scenario)


def test_a_fault_in_the_forward_path_closes_the_client(
    tmp_path, monkeypatch
):
    logged = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: logged.append(context["exception"])
        )
        router = _router(tmp_path)
        monkeypatch.setattr(
            router, "_relay",
            lambda member, reply: (_ for _ in ()).throw(
                RuntimeError("relay bug")
            ),
        )
        shard = _pooled_shard(router)
        client = FakeTransport(router._accept())
        client.protocol.data_received(_post("/predict", b"{}"))
        shard.protocol.data_received(ANSWER)
        assert client.closing and client.written == []
        assert router._active_requests == 0

    asyncio.run(scenario())
    assert [str(exc) for exc in logged] == ["relay bug"]


def test_probe_waits_on_the_same_forward(tmp_path):
    async def scenario():
        router = _router(tmp_path)
        shard = _pooled_shard(router)
        probe = asyncio.get_running_loop().create_task(router._probe("0"))
        await _turn()
        [request] = shard.written
        assert request.startswith(b"GET /healthz HTTP/1.1\r\n")
        shard.protocol.data_received(ANSWER)
        await probe
        assert "0" not in router.down
        assert router.counters["shard_reuses"] == 1

    _run(scenario)


def test_stop_waits_for_every_connection_to_close():
    # A real loop and real sockets: the final close leaves no
    # connection behind, idle or busy.
    async def scenario():
        server = _Echo()
        port = await server._listen("127.0.0.1", 0)
        readers = []
        for target in (b"/a", b"/slow"):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET %s HTTP/1.1\r\nHost: t\r\n\r\n" % target)
            readers.append((reader, writer))
        await asyncio.wait_for(readers[0][0].readuntil(b"\r\n\r\n/a"), 10)
        _wait = asyncio.get_running_loop().time() + 10
        while server._active_requests < 1:
            assert asyncio.get_running_loop().time() < _wait
            await asyncio.sleep(0.01)
        server._stop_listening()
        await server._close_connections()
        assert not server._connections
        assert server._active_requests == 0
        for reader, writer in readers:
            await asyncio.wait_for(reader.read(), 10)  # EOF
            writer.close()

    _run(scenario)


def test_probe_timeout_drops_its_connection(tmp_path):
    async def scenario():
        router = _router(tmp_path, probe_timeout_s=0.05)
        shard = _pooled_shard(router)
        await router._probe("0")
        assert "0" in router.down
        assert shard.closing
        assert not router._forwards

    _run(scenario)
