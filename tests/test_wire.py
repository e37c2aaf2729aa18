"""The warm path on every hop: client codec, one-read heads, the shared
request-parse memo, encoded response envelopes and the router's
forward deadline on a pooled connection.

Every check here pins behaviour that must not change while the warm
hit gets cheaper: the response bytes, the 400 bytes, the shard a body
routes to, and the transport contract of :class:`ServiceClient`.
"""

from __future__ import annotations

import http.client
import json
import socket
import socketserver
import threading
from collections import OrderedDict

import pytest

import repro.engine.requests as requests_module
import repro.service.jobs as jobs
from repro.engine import RequestError, parse_request, shard_key
from repro.engine.requests import PARSE_MEMO_MAX_BODY, PARSE_MEMO_SIZE
from repro.fabric import FabricConfig
from repro.fabric.router import FabricRouter
from repro.service.background import BackgroundServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.http1 import parse_head

from tests.test_keepalive import _RouterThread, _exchange, _read_to_eof

SCALE = 1 / 32
PREDICT = {"stencil": "3d7pt", "grid": [16, 16, 32], "cache_scale": SCALE}
TUNE = {"stencil": "3d7pt", "grid": [16, 16, 32], "tuner": "ecm",
        "cache_scale": SCALE}
RANK = {"grid": [8, 8, 16], "validate": False, "cache_scale": SCALE}


def _cfg(**overrides) -> ServiceConfig:
    return ServiceConfig(port=0, executor="thread", workers=1, **overrides)


def _post(port: int, path: str, payload) -> tuple[int, bytes]:
    """One POST on its own connection; ``(status, raw body)``."""
    body = payload if isinstance(payload, bytes) else json.dumps(
        payload).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _dict_envelope_bytes(body: bytes) -> bytes:
    """What the dict-built envelope renders to: the members decoded in
    order and dumped again with ``json.dumps``'s defaults."""
    return json.dumps(
        json.loads(body, object_pairs_hook=OrderedDict)
    ).encode()


@pytest.fixture(scope="module")
def single():
    with BackgroundServer(_cfg()) as bg:
        yield bg


# ----------------------------------------------------------------------
# Envelope bytes: rendered from the tier's bytes, identical to json.dumps
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "path, payload",
    [("/predict", PREDICT), ("/tune", TUNE), ("/rank", RANK)],
    ids=["predict", "tune-ecm", "rank-novalidate"],
)
@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_fresh_and_cached_envelopes_match_json_dumps(
    single, path, payload, traced
):
    payload = dict(payload, grid=[12 + 2 * traced, *payload["grid"][1:]])
    if traced:
        payload["trace"] = True
    seen = {}
    for _ in range(2):
        status, body = _post(single.port, path, payload)
        assert status == 200, body
        assert body == _dict_envelope_bytes(body)
        envelope = json.loads(body, object_pairs_hook=OrderedDict)
        keys = ["endpoint", "served", "result"] + (["trace"] if traced else [])
        assert list(envelope) == keys
        assert envelope["endpoint"] == path
        seen[envelope["served"]] = envelope
    fresh, cached = seen["fresh"], seen["response-cache"]
    assert fresh["result"] == cached["result"]
    if traced:
        assert fresh["trace"]["name"] == f"request:{path}"
        assert cached["trace"] is None


def test_coalesced_envelopes_match_json_dumps(monkeypatch):
    entered, release = threading.Event(), threading.Event()

    def gated_predict(payload):
        entered.set()
        release.wait(timeout=30)
        return jobs.predict_job(payload)

    monkeypatch.setitem(
        jobs.JOBS, "/predict", (jobs.normalize_predict, gated_predict)
    )
    payload = dict(PREDICT, grid=[18, 18, 32])
    answers = []
    with BackgroundServer(_cfg()) as bg:
        callers = [
            threading.Thread(
                target=lambda: answers.append(
                    _post(bg.port, "/predict", payload)
                )
            )
            for _ in range(2)
        ]
        callers[0].start()
        try:
            assert entered.wait(timeout=30)
            callers[1].start()
            # Both requests are in flight; give the second one time to
            # join the gated job before it is released.
            while bg.service._active_requests < 2:
                release.wait(0.005)
            release.wait(0.2)
        finally:
            release.set()
            for caller in callers:
                caller.join(timeout=30)
    served = {}
    for status, body in answers:
        assert status == 200
        assert body == _dict_envelope_bytes(body)
        envelope = json.loads(body)
        served[envelope["served"]] = envelope["result"]
    assert sorted(served) == ["coalesced", "fresh"]
    assert served["coalesced"] == served["fresh"]


def test_response_tier_holds_encoded_results(single):
    payload = dict(PREDICT, grid=[20, 20, 32])
    before = dict(single.metrics_snapshot()["tiers"]["response"])
    _, fresh = _post(single.port, "/predict", payload)
    _, cached = _post(single.port, "/predict", payload)
    after = single.metrics_snapshot()["tiers"]["response"]
    # One get per lookup: a miss then a hit; one put for the fresh run.
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 1
    assert after["puts"] - before["puts"] == 1
    key = parse_request("/predict", json.dumps(payload).encode()).key
    stored = single.service.response_cache.peek(key)
    assert isinstance(stored, bytes)
    assert stored == json.dumps(json.loads(fresh)["result"]).encode()
    assert json.loads(cached)["served"] == "response-cache"
    tail = single.client.debug_requests(n=2, endpoint="/predict")
    assert [r["served"] for r in tail["requests"]] == [
        "response-cache", "fresh",
    ]


# ----------------------------------------------------------------------
# The request-parse memo
# ----------------------------------------------------------------------
class TestParseMemo:
    def test_same_body_is_parsed_once(self, monkeypatch):
        calls = []
        real = requests_module._parse

        def counting(endpoint, body):
            calls.append(body)
            return real(endpoint, body)

        monkeypatch.setattr(requests_module, "_parse", counting)
        body = json.dumps(dict(PREDICT, grid=[22, 22, 31])).encode()
        first = parse_request("/predict", body)
        second = parse_request("/predict", bytes(body))
        assert calls == [body]
        assert first is second
        assert first.error is None and first.key == second.key
        assert parse_request("/tune", body) is not first  # per endpoint

    def test_distinct_bodies_stay_within_the_cap(self):
        for i in range(1000):
            parse_request(
                "/predict",
                json.dumps(dict(PREDICT, grid=[8, 8, 8 + i])).encode(),
            )
        assert len(requests_module._PARSE_MEMO) <= PARSE_MEMO_SIZE

    def test_large_body_is_not_memoized(self, monkeypatch):
        calls = []
        real = requests_module._parse
        monkeypatch.setattr(
            requests_module, "_parse",
            lambda endpoint, body: calls.append(body) or real(endpoint, body),
        )
        body = json.dumps(
            dict(PREDICT, padding="x" * PARSE_MEMO_MAX_BODY)
        ).encode()
        assert len(body) > PARSE_MEMO_MAX_BODY
        assert parse_request("/predict", body).error is None
        assert parse_request("/predict", body).error is None
        assert len(calls) == 2
        assert ("/predict", body) not in requests_module._PARSE_MEMO

    @pytest.mark.parametrize(
        "body",
        [b"{not json", b"[1, 2]", b'{"stencil": "bogus"}',
         b'{"stencil": "3d7pt", "exact": "yes"}', b"\xff\xfe"],
        ids=["bad-json", "non-object", "unknown-stencil", "exact",
             "not-utf8"],
    )
    def test_invalid_body_same_400_bytes_and_never_memoized(
        self, single, body
    ):
        expected = json.dumps({"error": _head_error(body)}).encode()
        answers = {_post(single.port, "/predict", body) for _ in range(3)}
        assert answers == {(400, expected)}
        assert ("/predict", body) not in requests_module._PARSE_MEMO
        assert parse_request("/predict", body) is not parse_request(
            "/predict", body
        )

    def test_payload_is_a_fresh_copy(self):
        body = json.dumps(dict(PREDICT, grid=[24, 24, 30])).encode()
        payload = parse_request("/predict", body).payload()
        payload["grid"].append(99)
        payload["machine"] = "rome"
        payload["extra"] = True
        again = parse_request("/predict", body).payload()
        assert again == jobs.normalize_predict(json.loads(body))
        assert again is not payload

    def test_hints_stay_outside_the_identity(self):
        plain = parse_request("/tune", json.dumps(TUNE).encode())
        hinted = parse_request("/tune", json.dumps(
            dict(TUNE, trace=True, predictor="simulate", exact=True)
        ).encode())
        assert (hinted.trace, hinted.predictor, hinted.exact) == (
            True, "simulate", True
        )
        assert (plain.trace, plain.predictor, plain.exact) == (
            False, None, False
        )
        assert hinted.key == plain.key
        assert hinted.shard_key == plain.shard_key
        assert plain.key == jobs.request_key("/tune", plain.payload())
        assert plain.shard_key == shard_key("/tune", TUNE)


def _head_error(body: bytes) -> str:
    """The 400 message of the shard's parse before the memo existed:
    JSON, object check, then ``exact``, then normalization."""
    try:
        payload = json.loads(body.decode() or "{}")
        if not isinstance(payload, dict):
            raise RequestError("payload must be a JSON object")
        if not isinstance(payload.get("exact", False), bool):
            raise RequestError('"exact" must be a boolean')
        jobs.normalize_predict(payload)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{body!r} is valid")


# ----------------------------------------------------------------------
# Routing: the same shard, and the same bad_shard_key count, per body
# ----------------------------------------------------------------------
def _head_route(router: FabricRouter, path: str, body: bytes):
    """The router's choice before the memo existed: ``(owner, bad)``."""
    try:
        payload = json.loads(body.decode() or "{}")
        if not isinstance(payload, dict):
            raise RequestError("payload must be a JSON object")
        return router.ring.route_order(shard_key(path, payload))[0], 0
    except ValueError:
        return router.ring.route_order(path)[0], 1


ROUTED_BODIES = [
    b"{not json", b'"a string"', b'{"stencil": "bogus"}',
    b'{"stencil": "3d7pt", "grid": [16, 16, 32], "exact": "yes"}',
    json.dumps(PREDICT).encode(),
]
ROUTED_IDS = ["bad-json", "non-object", "unknown-stencil", "exact", "valid"]


@pytest.mark.parametrize("body", ROUTED_BODIES, ids=ROUTED_IDS)
def test_every_body_routes_as_before(tmp_path, body):
    config = FabricConfig(fabric_dir=str(tmp_path), shards=4)
    router = FabricRouter(config, {i: 9000 + i for i in range(4)})
    for path in ("/predict", "/tune", "/rank"):
        owner, bad = _head_route(router, path, body)
        before = router.counters["bad_shard_key"]
        assert router._route_candidates("POST", path, body)[0] == owner
        assert router.counters["bad_shard_key"] - before == bad


def test_invalid_bodies_reach_their_shard_and_its_400(tmp_path):
    shards = [BackgroundServer(_cfg()).start() for _ in range(2)]
    hosted = None
    try:
        hosted = _RouterThread(
            FabricConfig(fabric_dir=str(tmp_path), shards=2,
                         probe_interval_s=60.0),
            {i: bg.port for i, bg in enumerate(shards)},
        )
        for body in ROUTED_BODIES[:4]:
            owner, bad = _head_route(hosted.router, "/predict", body)
            before = hosted.router.counters["bad_shard_key"]
            with socket.create_connection(
                ("127.0.0.1", hosted.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\nContent-Length: %d\r\n\r\n"
                    % len(body) + body
                )
                raw = _read_to_eof(sock)
            head, _, answer = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 ")
            assert f"X-Repro-Shard: {owner}".encode() in head
            assert answer == json.dumps(
                {"error": _head_error(body)}).encode()
            assert hosted.router.counters["bad_shard_key"] - before == bad
    finally:
        if hosted is not None:
            hosted.close()
        for bg in shards:
            bg.stop()


# ----------------------------------------------------------------------
# The client: one sendall, OSError on every failure, EOF-delimited bodies
# ----------------------------------------------------------------------
class TestClientCodec:
    def test_one_sendall_per_request(self, single, monkeypatch):
        client = ServiceClient(port=single.port, retries=0)
        client.healthz()  # connect first; count only the request
        mine = client._connection().sock
        calls = []
        for name in ("send", "sendall", "sendmsg"):
            real = getattr(socket.socket, name)

            def counting(sock, data, *args, _name=name, _real=real):
                if sock is mine:
                    calls.append((_name, bytes(data)))
                return _real(sock, data, *args)

            monkeypatch.setattr(socket.socket, name, counting)
        try:
            out = client.predict(**PREDICT)
        finally:
            monkeypatch.undo()
            client.close()
        assert out["endpoint"] == "/predict"
        assert [name for name, _ in calls] == ["sendall"]
        head, _, body = calls[0][1].partition(b"\r\n\r\n")
        assert head.startswith(b"POST /predict HTTP/1.1\r\n")
        assert json.loads(body) == PREDICT

    @pytest.mark.parametrize(
        "reply",
        [
            b"",
            b"garbage\r\n\r\n",
            b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
            b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 12x\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
            b"HTTP/1.1 200 OK\r\nContent-Le",
        ],
        ids=["eof", "garbage", "status", "protocol", "length", "short-body",
             "short-head"],
    )
    def test_malformed_replies_raise_oserror(self, reply):
        with _CannedServer(reply) as port:
            client = ServiceClient(port=port, retries=0, timeout_s=10)
            try:
                with pytest.raises((OSError, http.client.HTTPException)):
                    client.request("POST", "/predict", PREDICT)
                with pytest.raises((OSError, http.client.HTTPException)):
                    client.healthz()
            finally:
                client.close()

    def test_http10_reply_is_read_to_eof(self):
        reply = (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n"
                 b'{"served": "eof"}')
        with _CannedServer(reply) as port:
            client = ServiceClient(port=port, retries=0, timeout_s=10)
            try:
                assert client.request("GET", "/x") == {"served": "eof"}
                assert client._connection().sock is None  # closed
                assert client.request("GET", "/x") == {"served": "eof"}
            finally:
                client.close()

    def test_connection_close_closes_the_socket(self):
        reply = (b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n"
                 b"Connection: close\r\n\r\n{}")
        with _CannedServer(reply) as port:
            client = ServiceClient(port=port, retries=0, timeout_s=10)
            try:
                with pytest.raises(ServiceError) as err:
                    client.request("GET", "/x")
                assert err.value.status == 503
                assert client._connection().sock is None
            finally:
                client.close()


class _CannedServer:
    """A TCP server that reads one request head, sends ``reply`` and
    closes the connection."""

    def __init__(self, reply: bytes) -> None:
        canned = reply

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for line in iter(self.rfile.readline, b"\r\n"):
                    if not line:
                        return
                self.wfile.write(canned)

        self._server = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), Handler
        )
        self._server.daemon_threads = True

    def __enter__(self) -> int:
        threading.Thread(target=self._server.serve_forever,
                         daemon=True).start()
        return self._server.server_address[1]

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()


# ----------------------------------------------------------------------
# The codec: one-read heads, CRLF only
# ----------------------------------------------------------------------
class TestHeads:
    def test_parse_head_joins_repeated_names(self):
        parts, headers = parse_head(
            b"HTTP/1.1 200 OK\r\nX-A: 1\r\nx-a:  2 \r\nEmpty:\r\n\r\n"
        )
        assert parts == ["HTTP/1.1", "200", "OK"]
        assert headers == {"x-a": "1, 2", "empty": ""}

    def test_bare_lf_head_is_never_answered(self):
        with BackgroundServer(_cfg()) as bg:
            bg.service.read_timeout_s = 0.3
            assert _exchange(bg.port, b"GET /healthz HTTP/1.0\n\n") == []
            # The same request with CRLF line endings is answered.
            [(status, _, _)] = _exchange(
                bg.port, b"GET /healthz HTTP/1.0\r\n\r\n"
            )
            assert status == 200

    def test_head_split_across_segments_is_read_whole(self, single):
        body = json.dumps(PREDICT).encode()
        request = (b"POST /predict HTTP/1.1\r\nHost: t\r\nConnection: close"
                   b"\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
        with socket.create_connection(
            ("127.0.0.1", single.port), timeout=10
        ) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(0, len(request), 7):
                sock.sendall(request[i:i + 7])
            raw = _read_to_eof(sock)
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert json.loads(raw.partition(b"\r\n\r\n")[2])["endpoint"] == (
            "/predict"
        )


# ----------------------------------------------------------------------
# The router's forward deadline on a pooled connection
# ----------------------------------------------------------------------
class _AnswerThenHang:
    """A fake shard: answers a connection's first request keep-alive,
    then reads the next one and never answers it."""

    def __init__(self) -> None:
        self.requests = 0
        self.connections = 0
        self._release = threading.Event()
        fake = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                fake.connections += 1
                for answer in (True, False):
                    if not self.rfile.readline():
                        return
                    length = 0
                    for line in iter(self.rfile.readline, b"\r\n"):
                        name, _, value = line.decode("latin-1").partition(":")
                        if name.strip().lower() == "content-length":
                            length = int(value)
                    self.rfile.read(length)
                    fake.requests += 1
                    if not answer:
                        fake._release.wait(30)
                        return
                    body = b'{"answered": true}'
                    self.wfile.write(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                        b"\r\nContent-Length: %d\r\nConnection: keep-alive"
                        b"\r\n\r\n%s" % (len(body), body)
                    )

        self._server = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), Handler
        )
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        threading.Thread(target=self._server.serve_forever,
                         daemon=True).start()

    def close(self) -> None:
        self._release.set()
        self._server.shutdown()
        self._server.server_close()


def test_silent_shard_on_a_pooled_connection_is_one_502(tmp_path):
    shard = _AnswerThenHang()
    hosted = _RouterThread(
        FabricConfig(fabric_dir=str(tmp_path), shards=1,
                     probe_interval_s=60.0),
        {0: shard.port},
    )
    try:
        hosted.router._forward_timeout_s = 0.5
        first = _post(hosted.port, "/predict", PREDICT)
        status, body = _post(hosted.port, "/predict", PREDICT)
        counters = dict(hosted.router.counters)
    finally:
        hosted.close()
        shard.close()
    assert first == (200, b'{"answered": true}')
    assert status == 502
    assert json.loads(body) == {"error": "shard timeout", "shard": "0"}
    # The timed-out request went out once, on the pooled connection:
    # never resent on a fresh one, never rerouted.
    assert shard.requests == 2
    assert shard.connections == 1
    assert counters["shard_reuses"] == 1
    assert counters["shard_connects"] == 1
    assert counters["shard_down"] == counters["rerouted"] == 0
