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
from repro.service.overload import BROWNOUT_STAGES, DEADLINE_HEADER

from tests.test_keepalive import (
    _RouterThread,
    _exchange,
    _read_to_eof,
    _wait_for,
)

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
# Every POST outcome: status, Retry-After, body, counters, flight row
# ----------------------------------------------------------------------
class _Gate:
    """A job stand-in that holds its worker until released."""

    def __init__(self, job):
        self.job = job
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, payload):
        self.entered.set()
        self.release.wait(timeout=30)
        return self.job(payload)


def _gate(monkeypatch, endpoint: str) -> _Gate:
    normalize, job = jobs.JOBS[endpoint]
    gate = _Gate(job)
    monkeypatch.setitem(jobs.JOBS, endpoint, (normalize, gate))
    return gate


def _send(port: int, path: str, payload, headers=None):
    """One POST on its own connection: ``(status, Retry-After, body)``."""
    body = payload if isinstance(payload, bytes) else json.dumps(
        payload).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body, {
            "Content-Type": "application/json", **(headers or {}),
        })
        resp = conn.getresponse()
        return resp.status, resp.getheader("Retry-After"), resp.read()
    finally:
        conn.close()


def _in_thread(*args):
    """``_send(*args)`` on a thread; ``(thread, [answer])``."""
    answer: list = []
    thread = threading.Thread(target=lambda: answer.append(_send(*args)))
    thread.start()
    return thread, answer


def _predict(nz: int) -> dict:
    return dict(PREDICT, grid=[16, 16, nz])


def _bad_body(bg, monkeypatch):
    return _send(bg.port, "/predict", b"[1, 2]")


def _fresh(bg, monkeypatch):
    return _send(bg.port, "/predict", _predict(34))


def _traced(bg, monkeypatch):
    return _send(bg.port, "/predict", dict(_predict(34), trace=True))


def _cache_hit(bg, monkeypatch):
    _send(bg.port, "/predict", _predict(34))
    return _send(bg.port, "/predict", _predict(34))


def _database_hit(bg, monkeypatch):
    _send(bg.port, "/rank", RANK)
    bg.service.response_cache.clear()
    return _send(bg.port, "/rank", RANK)


def _breaker_open(bg, monkeypatch):
    bg.service.breakers["/predict"].force_open()
    return _send(bg.port, "/predict", _predict(34))


def _brownout(stage: str, path: str, payload: dict):
    def drive(bg, monkeypatch):
        bg.service.ladder.stage = BROWNOUT_STAGES.index(stage)
        return _send(bg.port, path, payload)
    return drive


def _spent_deadline(bg, monkeypatch):
    return _send(bg.port, "/predict", _predict(34), {DEADLINE_HEADER: "-5"})


def _overloaded(bg, monkeypatch):
    gate = _gate(monkeypatch, "/tune")
    holder, _ = _in_thread(bg.port, "/tune", TUNE)
    try:
        assert gate.entered.wait(timeout=30)
        return _send(bg.port, "/predict", _predict(34))
    finally:
        gate.release.set()
        holder.join(timeout=30)


def _held(headers=None):
    def drive(bg, monkeypatch):
        gate = _gate(monkeypatch, "/predict")
        try:
            return _send(bg.port, "/predict", _predict(34), headers)
        finally:
            gate.release.set()
    return drive


def _swept(bg, monkeypatch):
    # A deadline-carrying job queues behind a held worker; a waiter
    # without a deadline joins it.  The job's own caller times out,
    # the sweep then drops the job at dequeue, and the waiter is told.
    gate = _gate(monkeypatch, "/tune")
    holder, _ = _in_thread(bg.port, "/tune", TUNE)
    try:
        assert gate.entered.wait(timeout=30)
        doomed, _ = _in_thread(
            bg.port, "/predict", _predict(34), {DEADLINE_HEADER: "1000"}
        )
        _wait_for(lambda: bg.service.dispatcher.pending == 2,
                  "the doomed job to queue")
        waiter, answer = _in_thread(bg.port, "/predict", _predict(34))
        _wait_for(lambda: bg.service._active_requests == 3,
                  "the waiter to arrive")
        doomed.join(timeout=30)
    finally:
        gate.release.set()
        holder.join(timeout=30)
    waiter.join(timeout=30)
    return answer[0]


def _job_raises(bg, monkeypatch, exc=RuntimeError("boom")):
    def boom(payload):
        raise exc

    monkeypatch.setitem(
        jobs.JOBS, "/predict", (jobs.normalize_predict, boom)
    )
    return _send(bg.port, "/predict", _predict(34))


def _job_times_out(bg, monkeypatch):
    # A job's own TimeoutError is a job failure, although on Python
    # 3.11+ it is the class an expired wait raises too.
    answer = _job_raises(bg, monkeypatch, TimeoutError("lease held"))
    breaker = bg.service.breakers["/predict"].snapshot()
    assert breaker["consecutive_failures"] == 1
    return answer


_BROWNOUT = dict(slo_enabled=True, brownout=True, brownout_recover_s=3600.0)
_NC = ["normalize", "cache"]
_NCE = ["normalize", "cache", "execute"]
_PREDICT_SPANS = ["engine.predict", "engine.yasksite", "engine.stencil",
                  "blocking.select", "ecm.predict", "engine.result"]


def _envelope(endpoint: str, served: str, **extra) -> dict:
    return dict(endpoint=endpoint, served=served, result="<result>", **extra)


def _pin(status, body, outcomes, flight, stages, retry_after=None) -> dict:
    return dict(status=status, retry_after=retry_after, body=body,
                outcomes=outcomes, flight=flight, stages=stages)


#: id -> (config overrides, drive, endpoint, pinned answer).  A pinned
#: answer holds the status, Retry-After, the body (``<...>`` marks a
#: masked volatile member; a 200 body's ``result`` is masked whole and
#: its ``trace`` reduced to the root span's name), the endpoint's
#: nonzero outcome counters after the drive, the flight row of the
#: pinned request (outcome, served, queue_class, brownout, stages_ms
#: keys; ``-`` marks an absent key), and the ``/metrics`` stage counts
#: after the drive.
OUTCOMES = {
    "400": ({}, _bad_body, "/predict", _pin(
        400, {"error": "payload must be a JSON object"}, {"failed": 1},
        ("failed", None, "-", "-", ["normalize"]), {"normalize": 1})),
    "fresh": ({}, _fresh, "/predict", _pin(
        200, _envelope("/predict", "fresh"), {"fresh": 1},
        ("fresh", "fresh", "cheap", "-", _NCE), dict.fromkeys(_NCE, 1))),
    "fresh-traced": ({}, _traced, "/predict", _pin(
        200, _envelope("/predict", "fresh", trace="request:/predict"),
        {"fresh": 1},
        ("fresh", "fresh", "cheap", "-", _NCE + _PREDICT_SPANS),
        dict.fromkeys(_NCE + _PREDICT_SPANS, 1))),
    "cache": ({}, _cache_hit, "/predict", _pin(
        200, _envelope("/predict", "response-cache"),
        {"fresh": 1, "cache": 1},
        ("cache", "response-cache", "-", "-", _NC),
        {"normalize": 2, "cache": 2, "execute": 1})),
    "database": ({}, _database_hit, "/rank", _pin(
        200, _envelope("/rank", "database"), {"fresh": 1, "database": 1},
        ("database", "database", "-", "-", _NC),
        {"normalize": 2, "cache": 2, "execute": 1})),
    "degraded-breaker": ({}, _breaker_open, "/predict", _pin(
        200, _envelope("/predict", "degraded", degraded=True),
        {"degraded": 1}, ("degraded", "degraded", "-", "-", _NCE),
        dict.fromkeys(_NCE, 1))),
    "degraded-brownout": (
        _BROWNOUT, _brownout("predict-analytic", "/predict", _predict(34)),
        "/predict", _pin(
            200, _envelope("/predict", "degraded", degraded=True,
                           brownout="predict-analytic"),
            {"degraded": 1},
            ("degraded", "degraded", "-", "predict-analytic", _NCE),
            dict.fromkeys(_NCE, 1))),
    "503-circuit": (
        dict(degraded_mode=False), _breaker_open, "/predict", _pin(
            503, {"error": "circuit open", "endpoint": "/predict",
                  "breaker": {"state": "open", "consecutive_failures": 0,
                              "failure_threshold": 5, "recovery_s": 30.0,
                              "times_opened": 1}},
            {"shed": 1}, ("shed", None, "-", "-", _NC),
            dict.fromkeys(_NC, 1), retry_after="30")),
    "503-brownout": (
        _BROWNOUT, _brownout("shed-heavy", "/tune", TUNE), "/tune", _pin(
            503, {"error": "brownout", "stage": "shed-heavy",
                  "endpoint": "/tune"},
            {"shed": 1}, ("shed", None, "-", "shed-heavy", _NC),
            dict.fromkeys(_NC, 1), retry_after="3600")),
    "429-deadline": ({}, _spent_deadline, "/predict", _pin(
        429, {"error": "deadline too tight", "remaining_ms": "<ms>",
              "observed_p95_ms": None, "queue_class": "cheap"},
        {"shed": 1}, ("shed", None, "cheap", "-", _NC),
        dict.fromkeys(_NC, 1), retry_after="1")),
    "429-overloaded": (dict(queue_limit=1), _overloaded, "/predict", _pin(
        429, {"error": "overloaded", "detail": "1 jobs in flight (limit 1)"},
        {"shed": 1}, ("shed", None, "cheap", "-", _NCE),
        dict.fromkeys(_NCE, 2), retry_after="1")),
    "504-swept": ({}, _swept, "/predict", _pin(
        504, {"error": "deadline expired in queue"},
        {"failed": 1, "shed": 1}, ("shed", None, "cheap", "-", _NCE),
        dict.fromkeys(_NCE, 3))),
    "504-timeout": (dict(request_timeout_s=0.2), _held(), "/predict", _pin(
        504, {"error": "timeout", "timeout_s": 0.2},
        {"failed": 1}, ("failed", None, "cheap", "-", _NCE),
        dict.fromkeys(_NCE, 1))),
    "504-deadline": ({}, _held({DEADLINE_HEADER: "300"}), "/predict", _pin(
        504, {"error": "deadline exceeded"},
        {"failed": 1}, ("failed", None, "cheap", "-", _NCE),
        dict.fromkeys(_NCE, 1))),
    "500": ({}, _job_raises, "/predict", _pin(
        500, {"error": "RuntimeError: boom"},
        {"failed": 1}, ("failed", None, "cheap", "-", _NCE),
        dict.fromkeys(_NCE, 1))),
    "500-job-timeout": ({}, _job_times_out, "/predict", _pin(
        500, {"error": "TimeoutError: lease held"},
        {"failed": 1}, ("failed", None, "cheap", "-", _NCE),
        dict.fromkeys(_NCE, 1))),
}

_MASKED = {"remaining_ms": "<ms>"}


def _pinned_body(status: int, raw: bytes) -> dict:
    body = json.loads(raw, object_pairs_hook=OrderedDict)
    for name, mask in _MASKED.items():
        if name in body:
            body[name] = mask
    if status == 200:
        assert raw == _dict_envelope_bytes(raw)
        assert isinstance(body["result"], dict)
        body["result"] = "<result>"
        if "confidence" in body:
            body["confidence"] = round(body["confidence"], 4)
        if "trace" in body:
            body["trace"] = body["trace"]["name"]
    return body


@pytest.mark.parametrize("case", list(OUTCOMES))
def test_every_post_outcome_is_pinned(case, monkeypatch):
    overrides, drive, endpoint, want = OUTCOMES[case]
    with BackgroundServer(_cfg(**overrides)) as bg:
        status, retry_after, raw = drive(bg, monkeypatch)
        metrics = bg.metrics_snapshot()
        row = bg.service.flight.tail(n=1, endpoint=endpoint)[0]
    body = _pinned_body(status, raw)
    counts = metrics["endpoints"][endpoint]["outcomes"]
    assert (status, retry_after) == (want["status"], want["retry_after"])
    assert body == want["body"]
    assert list(body) == list(want["body"])
    assert {k: v for k, v in counts.items() if v} == want["outcomes"]
    assert row["status"] == status
    assert (
        row["outcome"], row.get("served", "-"), row.get("queue_class", "-"),
        row.get("brownout", "-"), list(row["stages_ms"]),
    ) == want["flight"]
    assert {
        name: entry["count"] for name, entry in metrics["stages"].items()
    } == want["stages"]


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
        [b"{not json", b"[1, 2]", b'{"stencil": "bogus"}', b"\xff\xfe"],
        ids=["bad-json", "non-object", "unknown-stencil", "not-utf8"],
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
        assert (hinted.trace, hinted.predictor) == (True, "simulate")
        assert (plain.trace, plain.predictor) == (False, None)
        assert hinted.key == plain.key
        assert hinted.shard_key == plain.shard_key
        assert plain.key == jobs.request_key("/tune", plain.payload())
        assert plain.shard_key == shard_key("/tune", TUNE)


def _head_error(body: bytes) -> str:
    """The 400 message of the shard's parse before the memo existed:
    JSON, object check, then normalization."""
    try:
        payload = json.loads(body.decode() or "{}")
        if not isinstance(payload, dict):
            raise RequestError("payload must be a JSON object")
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
    json.dumps(PREDICT).encode(),
]
ROUTED_IDS = ["bad-json", "non-object", "unknown-stencil", "valid"]


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
        for body in ROUTED_BODIES[:-1]:  # every invalid body
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
