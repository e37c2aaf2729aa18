"""Unit tests for the service subsystem (no live server needed)."""

import json
import threading

import pytest

from repro.engine import RankRequest
from repro.offsite.database import TuningDatabase, TuningKey, TuningRecord
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.jobs import (
    JobError,
    normalize_predict,
    normalize_rank,
    normalize_tune,
    predict_job,
    request_key,
)
from repro.service.metrics import (
    OUTCOMES,
    EndpointStats,
    LatencyReservoir,
    ServiceMetrics,
)
from repro.store import LruTier


class TestConfig:
    def test_defaults_valid(self):
        cfg = ServiceConfig()
        assert cfg.workers > 0 and cfg.queue_limit > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"executor": "fork-bomb"},
            {"queue_limit": 0},
            {"request_timeout_s": 0},
            {"response_cache_size": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestNormalization:
    def test_predict_defaults(self):
        n = normalize_predict({"stencil": "3d7pt"})
        assert n["grid"] == [48, 48, 64]
        assert n["machine"] == "clx"
        assert n["block"] is None and n["cache_scale"] is None

    def test_machine_case_insensitive(self):
        n = normalize_predict({"stencil": "3d7pt", "machine": "ROME"})
        assert n["machine"] == "rome"

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # missing stencil
            {"stencil": "5dmagic"},
            {"stencil": "3d7pt", "grid": []},
            {"stencil": "3d7pt", "grid": [0, 8, 8]},
            {"stencil": "3d7pt", "grid": "16x16"},
            {"stencil": "3d7pt", "machine": "cray-1"},
            {"stencil": "3d7pt", "block": [8, 8]},  # rank mismatch
            {"stencil": "3d7pt", "cache_scale": -1},
        ],
    )
    def test_predict_rejects(self, payload):
        with pytest.raises(JobError):
            normalize_predict(payload)

    def test_tune_rejects_unknown_tuner(self):
        with pytest.raises(JobError):
            normalize_tune({"stencil": "3d7pt", "tuner": "simulated-annealing"})

    def test_rank_defaults_and_rejects(self):
        n = normalize_rank({})
        assert n["method"] == "radau_iia" and n["validate"] is True
        with pytest.raises(JobError):
            normalize_rank({"method": "magic"})
        with pytest.raises(JobError):
            normalize_rank({"stages": 0})
        with pytest.raises(JobError):
            normalize_rank({"validate": "yes"})

    def test_rank_db_key_parts(self):
        n = normalize_rank({"grid": [8, 8, 16], "validate": False})
        method, ivp, machine, grid = RankRequest.from_payload(n).db_key_parts()
        assert method == "radau_iia(4)m3"
        assert ivp == "grid8x8x16"
        assert machine == "clx" and grid == (8, 8, 16)

    def test_rank_db_key_distinguishes_tuning_parameters(self):
        base = normalize_rank({"grid": [8, 8, 16], "validate": False})
        overrides = [
            {"cache_scale": 1.0},
            {"cache_scale": None},
            {"block": [4, 4, 8]},
            {"block": "auto"},
            {"seed": 7},
        ]
        keys = {RankRequest.from_payload(base).db_key_parts()}
        for override in overrides:
            n = normalize_rank(
                {"grid": [8, 8, 16], "validate": False, **override}
            )
            keys.add(RankRequest.from_payload(n).db_key_parts())
        # Every non-default parameterization gets its own identity …
        assert len(keys) == len(overrides) + 1
        # … while explicitly spelling out the defaults does not.
        explicit = normalize_rank(
            {"grid": [8, 8, 16], "validate": False,
             "cache_scale": 1 / 32, "seed": 0}
        )
        assert (
            RankRequest.from_payload(explicit).db_key_parts()
            == RankRequest.from_payload(base).db_key_parts()
        )

    def test_request_key_is_canonical(self):
        a = normalize_predict({"stencil": "3d7pt", "machine": "clx"})
        b = normalize_predict({"machine": "CLX", "stencil": "3d7pt",
                               "grid": [48, 48, 64]})
        assert request_key("/predict", a) == request_key("/predict", b)
        c = normalize_predict({"stencil": "3d7pt", "machine": "rome"})
        assert request_key("/predict", a) != request_key("/predict", c)
        assert request_key("/predict", a) != request_key("/tune", a)


class TestPredictJob:
    def test_json_round_trip_and_determinism(self):
        n = normalize_predict(
            {"stencil": "3d7pt", "grid": [16, 16, 32], "cache_scale": 1 / 32}
        )
        out1 = predict_job(n)
        out2 = json.loads(json.dumps(predict_job(n)))
        assert out1 == out2
        assert out1["mlups"] > 0
        assert out1["plan"]["block"] == [16, 16, 32]


class TestLatencyReservoir:
    def test_percentiles(self):
        res = LatencyReservoir(capacity=100)
        for ms in range(1, 101):  # 1..100 ms
            res.record(ms / 1e3)
        pcts = res.percentiles()
        assert pcts["p50_ms"] == pytest.approx(50, abs=2)
        assert pcts["p95_ms"] == pytest.approx(95, abs=2)
        assert pcts["p99_ms"] == pytest.approx(99, abs=2)

    def test_empty(self):
        assert LatencyReservoir().percentiles()["p50_ms"] is None

    def test_bounded(self):
        res = LatencyReservoir(capacity=8)
        for _ in range(100):
            res.record(0.001)
        assert res.count == 100
        assert len(res._samples) == 8


class TestMetrics:
    def test_outcomes_partition(self):
        stats = EndpointStats()
        for outcome in OUTCOMES:
            stats.record(outcome, 0.001)
        snap = stats.snapshot()
        assert snap["requests"] == len(OUTCOMES)
        assert sum(snap["outcomes"].values()) == snap["requests"]

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            EndpointStats().record("lost", 0.0)

    def test_tier_hit_rate(self):
        m = ServiceMetrics()
        m.record_tier("response", hits=3, misses=1)
        snap = m.snapshot()
        assert snap["tiers"]["response"]["hit_rate"] == pytest.approx(0.75)
        assert snap["tiers"]["traffic-memory"]["hit_rate"] is None
        assert snap["tiers"]["traffic-disk"]["hit_rate"] is None
        assert "traffic" not in snap["tiers"]


class TestLruCache:
    def test_evicts_least_recently_used(self):
        lru = LruTier(capacity=2)
        lru.put("a", {"v": 1})
        lru.put("b", {"v": 2})
        assert lru.get("a") == {"v": 1}  # refresh a
        lru.put("c", {"v": 3})  # evicts b
        assert lru.get("b") is None
        assert lru.get("a") == {"v": 1} and lru.get("c") == {"v": 3}

    def test_zero_capacity_stores_nothing(self):
        lru = LruTier(capacity=0)
        lru.put("a", {"v": 1})
        assert lru.get("a") is None and len(lru) == 0


class TestClientRetry:
    def _flaky_server(self, fail_times: int, status: int = 503):
        """Tiny stdlib server: ``fail_times`` errors, then 200 JSON."""
        import http.server

        calls = {"n": 0}

        class Handler(http.server.BaseHTTPRequestHandler):
            def _reply(self):
                calls["n"] += 1
                if calls["n"] <= fail_times:
                    code, body = status, b'{"error": "transient"}'
                else:
                    code, body = 200, b'{"ok": true}'
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            do_GET = _reply
            do_POST = _reply

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, calls

    def test_retries_transient_then_succeeds(self):
        server, calls = self._flaky_server(fail_times=2)
        try:
            client = ServiceClient(
                port=server.server_address[1], retries=3, backoff_s=0.01
            )
            assert client.request("GET", "/anything") == {"ok": True}
            assert calls["n"] == 3
        finally:
            server.shutdown()

    def test_exhausted_retries_raise(self):
        server, calls = self._flaky_server(fail_times=100)
        try:
            client = ServiceClient(
                port=server.server_address[1], retries=2, backoff_s=0.01
            )
            with pytest.raises(ServiceError) as err:
                client.request("GET", "/anything")
            assert err.value.status == 503
            assert calls["n"] == 3  # first try + 2 retries
        finally:
            server.shutdown()

    def test_non_retryable_status_raises_immediately(self):
        server, calls = self._flaky_server(fail_times=100, status=404)
        try:
            client = ServiceClient(
                port=server.server_address[1], retries=5, backoff_s=0.01
            )
            with pytest.raises(ServiceError):
                client.request("GET", "/anything")
            assert calls["n"] == 1
        finally:
            server.shutdown()


class TestDatabaseAtomicity:
    def test_save_is_atomic_and_load_or_empty(self, tmp_path):
        db = TuningDatabase()
        db.put(
            TuningRecord(
                key=TuningKey("m", "ivp", "clx", (8, 8)),
                best_variant="split",
                block=(8, 8),
                predicted_s_per_step=1e-3,
            )
        )
        path = tmp_path / "sub" / "db.json"
        db.save(path)  # creates parent, no stray temp files
        assert [p.name for p in path.parent.iterdir()] == ["db.json"]
        again = TuningDatabase.load_or_empty(path)
        assert len(again) == 1
        empty = TuningDatabase.load_or_empty(tmp_path / "missing.json")
        assert len(empty) == 0
