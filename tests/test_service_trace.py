"""Live-server tests for per-request tracing and stage metrics.

A ``"trace": true`` field in a POST payload asks the service to run
that request under an :mod:`repro.obs` trace and attach the span tree
to the response envelope.  The flag must not change the *result* bytes
or the cache identity: a traced and an untraced request for the same
configuration share one cache entry, and a cache hit answers a traced
request with ``"trace": null`` (nothing executed, nothing to trace).
"""

import json

import pytest

from repro.service.background import BackgroundServer
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig

PREDICT = {"stencil": "3d7pt", "grid": [16, 16, 32]}
TUNE = {
    "stencil": "3d7pt",
    "grid": [16, 16, 32],
    "tuner": "greedy",
    "cache_scale": 1 / 32,
}


@pytest.fixture(scope="module")
def server():
    cfg = ServiceConfig(
        port=0, executor="thread", workers=2, queue_limit=64
    )
    bg = BackgroundServer(cfg).start()
    try:
        yield bg
    finally:
        bg.stop()


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server.port)


def _span_names(entry: dict) -> set[str]:
    names = {entry["name"]}
    for child in entry.get("children", ()):
        names |= _span_names(child)
    return names


class TestTracedRequests:
    def test_traced_predict_attaches_span_tree(self, client):
        resp = client.predict(**PREDICT, trace=True)
        assert resp["served"] == "fresh"
        trace = resp["trace"]
        assert trace["name"] == "request:/predict"
        names = _span_names(trace)
        assert {"engine.predict", "engine.yasksite",
                "blocking.select", "ecm.predict"} <= names
        assert trace["duration_s"] > 0

    def test_trace_flag_does_not_change_result_bytes(self, client):
        traced = client.predict(
            **{**PREDICT, "grid": [16, 16, 48]}, trace=True
        )
        untraced = client.predict(**{**PREDICT, "grid": [16, 16, 48]})
        assert json.dumps(traced["result"]) == json.dumps(
            untraced["result"]
        )
        assert "trace" not in untraced

    def test_traced_and_untraced_share_cache_identity(self, client):
        payload = {**PREDICT, "grid": [16, 32, 32]}
        first = client.predict(**payload, trace=True)
        assert first["served"] == "fresh"
        hit = client.predict(**payload)
        assert hit["served"] == "response-cache"
        assert json.dumps(hit["result"]) == json.dumps(first["result"])

    def test_cache_hit_answers_traced_request_with_null(self, client):
        payload = {**PREDICT, "grid": [32, 16, 32]}
        client.predict(**payload)
        resp = client.predict(**payload, trace=True)
        assert resp["served"] == "response-cache"
        assert resp["trace"] is None

    def test_traced_tune_names_tuner_stages(self, client):
        resp = client.tune(**TUNE, trace=True)
        assert resp["served"] == "fresh"
        names = _span_names(resp["trace"])
        assert {"engine.tune", "tuner.greedy", "tuner.evaluate",
                "cachesim.sweep"} <= names

    def test_traced_rank_names_offsite_stages(self, client):
        resp = client.rank(grid=[8, 8, 16], validate=False, trace=True)
        assert resp["served"] == "fresh"
        names = _span_names(resp["trace"])
        assert {"engine.rank", "offsite.predict"} <= names


class TestStageMetrics:
    def test_metrics_report_stage_timings(self, client):
        client.predict(**{**PREDICT, "grid": [48, 16, 32]}, trace=True)
        stages = client.metrics()["stages"]
        # Lifecycle stages are recorded for every request...
        for stage in ("normalize", "cache", "execute"):
            assert stages[stage]["count"] >= 1
            assert stages[stage]["total_s"] >= 0
            assert "mean_ms" in stages[stage]
        # ...and traced requests fold their span durations in by name.
        assert stages["engine.predict"]["count"] >= 1
        assert stages["engine.predict"]["total_s"] > 0


class TestProcessPoolTracing:
    def test_traced_tune_through_process_pool(self):
        """Worker-side traces survive the process boundary: an
        exhaustive sweep priced expensive runs on the process pool."""
        cfg = ServiceConfig(
            port=0, executor="process", workers=1, queue_limit=16
        )
        bg = BackgroundServer(cfg).start()
        try:
            client = ServiceClient(port=bg.port)
            resp = client.tune(
                **{**TUNE, "grid": [24, 24, 48], "tuner": "exhaustive"},
                trace=True,
            )
            assert resp["served"] == "fresh"
            assert "expensive" in bg.service.dispatcher._lanes
            names = _span_names(resp["trace"])
            assert {"engine.tune", "tuner.exhaustive"} <= names
            assert resp["result"]["best_mlups"] > 0
        finally:
            bg.stop()
