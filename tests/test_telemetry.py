"""Unit tests for the telemetry layer: mergeable histograms, the SLO
burn-rate engine, the flight recorder, and Prometheus exposition.

The live end-to-end drills (burn drill against a running server, fabric
histogram fan-in) live in ``test_service_telemetry.py``; this module
pins the math and the serialization contracts with a fake clock and
hypothesis-driven sample streams.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import (
    DEFAULT_SLO_CONFIG,
    FlightRecorder,
    LatencyHistogram,
    SloEngine,
    load_slo_config,
    parse_prometheus,
    render_prometheus,
)
from repro.telemetry.histogram import (
    MAX_BOUND_S,
    MIN_BOUND_S,
    N_BUCKETS,
    QUANTILE_REL_ERROR,
)
from repro.telemetry.slo import WindowCounter, _window_label


# ----------------------------------------------------------------------
# Histogram: layout + recording
# ----------------------------------------------------------------------
class TestHistogramBasics:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.quantile(0.5) is None
        assert h.percentiles() == {
            "p50_ms": None, "p95_ms": None, "p99_ms": None,
        }

    def test_bucket_index_edges(self):
        # At or below the lower bound -> underflow (-1).
        assert LatencyHistogram.bucket_index(MIN_BOUND_S) == -1
        assert LatencyHistogram.bucket_index(0.0) == -1
        assert LatencyHistogram.bucket_index(-1.0) == -1
        # Above the upper bound -> overflow (N_BUCKETS).
        assert LatencyHistogram.bucket_index(MAX_BOUND_S * 2) == N_BUCKETS
        # In-range samples land in [0, N_BUCKETS).
        for s in (1.1e-5, 1e-3, 0.02, 1.0, 999.0):
            idx = LatencyHistogram.bucket_index(s)
            assert 0 <= idx < N_BUCKETS
            # The sample sits inside its bucket's bounds.
            assert s <= LatencyHistogram.bucket_upper_s(idx)

    def test_bucket_bounds_monotone(self):
        uppers = [
            LatencyHistogram.bucket_upper_s(i) for i in range(N_BUCKETS)
        ]
        assert uppers == sorted(uppers)
        assert uppers[-1] >= MAX_BOUND_S

    def test_count_and_sum_exact(self):
        h = LatencyHistogram()
        samples = [1e-7, 1e-4, 0.005, 0.3, 2.0, 5000.0]
        for s in samples:
            h.record(s)
        assert h.count == len(samples)
        assert h.sum_s == pytest.approx(sum(samples))

    def test_quantile_rejects_out_of_range(self):
        h = LatencyHistogram()
        h.record(0.01)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_clamps_at_range_edges(self):
        h = LatencyHistogram()
        h.record(1e-9)  # underflow
        h.record(1e6)  # overflow
        assert h.quantile(0.0) == MIN_BOUND_S
        assert h.quantile(1.0) == MAX_BOUND_S


# ----------------------------------------------------------------------
# Histogram: the two documented properties (hypothesis)
# ----------------------------------------------------------------------
latency_samples = st.lists(
    st.floats(min_value=2e-5, max_value=900.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200,
)


@settings(max_examples=60, deadline=None)
@given(shards=st.lists(latency_samples, min_size=1, max_size=5))
def test_merge_identical_to_pooled(shards):
    """merge(N shard histograms) == histogram(pooled stream), exactly."""
    pooled = LatencyHistogram()
    parts = []
    for samples in shards:
        part = LatencyHistogram()
        for s in samples:
            part.record(s)
            pooled.record(s)
        parts.append(part)
    merged = LatencyHistogram.merged(p.to_dict() for p in parts)
    assert merged.count == pooled.count
    assert merged.nonzero() == pooled.nonzero()
    assert merged.sum_s == pytest.approx(pooled.sum_s)
    # And the readout is therefore identical too.
    assert merged.percentiles() == pooled.percentiles()


@settings(max_examples=60, deadline=None)
@given(
    samples=latency_samples,
    q=st.sampled_from([0.0, 0.5, 0.9, 0.95, 0.99, 1.0]),
)
def test_quantile_within_documented_bound(samples, q):
    """Reported quantile within QUANTILE_REL_ERROR of the true sample
    quantile (same rank convention as LatencyReservoir)."""
    h = LatencyHistogram()
    for s in samples:
        h.record(s)
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    true = ordered[rank]
    got = h.quantile(q)
    assert got is not None
    assert abs(got - true) <= QUANTILE_REL_ERROR * true + 1e-12


@settings(max_examples=40, deadline=None)
@given(samples=latency_samples)
def test_serialization_roundtrip(samples):
    h = LatencyHistogram()
    for s in samples:
        h.record(s)
    data = json.loads(json.dumps(h.to_dict()))  # through real JSON
    back = LatencyHistogram.from_dict(data)
    assert back.nonzero() == h.nonzero()
    assert back.count == h.count
    assert back.sum_s == pytest.approx(h.sum_s)


class TestHistogramSerializationGuards:
    def test_layout_mismatch_rejected(self):
        data = LatencyHistogram().to_dict()
        data["layout"] = "log2x4@0.001:10"
        with pytest.raises(ValueError, match="layout mismatch"):
            LatencyHistogram.from_dict(data)

    def test_count_mismatch_rejected(self):
        h = LatencyHistogram()
        h.record(0.01)
        data = h.to_dict()
        data["count"] = 99
        with pytest.raises(ValueError, match="count"):
            LatencyHistogram.from_dict(data)

    def test_bucket_index_out_of_range_rejected(self):
        data = LatencyHistogram().to_dict()
        data["buckets"] = {str(N_BUCKETS + 5): 1}
        data["count"] = 1
        with pytest.raises(ValueError, match="out of range"):
            LatencyHistogram.from_dict(data)


# ----------------------------------------------------------------------
# WindowCounter
# ----------------------------------------------------------------------
class TestWindowCounter:
    def test_counts_inside_window(self):
        w = WindowCounter(60.0)
        w.add(0.0, good=3, bad=1)
        w.add(30.0, good=2)
        assert w.totals(59.0) == (5, 1)

    def test_expiry(self):
        w = WindowCounter(60.0)
        w.add(0.0, bad=10)
        # After more than a full window the old slot has retired.
        assert w.totals(62.0) == (0, 0)

    def test_partial_expiry(self):
        # The ring is accurate to one slot: a slot retires when its
        # index is reused, so data at t=0 lives until t >= 70 here.
        w = WindowCounter(60.0, slots=6)  # 10s resolution
        w.add(0.0, bad=6)
        w.add(55.0, good=4)
        assert w.totals(65.0) == (4, 6)  # within the slop slot
        assert w.totals(72.0) == (4, 0)  # t=0 slot retired

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            WindowCounter(0.0)


def test_window_labels():
    assert _window_label(60.0) == "1m"
    assert _window_label(300.0) == "5m"
    assert _window_label(21600.0) == "6h"
    assert _window_label(2.5) == "2.5s"


# ----------------------------------------------------------------------
# SLO engine with a fake clock
# ----------------------------------------------------------------------
FAST_CONFIG = {
    "windows": {"page": [10.0, 30.0], "warn": [60.0, 120.0]},
    "burn": {"page": 14.4, "warn": 6.0},
    "objectives": [
        {"name": "availability", "type": "availability", "target": 0.999},
        {
            "name": "latency-p95", "type": "latency",
            "quantile": 0.95, "threshold_ms": 100.0,
        },
        {"name": "shed-rate", "type": "shed_rate", "ceiling": 0.05},
        {
            "name": "hit-rate", "type": "hit_rate",
            "tier": "response", "floor": 0.10,
        },
    ],
}


class FakeClock:
    def __init__(self):
        self.t = 1000.0

    def __call__(self):
        return self.t


def make_engine(config=FAST_CONFIG):
    clock = FakeClock()
    return SloEngine(config, now_fn=clock), clock


class TestSloEngine:
    def test_all_ok_when_idle(self):
        engine, _ = make_engine()
        doc = engine.snapshot()
        assert doc["enabled"] is True
        assert doc["alerts"] == []
        assert all(o["state"] == "ok" for o in doc["objectives"])

    def test_availability_burn_pages_and_recovers(self):
        engine, clock = make_engine()
        # 50% failures for 35s: burn = 0.5 / 0.001 = 500 >> 14.4 in
        # both page windows (10s and 30s).
        for _ in range(40):
            engine.observe("/predict", "ok", 0.01)
            engine.observe("/predict", "failed", 0.01)
            clock.t += 0.5
        doc = engine.snapshot()
        states = {o["name"]: o["state"] for o in doc["objectives"]}
        assert states["availability"] == "page"
        alerts = {a["objective"]: a for a in doc["alerts"]}
        assert alerts["availability"]["severity"] == "page"
        # Latency and shed objectives are unaffected.
        assert states["latency-p95"] == "ok"
        assert states["shed-rate"] == "ok"
        # Recovery: good traffic for one page window clears the page;
        # once the warn windows expire too, the objective reads ok.
        for _ in range(80):
            engine.observe("/predict", "ok", 0.01)
            clock.t += 0.5
        states = {
            o["name"]: o["state"]
            for o in engine.snapshot()["objectives"]
        }
        assert states["availability"] in ("ok", "warn")  # page cleared
        clock.t += 121.0
        engine.observe("/predict", "ok", 0.01)
        states = {
            o["name"]: o["state"]
            for o in engine.snapshot()["objectives"]
        }
        assert states["availability"] == "ok"

    def test_latency_threshold_burn(self):
        engine, clock = make_engine()
        # Every request over threshold: bad_fraction 1.0, budget 0.05,
        # burn 20 > 14.4.
        for _ in range(100):
            engine.observe("/tune", "ok", 0.5)  # 500ms > 100ms
            clock.t += 0.4
        states = {
            o["name"]: o["state"]
            for o in engine.snapshot()["objectives"]
        }
        assert states["latency-p95"] == "page"
        # Every outcome above was "ok", so availability stays clean —
        # slow-but-successful burns latency budget only.
        assert states["availability"] == "ok"

    def test_latency_excludes_sheds(self):
        engine, clock = make_engine()
        for _ in range(100):
            engine.observe("/tune", "shed", 0.0)
            clock.t += 0.4
        states = {
            o["name"]: o["state"]
            for o in engine.snapshot()["objectives"]
        }
        # Sheds never feed the latency objective...
        assert states["latency-p95"] == "ok"
        # ...but a 100% shed rate blows through the 5% ceiling.
        assert states["shed-rate"] == "page"

    def test_hit_rate_uses_override_threshold(self):
        engine, clock = make_engine()
        ledger = {"response": {"hits": 0, "misses": 0}}
        engine.set_tier_source(lambda: {
            k: dict(v) for k, v in ledger.items()
        })
        # Miss-heavy traffic: hit rate 0 < floor 0.10 -> burn 1.11,
        # which fires only because hit_rate defaults its thresholds to
        # 1.0 (the global 14.4 is unreachable with a 0.9 budget).
        for _ in range(200):
            ledger["response"]["misses"] += 1
            engine.observe("/predict", "ok", 0.001)
            clock.t += 0.4
        states = {
            o["name"]: o["state"]
            for o in engine.snapshot()["objectives"]
        }
        assert states["hit-rate"] == "page"
        # Healthy hit rate (way above the floor) clears it.
        clock.t += 200.0
        for _ in range(200):
            ledger["response"]["hits"] += 1
            engine.observe("/predict", "ok", 0.001)
            clock.t += 0.4
        states = {
            o["name"]: o["state"]
            for o in engine.snapshot()["objectives"]
        }
        assert states["hit-rate"] == "ok"

    def test_tier_source_failure_is_swallowed(self):
        engine, clock = make_engine()

        def broken():
            raise RuntimeError("ledger gone")

        engine.set_tier_source(broken)
        engine.observe("/predict", "ok", 0.001)  # must not raise
        assert engine.alerts() == []

    def test_metrics_rows_shape(self):
        engine, clock = make_engine()
        engine.observe("/predict", "ok", 0.001)
        rows = engine.metrics_rows()
        assert set(rows) == {
            "availability", "latency-p95", "shed-rate", "hit-rate",
        }
        for row in rows.values():
            assert row["state"] in ("ok", "warn", "page")
            assert set(row["burn"]) == {"10s", "30s", "1m", "2m"}

    def test_endpoint_scoping(self):
        config = dict(
            FAST_CONFIG,
            objectives=[{
                "name": "tune-availability", "type": "availability",
                "target": 0.999, "endpoint": "/tune",
            }],
        )
        engine, clock = make_engine(config)
        for _ in range(100):
            engine.observe("/predict", "failed", 0.01)  # out of scope
            clock.t += 0.4
        assert engine.alerts() == []
        for _ in range(100):
            engine.observe("/tune", "failed", 0.01)
            clock.t += 0.4
        assert [a["objective"] for a in engine.alerts()] == [
            "tune-availability"
        ]


# ----------------------------------------------------------------------
# Config loading
# ----------------------------------------------------------------------
class TestSloConfig:
    def test_defaults(self):
        config = load_slo_config(None)
        names = [o["name"] for o in config["objectives"]]
        assert names == [
            "availability", "latency-p95", "response-hit-rate",
            "shed-rate",
        ]

    def test_inline_json_merges_over_defaults(self):
        config = load_slo_config(
            '{"burn": {"page": 10.0}, "objectives":'
            ' [{"name": "a", "type": "availability", "target": 0.99}]}'
        )
        assert config["burn"]["page"] == 10.0
        assert config["burn"]["warn"] == 6.0  # default retained
        assert len(config["objectives"]) == 1

    def test_file_source(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(DEFAULT_SLO_CONFIG))
        config = load_slo_config(str(path))
        assert len(config["objectives"]) == 4

    def test_missing_file_is_loud(self):
        with pytest.raises(ValueError, match="not found"):
            load_slo_config("/nonexistent/slo.json")

    def test_bad_json_is_loud(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            load_slo_config("{broken")

    @pytest.mark.parametrize("objectives, message", [
        ([], "non-empty"),
        ([{"name": "x", "type": "nope"}], "type must be one of"),
        ([{"name": "x", "type": "latency"}], "missing"),
        ([{"type": "availability", "target": 0.9}], "string name"),
        (
            [
                {"name": "x", "type": "availability", "target": 0.9},
                {"name": "x", "type": "shed_rate", "ceiling": 0.1},
            ],
            "duplicate",
        ),
    ])
    def test_objective_validation(self, objectives, message):
        with pytest.raises(ValueError, match=message):
            load_slo_config(json.dumps({"objectives": objectives}))

    def test_degenerate_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            SloEngine({
                "objectives": [{
                    "name": "x", "type": "availability", "target": 1.0,
                }],
            })

    def test_bad_burn_override_rejected(self):
        with pytest.raises(ValueError, match="burn override"):
            SloEngine({
                "objectives": [{
                    "name": "x", "type": "availability",
                    "target": 0.99, "burn": {"page": -1.0},
                }],
            })


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_bounds_and_bookkeeping(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record(endpoint="/predict", outcome="ok", latency_ms=i)
        snap = rec.snapshot()
        assert snap == {
            "capacity": 4, "held": 4, "recorded": 10, "dropped": 6,
        }
        tail = rec.tail(n=10)
        assert [e["latency_ms"] for e in tail] == [9, 8, 7, 6]
        # seq is monotone and survives ring wrap.
        assert [e["seq"] for e in tail] == [10, 9, 8, 7]

    def test_filters(self):
        rec = FlightRecorder(capacity=16)
        rec.record(endpoint="/predict", outcome="ok", latency_ms=1.0)
        rec.record(endpoint="/tune", outcome="failed", latency_ms=900.0)
        rec.record(endpoint="/tune", outcome="ok", latency_ms=5.0)
        assert [
            e["endpoint"] for e in rec.tail(endpoint="/tune")
        ] == ["/tune", "/tune"]
        assert [
            e["outcome"] for e in rec.tail(outcome="failed")
        ] == ["failed"]
        assert [
            e["latency_ms"] for e in rec.tail(min_latency_ms=100.0)
        ] == [900.0]

    def test_zero_capacity_is_inert(self):
        rec = FlightRecorder(capacity=0)
        rec.record(endpoint="/predict", outcome="ok")
        assert rec.tail() == []
        assert rec.snapshot()["recorded"] == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=-1)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def sample_snapshot():
    hist = LatencyHistogram()
    for s in (0.001, 0.002, 0.01, 0.5):
        hist.record(s)
    return {
        "endpoints": {
            "/predict": {
                "outcomes": {"ok": 3, "failed": 1},
                "latency_histogram": hist.to_dict(),
            },
        },
        "tiers": {
            "response": {
                "hits": 5, "misses": 2, "puts": 7, "evictions": 0,
                "size": 7, "hit_rate": 5 / 7,
            },
            # Never consulted: hit_rate None must be OMITTED.
            "database": {
                "hits": 0, "misses": 0, "puts": 0, "evictions": 0,
                "size": 0, "hit_rate": None,
            },
        },
        "predictor": {
            "lc_served": 2, "sim_served": 1, "lc_validation_mismatch": 0,
        },
        "stages": {"tune": {"total_s": 1.25, "calls": 3}},
        "queue": {"depth": 1, "shed": 4},
        "queues": {"cheap": {"depth": 1}, "expensive": {"depth": 0}},
        "uptime_s": 12.5,
        "draining": False,
        "slo": {
            "availability": {
                "state": "page", "budget": 0.001,
                "burn": {"1m": 500.0, "5m": 480.0},
            },
        },
    }


class TestPrometheus:
    def test_render_parses_strictly(self):
        text = render_prometheus(sample_snapshot())
        families = parse_prometheus(text)
        assert families["repro_requests_total"] == 2
        # 4 samples over distinct buckets + (+Inf) + _sum + _count.
        assert families["repro_request_latency_seconds"] >= 6
        assert families["repro_tier_hits_total"] == 2
        assert families["repro_slo_burn_rate"] == 2
        assert families["repro_slo_alert"] == 1

    def test_none_hit_rate_omitted(self):
        text = render_prometheus(sample_snapshot())
        assert 'repro_tier_hit_rate{tier="response"}' in text
        assert 'repro_tier_hit_rate{tier="database"}' not in text

    def test_histogram_buckets_cumulative(self):
        text = render_prometheus(sample_snapshot())
        buckets = [
            line for line in text.splitlines()
            if line.startswith("repro_request_latency_seconds_bucket")
        ]
        values = [float(line.rsplit(" ", 1)[1]) for line in buckets]
        assert values == sorted(values)
        assert buckets[-1].split(" ")[0].endswith('le="+Inf"}')
        assert values[-1] == 4.0
        assert "repro_request_latency_seconds_count" in text

    def test_label_escaping(self):
        snap = {
            "endpoints": {
                'p"q\\r': {"outcomes": {"ok": 1}},
            },
        }
        text = render_prometheus(snap)
        parse_prometheus(text)  # must stay parseable
        assert '\\"' in text and "\\\\" in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == "\n"
        assert parse_prometheus(render_prometheus({})) == {}

    def test_alert_severity_encoding(self):
        text = render_prometheus(sample_snapshot())
        assert 'repro_slo_alert{objective="availability"} 2' in text

    @pytest.mark.parametrize("bad", [
        "not a metric line at all {",
        "# BOGUS comment kind",
        'family_never_declared{x="y"} 1',
        "# TYPE ok gauge\nok notanumber",
        '# TYPE ok gauge\nok{bad label} 1',
    ])
    def test_parser_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus(bad)

    def test_inf_value_accepted(self):
        text = "# TYPE x gauge\nx +Inf\n"
        assert parse_prometheus(text) == {"x": 1}
