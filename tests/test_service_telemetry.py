"""Live telemetry drills against running servers.

Three layers, per the observability PR's acceptance bar:

* **Byte identity** — with SLO disabled and no ``format=prometheus``,
  every pre-existing JSON surface carries exactly the keys it did
  before this layer landed (no ``slo``, no ``latency_histogram``, no
  ``alerts``).
* **Burn drill** — a tiny-threshold latency objective driven into
  fast-window burn on a live server: ``/slo`` shows the burning
  objective, ``/healthz`` carries the alert, ``/debug/requests``
  attributes the slow requests, and recovery clears the alert without
  a restart.
* **Fabric fan-in** — the router's aggregate ``/metrics`` quantiles
  come from merged shard histograms, checked against the pooled
  per-shard sample stream (read back from the flight recorders) within
  the layout's documented error bound.
"""

import json
import time

import pytest

from repro.fabric import BackgroundFabric, FabricConfig
from repro.service.background import BackgroundServer
from repro.service.client import ServiceError
from repro.service.config import ServiceConfig
from repro.telemetry import LatencyHistogram, parse_prometheus
from repro.telemetry.histogram import QUANTILE_REL_ERROR
from repro.telemetry.prom import CONTENT_TYPE

from tests.test_fabric import raw_request

PREDICT = {"stencil": "3d7pt", "grid": [32, 32, 48]}


# ----------------------------------------------------------------------
# Byte identity with telemetry disabled (the default)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def plain():
    config = ServiceConfig(port=0, executor="thread", workers=1)
    with BackgroundServer(config) as bg:
        bg.client.predict(**PREDICT)
        yield bg


class TestDisabledByteIdentity:
    def test_metrics_json_unchanged(self, plain):
        snap = plain.client.metrics()
        assert "slo" not in snap
        for row in snap["endpoints"].values():
            assert "latency_histogram" not in row
            assert set(row) == {"requests", "outcomes", "latency"}

    def test_healthz_has_no_alerts_key(self, plain):
        health = plain.client.healthz()
        assert "alerts" not in health

    def test_slo_endpoint_reports_disabled(self, plain):
        assert plain.client.slo() == {"enabled": False}

    def test_histograms_opt_in(self, plain):
        snap = plain.client.metrics(histograms=True)
        row = snap["endpoints"]["/predict"]
        hist = row["latency_histogram"]
        assert hist["count"] == row["requests"]
        assert sum(hist["buckets"].values()) == hist["count"]

    def test_flight_recorder_always_on(self, plain):
        doc = plain.client.debug_requests(endpoint="/predict")
        assert doc["capacity"] == 256
        assert doc["requests"]
        entry = doc["requests"][0]
        assert entry["endpoint"] == "/predict"
        assert entry["latency_ms"] > 0
        assert "stages_ms" in entry

    def test_prometheus_exposition(self, plain):
        status, body, headers = raw_request(
            "127.0.0.1", plain.port, "GET", "/metrics?format=prometheus"
        )
        assert status == 200
        assert headers["content-type"] == CONTENT_TYPE
        families = parse_prometheus(body.decode())
        assert families["repro_requests_total"] >= 1
        assert "repro_request_latency_seconds" in families
        assert "repro_uptime_seconds" in families
        # No engine -> no SLO families, even in prometheus form.
        assert "repro_slo_burn_rate" not in families


# ----------------------------------------------------------------------
# Burn drill on a live server
# ----------------------------------------------------------------------
DRILL_SLO = {
    "windows": {"page": [0.5, 1.0], "warn": [1.5, 3.0]},
    "objectives": [
        {"name": "availability", "type": "availability", "target": 0.999},
        {
            # Impossible threshold: every served request breaches it,
            # so sustained traffic is a guaranteed fast-window burn.
            "name": "latency-p95", "type": "latency",
            "quantile": 0.95, "threshold_ms": 0.001,
        },
    ],
}


class TestBurnDrill:
    def test_burn_fires_and_recovers_without_restart(self):
        config = ServiceConfig(
            port=0, executor="thread", workers=1,
            slo_enabled=True, slo_config=json.dumps(DRILL_SLO),
        )
        with BackgroundServer(config) as bg:
            client = bg.client
            # Sustained traffic past the slowest window (3s): every
            # request breaches the 1µs threshold, and a few malformed
            # payloads burn availability alongside.
            deadline = time.monotonic() + 3.2
            failures = 0
            while time.monotonic() < deadline:
                client.predict(**PREDICT)
                try:
                    client.predict(stencil="no-such-stencil")
                except ServiceError as exc:
                    assert exc.status == 400
                    failures += 1
                time.sleep(0.02)
            assert failures > 0

            doc = client.slo()
            assert doc["enabled"] is True
            states = {o["name"]: o["state"] for o in doc["objectives"]}
            assert states["latency-p95"] == "page"
            assert states["availability"] == "page"
            burning = {
                a["objective"]: a for a in doc["alerts"]
            }
            assert burning["latency-p95"]["severity"] == "page"
            # Burn rates are reported per labeled window.
            assert set(burning["latency-p95"]["burn_rates"]) == {
                "0.5s", "1s", "1.5s", "3s",
            }

            # The same alerts ride on the health probe...
            health = client.healthz()
            assert {
                a["objective"] for a in health["alerts"]
            } == {"latency-p95", "availability"}
            # ...and compact burn gauges on /metrics.
            snap = client.metrics()
            assert snap["slo"]["latency-p95"]["state"] == "page"

            # Attribution: the flight recorder names the requests that
            # burned each budget.
            slow = client.debug_requests(
                n=10, endpoint="/predict", min_ms=0.001
            )
            assert slow["requests"]
            assert all(
                e["latency_ms"] >= 0.001 for e in slow["requests"]
            )
            failed = client.debug_requests(n=10, outcome="failed")
            assert failed["requests"]
            assert all(
                e["status"] == 400 for e in failed["requests"]
            )

            # Recovery without restart: traffic stops, the windows
            # drain, and every objective reads ok on the same process.
            time.sleep(3.5)
            doc = client.slo()
            assert doc["alerts"] == []
            assert all(
                o["state"] == "ok" for o in doc["objectives"]
            )
            assert client.healthz()["alerts"] == []

    def test_bad_slo_config_fails_startup(self):
        from repro.service.server import ReproService

        config = ServiceConfig(
            port=0, executor="thread", workers=1,
            slo_enabled=True,
            slo_config='{"objectives": [{"name": "x", "type": "bogus"}]}',
        )
        with pytest.raises(ValueError, match="type must be one of"):
            ReproService(config)


# ----------------------------------------------------------------------
# Fabric fan-in: merged histograms are the pooled truth
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestFabricHistogramFanIn:
    @pytest.fixture(scope="class")
    def fabric(self, tmp_path_factory):
        config = FabricConfig(
            fabric_dir=str(tmp_path_factory.mktemp("fabric-telemetry")),
            port=0,
            shards=2,
            probe_interval_s=0.2,
            restart_shards=False,
            shard=ServiceConfig(
                executor="thread", workers=1, steal_interval_s=0.2
            ),
        )
        with BackgroundFabric(config) as fab:
            for i in range(20):
                fab.client.predict(
                    stencil="3d7pt", grid=[16 + i, 16 + i, 32]
                )
            yield fab

    def test_router_aggregate_equals_local_merge(self, fabric):
        doc = fabric.client.metrics(histograms=True)
        shard_hists = [
            shard["endpoints"]["/predict"]["latency_histogram"]
            for shard in doc["shards"].values()
            if "/predict" in shard.get("endpoints", {})
        ]
        # The payload spread lands traffic on both shards.
        assert len(shard_hists) == 2
        aggregate = doc["aggregate"]["endpoints"]["/predict"]
        merged = LatencyHistogram.merged(shard_hists)
        assert aggregate["latency_histogram"] == merged.to_dict()
        assert merged.count == sum(h["count"] for h in shard_hists) == 20
        # The aggregate quantiles are the merged histogram's readout —
        # true cross-shard percentiles, not an average of averages.
        assert aggregate["latency"] == merged.percentiles()

    def test_merged_quantiles_match_pooled_samples(self, fabric):
        doc = fabric.client.metrics(histograms=True)
        aggregate = doc["aggregate"]["endpoints"]["/predict"]
        # The pooled per-shard sample stream, read back from the
        # flight recorders through the router fan-in.
        tail = fabric.client.request(
            "GET", "/debug/requests?n=100&endpoint=/predict"
        )
        samples = sorted(
            e["latency_ms"] for e in tail["requests"]
        )
        assert len(samples) == 20
        for name, q in (("p50_ms", 0.5), ("p95_ms", 0.95)):
            rank = min(
                len(samples) - 1, max(0, round(q * (len(samples) - 1)))
            )
            true = samples[rank]
            got = aggregate["latency"][name]
            # Documented bucket error bound (plus the recorder's 1µs
            # rounding).
            assert abs(got - true) <= QUANTILE_REL_ERROR * true + 1e-3

    def test_router_slo_and_prometheus_surfaces(self, fabric):
        doc = fabric.client.request("GET", "/slo")
        assert doc["role"] == "router"
        assert doc["enabled"] is False  # shards run without --slo
        assert len(doc["shards"]) == 2
        status, body, headers = raw_request(
            "127.0.0.1", fabric.port, "GET",
            "/metrics?format=prometheus",
        )
        assert status == 200
        assert headers["content-type"] == CONTENT_TYPE
        families = parse_prometheus(body.decode())
        assert families["repro_requests_total"] >= 1
        assert "repro_request_latency_seconds" in families
