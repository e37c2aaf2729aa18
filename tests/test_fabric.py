"""Fabric integration: bring-up, routing, byte-identity with the
single-process service, metric fan-in, and loss-of-shard behavior."""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import shard_key
from repro.fabric import BackgroundFabric, FabricConfig, HashRing
from repro.service.background import BackgroundServer
from repro.service.config import ServiceConfig

PREDICT = {"stencil": "3d7pt", "grid": [32, 32, 48]}
RANK = {"method": "radau_iia", "grid": [16, 16, 32], "validate": False}
TUNE = {"stencil": "heat3d", "grid": [24, 24, 32], "tuner": "ecm"}


def raw_request(host, port, method, path, payload=None):
    """One request with access to status, headers and raw body bytes."""
    conn = http.client.HTTPConnection(host, port, timeout=60.0)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        conn.request(
            method,
            path,
            body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        resp = conn.getresponse()
        return (
            resp.status,
            resp.read(),
            {k.lower(): v for k, v in resp.getheaders()},
        )
    finally:
        conn.close()


@pytest.fixture(scope="module")
def fabric(tmp_path_factory):
    config = FabricConfig(
        fabric_dir=str(tmp_path_factory.mktemp("fabric")),
        port=0,
        shards=3,
        probe_interval_s=0.2,
        restart_shards=False,
        shard=ServiceConfig(executor="thread", workers=1, steal_interval_s=0.2),
    )
    with BackgroundFabric(config) as fab:
        yield fab


@pytest.fixture(scope="module")
def single():
    config = ServiceConfig(port=0, executor="thread", workers=1)
    with BackgroundServer(config) as bg:
        yield bg


@pytest.mark.slow
class TestBringUp:
    def test_healthz_reports_all_shards_up(self, fabric):
        health = fabric.client.healthz()
        assert health["http_status"] == 200
        assert health["status"] == "ok"
        assert sorted(health["shards"]) == ["0", "1", "2"]
        assert all(info["up"] for info in health["shards"].values())
        assert health["ring"]["members"] == ["0", "1", "2"]

    def test_unknown_route_404(self, fabric):
        status, body, _ = raw_request(
            fabric.config.host, fabric.port, "GET", "/nope"
        )
        assert status == 404
        assert json.loads(body) == {"error": "no route /nope"}

    def test_get_on_api_path_is_shards_405(self, fabric):
        status, body, headers = raw_request(
            fabric.config.host, fabric.port, "GET", "/predict"
        )
        assert status == 405
        assert "x-repro-shard" in headers  # a shard rendered it


@pytest.mark.slow
class TestByteIdentity:
    """The fabric must answer byte-identically to one process (the
    router adds only the X-Repro-Shard header)."""

    def test_predict_bytes(self, fabric, single):
        f_status, f_body, f_headers = raw_request(
            fabric.config.host, fabric.port, "POST", "/predict", PREDICT
        )
        s_status, s_body, _ = raw_request(
            single.config.host, single.port, "POST", "/predict", PREDICT
        )
        assert (f_status, f_body) == (s_status, s_body)
        assert f_headers["x-repro-shard"] in ("0", "1", "2")

    def test_rank_bytes_outside_timing_fields(self, fabric, single):
        # rank results carry wall-clock stage timings; everything else
        # must match byte-for-byte (compared via canonical re-dump).
        f_status, f_body, _ = raw_request(
            fabric.config.host, fabric.port, "POST", "/rank", RANK
        )
        s_status, s_body, _ = raw_request(
            single.config.host, single.port, "POST", "/rank", RANK
        )
        assert f_status == s_status == 200
        f_doc, s_doc = json.loads(f_body), json.loads(s_body)
        for doc in (f_doc, s_doc):
            for field in ("predict_seconds", "measure_seconds"):
                doc["result"].pop(field, None)
        assert json.dumps(f_doc, sort_keys=True) == json.dumps(
            s_doc, sort_keys=True
        )

    def test_tune_winner_identity(self, fabric, single):
        fab = fabric.client.tune(**TUNE)["result"]
        ser = single.client.tune(**TUNE)["result"]
        assert fab["best_plan"] == ser["best_plan"]
        assert fab["best_mlups"] == ser["best_mlups"]
        assert fab["variants_examined"] == ser["variants_examined"]

    def test_bad_payload_400_bytes(self, fabric, single):
        bad = {"stencil": "no-such-stencil"}
        f_status, f_body, _ = raw_request(
            fabric.config.host, fabric.port, "POST", "/predict", bad
        )
        s_status, s_body, _ = raw_request(
            single.config.host, single.port, "POST", "/predict", bad
        )
        assert f_status == s_status == 400
        assert f_body == s_body


@pytest.mark.slow
class TestRoutingStickiness:
    def test_identical_requests_stick_to_one_shard(self, fabric):
        payload = {"stencil": "3d25pt", "grid": [16, 16, 32]}
        seen = set()
        for _ in range(4):
            _, _, headers = raw_request(
                fabric.config.host, fabric.port, "POST", "/predict", payload
            )
            seen.add(headers["x-repro-shard"])
        assert len(seen) == 1

    def test_second_hit_serves_from_response_cache(self, fabric):
        payload = {"stencil": "3d13pt", "grid": [16, 16, 32]}
        first = fabric.client.predict(**payload)
        second = fabric.client.predict(**payload)
        assert first["served"] == "fresh"
        assert second["served"] == "response-cache"
        assert first["result"] == second["result"]

    def test_router_agrees_with_local_ring(self, fabric):
        # Any client can precompute where a request lands.
        ring = HashRing(["0", "1", "2"])
        payload = {"stencil": "3d7pt", "grid": [20, 20, 24]}
        expected = ring.route(shard_key("/predict", payload))
        _, _, headers = raw_request(
            fabric.config.host, fabric.port, "POST", "/predict", payload
        )
        assert headers["x-repro-shard"] == expected


@pytest.mark.slow
class TestMetricsFanIn:
    def test_shard_dimension_and_aggregate(self, fabric):
        fabric.client.predict(**PREDICT)
        metrics = fabric.client.metrics()
        assert set(metrics) == {"fabric", "shards", "aggregate"}
        assert metrics["fabric"]["ring"]["members"]
        for member, snapshot in metrics["shards"].items():
            assert snapshot["shard"] == int(member)  # the new dimension
        agg = metrics["aggregate"]
        assert agg["shards_reporting"] == len(metrics["shards"])
        # The aggregate is the sum of the per-shard endpoint counters.
        total = sum(
            stats.get("requests", 0)
            for snap in metrics["shards"].values()
            for stats in snap.get("endpoints", {}).values()
        )
        assert agg["requests"] == total >= 1

    def test_tier_ledger_arithmetic(self, fabric):
        fabric.client.predict(**PREDICT)
        metrics = fabric.client.metrics()
        tiers = metrics["aggregate"]["tiers"]
        # Every aggregate tier counter is exactly the sum of the shard
        # snapshots — the ledger shape is uniform, so fan-in is plain
        # addition, never estimation.
        for name, ledger in tiers.items():
            for field in ("hits", "misses", "puts", "evictions"):
                shard_sum = sum(
                    snap.get("tiers", {}).get(name, {}).get(field, 0)
                    for snap in metrics["shards"].values()
                )
                assert ledger[field] == shard_sum, (name, field)
        # The response tier saw the predict above on some shard.
        response = tiers["response"]
        assert response["hits"] + response["misses"] >= 1
        assert response["hit_rate"] is not None
        # An untouched tier reports hit_rate None, not 0.0: nobody ever
        # looked, which is a different state from missing every time.
        untouched = [
            name for name, ledger in tiers.items()
            if ledger["hits"] + ledger["misses"] == 0
        ]
        assert untouched, "expected at least one untouched tier"
        for name in untouched:
            assert tiers[name]["hit_rate"] is None, name

    def test_queue_classes_aggregate(self, fabric):
        metrics = fabric.client.metrics()
        queues = metrics["aggregate"]["queues"]
        assert set(queues) == {"cheap", "expensive"}
        for row in queues.values():
            for field in ("pending", "depth", "limit", "shed", "workers"):
                assert isinstance(row[field], int)
            assert row["deadline_s"] > 0


@pytest.fixture
def probe_free_fabric(tmp_path):
    """A fabric whose router never probes inside a test: the probe loop
    sleeps one 60 s period before its first probe.  Marking a killed
    shard down is then left to the request that finds it dead."""
    config = FabricConfig(
        fabric_dir=str(tmp_path),
        port=0,
        shards=3,
        probe_interval_s=60.0,
        restart_shards=False,
        shard=ServiceConfig(executor="thread", workers=1, steal_interval_s=0.2),
    )
    with BackgroundFabric(config) as fab:
        yield fab


@pytest.mark.slow
class TestShardLoss:
    """Killing a shard degrades health but never availability: its
    keys reroute deterministically to ring successors."""

    def test_kill_then_keys_reroute(self, probe_free_fabric):
        fabric = probe_free_fabric
        ring = HashRing(["0", "1", "2"])
        payload = {"stencil": "3d7pt", "grid": [40, 40, 40]}
        key = shard_key("/predict", payload)
        victim = ring.route(key)
        successor = ring.route_order(key, limit=2)[1]

        fabric.kill_shard(int(victim))
        status, body, headers = raw_request(
            fabric.config.host, fabric.port, "POST", "/predict", payload
        )
        assert status == 200
        assert headers["x-repro-shard"] == successor
        assert json.loads(body)["result"]["stencil"]

        health = fabric.client.healthz()
        assert health["http_status"] == 200
        assert health["status"] == "degraded"
        assert health["shards"][victim]["up"] is False
        metrics = fabric.client.metrics()
        assert victim in metrics["fabric"]["down"]
        assert metrics["fabric"]["router"]["rerouted"] >= 1


def _group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        state, _, pgrp = stat[stat.rfind(")") + 2:].split()[:3]
        if state != "Z" and int(pgrp) == pgid:
            pids.append(int(entry))
    return pids


@pytest.mark.slow
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_sigterm_leaves_no_process_of_a_served_fabric(tmp_path):
    """SIGTERM to ``repro serve --shards 2`` (process pools) drains the
    router and every shard, and each shard joins its pool worker before
    it exits: the whole process group is gone within 5 s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    for run in range(3):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shards", "2", "--fabric-dir", str(tmp_path / f"f{run}"),
             "--workers", "1"],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True,
        )
        try:
            port = None
            for line in proc.stdout:
                match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, "no fabric banner"
            for i in range(6):
                payload = {"stencil": "3d7pt", "grid": [16, 16, 32 + 2 * i]}
                status, _, _ = raw_request(
                    "127.0.0.1", port, "POST", "/predict", payload
                )
                assert status == 200
            proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 5.0
            assert proc.wait(timeout=5.0) == 0
            while _group_pids(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert _group_pids(proc.pid) == [], f"run {run}"
        finally:
            for pid in _group_pids(proc.pid):
                os.kill(pid, signal.SIGKILL)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
