"""Smoke drills of the shipped surfaces, as CI runs them.

The serve drills start ``python -m repro serve`` in its own session,
drive it over HTTP and SIGTERM it; the CLI drills run ``python -m
repro`` commands; the rest drive a live in-process server.
``pytest -m drill`` runs exactly these (each CI smoke step calls one);
they also run with tier-1.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import faults
from repro.cachesim.memo import CACHE_DIR_ENV, set_default_traffic_cache
from repro.service.background import BackgroundServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.telemetry import parse_prometheus

pytestmark = [
    pytest.mark.drill,
    pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc"),
]

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Priced at about 0.4 s by the classifier: runs on the process pool.
EXPENSIVE_TUNE = {"stencil": "3d7pt", "grid": [24, 24, 48],
                  "tuner": "exhaustive"}


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
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


@contextmanager
def served(*argv: str):
    """``(process, base URL)`` of ``repro serve argv`` in its own
    session; whatever is left of its group is killed on the way out."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, start_new_session=True,
    )
    try:
        port = None
        for _ in range(600):
            line = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line or "")
            if match:
                port = int(match.group(1))
                break
        assert port, "no serve banner"
        yield proc, f"http://127.0.0.1:{port}"
    finally:
        for pid in group_pids(proc.pid):
            os.kill(pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def post(base: str, path: str, payload: dict) -> tuple[dict, dict]:
    """One JSON POST; ``(document, headers)``."""
    req = urllib.request.Request(
        f"{base}{path}", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.load(resp), resp.headers


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=30) as resp:
        return json.load(resp)


def assert_sigterm_empties_the_group(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + 5
    assert proc.wait(timeout=5) == 0, proc.returncode
    while group_pids(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not group_pids(proc.pid), group_pids(proc.pid)


def test_fabric_serve_smoke(tmp_path):
    """Flags reach every shard, cheap jobs start no pool, and SIGTERM
    after an expensive tune leaves no process: not the router, a
    shard, a pool worker or a resource tracker."""
    with served("--shards", "3", "--fabric-dir", str(tmp_path),
                "--workers", "1", "--cache-size", "64") as (proc, base):
        doc, headers = post(base, "/predict",
                            {"stencil": "3d7pt", "grid": [16, 16, 32]})
        shard = headers["X-Repro-Shard"]
        assert doc["result"]["stencil"] == "s3d7pt" and shard in "012"
        # The router and the three shards; the predict ran on a thread
        # of its shard, so no shard has a pool child.
        assert len(group_pids(proc.pid)) == 4, group_pids(proc.pid)
        # Every shard runs the parsed flags as its template.
        shards = get(base, "/metrics")["shards"]
        assert sorted(shards) == ["0", "1", "2"], sorted(shards)
        for sid, snap in shards.items():
            assert snap["pool"]["workers"] == 1, (sid, snap["pool"])
            cache = snap["response_cache"]
            assert cache["capacity"] == 64, (sid, cache)
        doc, _ = post(base, "/tune", EXPENSIVE_TUNE)
        assert doc["served"] == "fresh" and doc["result"]["best_mlups"] > 0
        assert len(group_pids(proc.pid)) > 4, group_pids(proc.pid)
        assert_sigterm_empties_the_group(proc)


def test_single_serve_runs_expensive_tunes_on_its_pool():
    """``python -m repro serve`` (process pool, the default) answers an
    expensive tune from a spawned worker: the package's
    ``__main__`` is not re-run there, so no second server starts."""
    with served("--workers", "1") as (proc, base):
        post(base, "/predict", {"stencil": "3d7pt", "grid": [16, 16, 32]})
        assert group_pids(proc.pid) == [proc.pid]
        doc, _ = post(base, "/tune", EXPENSIVE_TUNE)
        assert doc["served"] == "fresh" and doc["result"]["best_mlups"] > 0
        metrics = get(base, "/metrics")
        assert metrics["queues"]["expensive"]["pending"] == 0
        assert metrics["endpoints"]["/tune"]["outcomes"]["fresh"] == 1
        assert_sigterm_empties_the_group(proc)


def span_names(entry: dict) -> set[str]:
    """Every span name of a trace tree."""
    names = {entry["name"]}
    for child in entry.get("children", ()):
        names |= span_names(child)
    return names


def repro_cli(*argv: str, env: dict | None = None) -> tuple[str, str]:
    """``(stdout, stderr)`` of ``python -m repro argv``, which must
    exit 0."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv], capture_output=True,
        text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, done.stderr


def test_telemetry_smoke():
    """``/slo``, the Prometheus exposition and the flight recorder on a
    live ``repro serve --slo``."""
    with served("--executor", "thread", "--slo") as (proc, base):
        doc, _ = post(base, "/predict",
                      {"stencil": "3d7pt", "grid": [16, 16, 32]})
        assert doc["endpoint"] == "/predict"
        # /slo parses as JSON and carries the default objectives.
        slo = get(base, "/slo")
        assert slo["enabled"] is True
        names = {o["name"] for o in slo["objectives"]}
        assert "availability" in names and "latency-p95" in names, names
        # The Prometheus exposition parses under the strict checker.
        with urllib.request.urlopen(
            f"{base}/metrics?format=prometheus", timeout=30
        ) as resp:
            ctype = resp.headers["Content-Type"]
            text = resp.read().decode()
        assert ctype.startswith("text/plain; version=0.0.4"), ctype
        families = parse_prometheus(text)
        assert families["repro_requests_total"] >= 1, families
        assert "repro_request_latency_seconds" in families, families
        assert "repro_slo_burn_rate" in families, families
        # Flight recorder attribution is live too.
        tail = get(base, "/debug/requests?n=5")
        assert tail["requests"][0]["endpoint"] == "/predict", tail
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0, proc.returncode


def test_cli_trace_smoke():
    """``repro predict --trace --json``: the result on stdout, its span
    tree on stderr."""
    out, err = repro_cli("predict", "3d7pt", "--grid", "16x16x32",
                         "--trace", "--json")
    result = json.loads(out)
    assert result["grid"] == [16, 16, 32], result
    missing = {"cli:predict", "engine.predict", "engine.yasksite",
               "blocking.select", "ecm.predict"} - span_names(json.loads(err))
    assert not missing, f"missing spans: {missing}"


def test_traced_service_request_smoke():
    """A traced ``/tune`` answers its span tree, and the request feeds
    every stage timer."""
    with BackgroundServer(
        ServiceConfig(port=0, executor="thread", workers=2)
    ) as bg:
        client = ServiceClient(port=bg.port)
        resp = client.tune(stencil="3d7pt", grid=[16, 16, 32],
                           tuner="ecm", trace=True)
        missing = {"request:/tune", "engine.tune", "tuner.ecm",
                   "tuner.evaluate", "cachesim.sweep",
                   "ecm.predict"} - span_names(resp["trace"])
        assert not missing, f"missing spans: {missing}"
        stages = client.metrics()["stages"]
        for stage in ("normalize", "cache", "execute"):
            assert stages[stage]["count"] >= 1, stages


def test_worker_kill_tune_matches_the_serial_winner():
    """A tune whose second pool worker dies retries the lost jobs on a
    restarted pool and picks the serial winner."""
    tune = ("tune", "3d7pt", "--grid", "24x24x32", "--cache-scale",
            "0.03125", "--tuner", "exhaustive", "--json")
    serial = json.loads(repro_cli(*tune)[0])
    chaos = json.loads(repro_cli(
        *tune, "--workers", "4",
        env={faults.ENV_FLAG: "tuner.worker:nth=2:mode=exit"},
    )[0])
    assert chaos["best_plan"] == serial["best_plan"], (
        chaos["best_plan"], serial["best_plan"])
    assert chaos["best_mlups"] == serial["best_mlups"]
    rec = chaos["recovery"]
    assert rec["retried_jobs"] >= 1, rec
    assert rec["pool_restarts"] >= 1, rec
    assert not rec["degraded"], rec


def test_flaky_memo_soak_and_breaker_drill(tmp_path, monkeypatch):
    """Every request completes while 30% of disk-memo reads fail; then
    a broken tune backend opens its breaker and answers degraded."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    set_default_traffic_cache(None)  # rebuilt, disk-backed, on first use
    cfg = ServiceConfig(port=0, executor="thread", workers=2,
                        breaker_threshold=2, breaker_recovery_s=300.0)
    try:
        with faults.injected("memo.read:p=0.3:mode=oserror"), \
                BackgroundServer(cfg) as bg:
            # Soak: every request must complete despite flaky memo reads.
            for size in (16, 20, 24):
                bg.client.predict(stencil="3d7pt", grid=[size, size, 32])
                env = bg.client.tune(stencil="3d7pt",
                                     grid=[size, size, 32], tuner="ecm")
                assert env["served"] in ("fresh", "response-cache"), env
            # Breaker drill: break the tune backend, expect degraded 200.
            # (injected() swaps the whole plan; memo faults resume after.)
            tune = {"stencil": "3d7pt", "grid": [28, 28, 32]}
            with faults.injected("service.tune:every=1"):
                for _ in range(2):
                    try:
                        bg.client.request("POST", "/tune", tune, retries=0)
                    except ServiceError as err:
                        assert err.status == 500, err
                env = bg.client.request("POST", "/tune", tune, retries=0)
                assert env["served"] == "degraded" and env["degraded"], env
            metrics = bg.client.metrics()
            fired = metrics["faults"]["fired"]
            assert fired.get("service.tune", 0) >= 2, fired
            assert metrics["breakers"]["/tune"]["state"] == "open", metrics
            assert bg.client.healthz()["breakers"]["/tune"] == "open"
    finally:
        set_default_traffic_cache(None)


def test_deadline_header_smoke():
    """A generous client deadline rides along; a spent one is refused
    before the wire."""
    with BackgroundServer(ServiceConfig(port=0, executor="thread",
                                        workers=2)) as bg:
        client = ServiceClient(port=bg.port, deadline_s=30.0)
        env = client.predict(stencil="3d7pt", grid=[16, 16, 32])
        assert env["endpoint"] == "/predict", env
        spent = ServiceClient(port=bg.port, deadline_s=1e-9)
        with pytest.raises(ServiceError) as err:
            spent.predict(stencil="3d7pt", grid=[18, 18, 32])
        assert err.value.status == 504, err.value
        assert err.value.body["error"] == "client deadline exceeded"
