"""Drills against a live ``python -m repro serve`` subprocess.

Each drill starts the shipped command line in its own session, drives
it over HTTP and SIGTERMs it.  ``pytest -m drill`` runs exactly these
(CI's serve smokes call it); they also run with tier-1.
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
