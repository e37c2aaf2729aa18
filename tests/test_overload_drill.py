"""The live brownout drill: sustained overload -> ladder -> recovery.

One thread-executor server with ONE worker, the full overload stack
armed (SLO engine, adaptive limits, brownout ladder), and jobs slowed
to known costs so the drill is deterministic in *shape*:

1. **Unloaded**: measure the predict goodput of two client threads.
2. **Overload**: four tune threads saturate the single worker (every
   tune holds it ~120ms), predict latency blows through the SLO's
   threshold, the burn pages, and the ladder walks down the stages.
3. **Brownout**: once the ladder reaches ``predict-analytic`` the
   predicts are served degraded off the analytic model — goodput under
   sustained ~2x overload must stay >= 70% of unloaded.  One more
   stage and the tunes are refused (503 + Retry-After) while predicts
   keep flowing: heavy work sheds first.
4. **Recovery**: load stops, the burn subsides, and the ladder walks
   all the way back to ``normal`` — no restart — with the whole
   episode ledgered on /healthz, /slo and the flight recorder.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.service.jobs as jobs
from repro.service.background import BackgroundServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.overload import BROWNOUT_STAGES

from tests.test_overload import _request_with_headers

#: Tight windows + a low burn threshold so a saturated worker pages
#: within a second or two of real time instead of an hour.  The page
#: threshold is a *bad fraction* of 5% (budget 0.05 x burn 1.0): fast
#: degraded predicts cannot dilute the slow tunes below it, so the
#: ladder holds its brownout stages for as long as the overload lasts.
DRILL_SLO = {
    "windows": {"page": [0.5, 1.0], "warn": [1.5, 3.0]},
    "burn": {"page": 1.0, "warn": 0.75},
    "objectives": [
        {"name": "availability", "type": "availability", "target": 0.999},
        {
            "name": "latency-p95",
            "type": "latency",
            "quantile": 0.95,
            "threshold_ms": 40.0,
        },
    ],
}

TUNE_SLEEP_S = 0.12     # one tune holds the single worker this long
PREDICT_SLEEP_S = 0.025  # unloaded predicts stay under the threshold


def _drill_config() -> ServiceConfig:
    return ServiceConfig(
        port=0,
        executor="thread",
        workers=1,
        queue_limit=64,
        request_timeout_s=30.0,
        slo_enabled=True,
        slo_config=json.dumps(DRILL_SLO),
        adaptive_limits=True,
        adaptive_target_ms=1000.0,
        brownout=True,
        # Escalation must hold LONGER than the widest page window (1s)
        # so shed-heavy clears the alert before a full shed fires.
        brownout_escalate_s=2.0,
        brownout_recover_s=0.7,
        flight_recorder=256,
    )


def _measure_predict_goodput(
    port: int, duration_s: float, start_index: int
) -> tuple[int, float]:
    """Fire unique predicts from two threads; count 200s per second."""
    counter = {"ok": 0}
    lock = threading.Lock()
    stop_at = time.monotonic() + duration_s

    def worker(thread_id: int) -> None:
        client = ServiceClient(port=port, retries=0, timeout_s=30.0)
        k = 0
        while time.monotonic() < stop_at:
            k += 1
            grid = [
                16 + 2 * ((start_index + k) % 40),
                16 + 4 * thread_id,
                32,
            ]
            try:
                client.predict(stencil="3d7pt", grid=grid)
            except (ServiceError, OSError):
                continue
            with lock:
                counter["ok"] += 1

    t0 = time.monotonic()
    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=duration_s + 30.0)
    elapsed = time.monotonic() - t0
    return counter["ok"], counter["ok"] / elapsed


@pytest.fixture()
def slowed_jobs(monkeypatch):
    """Pin job costs: tunes saturate, unloaded predicts stay healthy."""

    def slow_tune(payload):
        time.sleep(TUNE_SLEEP_S)
        return {"ok": True, "grid": payload.get("grid")}

    def slow_predict(payload):
        time.sleep(PREDICT_SLEEP_S)
        return {"ok": True, "grid": payload.get("grid")}

    monkeypatch.setitem(
        jobs.JOBS, "/tune", (jobs.normalize_tune, slow_tune)
    )
    monkeypatch.setitem(
        jobs.JOBS, "/predict", (jobs.normalize_predict, slow_predict)
    )


class TestBrownoutDrill:
    def test_overload_brownout_and_full_recovery(self, slowed_jobs):
        with BackgroundServer(_drill_config()) as bg:
            client = bg.client

            # -- phase 1: unloaded goodput ------------------------------
            _, rate_unloaded = _measure_predict_goodput(
                bg.port, duration_s=1.0, start_index=0
            )
            assert rate_unloaded > 0
            health = client.healthz()
            assert health["brownout"]["state"] == "normal"

            # -- phase 2: sustained overload ----------------------------
            stop_load = threading.Event()
            tune_results: list[tuple[int, dict, bytes]] = []
            tune_lock = threading.Lock()

            def tune_storm(thread_id: int) -> None:
                k = 0
                while not stop_load.is_set():
                    k += 1
                    payload = {
                        "stencil": "3d7pt",
                        "grid": [8 + thread_id, 16 + (k % 50), 32],
                    }
                    try:
                        status, raw, headers = _request_with_headers(
                            "127.0.0.1", bg.port, "POST", "/tune",
                            payload, {},
                        )
                    except OSError:
                        continue
                    with tune_lock:
                        tune_results.append((status, headers, raw))

            storm = [
                threading.Thread(target=tune_storm, args=(i,))
                for i in range(4)
            ]
            for t in storm:
                t.start()

            try:
                # The burn pages and the ladder walks to the analytic
                # stage; /healthz polls also advance the ladder.
                analytic = BROWNOUT_STAGES.index("predict-analytic")
                max_stage = 0
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    stage = client.healthz()["brownout"]["stage"]
                    max_stage = max(max_stage, stage)
                    if max_stage >= analytic:
                        break
                    time.sleep(0.05)
                assert max_stage >= analytic, (
                    "ladder never reached predict-analytic under "
                    "sustained overload"
                )

                # -- phase 3: goodput while browned out ---------------
                ok, rate_loaded = _measure_predict_goodput(
                    bg.port, duration_s=2.0, start_index=1000
                )
                assert ok > 0
                assert rate_loaded >= 0.7 * rate_unloaded, (
                    f"predict goodput collapsed under overload: "
                    f"{rate_loaded:.1f}/s loaded vs "
                    f"{rate_unloaded:.1f}/s unloaded"
                )

                # Heavy work sheds first: wait for a browned-out tune.
                deadline = time.monotonic() + 30.0
                shed_tune = None
                while shed_tune is None and time.monotonic() < deadline:
                    with tune_lock:
                        for status, headers, raw in tune_results:
                            if status == 503:
                                body = json.loads(raw)
                                if body.get("error") == "brownout":
                                    shed_tune = (status, headers, body)
                                    break
                    time.sleep(0.05)
                assert shed_tune is not None, (
                    "tunes were never shed while predicts kept flowing"
                )
                _, headers, body = shed_tune
                assert body["endpoint"] == "/tune"
                assert body["stage"] in ("shed-heavy", "full-shed")
                assert "retry-after" in headers

                # Predicts served during the brownout carry the marker.
                envelope = client.predict(
                    stencil="3d7pt", grid=[62, 62, 94]
                )
                if "brownout" in envelope:
                    assert envelope["degraded"] is True
            finally:
                stop_load.set()
                for t in storm:
                    t.join(timeout=30.0)

            # -- phase 4: full recovery, no restart -------------------
            deadline = time.monotonic() + 30.0
            state = None
            while time.monotonic() < deadline:
                state = client.healthz()["brownout"]["state"]
                if state == "normal":
                    break
                time.sleep(0.1)
            assert state == "normal", f"ladder stuck at {state}"

            # The whole episode is ledgered on every surface.
            health = client.healthz()
            transitions = health["brownout"]["transitions"]
            directions = [t["direction"] for t in transitions]
            # Reached shed-heavy (one escalation per stage).
            shed_heavy = BROWNOUT_STAGES.index("shed-heavy")
            assert directions.count("escalate") >= shed_heavy
            assert directions.count("recover") == directions.count(
                "escalate"
            )
            assert transitions[-1]["direction"] == "recover"
            assert transitions[-1]["to"] == "normal"
            assert transitions[0]["alerts"]  # driven by named alerts

            slo_doc = client.slo()
            assert slo_doc["brownout"]["state"] == "normal"
            assert slo_doc["brownout"]["escalations"] >= shed_heavy
            assert (
                slo_doc["brownout"]["escalations"]
                == slo_doc["brownout"]["recoveries"]
            )

            # The flight recorder holds the (recent) transitions too.
            # Older ones may have been evicted by the drill's request
            # volume, but the final recoveries are the freshest entries.
            recorder = client.debug_requests(n=256, endpoint="@brownout")
            ledgered = recorder["requests"]
            assert ledgered, "no @brownout entries in the flight recorder"
            for entry in ledgered:
                assert entry["outcome"] in ("escalate", "recover")
                assert "stage_from" in entry and "stage_to" in entry
                assert "alerts" in entry
            # ``tail`` returns newest first: the final step to normal.
            assert ledgered[0]["outcome"] == "recover"
            assert ledgered[0]["stage_to"] == "normal"

            # And the service is genuinely whole again: a fresh predict
            # is served exact, not degraded.
            envelope = client.predict(stencil="3d7pt", grid=[70, 70, 96])
            assert "degraded" not in envelope
            assert "brownout" not in envelope
            assert envelope["served"] == "fresh"
