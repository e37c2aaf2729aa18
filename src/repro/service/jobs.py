"""Service job adapters over the shared :mod:`repro.engine` layer.

Each endpoint has a *normalizer* (a thin wrapper over the engine's
request dataclasses: ``Request.from_payload(...).to_payload()`` fills
defaults, validates, and returns the canonical dict — two requests
meaning the same thing normalize identically, which is what request
coalescing and the response cache key on) and a *job* (a pure
top-level function taking the normalized payload and returning a
JSON-ready dict, picklable so it runs unchanged on a thread or process
pool).  The server itself parses request bodies with
:func:`repro.engine.parse_request`, which applies the same
normalization once per distinct body and yields the
:func:`~repro.engine.request_key` identity (re-exported here).

Jobs report the traffic-memoization ledger of their own run under a
``"traffic_cache"`` key, so the server can aggregate per-tier hit
rates even when the memo lives in worker processes.  The ledger comes
from the engine result objects, which count their own lookups — never
from diffing the process-global cache counters, which would
cross-count concurrent jobs.

:func:`run_traced_job` wraps any job with an :mod:`repro.obs` trace
and returns ``{"result", "trace"}``; it runs *inside* the worker (a
span tree cannot cross a process boundary), and the server unwraps the
envelope so cached responses stay byte-identical to untraced ones.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro import faults, obs
from repro.engine import (
    PredictRequest,
    RankRequest,
    RequestError,
    TuneRequest,
    default_engine,
    request_key,
)
from repro.service.serializers import (
    predict_result_to_dict,
    rank_result_to_dict,
    tune_result_to_dict,
)

__all__ = [
    "JobError",
    "JOBS",
    "DEGRADED_JOBS",
    "request_key",
    "normalize_predict",
    "normalize_tune",
    "normalize_rank",
    "predict_job",
    "tune_job",
    "rank_job",
    "degraded_predict_job",
    "degraded_tune_job",
    "degraded_rank_job",
    "is_degraded",
    "run_traced_job",
]

#: Invalid request payload (maps to HTTP 400).  Alias of the engine's
#: error type so ``except JobError`` keeps working for callers that
#: predate the engine layer.
JobError = RequestError


def normalize_predict(payload: dict) -> dict:
    """Canonical form of a ``/predict`` request."""
    return PredictRequest.from_payload(payload).to_payload()


def normalize_tune(payload: dict) -> dict:
    """Canonical form of a ``/tune`` request."""
    return TuneRequest.from_payload(payload).to_payload()


def normalize_rank(payload: dict) -> dict:
    """Canonical form of a ``/rank`` request."""
    return RankRequest.from_payload(payload).to_payload()


def is_degraded(result: dict) -> bool:
    """Whether a job result came from partial work (a partial search
    after exhausted retries, skipped jobs, a failed validation run):
    served to the callers that shared the run, but never cached or
    published as a terminal result."""
    recovery = result.get("recovery")
    return bool(result.get("degraded")) or (
        isinstance(recovery, dict) and bool(recovery.get("degraded"))
    )


# ----------------------------------------------------------------------
# Job bodies (run on the worker pool; must stay picklable top-levels)
# ----------------------------------------------------------------------
def predict_job(payload: dict) -> dict:
    """Analytic ECM prediction (no simulation, no traffic)."""
    faults.check("service.predict")
    result = default_engine().predict(PredictRequest.from_payload(payload))
    return predict_result_to_dict(result)


def tune_job(payload: dict) -> dict:
    """Run a tuner; the pool provides the parallelism (inner workers=1).

    When the executing shard injected fabric keys (``job_dir`` /
    ``job_key`` — execution-only, added server-side *after* the cache
    identity is computed, so a remote client can never plant them
    through normalization), the job runs through the distributable
    ledger path instead: enqueue + lease + checkpointed execution +
    published result.
    """
    faults.check("service.tune")
    if "job_dir" in payload:
        return _fabric_tune_job(payload)
    result = default_engine().tune(TuneRequest.from_payload(payload))
    return tune_result_to_dict(result)


#: Execution-only keys the shard server injects into a fabric tune
#: payload; they never enter the job record's stored identity payload.
_FABRIC_EXEC_KEYS = ("job_dir", "job_key", "lease_ttl_s", "deadline",
                     "predictor")


def _fabric_tune_job(payload: dict) -> dict:
    """One ``/tune`` as a content-addressed, resumable, stealable unit.

    Lifecycle (see :mod:`repro.autotune.jobs`): a published result for
    the key is returned as-is (bit-identical by construction — another
    shard finished or adopted the job); otherwise the job is enqueued,
    the lease claimed (stolen from a dead owner if need be), and the
    tuner runs with its checkpoint parked next to the job record so a
    later adopter resumes instead of recomputing.  While a *live* peer
    holds the lease, this executor polls for the published result
    rather than duplicating the run.  Degraded results (partial
    searches) are returned to the caller but never published: a
    published entry is terminal and must be the clean answer.
    """
    from repro.autotune.jobs import JobLedger

    work = dict(payload)
    job_dir = work.pop("job_dir")
    job_key = work.pop("job_key")
    lease_ttl_s = float(work.pop("lease_ttl_s", 60.0))
    ledger = JobLedger(job_dir)
    done = ledger.result(job_key)
    if done is not None:
        return done
    record_payload = {
        k: v for k, v in work.items() if k not in _FABRIC_EXEC_KEYS
    }
    ledger.enqueue(job_key, "/tune", record_payload)
    owner = f"shard-pid-{os.getpid()}"
    deadline = work.get("deadline")
    while not ledger.claim(job_key, owner, ttl_s=lease_ttl_s):
        done = ledger.result(job_key)
        if done is not None:
            return done
        if deadline is not None and time.time() >= deadline:
            raise TimeoutError(
                f"tune job {job_key[:12]} leased elsewhere past deadline"
            )
        time.sleep(0.05)
    faults.check("fabric.shard.tune")
    request = TuneRequest.from_payload(work)
    request = dataclasses.replace(
        request, checkpoint=str(ledger.checkpoint_path(job_key))
    )
    result = tune_result_to_dict(default_engine().tune(request))
    if is_degraded(result):
        return result  # serve it, but never publish a degraded terminal
    ledger.complete(job_key, owner, result)
    return result


def rank_job(payload: dict) -> dict:
    """Offsite variant ranking for one (method, grid, machine)."""
    faults.check("service.rank")
    result = default_engine().rank(RankRequest.from_payload(payload))
    return rank_result_to_dict(result)


#: endpoint path → (normalizer, job body)
JOBS = {
    "/predict": (normalize_predict, predict_job),
    "/tune": (normalize_tune, tune_job),
    "/rank": (normalize_rank, rank_job),
}


# ----------------------------------------------------------------------
# Degraded fallbacks (breaker open: analytic answers, no fault points,
# run on the loop's thread executor — never on the suspect pool)
# ----------------------------------------------------------------------
def degraded_predict_job(payload: dict) -> dict:
    """Prediction is already analytic; rerun it off the broken pool."""
    result = default_engine().predict(PredictRequest.from_payload(payload))
    return predict_result_to_dict(result)


def degraded_tune_job(payload: dict) -> dict:
    """ECM-guided analytic tune (no variant runs), marked degraded."""
    result = default_engine().tune_analytic(TuneRequest.from_payload(payload))
    return tune_result_to_dict(result)


def degraded_rank_job(payload: dict) -> dict:
    """Prediction-only ranking: validation runs are dropped."""
    request = RankRequest.from_payload(payload)
    if request.validate:
        request = dataclasses.replace(request, validate=False)
    result = default_engine().rank(request)
    return rank_result_to_dict(result)


#: endpoint path → breaker-open fallback body
DEGRADED_JOBS = {
    "/predict": degraded_predict_job,
    "/tune": degraded_tune_job,
    "/rank": degraded_rank_job,
}


def run_traced_job(endpoint: str, payload: dict) -> dict:
    """Run ``endpoint``'s job under a trace; return result + span tree.

    Top-level and driven by ``functools.partial(run_traced_job,
    endpoint)`` so the wrapped job stays picklable for process pools.
    The trace is recorded in the executing process — worker-side spans
    cannot be stitched into a server-side trace across the pickle
    boundary, so the whole request body is traced where it runs.
    """
    _, job = JOBS[endpoint]
    trace = obs.start_trace(f"request:{endpoint}")
    try:
        result = job(payload)
    finally:
        root = trace.finish()
    return {"result": result, "trace": root.to_dict()}
