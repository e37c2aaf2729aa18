"""JSON serializers shared by the CLI (``--json``) and the service.

Every serializer maps one result object onto plain built-in types, so
``json.dumps`` works on the output and a service response is
byte-identical to what a direct library call would serialize to —
the soak test asserts exactly that.

The ``*_result_*`` functions are the canonical serializers for the
:mod:`repro.engine` result dataclasses (with ``*_result_from_dict``
inverses; the round-trip tests assert ``from_dict(to_dict(x)) == x``).
"""

from __future__ import annotations

from repro.engine.results import (
    CacheLedger,
    PlanResult,
    PredictResult,
    RankResult,
    RecoveryLedger,
    TuneResult,
    VariantTimingResult,
)
from repro.offsite.database import TuningRecord

__all__ = [
    "tuning_record_to_dict",
    "plan_result_to_dict",
    "plan_result_from_dict",
    "recovery_ledger_to_dict",
    "recovery_ledger_from_dict",
    "predict_result_to_dict",
    "predict_result_from_dict",
    "tune_result_to_dict",
    "tune_result_from_dict",
    "rank_result_to_dict",
    "rank_result_from_dict",
]


# ----------------------------------------------------------------------
# Canonical serializers for the repro.engine result dataclasses.
# Key orders are part of the wire format: json.dumps preserves
# insertion order, and the service's recorded responses and the soak
# test depend on the exact bytes.
# ----------------------------------------------------------------------
def plan_result_to_dict(plan: PlanResult) -> dict:
    """JSON form of an engine :class:`PlanResult`."""
    return {
        "block": list(plan.block),
        "loop_order": list(plan.loop_order) if plan.loop_order else None,
        "threads": plan.threads,
        "wavefront": plan.wavefront,
        "label": plan.label,
    }


def plan_result_from_dict(data: dict) -> PlanResult:
    """Inverse of :func:`plan_result_to_dict`."""
    return PlanResult(
        block=tuple(data["block"]),
        loop_order=tuple(data["loop_order"]) if data["loop_order"] else None,
        threads=data["threads"],
        wavefront=data["wavefront"],
        label=data["label"],
    )


def predict_result_to_dict(res: PredictResult) -> dict:
    """JSON form of an engine :class:`PredictResult`."""
    return {
        "stencil": res.stencil,
        "machine": res.machine,
        "plan": plan_result_to_dict(res.plan),
        "ecm_notation": res.ecm_notation,
        "t_ol_cycles": res.t_ol_cycles,
        "t_nol_cycles": res.t_nol_cycles,
        "t_data_cycles": list(res.t_data_cycles),
        "t_ecm_cycles": res.t_ecm_cycles,
        "regimes": list(res.regimes),
        "cycles_per_lup": res.cycles_per_lup,
        "mlups": res.mlups,
        "mem_bytes_per_lup": res.mem_bytes_per_lup,
        "freq_ghz": res.freq_ghz,
        "grid": list(res.grid),
    }


def predict_result_from_dict(data: dict) -> PredictResult:
    """Inverse of :func:`predict_result_to_dict`."""
    return PredictResult(
        stencil=data["stencil"],
        machine=data["machine"],
        plan=plan_result_from_dict(data["plan"]),
        ecm_notation=data["ecm_notation"],
        t_ol_cycles=data["t_ol_cycles"],
        t_nol_cycles=data["t_nol_cycles"],
        t_data_cycles=tuple(data["t_data_cycles"]),
        t_ecm_cycles=data["t_ecm_cycles"],
        regimes=tuple(data["regimes"]),
        cycles_per_lup=data["cycles_per_lup"],
        mlups=data["mlups"],
        mem_bytes_per_lup=data["mem_bytes_per_lup"],
        freq_ghz=data["freq_ghz"],
        grid=tuple(data["grid"]),
    )


def tune_result_to_dict(res: TuneResult) -> dict:
    """JSON form of an engine :class:`TuneResult`."""
    return {
        "tuner": res.tuner,
        "best_plan": plan_result_to_dict(res.best_plan),
        "best_mlups": res.best_mlups,
        "variants_examined": res.variants_examined,
        "variants_run": res.variants_run,
        "simulated_run_seconds": res.simulated_run_seconds,
        "workers": res.workers,
        "traffic_cache": {
            "hits": res.traffic_cache.hits,
            "misses": res.traffic_cache.misses,
            "lc_served": res.traffic_cache.lc_served,
            "sim_served": res.traffic_cache.sim_served,
            "lc_validation_mismatch": res.traffic_cache.lc_validation_mismatch,
            "memory_hits": res.traffic_cache.memory_hits,
            "memory_misses": res.traffic_cache.memory_misses,
            "disk_hits": res.traffic_cache.disk_hits,
            "disk_misses": res.traffic_cache.disk_misses,
        },
        "stencil": res.stencil,
        "machine": res.machine,
        "grid": list(res.grid),
        "recovery": recovery_ledger_to_dict(res.recovery),
    }


def recovery_ledger_to_dict(ledger: RecoveryLedger) -> dict:
    """JSON form of a tuning run's fault-recovery accounting."""
    return {
        "degraded": ledger.degraded,
        "retried_jobs": ledger.retried_jobs,
        "failed_jobs": list(ledger.failed_jobs),
        "skipped_jobs": list(ledger.skipped_jobs),
        "pool_restarts": ledger.pool_restarts,
        "resumed_jobs": ledger.resumed_jobs,
        "in_process_fallback": ledger.in_process_fallback,
    }


def recovery_ledger_from_dict(data: dict | None) -> RecoveryLedger:
    """Inverse of :func:`recovery_ledger_to_dict` (None → clean run)."""
    if not data:
        return RecoveryLedger()
    return RecoveryLedger(
        degraded=data.get("degraded", False),
        retried_jobs=data.get("retried_jobs", 0),
        failed_jobs=tuple(data.get("failed_jobs", ())),
        skipped_jobs=tuple(data.get("skipped_jobs", ())),
        pool_restarts=data.get("pool_restarts", 0),
        resumed_jobs=data.get("resumed_jobs", 0),
        in_process_fallback=data.get("in_process_fallback", False),
    )


def tune_result_from_dict(data: dict) -> TuneResult:
    """Inverse of :func:`tune_result_to_dict`.

    Tolerates responses recorded before the recovery ledger existed
    (a missing ``recovery`` key means a clean run) and before the
    predictor breakdown existed (missing counters mean 0).
    """
    cache = data["traffic_cache"]
    return TuneResult(
        tuner=data["tuner"],
        best_plan=plan_result_from_dict(data["best_plan"]),
        best_mlups=data["best_mlups"],
        variants_examined=data["variants_examined"],
        variants_run=data["variants_run"],
        simulated_run_seconds=data["simulated_run_seconds"],
        workers=data["workers"],
        traffic_cache=CacheLedger(
            hits=cache["hits"],
            misses=cache["misses"],
            lc_served=cache.get("lc_served", 0),
            sim_served=cache.get("sim_served", 0),
            lc_validation_mismatch=cache.get("lc_validation_mismatch", 0),
            memory_hits=cache.get("memory_hits", 0),
            memory_misses=cache.get("memory_misses", 0),
            disk_hits=cache.get("disk_hits", 0),
            disk_misses=cache.get("disk_misses", 0),
        ),
        stencil=data["stencil"],
        machine=data["machine"],
        grid=tuple(data["grid"]),
        recovery=recovery_ledger_from_dict(data.get("recovery")),
    )


def rank_result_to_dict(res: RankResult) -> dict:
    """JSON form of an engine :class:`RankResult`."""
    return {
        "method": res.method,
        "ivp": res.ivp,
        "machine": res.machine,
        "timings": [
            {
                "variant": t.variant,
                "predicted_s": t.predicted_s,
                "measured_s": t.measured_s,
                "error_pct": t.error_pct,
                "sweeps_per_step": t.sweeps_per_step,
                "mem_bytes_per_lup": t.mem_bytes_per_lup,
            }
            for t in res.timings
        ],
        "ranking": list(res.ranking),
        "best_predicted": {
            "variant": res.best_variant,
            "predicted_s": res.best_predicted_s,
        },
        "kendall_tau": res.kendall_tau,
        "top1_hit": res.top1_hit,
        "predict_seconds": res.predict_seconds,
        "measure_seconds": res.measure_seconds,
        "traffic_cache": {
            "hits": res.traffic_cache.hits,
            "misses": res.traffic_cache.misses,
            "memory_hits": res.traffic_cache.memory_hits,
            "memory_misses": res.traffic_cache.memory_misses,
            "disk_hits": res.traffic_cache.disk_hits,
            "disk_misses": res.traffic_cache.disk_misses,
        },
        "grid": list(res.grid),
    }


def rank_result_from_dict(data: dict) -> RankResult:
    """Inverse of :func:`rank_result_to_dict`."""
    return RankResult(
        method=data["method"],
        ivp=data["ivp"],
        machine=data["machine"],
        timings=tuple(
            VariantTimingResult(
                variant=t["variant"],
                predicted_s=t["predicted_s"],
                measured_s=t["measured_s"],
                error_pct=t["error_pct"],
                sweeps_per_step=t["sweeps_per_step"],
                mem_bytes_per_lup=t["mem_bytes_per_lup"],
            )
            for t in data["timings"]
        ),
        ranking=tuple(data["ranking"]),
        best_variant=data["best_predicted"]["variant"],
        best_predicted_s=data["best_predicted"]["predicted_s"],
        kendall_tau=data["kendall_tau"],
        top1_hit=data["top1_hit"],
        predict_seconds=data["predict_seconds"],
        measure_seconds=data["measure_seconds"],
        traffic_cache=CacheLedger(
            hits=data["traffic_cache"]["hits"],
            misses=data["traffic_cache"]["misses"],
            memory_hits=data["traffic_cache"].get("memory_hits", 0),
            memory_misses=data["traffic_cache"].get("memory_misses", 0),
            disk_hits=data["traffic_cache"].get("disk_hits", 0),
            disk_misses=data["traffic_cache"].get("disk_misses", 0),
        ),
        grid=tuple(data["grid"]),
    )


def tuning_record_to_dict(record: TuningRecord) -> dict:
    """JSON form of a stored tuning record (database-tier responses)."""
    return {
        "method": record.key.method,
        "ivp": record.key.ivp,
        "machine": record.key.machine,
        "grid": list(record.key.grid),
        "best_variant": record.best_variant,
        "block": list(record.block),
        "predicted_s_per_step": record.predicted_s_per_step,
        "ranking": list(record.ranking),
        "served_from": "database",
    }
