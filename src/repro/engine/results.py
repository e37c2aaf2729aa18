"""Typed results: what the engine returns for each request type.

These are flat, JSON-shaped dataclasses — every field survives a
serialize→deserialize round trip through the canonical serializers in
:mod:`repro.service.serializers` unchanged (the property tests assert
exactly that).  Builders (``from_*``) lift the library-level result
objects (:class:`EcmPrediction`, :class:`TunerResult`,
:class:`RankingReport`) into this form once, at the engine boundary;
the CLI and the service only ever see the typed results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autotune.search import TunerResult
from repro.codegen.plan import KernelPlan
from repro.ecm.model import EcmPrediction
from repro.offsite.tuner import RankingReport

__all__ = [
    "PlanResult",
    "CacheLedger",
    "RecoveryLedger",
    "PredictResult",
    "TuneResult",
    "VariantTimingResult",
    "RankResult",
]


@dataclass(frozen=True)
class PlanResult:
    """Kernel plan in result form: a
    :class:`~repro.codegen.plan.KernelPlan`'s fields and its label."""

    block: tuple[int, ...]
    loop_order: tuple[int, ...] | None
    threads: int
    wavefront: int
    label: str

    @classmethod
    def from_plan(cls, plan: KernelPlan) -> "PlanResult":
        return cls(
            block=tuple(plan.block),
            loop_order=tuple(plan.loop_order) if plan.loop_order else None,
            threads=plan.threads,
            wavefront=plan.wavefront,
            label=plan.describe(),
        )


@dataclass(frozen=True)
class CacheLedger:
    """Hit/miss counters of one cache (traffic-memo ledger).

    The predictor breakdown says which path produced the reports behind
    the misses: ``lc_served`` analytically via the layer-condition fast
    path, ``sim_served`` by cache replay, ``lc_validation_mismatch``
    cross-checks where LC diverged and the replay was served instead.
    All default to 0 so ledgers from paths without predictor dispatch
    (e.g. rank's composite-stream measurements) stay valid.

    ``memory_hits``/``memory_misses``/``disk_hits``/``disk_misses``
    split the overall lookups by which store tier served them (the
    traffic memo is a memory LRU over an optional disk tier); all zero
    when the producing path predates the split or has no disk tier
    configured.
    """

    hits: int
    misses: int
    lc_served: int = 0
    sim_served: int = 0
    lc_validation_mismatch: int = 0
    memory_hits: int = 0
    memory_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0


@dataclass(frozen=True)
class RecoveryLedger:
    """Fault-recovery accounting of one tuning run.

    ``degraded`` means the result was produced from partial work (some
    variant evaluations failed after retries or were skipped on
    deadline); the remaining fields say exactly what was retried, lost,
    restored from a checkpoint, or rescued by the in-process fallback.
    A clean run is the all-defaults instance.
    """

    degraded: bool = False
    retried_jobs: int = 0
    failed_jobs: tuple[str, ...] = ()
    skipped_jobs: tuple[str, ...] = ()
    pool_restarts: int = 0
    resumed_jobs: int = 0
    in_process_fallback: bool = False

    @property
    def clean(self) -> bool:
        """Whether no recovery action was taken at all."""
        return self == RecoveryLedger()


@dataclass(frozen=True)
class PredictResult:
    """Analytic ECM prediction for one configuration."""

    stencil: str
    machine: str
    plan: PlanResult
    ecm_notation: str
    t_ol_cycles: float
    t_nol_cycles: float
    t_data_cycles: tuple[float, ...]
    t_ecm_cycles: float
    regimes: tuple[str, ...]
    cycles_per_lup: float
    mlups: float
    mem_bytes_per_lup: float
    freq_ghz: float
    grid: tuple[int, ...]

    @classmethod
    def from_prediction(
        cls,
        pred: EcmPrediction,
        plan: KernelPlan,
        grid: tuple[int, ...],
    ) -> "PredictResult":
        return cls(
            stencil=pred.spec_name,
            machine=pred.machine_name,
            plan=PlanResult.from_plan(plan),
            ecm_notation=pred.notation(),
            t_ol_cycles=pred.t_ol,
            t_nol_cycles=pred.t_nol,
            t_data_cycles=tuple(pred.t_data),
            t_ecm_cycles=pred.t_ecm,
            regimes=tuple(pred.traffic.regimes),
            cycles_per_lup=pred.cycles_per_lup,
            mlups=pred.mlups,
            mem_bytes_per_lup=pred.memory_bytes_per_lup(),
            freq_ghz=pred.freq_ghz,
            grid=tuple(grid),
        )


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one tuning run, with its cost ledger."""

    tuner: str
    best_plan: PlanResult
    best_mlups: float
    variants_examined: int
    variants_run: int
    simulated_run_seconds: float
    workers: int
    traffic_cache: CacheLedger
    stencil: str
    machine: str
    grid: tuple[int, ...]
    recovery: RecoveryLedger = RecoveryLedger()

    @classmethod
    def from_tuner_result(
        cls,
        res: TunerResult,
        stencil: str,
        machine: str,
        grid: tuple[int, ...],
    ) -> "TuneResult":
        return cls(
            tuner=res.tuner,
            best_plan=PlanResult.from_plan(res.best_plan),
            best_mlups=res.best_mlups,
            variants_examined=res.variants_examined,
            variants_run=res.variants_run,
            simulated_run_seconds=res.simulated_run_seconds,
            workers=res.workers,
            traffic_cache=CacheLedger(
                res.traffic_cache_hits, res.traffic_cache_misses,
                lc_served=res.lc_served,
                sim_served=res.sim_served,
                lc_validation_mismatch=res.lc_validation_mismatch,
                memory_hits=res.traffic_mem_hits,
                memory_misses=res.traffic_mem_misses,
                disk_hits=res.traffic_disk_hits,
                disk_misses=res.traffic_disk_misses,
            ),
            stencil=stencil,
            machine=machine,
            grid=tuple(grid),
            recovery=RecoveryLedger(
                degraded=res.degraded,
                retried_jobs=res.retried_jobs,
                failed_jobs=tuple(res.failed_jobs),
                skipped_jobs=tuple(res.skipped_jobs),
                pool_restarts=res.pool_restarts,
                resumed_jobs=res.resumed_jobs,
                in_process_fallback=res.in_process_fallback,
            ),
        )


@dataclass(frozen=True)
class VariantTimingResult:
    """Predicted (and optionally measured) step time of one variant."""

    variant: str
    predicted_s: float
    measured_s: float | None
    error_pct: float | None
    sweeps_per_step: int
    mem_bytes_per_lup: float


@dataclass(frozen=True)
class RankResult:
    """Offsite variant-ranking outcome (experiment F5 rows)."""

    method: str
    ivp: str
    machine: str
    timings: tuple[VariantTimingResult, ...]
    ranking: tuple[str, ...]
    best_variant: str
    best_predicted_s: float
    kendall_tau: float | None
    top1_hit: bool | None
    predict_seconds: float
    measure_seconds: float
    traffic_cache: CacheLedger
    grid: tuple[int, ...]

    @classmethod
    def from_report(
        cls, report: RankingReport, grid: tuple[int, ...]
    ) -> "RankResult":
        ranking = tuple(
            t.variant
            for t in sorted(report.timings, key=lambda t: t.predicted_s)
        )
        best = report.best_predicted()
        return cls(
            method=report.method,
            ivp=report.ivp,
            machine=report.machine,
            timings=tuple(
                VariantTimingResult(
                    variant=t.variant,
                    predicted_s=t.predicted_s,
                    measured_s=t.measured_s,
                    error_pct=t.error_pct,
                    sweeps_per_step=t.sweeps_per_step,
                    mem_bytes_per_lup=t.mem_bytes_per_lup,
                )
                for t in report.timings
            ),
            ranking=ranking,
            best_variant=best.variant,
            best_predicted_s=best.predicted_s,
            kendall_tau=report.kendall_tau,
            top1_hit=report.top1_hit,
            predict_seconds=report.predict_seconds,
            measure_seconds=report.measure_seconds,
            traffic_cache=CacheLedger(
                report.traffic_cache_hits, report.traffic_cache_misses,
                memory_hits=report.traffic_mem_hits,
                memory_misses=report.traffic_mem_misses,
                disk_hits=report.traffic_disk_hits,
                disk_misses=report.traffic_disk_misses,
            ),
            grid=tuple(grid),
        )
