"""repro.engine — the shared request lifecycle for predict/tune/rank.

The CLI (``python -m repro predict/tune/rank``), the HTTP service
(:mod:`repro.service`) and the experiment drivers are thin adapters
over this layer:

* :mod:`repro.engine.requests` — typed, validated request dataclasses
  (:class:`PredictRequest`, :class:`TuneRequest`, :class:`RankRequest`)
  with the single ``from_payload``/``to_payload`` normalization path.
* :mod:`repro.engine.results` — typed results that round-trip through
  the canonical serializers (:mod:`repro.service.serializers`).
* :mod:`repro.engine.core` — the :class:`Engine`, caching
  :class:`YaskSite` construction per ``(machine, cache_scale,
  capacity_factor)`` and tracing every stage via :mod:`repro.obs`.
"""

from repro.engine.core import Engine, default_engine, set_default_engine
from repro.engine.requests import (
    ParsedRequest,
    PredictRequest,
    RankRequest,
    RequestError,
    TuneRequest,
    parse_request,
    request_key,
    shard_key,
)
from repro.engine.results import (
    CacheLedger,
    PlanResult,
    PredictResult,
    RankResult,
    RecoveryLedger,
    TuneResult,
    VariantTimingResult,
)

__all__ = [
    "Engine",
    "default_engine",
    "set_default_engine",
    "RequestError",
    "PredictRequest",
    "TuneRequest",
    "RankRequest",
    "ParsedRequest",
    "parse_request",
    "request_key",
    "shard_key",
    "PlanResult",
    "CacheLedger",
    "RecoveryLedger",
    "PredictResult",
    "TuneResult",
    "VariantTimingResult",
    "RankResult",
]
