"""``repro.service`` — the async tuning/prediction server.

A stdlib-only HTTP JSON service in front of the ECM/cache-simulation
pipeline: ``/predict`` (single-core ECM prediction), ``/tune`` (tuner
run + ledger), ``/rank`` (Offsite variant ranking), ``/healthz`` and
``/metrics``.  Internally it layers request coalescing and
cost-classed admission (cheap jobs on threads of the server process,
expensive ones on a pool) behind tiered caches (response LRU → traffic
memo → tuning database), with per-request timeouts and graceful
drain.  Start one with ``python -m repro serve``.
"""

from repro.service.background import BackgroundServer
from repro.service.batching import CoalescingDispatcher, Overloaded
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.jobs import JOBS, JobError, request_key
from repro.service.metrics import ServiceMetrics
from repro.service.server import ReproService, serve

__all__ = [
    "BackgroundServer",
    "CoalescingDispatcher",
    "Overloaded",
    "ServiceClient",
    "ServiceError",
    "ServiceConfig",
    "JOBS",
    "JobError",
    "request_key",
    "ServiceMetrics",
    "ReproService",
    "serve",
]
