"""Typed requests: the single normalization/validation path.

Every front end (CLI flags, service JSON payloads, experiment drivers)
funnels through ``*Request.from_payload``, which fills defaults,
validates types and values, and produces a frozen dataclass.
``to_payload()`` emits the canonical dict form — two requests meaning
the same thing produce identical payloads, which is what the service's
request coalescing, response cache and database tier key on.

The canonical payload shapes are byte-compatible with the historical
``repro.service.jobs`` normalizers, so persisted tuning databases and
recorded service responses stay valid across the refactor.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.autotune.search import TUNERS
from repro.cachesim.dispatch import PREDICTORS
from repro.machine.presets import PRESETS
from repro.offsite.tuner import TABLEAU_FAMILIES
from repro.stencil.library import STENCIL_SUITE

__all__ = [
    "RequestError",
    "PredictRequest",
    "TuneRequest",
    "RankRequest",
    "ParsedRequest",
    "parse_request",
    "request_key",
    "shard_key",
]


class RequestError(ValueError):
    """Invalid request payload (the service maps this to HTTP 400)."""


# ----------------------------------------------------------------------
# Field validators (shared by all request types)
# ----------------------------------------------------------------------
def _require_grid(payload: dict, default: list[int]) -> tuple[int, ...]:
    grid = payload.get("grid", default)
    if (
        not isinstance(grid, (list, tuple))
        or not grid
        or not all(isinstance(g, int) and g > 0 for g in grid)
    ):
        raise RequestError(
            f"bad grid {grid!r}; expected a list of positive ints"
        )
    return tuple(int(g) for g in grid)


def _require_machine(payload: dict) -> str:
    machine = payload.get("machine", "clx")
    if not isinstance(machine, str) or machine.lower() not in PRESETS:
        raise RequestError(
            f"unknown machine {machine!r}; choose from {sorted(PRESETS)}"
        )
    return machine.lower()


def _require_stencil(payload: dict) -> str:
    stencil = payload.get("stencil")
    if stencil not in STENCIL_SUITE:
        raise RequestError(
            f"unknown stencil {stencil!r}; choose from {sorted(STENCIL_SUITE)}"
        )
    return stencil


def _optional_scale(payload: dict, key: str, default: float | None):
    value = payload.get(key, default)
    if value is None:
        return None
    if not isinstance(value, (int, float)) or value <= 0:
        raise RequestError(f"{key} must be a positive number, got {value!r}")
    return float(value)


def _optional_block(
    payload: dict, grid: tuple[int, ...], allow_auto: bool = False
):
    block = payload.get("block")
    if block is None:
        return None
    if allow_auto and block == "auto":
        return "auto"
    if (
        not isinstance(block, (list, tuple))
        or len(block) != len(grid)
        or not all(isinstance(b, int) and b > 0 for b in block)
    ):
        expected = (
            "'auto', null or e.g. [8, 8, 32]" if allow_auto
            else "e.g. [8, 8, 64]"
        )
        raise RequestError(f"bad block {block!r}; expected {expected}")
    return tuple(int(b) for b in block)


def _require_seed(payload: dict) -> int:
    seed = payload.get("seed", 0)
    if not isinstance(seed, int):
        raise RequestError(f"seed must be an int, got {seed!r}")
    return seed


# ----------------------------------------------------------------------
# Request types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PredictRequest:
    """One analytic ECM prediction (no simulation, no measurements)."""

    stencil: str
    grid: tuple[int, ...] = (48, 48, 64)
    machine: str = "clx"
    block: tuple[int, ...] | None = None
    cache_scale: float | None = None
    capacity_factor: float = 1.0

    @classmethod
    def from_payload(cls, payload: dict) -> "PredictRequest":
        """Validate and canonicalize a raw payload dict."""
        grid = _require_grid(payload, [48, 48, 64])
        return cls(
            stencil=_require_stencil(payload),
            grid=grid,
            machine=_require_machine(payload),
            block=_optional_block(payload, grid),
            cache_scale=_optional_scale(payload, "cache_scale", None),
            capacity_factor=_optional_scale(payload, "capacity_factor", 1.0),
        )

    def to_payload(self) -> dict:
        """The canonical dict form (service normalization output)."""
        return {
            "stencil": self.stencil,
            "grid": list(self.grid),
            "machine": self.machine,
            "block": list(self.block) if self.block is not None else None,
            "cache_scale": self.cache_scale,
            "capacity_factor": self.capacity_factor,
        }


@dataclass(frozen=True)
class TuneRequest:
    """One tuner run (ecm / exhaustive / greedy).

    ``workers`` parallelises empirical tuners' variant evaluation but
    never changes the result (the reduction is serial-identical), so it
    is deliberately *not* part of the canonical payload identity.
    ``deadline`` (absolute ``time.time()`` epoch seconds) likewise rides
    along without entering the identity: a successful run returns the
    same result with or without one, and the service injects it *after*
    computing cache/coalescing keys.  ``predictor`` selects the traffic
    predictor: ``"auto"`` and ``"simulate"`` produce bit-identical
    reports for every variant (the LC fast path serves only what it
    proves exact), so the winner is predictor-independent and the knob
    stays outside the identity.  ``"lc"`` is *rejected* for tune: a
    tuner sweep includes blocked variants the layer-condition analysis
    declines by design, so a forced-lc tune can only fail or return a
    degraded partial search whose winner differs — admitting it under
    the shared predictor-free identity would let one request poison the
    response cache for all others.  ``checkpoint`` is constructor-only
    (never read from a payload) so a remote client cannot direct the
    server to write files.
    """

    stencil: str
    grid: tuple[int, ...] = (48, 48, 64)
    machine: str = "clx"
    tuner: str = "ecm"
    cache_scale: float | None = 1 / 32
    seed: int = 0
    workers: int = 1
    deadline: float | None = None
    checkpoint: str | None = None
    predictor: str = "auto"

    @classmethod
    def from_payload(cls, payload: dict) -> "TuneRequest":
        """Validate and canonicalize a raw payload dict."""
        tuner = payload.get("tuner", "ecm")
        if tuner not in TUNERS:
            raise RequestError(
                f"unknown tuner {tuner!r}; choose from {sorted(TUNERS)}"
            )
        workers = payload.get("workers", 1)
        if not isinstance(workers, int) or workers < 1:
            raise RequestError(
                f"workers must be a positive int, got {workers!r}"
            )
        deadline = payload.get("deadline")
        if deadline is not None and not isinstance(deadline, (int, float)):
            raise RequestError(
                f"deadline must be epoch seconds, got {deadline!r}"
            )
        predictor = payload.get("predictor", "auto")
        if predictor not in PREDICTORS:
            raise RequestError(
                f"unknown predictor {predictor!r}; "
                f"choose from {list(PREDICTORS)}"
            )
        if predictor == "lc":
            raise RequestError(
                "predictor 'lc' is not valid for tune: tuner sweeps "
                "include blocked variants the layer-condition analysis "
                "never certifies, so a forced-lc tune cannot complete; "
                "use 'auto' (LC fast path where provably exact) or "
                "'simulate'"
            )
        return cls(
            stencil=_require_stencil(payload),
            grid=_require_grid(payload, [48, 48, 64]),
            machine=_require_machine(payload),
            tuner=tuner,
            cache_scale=_optional_scale(payload, "cache_scale", 1 / 32),
            seed=_require_seed(payload),
            workers=workers,
            deadline=float(deadline) if deadline is not None else None,
            predictor=predictor,
        )

    def to_payload(self) -> dict:
        """Canonical dict form.

        ``workers``, ``deadline``, ``predictor`` and ``checkpoint`` are
        excluded: they never change a successful result, so they must
        not fork the cache/coalescing identity.
        """
        return {
            "stencil": self.stencil,
            "grid": list(self.grid),
            "machine": self.machine,
            "tuner": self.tuner,
            "cache_scale": self.cache_scale,
            "seed": self.seed,
        }


#: Canonical ``rank`` parameter defaults.  Requests deviating from them
#: get the deviation folded into the database identity below.
_RANK_DEFAULT_CACHE_SCALE = 1 / 32
_RANK_DEFAULT_SEED = 0


@dataclass(frozen=True)
class RankRequest:
    """One Offsite variant ranking for a (method, grid, machine).

    ``checkpoint`` is constructor-only (CLI ``--checkpoint``; never read
    from a payload, never part of the canonical identity).
    """

    method: str = "radau_iia"
    stages: int = 4
    corrector_steps: int = 3
    grid: tuple[int, ...] = (16, 16, 32)
    machine: str = "clx"
    cache_scale: float | None = 1 / 32
    block: tuple[int, ...] | str | None = None
    validate: bool = True
    seed: int = 0
    checkpoint: str | None = None

    @classmethod
    def from_payload(cls, payload: dict) -> "RankRequest":
        """Validate and canonicalize a raw payload dict."""
        family = payload.get("method", "radau_iia")
        if family not in TABLEAU_FAMILIES:
            raise RequestError(
                f"unknown method family {family!r}; "
                f"choose from {sorted(TABLEAU_FAMILIES)}"
            )
        stages = payload.get("stages", 4)
        corrector = payload.get("corrector_steps", 3)
        if not isinstance(stages, int) or stages < 1:
            raise RequestError(
                f"stages must be a positive int, got {stages!r}"
            )
        if not isinstance(corrector, int) or corrector < 1:
            raise RequestError(
                f"corrector_steps must be a positive int, got {corrector!r}"
            )
        grid = _require_grid(payload, [16, 16, 32])
        validate = payload.get("validate", True)
        if not isinstance(validate, bool):
            raise RequestError(f"validate must be a bool, got {validate!r}")
        return cls(
            method=family,
            stages=stages,
            corrector_steps=corrector,
            grid=grid,
            machine=_require_machine(payload),
            cache_scale=_optional_scale(
                payload, "cache_scale", _RANK_DEFAULT_CACHE_SCALE
            ),
            block=_optional_block(payload, grid, allow_auto=True),
            validate=validate,
            seed=_require_seed(payload),
        )

    def to_payload(self) -> dict:
        """The canonical dict form (service normalization output)."""
        block: list[int] | str | None
        if isinstance(self.block, tuple):
            block = list(self.block)
        else:
            block = self.block
        return {
            "method": self.method,
            "stages": self.stages,
            "corrector_steps": self.corrector_steps,
            "grid": list(self.grid),
            "machine": self.machine,
            "cache_scale": self.cache_scale,
            "block": block,
            "validate": self.validate,
            "seed": self.seed,
        }

    def shard_key(self) -> str:
        """Routing identity for the fabric (see :func:`shard_key`).

        Rank requests shard by their *database* identity, not the full
        request payload: requests that differ only in ``validate``
        share one warm :class:`~repro.offsite.database.TuningKey`
        record, so co-locating them puts the database-tier hit on the
        same shard that stored the ranking.  (The per-shard response
        LRU still keys on the full identity, so a ``validate=true``
        response is never served for ``validate=false``.)
        """
        method, ivp, machine, grid = self.db_key_parts()
        return (
            f"rank|{method}|{ivp}|{machine}|" + "x".join(map(str, grid))
        )

    def db_key_parts(self) -> tuple[str, str, str, tuple[int, ...]]:
        """(method, ivp, machine, grid) identity for the database tier.

        Every parameter that changes the ranking output is part of the
        identity: non-default ``cache_scale``, ``block`` and ``seed``
        are folded into the ivp string, so a record stored for one
        parameterization can never be served to a request with another.
        Canonical-default requests keep the plain ``gridAxBxC`` name.
        """
        method = f"{self.method}({self.stages})m{self.corrector_steps}"
        ivp = "grid" + "x".join(map(str, self.grid))
        qualifiers = []
        if self.cache_scale != _RANK_DEFAULT_CACHE_SCALE:
            qualifiers.append(
                "csfull" if self.cache_scale is None
                else f"cs{self.cache_scale:g}"
            )
        if self.block is not None:
            qualifiers.append(
                "bauto" if self.block == "auto"
                else "b" + "x".join(map(str, self.block))
            )
        if self.seed != _RANK_DEFAULT_SEED:
            qualifiers.append(f"s{self.seed}")
        if qualifiers:
            ivp += "@" + ",".join(qualifiers)
        return method, ivp, self.machine, self.grid


# ----------------------------------------------------------------------
# Fabric shard-key extraction
# ----------------------------------------------------------------------
#: endpoint path → request class (both "/tune" and "tune" accepted).
_SHARD_REQUESTS = {
    "predict": PredictRequest,
    "tune": TuneRequest,
    "rank": RankRequest,
}


def shard_key(endpoint: str, payload: dict) -> str:
    """Stable cache-identity string for consistent-hash routing.

    The fabric router and every shard must agree, from the *raw* client
    payload, on which shard owns a request — otherwise coalescing and
    the per-shard response LRU fracture.  This is the single shared
    definition: the payload runs through the same ``from_payload``
    normalization the shard's cache identity uses, so two payloads
    meaning the same thing always land on the same shard, and
    execution-only knobs (``trace``, ``predictor``, ``workers``,
    ``deadline``) never fork the route.  ``/rank`` shards by its
    database identity (see :meth:`RankRequest.shard_key`) so warm
    database-tier hits stay local to the shard that stored them.

    Raises :class:`RequestError` on an invalid payload, which a router
    maps to HTTP 400 without touching any shard.
    """
    request = _request_class(endpoint).from_payload(payload)
    return _shard_key_of(endpoint, request)


def _request_class(endpoint: str) -> type:
    cls = _SHARD_REQUESTS.get(endpoint.lstrip("/"))
    if cls is None:
        raise RequestError(f"no shardable endpoint {endpoint!r}")
    return cls


def _canonical(obj: object) -> str:
    """Stable JSON form (sorted keys, no whitespace) for identities."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _shard_key_of(endpoint: str, request) -> str:
    if isinstance(request, RankRequest):
        return request.shard_key()
    return f"{endpoint.lstrip('/')}|{_canonical(request.to_payload())}"


def request_key(endpoint: str, normalized: dict) -> str:
    """Content hash identifying one request for coalescing/caching."""
    blob = _canonical({"endpoint": endpoint, "payload": normalized})
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# One parse per request body, shared by the fabric router and the shards
# ----------------------------------------------------------------------
#: Parsed bodies :func:`parse_request` keeps, least recently used out
#: first, and the largest body it keeps.  The memo pays off only for
#: bodies that repeat (a warm response-cache hit): a stream of distinct
#: bodies misses every time and costs only the memo's bounded memory.
PARSE_MEMO_SIZE = 256
PARSE_MEMO_MAX_BODY = 4096

_PARSE_MEMO: OrderedDict[tuple[str, bytes], "ParsedRequest"] = OrderedDict()
_PARSE_MEMO_LOCK = threading.Lock()


def _fresh(value):
    """A deep copy of a JSON value (dicts and lists are rebuilt)."""
    if isinstance(value, dict):
        return {k: _fresh(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_fresh(v) for v in value]
    return value


class ParsedRequest:
    """One POST body of ``/predict``, ``/tune`` or ``/rank``, parsed once.

    ``error`` is the HTTP 400 message of an invalid body and ``None``
    for a valid one, whose typed request is ``request``.  ``trace`` and
    ``predictor`` are the execution-only hints, kept outside the
    canonical payload so they never fork the cache or coalescing
    identity.  An instance may be shared across requests: it is never
    mutated after construction (``key`` and ``shard_key`` are computed
    once, on first use) and :meth:`payload` hands out a fresh copy.
    """

    def __init__(
        self,
        endpoint: str,
        error: str | None = None,
        request: PredictRequest | TuneRequest | RankRequest | None = None,
        trace: bool = False,
        predictor: object = None,
    ) -> None:
        self.endpoint = endpoint
        self.error = error
        self.request = request
        self.trace = trace
        self.predictor = predictor
        self._payload = request.to_payload() if request is not None else None

    @functools.cached_property
    def key(self) -> str:
        """The cache and coalescing identity (:func:`request_key`)."""
        return request_key(self.endpoint, self._payload)

    @functools.cached_property
    def shard_key(self) -> str | None:
        """The routing identity (:func:`shard_key`); ``None`` when the
        payload does not normalize."""
        if self.request is None:
            return None
        return _shard_key_of(self.endpoint, self.request)

    def payload(self) -> dict:
        """A fresh copy of the canonical payload (the normalizer's
        output): the caller may mutate it."""
        return _fresh(self._payload)


def _parse(endpoint: str, body: bytes) -> ParsedRequest:
    try:
        payload = json.loads(body.decode() or "{}")
        if not isinstance(payload, dict):
            raise RequestError("payload must be a JSON object")
    except ValueError as exc:
        return ParsedRequest(endpoint, error=str(exc))
    hints = {
        "trace": bool(payload.get("trace")),
        "predictor": payload.get("predictor"),
    }
    try:
        request = _request_class(endpoint).from_payload(payload)
    except ValueError as exc:
        return ParsedRequest(endpoint, error=str(exc), **hints)
    return ParsedRequest(endpoint, request=request, **hints)


def parse_request(endpoint: str, body: bytes) -> ParsedRequest:
    """Parse and normalize one raw ``endpoint`` body, memoized.

    The single parse path of the fabric router (which needs
    :attr:`ParsedRequest.shard_key`) and of every shard (which needs
    the hints, :attr:`ParsedRequest.key` and the canonical payload).
    Valid bodies up to :data:`PARSE_MEMO_MAX_BODY` bytes are memoized
    by ``(endpoint, body)`` in an LRU of :data:`PARSE_MEMO_SIZE`
    entries; an invalid body is parsed afresh every time, so it never
    occupies the memo.
    """
    memoizable = len(body) <= PARSE_MEMO_MAX_BODY
    if memoizable:
        with _PARSE_MEMO_LOCK:
            parsed = _PARSE_MEMO.get((endpoint, body))
            if parsed is not None:
                _PARSE_MEMO.move_to_end((endpoint, body))
                return parsed
    parsed = _parse(endpoint, body)
    if memoizable and parsed.error is None:
        with _PARSE_MEMO_LOCK:
            _PARSE_MEMO[endpoint, body] = parsed
            if len(_PARSE_MEMO) > PARSE_MEMO_SIZE:
                _PARSE_MEMO.popitem(last=False)
    return parsed
