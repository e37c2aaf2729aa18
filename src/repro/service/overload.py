"""Overload resilience: deadlines, adaptive limits, brownout ladder.

Three cooperating mechanisms, all inert until engaged, compose the
service's Google-SRE-style overload control:

**Deadline propagation.**  A client stamps each request with its
remaining budget in the ``X-Repro-Deadline-Ms`` header; the fabric
router deducts its own elapsed time before forwarding; the server
rejects work whose remaining budget cannot cover the queue class's
observed p95 (a fast 429 instead of queueing a doomed job), the
dispatcher sweeps queued entries whose deadline expired while waiting,
and ``/tune`` workers inherit the tightened deadline so sweeps
checkpoint-and-yield instead of burning a dead caller's budget.  The
representation on the wire is *relative* (milliseconds of remaining
budget) so clocks never need to agree; each hop re-anchors it against
its own clock.

**Adaptive concurrency limits** (:class:`AdaptiveLimiter`).  An AIMD
limiter per queue class replaces the static admission bound when
``--adaptive-limits`` is on: every healthy completion grows the limit
additively (~ +1 per ``limit`` completions), a windowed p95 above the
class's latency target shrinks it multiplicatively (×0.5, with a
cooldown so one breach is one cut).  The static class limit stays as
the hard ceiling and the floor is 1, so the limiter can only ever
*tighten* admission.

**Brownout ladder** (:class:`BrownoutLadder`).  A small state machine
fed by the SLO engine's page alerts that degrades service in stages —
serve ``/predict`` from the analytic fallback, shed tune/rank before
predict, full shed — with hysteresis in both directions (a sustained
burn to step down, a sustained calm to step back up), a ledgered
transition history, and no background task: it is evaluated inline,
rate-limited, from the request path and the health/SLO surfaces.
"""

from __future__ import annotations

import time
from collections import deque

from repro.service.metrics import LatencyReservoir

__all__ = [
    "DEADLINE_HEADER",
    "BROWNOUT_STAGES",
    "deadline_from_headers",
    "format_deadline_ms",
    "AdaptiveLimiter",
    "BrownoutLadder",
]

#: The remaining-budget request header (milliseconds, relative).
DEADLINE_HEADER = "X-Repro-Deadline-Ms"
_DEADLINE_KEY = DEADLINE_HEADER.lower()

#: The ladder's stages, mildest first.  Index == severity.
BROWNOUT_STAGES = (
    "normal",            # full service
    "predict-analytic",  # /predict served by the analytic fallback
    "shed-heavy",        # /tune and /rank refused; /predict analytic
    "full-shed",         # everything refused until the burn subsides
)


def deadline_from_headers(
    headers: dict[str, str] | None, now: float | None = None
) -> float | None:
    """Absolute epoch deadline from a request's header map.

    ``None`` when the header is absent or unparseable — a malformed
    budget must degrade to "no deadline", never to an error, so a
    broken middlebox cannot fail every request.
    """
    if not headers:
        return None
    raw = headers.get(_DEADLINE_KEY)
    if raw is None:
        return None
    try:
        budget_ms = float(raw)
    except ValueError:
        return None
    if budget_ms != budget_ms or budget_ms in (float("inf"), float("-inf")):
        return None
    return (time.time() if now is None else now) + budget_ms / 1e3


def format_deadline_ms(remaining_s: float) -> str:
    """Header value for a remaining budget (floored at 1 ms: a zero or
    negative budget is expressed by *not sending* the request)."""
    return str(max(1, int(remaining_s * 1e3)))


class AdaptiveLimiter:
    """AIMD concurrency limit for one queue class.

    ``record(elapsed_s)`` is called once per finished fresh job with
    its total latency (queue wait + execution — the quantity the
    caller experiences and the SLO measures).  While the windowed p95
    stays at or under ``target_s`` the limit grows additively
    (``growth / limit`` per completion ≈ +1 per ``limit`` healthy
    completions); when the p95 breaches the target the limit is cut
    multiplicatively (×``shrink``), at most once per ``cooldown_s`` so
    a single burst of slow completions is one cut, not a collapse.
    The static class limit is the hard ceiling, the floor is 1.
    """

    def __init__(
        self,
        ceiling: int,
        target_s: float,
        floor: int = 1,
        shrink: float = 0.5,
        growth: float = 1.0,
        cooldown_s: float = 1.0,
        window: int = 32,
        now_fn=time.monotonic,
    ) -> None:
        if ceiling < 1:
            raise ValueError("ceiling must be >= 1")
        if target_s <= 0:
            raise ValueError("target_s must be positive")
        if not 0.0 < shrink < 1.0:
            raise ValueError("shrink must be in (0, 1)")
        self.ceiling = ceiling
        self.target_s = target_s
        self.floor = max(1, floor)
        self.shrink = shrink
        self.growth = growth
        self.cooldown_s = cooldown_s
        self._now = now_fn
        self._limit = float(ceiling)
        self._window = LatencyReservoir(window)
        self._last_shrink: float | None = None
        self.shrinks = 0
        self.grows = 0

    @property
    def limit(self) -> int:
        """The current admission bound (integer, in [floor, ceiling])."""
        return max(self.floor, min(self.ceiling, int(self._limit)))

    def record(self, elapsed_s: float) -> None:
        """Feed one finished job; adjusts the limit."""
        self._window.record(elapsed_s)
        p95 = self._window.p95()
        if p95 is not None and p95 > self.target_s:
            now = self._now()
            if (
                self._last_shrink is None
                or now - self._last_shrink >= self.cooldown_s
            ):
                self._last_shrink = now
                cut = max(float(self.floor), self._limit * self.shrink)
                if cut < self._limit:
                    self._limit = cut
                    self.shrinks += 1
                # A cut judges the *old* window's latency; observing it
                # again next completion would double-punish, so start
                # the window over at the new limit.
                self._window.clear()
            return
        if self._limit < self.ceiling:
            self._limit = min(
                float(self.ceiling), self._limit + self.growth / self._limit
            )
            self.grows += 1

    def snapshot(self) -> dict:
        return {
            "limit": self.limit,
            "ceiling": self.ceiling,
            "floor": self.floor,
            "target_ms": round(self.target_s * 1e3, 3),
            "shrinks": self.shrinks,
            "grows": self.grows,
        }


class BrownoutLadder:
    """SLO-burn-driven staged degradation with hysteresis.

    ``evaluate()`` (rate-limited, called inline from the request path
    and the health surfaces — no background task) asks ``alerts_fn``
    for the currently firing SLO alerts.  A **page**-severity alert
    sustained for ``escalate_hold_s`` steps the ladder one stage down;
    a calm spell of ``recover_hold_s`` steps it one stage back up.
    One step per hold period in either direction, so the ladder can
    neither free-fall nor snap back — and because recovery is also
    staged, a server that browned out under load walks fully back to
    ``normal`` without a restart once the burn subsides.

    Alerts from ``shed_rate``-type objectives are ignored by default:
    shedding is this ladder's own actuator, and a controller that
    senses its actuator latches in the degraded state.
    """

    def __init__(
        self,
        alerts_fn,
        escalate_hold_s: float = 2.0,
        recover_hold_s: float = 5.0,
        max_stage: int = len(BROWNOUT_STAGES) - 1,
        ignore_types: tuple[str, ...] = ("shed_rate",),
        eval_interval_s: float | None = None,
        now_fn=time.monotonic,
        on_transition=None,
        ledger_capacity: int = 64,
    ) -> None:
        if escalate_hold_s <= 0 or recover_hold_s <= 0:
            raise ValueError("hold times must be positive")
        if not 1 <= max_stage <= len(BROWNOUT_STAGES) - 1:
            raise ValueError(
                f"max_stage must be in [1, {len(BROWNOUT_STAGES) - 1}]"
            )
        self._alerts = alerts_fn
        self.escalate_hold_s = escalate_hold_s
        self.recover_hold_s = recover_hold_s
        self.max_stage = max_stage
        self.ignore_types = tuple(ignore_types)
        # Re-evaluating more often than a fraction of the shorter hold
        # cannot change the outcome; bound to [50ms, 1s].
        self.eval_interval_s = (
            min(1.0, max(0.05, min(escalate_hold_s, recover_hold_s) / 4.0))
            if eval_interval_s is None
            else eval_interval_s
        )
        self._now = now_fn
        self._on_transition = on_transition
        self.stage = 0
        self._burn_since: float | None = None
        self._calm_since: float | None = None
        self._evaluated_at: float | None = None
        self.transitions: deque[dict] = deque(maxlen=ledger_capacity)
        self.escalations = 0
        self.recoveries = 0

    @property
    def state(self) -> str:
        return BROWNOUT_STAGES[self.stage]

    def _paging(self) -> list[str]:
        """Names of page-severity alerts the ladder listens to."""
        try:
            alerts = self._alerts() or []
        except Exception:
            return []  # a broken sensor must not wedge the ladder
        return [
            str(alert.get("objective"))
            for alert in alerts
            if alert.get("severity") == "page"
            and alert.get("type") not in self.ignore_types
        ]

    def _transition(self, new_stage: int, alerts: list[str]) -> None:
        old = self.stage
        self.stage = new_stage
        direction = "escalate" if new_stage > old else "recover"
        if direction == "escalate":
            self.escalations += 1
        else:
            self.recoveries += 1
        entry = {
            "ts": time.time(),
            "from": BROWNOUT_STAGES[old],
            "to": BROWNOUT_STAGES[new_stage],
            "direction": direction,
            "alerts": alerts,
        }
        self.transitions.append(entry)
        if self._on_transition is not None:
            try:
                self._on_transition(entry)
            except Exception:
                pass  # observer failures must not affect control

    def evaluate(self) -> int:
        """Advance the state machine; returns the current stage."""
        now = self._now()
        if (
            self._evaluated_at is not None
            and now - self._evaluated_at < self.eval_interval_s
        ):
            return self.stage
        self._evaluated_at = now
        paging = self._paging()
        if paging:
            self._calm_since = None
            if self._burn_since is None:
                self._burn_since = now
            elif (
                now - self._burn_since >= self.escalate_hold_s
                and self.stage < self.max_stage
            ):
                self._transition(self.stage + 1, paging)
                self._burn_since = now  # next step needs its own hold
        else:
            self._burn_since = None
            if self.stage == 0:
                self._calm_since = None
            elif self._calm_since is None:
                self._calm_since = now
            elif now - self._calm_since >= self.recover_hold_s:
                self._transition(self.stage - 1, [])
                self._calm_since = now
        return self.stage

    def snapshot(self) -> dict:
        """The ladder's state for ``/healthz``, ``/slo`` and ``/metrics``."""
        return {
            "stage": self.stage,
            "state": self.state,
            "stages": list(BROWNOUT_STAGES),
            "max_stage": self.max_stage,
            "escalations": self.escalations,
            "recoveries": self.recoveries,
            "transitions": [dict(entry) for entry in self.transitions],
        }
