"""Structured observability: nested spans with wall-time attribution.

One :class:`Trace` records a tree of :class:`Span` objects.  Layers
instrument themselves with the module-level :func:`span` context
manager::

    with obs.span("cachesim.sweep") as sp:
        sp.add(memo_hits=1)          # numeric counters accumulate
        sp.set(served="memo")        # string attributes annotate
        ...

When no trace is active (the common case) ``span()`` returns a shared
no-op handle after a single context-variable read — the hot layers pay
essentially nothing.  A trace is activated either explicitly
(:func:`start_trace` / ``Trace.finish``) or ambiently by setting the
``REPRO_TRACE`` environment variable before the process starts (the
flag is read once at import), in which case the outermost span
roots a throwaway trace whose finished tree is kept in
:data:`last_trace` (the CI smoke runs the tier-1 suite this way to
prove the instrumented paths behave identically with tracing on).

The JSON form (``Span.to_dict``) aggregates same-named siblings — a
block-selection loop calling the ECM model hundreds of times collapses
to one ``ecm.predict`` entry with a ``count`` — so traces stay small
enough to embed in service responses.  The schema is::

    {"name": str, "count": int, "start_s": float, "duration_s": float,
     "self_s": float, "counters": {str: number}, "attrs": {str: str},
     "children": [<same>]}

``start_s`` is the offset of the (first) span entry from the trace
root; ``self_s`` is the wall time not covered by child spans.
"""

from __future__ import annotations

import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "ENV_FLAG",
    "Span",
    "Trace",
    "span",
    "start_trace",
    "current_trace",
    "current_span",
    "tracing_active",
    "render_trace",
    "coverage",
    "fold_stage_seconds",
    "last_trace",
]

#: Environment variable that turns ambient tracing on for the process.
ENV_FLAG = "REPRO_TRACE"


@dataclass
class Span:
    """One timed region; ``children`` are the regions nested inside it."""

    name: str
    start_s: float = 0.0
    duration_s: float = 0.0
    counters: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    def add(self, **counters: float) -> None:
        """Accumulate numeric counters onto this span."""
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def set(self, **attrs: str) -> None:
        """Attach string attributes to this span."""
        self.attrs.update(attrs)

    def child_seconds(self) -> float:
        """Wall time covered by direct children."""
        return sum(c.duration_s for c in self.children)

    def self_seconds(self) -> float:
        """Wall time not attributed to any child span."""
        return max(0.0, self.duration_s - self.child_seconds())

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, aggregate: bool = True) -> dict:
        """JSON-ready form; ``aggregate`` merges same-named siblings."""
        return _span_dict([self], aggregate)


def _span_dict(group: list[Span], aggregate: bool) -> dict:
    """Serialize ``group`` (same-named spans) as one schema entry."""
    first = group[0]
    counters: dict = {}
    attrs: dict = {}
    children: list[Span] = []
    duration = 0.0
    for sp in group:
        duration += sp.duration_s
        children.extend(sp.children)
        for key, value in sp.counters.items():
            counters[key] = counters.get(key, 0) + value
        for key, value in sp.attrs.items():
            attrs.setdefault(key, value)
    child_total = sum(c.duration_s for c in children)
    if aggregate:
        groups: dict[str, list[Span]] = {}
        for child in children:
            groups.setdefault(child.name, []).append(child)
        child_dicts = [_span_dict(g, aggregate) for g in groups.values()]
    else:
        child_dicts = [_span_dict([c], aggregate) for c in children]
    return {
        "name": first.name,
        "count": len(group),
        "start_s": first.start_s,
        "duration_s": duration,
        "self_s": max(0.0, duration - child_total),
        "counters": counters,
        "attrs": attrs,
        "children": child_dicts,
    }


def fold_stage_seconds(entry: dict, stages: dict[str, float]) -> None:
    """Accumulate a serialized span tree's per-name durations into
    ``stages``.

    The root entry itself is skipped — callers already account its wall
    time under their own stage (the service's ``execute``); descendants
    land under their span names, so consumers aggregate e.g.
    ``ecm.predict`` seconds across traced requests.
    """
    for child in entry.get("children", ()):
        stages[child["name"]] = (
            stages.get(child["name"], 0.0) + child["duration_s"]
        )
        fold_stage_seconds(child, stages)


def coverage(root: Span) -> float:
    """Fraction of the root's wall time attributed to child spans."""
    if root.duration_s <= 0:
        return 1.0 if not root.children else 0.0
    return min(1.0, root.child_seconds() / root.duration_s)


class _NullHandle:
    """Shared do-nothing handle returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def add(self, **counters: float) -> None:
        pass

    def set(self, **attrs: str) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class _Handle:
    """Context manager entering/leaving one span of a live trace."""

    __slots__ = ("_trace", "span", "_t0")

    def __init__(self, trace: "Trace", name: str):
        self._trace = trace
        self._t0 = time.perf_counter()
        self.span = Span(name, start_s=self._t0 - trace.t0)

    def __enter__(self) -> Span:
        stack = self._trace._stack
        stack[-1].children.append(self.span)
        stack.append(self.span)
        return self.span

    def __exit__(self, *exc: object) -> bool:
        self.span.duration_s = time.perf_counter() - self._t0
        self._trace._stack.pop()
        return False

    # Convenience so ``span(...)`` can be used without ``as``:
    def add(self, **counters: float) -> None:
        self.span.add(**counters)

    def set(self, **attrs: str) -> None:
        self.span.set(**attrs)


class _RootHandle:
    """Handle for an ambient (``REPRO_TRACE``) trace rooted at one span."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace"):
        self._trace = trace

    def __enter__(self) -> Span:
        return self._trace.root

    def __exit__(self, *exc: object) -> bool:
        self._trace.finish()
        return False

    def add(self, **counters: float) -> None:
        self._trace.root.add(**counters)

    def set(self, **attrs: str) -> None:
        self._trace.root.set(**attrs)


class Trace:
    """One in-progress span tree.

    ``finish()`` closes the root, deactivates the trace and returns the
    root :class:`Span`.
    """

    def __init__(self, name: str, activate: bool = True) -> None:
        self.t0 = time.perf_counter()
        self.root = Span(name)
        self._stack: list[Span] = [self.root]
        self._token = _ACTIVE.set(self) if activate else None
        self._finished = False

    def enter(self, name: str) -> _Handle:
        """Open a child span under the innermost open span."""
        return _Handle(self, name)

    def finish(self) -> Span:
        """Close the root span and deactivate the trace."""
        if not self._finished:
            self._finished = True
            self.root.duration_s = time.perf_counter() - self.t0
            if self._token is not None:
                _ACTIVE.reset(self._token)
                self._token = None
            global last_trace
            last_trace = self.root
        return self.root


_ACTIVE: ContextVar[Trace | None] = ContextVar("repro_obs_trace", default=None)

#: Root span of the most recently finished trace in this context
#: (set by ``Trace.finish``; handy for the ambient ``REPRO_TRACE`` mode).
last_trace: Span | None = None


def _env_enabled() -> bool:
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


#: Ambient-tracing switch, read once at import — ``os.environ`` lookups
#: cost ~1µs each, which would dominate the disabled-span fast path.
#: Export ``REPRO_TRACE=1`` before starting the process (tests flip
#: this attribute directly via monkeypatch).
_AMBIENT = _env_enabled()


def tracing_active() -> bool:
    """Whether a trace is currently recording in this context."""
    return _ACTIVE.get() is not None


def current_trace() -> Trace | None:
    """The trace recording in this context, if any."""
    return _ACTIVE.get()


def current_span() -> Span | None:
    """The innermost open span of the active trace, if any.

    Lets out-of-band layers (e.g. :mod:`repro.faults`) attach counters
    to whatever region happens to be recording without opening a span
    of their own.
    """
    trace = _ACTIVE.get()
    if trace is None:
        return None
    return trace._stack[-1]


def start_trace(name: str) -> Trace:
    """Begin recording; pair with ``trace.finish()``."""
    return Trace(name)


def span(name: str, _get=_ACTIVE.get):
    """Context manager timing one region of the active trace.

    No-op (one context-variable read and one global check, well under
    100ns) when no trace is active and ``REPRO_TRACE`` was unset at
    import.  With ``REPRO_TRACE`` set, an outermost span roots a
    throwaway ambient trace so every instrumented path runs its
    "tracing on" branch; the finished tree lands in :data:`last_trace`.
    """
    trace = _get()
    if trace is None:
        if not _AMBIENT:
            return _NULL_HANDLE
        return _RootHandle(Trace(name))
    return trace.enter(name)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:9.3f}ms"


def _entry_label(entry: dict) -> str:
    label = entry["name"]
    if entry["count"] > 1:
        label += f" ×{entry['count']}"
    if entry["counters"]:
        label += "  " + " ".join(
            f"{k}={v:g}" for k, v in sorted(entry["counters"].items())
        )
    if entry["attrs"]:
        label += "  " + " ".join(
            f"{k}={v}" for k, v in sorted(entry["attrs"].items())
        )
    return label


def _render_children(entry: dict, prefix: str, lines: list[str]) -> None:
    children = entry["children"]
    for i, child in enumerate(children):
        last = i == len(children) - 1
        connector = "└─ " if last else "├─ "
        lines.append(
            f"{_fmt_ms(child['duration_s'])}  {prefix}{connector}"
            f"{_entry_label(child)}"
        )
        _render_children(child, prefix + ("   " if last else "│  "), lines)


def render_trace(root: Span) -> str:
    """Human-readable span tree (durations, counters, attributes)."""
    entry = root.to_dict(aggregate=True)
    lines = [f"{_fmt_ms(entry['duration_s'])}  {_entry_label(entry)}"]
    _render_children(entry, "", lines)
    return "\n".join(lines)
