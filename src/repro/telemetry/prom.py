"""Prometheus text exposition (and a tiny checker for CI).

:func:`render_prometheus` turns a ``/metrics`` JSON snapshot — a
service's or the fabric router's aggregate pseudo-snapshot — into the
Prometheus text format (version 0.0.4): ``# HELP``/``# TYPE`` headers,
``family{label="value"} number`` samples, histogram families with
cumulative ``le`` buckets plus ``_sum``/``_count``.  Rendering is a pure
read of the snapshot dict; anything the snapshot does not carry is
simply not emitted.  In particular a tier with ``hit_rate: None`` (never
touched) emits **no** ``repro_tier_hit_rate`` sample rather than a fake
``0`` — absence is the honest exposition of "no data".

:func:`parse_prometheus` is the ~20-line inverse used by CI's smoke
jobs: it validates the line grammar strictly enough to catch a broken
renderer (malformed labels, non-numeric values, samples for undeclared
families) and returns per-family sample counts for assertions.  It is
not a full client — just enough parser to keep the exposition honest
without adding a dependency.
"""

from __future__ import annotations

import math
import re

from repro.telemetry.histogram import LatencyHistogram

__all__ = ["render_prometheus", "parse_prometheus"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape(value: object) -> str:
    """Escape a label value per the exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Writer:
    """Accumulates one family at a time: header once, then samples."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, labels: dict | None, value: float
    ) -> None:
        if labels:
            body = ",".join(
                f'{key}="{_escape(val)}"' for key, val in labels.items()
            )
            self.lines.append(f"{name}{{{body}}} {_fmt(value)}")
        else:
            self.lines.append(f"{name} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(snapshot: dict) -> str:
    """Render a ``/metrics`` JSON snapshot as Prometheus text.

    Works on both a single service snapshot and the fabric router's
    aggregate (missing sections are skipped, never faked).
    """
    out = _Writer()

    # -- request counters ----------------------------------------------
    endpoints = snapshot.get("endpoints") or {}
    if endpoints:
        out.family(
            "repro_requests_total", "counter",
            "Requests by endpoint and outcome.",
        )
        for path in sorted(endpoints):
            row = endpoints[path] or {}
            for outcome in sorted(row.get("outcomes") or {}):
                out.sample(
                    "repro_requests_total",
                    {"endpoint": path, "outcome": outcome},
                    row["outcomes"][outcome],
                )

    # -- latency histograms --------------------------------------------
    hist_rows = [
        (path, (endpoints[path] or {}).get("latency_histogram"))
        for path in sorted(endpoints)
    ]
    hist_rows = [(path, h) for path, h in hist_rows if h]
    if hist_rows:
        out.family(
            "repro_request_latency_seconds", "histogram",
            "Request latency (fixed log-bucket layout, mergeable).",
        )
        for path, data in hist_rows:
            try:
                hist = LatencyHistogram.from_dict(data)
            except (ValueError, TypeError):
                continue
            cumulative = 0
            for index, n in hist.nonzero():
                cumulative += n
                out.sample(
                    "repro_request_latency_seconds_bucket",
                    {"endpoint": path,
                     "le": _fmt(hist.bucket_upper_s(index))},
                    cumulative,
                )
            out.sample(
                "repro_request_latency_seconds_bucket",
                {"endpoint": path, "le": "+Inf"},
                hist.count,
            )
            out.sample(
                "repro_request_latency_seconds_sum",
                {"endpoint": path}, hist.sum_s,
            )
            out.sample(
                "repro_request_latency_seconds_count",
                {"endpoint": path}, hist.count,
            )

    # -- tier ledgers ---------------------------------------------------
    tiers = snapshot.get("tiers") or {}
    for field in ("hits", "misses", "puts", "evictions"):
        rows = {
            name: row[field]
            for name, row in sorted(tiers.items())
            if isinstance(row, dict) and field in row
        }
        if not rows:
            continue
        out.family(
            f"repro_tier_{field}_total", "counter",
            f"Cache tier {field}.",
        )
        for name, value in rows.items():
            out.sample(
                f"repro_tier_{field}_total", {"tier": name}, value
            )
    sizes = {
        name: row["size"]
        for name, row in sorted(tiers.items())
        if isinstance(row, dict) and row.get("size") is not None
    }
    if sizes:
        out.family(
            "repro_tier_size", "gauge", "Entries held per cache tier."
        )
        for name, value in sizes.items():
            out.sample("repro_tier_size", {"tier": name}, value)
    # hit_rate=None (tier never consulted) is omitted, not rendered as 0.
    rates = {
        name: row["hit_rate"]
        for name, row in sorted(tiers.items())
        if isinstance(row, dict) and row.get("hit_rate") is not None
    }
    if rates:
        out.family(
            "repro_tier_hit_rate", "gauge",
            "Cache tier hit rate (absent until the tier is consulted).",
        )
        for name, value in rates.items():
            out.sample("repro_tier_hit_rate", {"tier": name}, value)

    # -- predictor ------------------------------------------------------
    predictor = snapshot.get("predictor") or {}
    counts = {
        key: predictor[key]
        for key in ("lc_served", "sim_served", "lc_validation_mismatch")
        if isinstance(predictor.get(key), (int, float))
    }
    if counts:
        out.family(
            "repro_predictor_total", "counter",
            "Traffic-prediction path serve counts.",
        )
        for key, value in sorted(counts.items()):
            out.sample("repro_predictor_total", {"path": key}, value)

    # -- stage seconds --------------------------------------------------
    stages = snapshot.get("stages") or {}
    rows = {
        name: row
        for name, row in sorted(stages.items())
        if isinstance(row, dict)
    }
    if rows:
        out.family(
            "repro_stage_seconds_total", "counter",
            "Cumulative traced seconds per pipeline stage.",
        )
        for name, row in rows.items():
            value = row.get("total_s", row.get("seconds"))
            if isinstance(value, (int, float)):
                out.sample(
                    "repro_stage_seconds_total", {"stage": name}, value
                )

    # -- queue + server gauges -----------------------------------------
    queue = snapshot.get("queue") or {}
    gauges = [
        ("repro_queue_depth", "In-flight jobs.", queue.get("depth")),
        ("repro_queue_shed_total", "Jobs refused at admission.",
         queue.get("shed")),
        ("repro_uptime_seconds", "Seconds since process start.",
         snapshot.get("uptime_s")),
    ]
    draining = snapshot.get("draining")
    if draining is not None:
        gauges.append(
            ("repro_draining", "1 while draining for shutdown.",
             1 if draining else 0)
        )
    for name, help_text, value in gauges:
        if isinstance(value, (int, float)):
            out.family(name, "gauge", help_text)
            out.sample(name, None, value)
    classes = snapshot.get("queues") or {}
    depth_rows = {
        name: row.get("depth")
        for name, row in sorted(classes.items())
        if isinstance(row, dict)
        and isinstance(row.get("depth"), (int, float))
    }
    if depth_rows:
        out.family(
            "repro_class_queue_depth", "gauge",
            "In-flight jobs per cost class.",
        )
        for name, value in depth_rows.items():
            out.sample("repro_class_queue_depth", {"class": name}, value)
    # Adaptive limits appear only under --adaptive-limits (the rows
    # carry the key only then) — absent, not faked to the static limit.
    adaptive_rows = {
        name: row.get("adaptive_limit")
        for name, row in sorted(classes.items())
        if isinstance(row, dict)
        and isinstance(row.get("adaptive_limit"), (int, float))
    }
    if adaptive_rows:
        out.family(
            "repro_class_adaptive_limit", "gauge",
            "AIMD admission limit in force per cost class.",
        )
        for name, value in adaptive_rows.items():
            out.sample("repro_class_adaptive_limit", {"class": name}, value)

    # -- overload control ----------------------------------------------
    overload = snapshot.get("overload") or {}
    overload_classes = overload.get("classes") or {}
    for field, help_text in (
        ("admitted", "Fresh jobs admitted per cost class."),
        ("executed", "Admitted jobs that reached a worker."),
        ("swept", "Admitted jobs dropped at dequeue: deadline expired"
         " while queued."),
    ):
        rows = {
            name: row.get(field)
            for name, row in sorted(overload_classes.items())
            if isinstance(row, dict)
            and isinstance(row.get(field), (int, float))
        }
        if not rows:
            continue
        out.family(
            f"repro_class_{field}_total", "counter", help_text
        )
        for name, value in rows.items():
            out.sample(
                f"repro_class_{field}_total", {"class": name}, value
            )
    brownout = overload.get("brownout") or {}
    if isinstance(brownout.get("stage"), (int, float)):
        stages = ", ".join(
            f"{index} {name}"
            for index, name in enumerate(brownout.get("stages") or ())
        )
        out.family(
            "repro_brownout_stage", "gauge",
            f"Brownout ladder stage ({stages}).",
        )
        out.sample("repro_brownout_stage", None, brownout["stage"])

    # -- SLO burn gauges ------------------------------------------------
    slo = snapshot.get("slo") or {}
    if slo:
        out.family(
            "repro_slo_burn_rate", "gauge",
            "Error-budget burn rate per objective and window"
            " (1.0 = exactly on target).",
        )
        for objective in sorted(slo):
            row = slo[objective] or {}
            for window, burn in sorted((row.get("burn") or {}).items()):
                out.sample(
                    "repro_slo_burn_rate",
                    {"objective": objective, "window": window},
                    burn,
                )
        out.family(
            "repro_slo_alert", "gauge",
            "Alert state per objective (0 ok, 1 warn, 2 page).",
        )
        severity = {"ok": 0, "warn": 1, "page": 2}
        for objective in sorted(slo):
            out.sample(
                "repro_slo_alert",
                {"objective": objective},
                severity.get((slo[objective] or {}).get("state"), 0),
            )

    return out.text()


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$'
)


def parse_prometheus(text: str) -> dict[str, int]:
    """Strictly check exposition text; return samples-per-family.

    Raises ``ValueError`` on any malformed line, bad label pair,
    non-numeric value, or sample whose family was never declared with
    ``# TYPE``.  Histogram series (``_bucket``/``_sum``/``_count``)
    count toward their base family.
    """
    declared: set[str] = set()
    counts: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: bad comment {line!r}")
            if parts[1] == "TYPE":
                declared.add(parts[2])
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: bad sample {line!r}")
        name = match.group("name")
        labels = match.group("labels")
        if labels:
            for pair in re.split(r",(?=[a-zA-Z_])", labels):
                if not _LABEL_RE.match(pair):
                    raise ValueError(
                        f"line {lineno}: bad label pair {pair!r}"
                    )
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad value {value!r}"
                ) from None
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in declared and family not in declared:
            raise ValueError(
                f"line {lineno}: sample for undeclared family {name!r}"
            )
        counts[family] = counts.get(family, 0) + 1
    return counts
