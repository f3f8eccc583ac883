"""Exporters: Prometheus text format, JSONL events, markdown snapshot.

- :func:`to_prometheus` / :func:`parse_prometheus_text` — the standard
  text exposition format (``# HELP`` / ``# TYPE`` headers, histogram
  ``_bucket``/``_sum``/``_count`` series) and a parser good enough for
  round-trip tests and scraping the profile CLI's output.
- :func:`event_to_json` / :func:`jsonable` — one training event as one
  JSON line (numpy scalars coerced, non-serializable values dropped).
- :func:`metrics_markdown` — the snapshot table ``repro.report`` embeds.

The Chrome/Perfetto trace is :func:`repro.gpusim.trace.to_chrome_json`.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from repro.telemetry.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "to_prometheus",
    "parse_prometheus_text",
    "event_to_json",
    "jsonable",
    "metrics_markdown",
]


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _fmt_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{v}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt_value(v: float) -> str:
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    for m in registry:
        if m.help:
            lines.append(f"# HELP {m.name} {m.help}")
        lines.append(f"# TYPE {m.name} {m.kind}")
        if isinstance(m, (Counter, Gauge)):
            for s in m.samples():
                lines.append(
                    f"{s.name}{_fmt_labels(s.labels)} {_fmt_value(s.value)}"
                )
        elif isinstance(m, Histogram):
            for key in m.label_keys():
                labels = m._label_dict(key)
                for le, count in m.bucket_counts(**labels):
                    blabels = dict(labels)
                    blabels["le"] = _fmt_value(le)
                    lines.append(
                        f"{m.name}_bucket{_fmt_labels(blabels)} {count}"
                    )
                lines.append(
                    f"{m.name}_sum{_fmt_labels(labels)} "
                    f"{_fmt_value(m.sum(**labels))}"
                )
                lines.append(
                    f"{m.name}_count{_fmt_labels(labels)} {m.count(**labels)}"
                )
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse exposition text back into ``{(name, labels): value}``.

    Labels are returned as a sorted tuple of ``(key, value)`` pairs so
    entries hash; ``+Inf``/``-Inf``/``NaN`` values parse to floats.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"unparseable sample line: {line!r}")
        labels = tuple(sorted(_LABEL_RE.findall(m.group("labels") or "")))
        raw = m.group("value")
        value = float(raw.replace("+Inf", "inf").replace("-Inf", "-inf"))
        out[(m.group("name"), labels)] = value
    return out


# ----------------------------------------------------------------------
# JSONL events
# ----------------------------------------------------------------------

_DROP = object()


def jsonable(value: object) -> object:
    """Coerce *value* for JSON; unknown objects become the drop marker."""
    if value is None or isinstance(value, (bool, int, float, str)):
        if isinstance(value, float) and not math.isfinite(value):
            return repr(value)
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return jsonable(float(value))
    if isinstance(value, np.ndarray):
        if value.size > 4096:
            return _DROP
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {
            str(k): v2
            for k, v2 in ((k, jsonable(v)) for k, v in value.items())
            if v2 is not _DROP
        }
    if isinstance(value, (list, tuple)):
        return [v2 for v2 in (jsonable(v) for v in value) if v2 is not _DROP]
    return _DROP


def event_to_json(hook: str, event: dict[str, object]) -> str:
    """One callback event as one JSON line (``event`` key first)."""
    payload = {"event": hook}
    body = jsonable(event)
    if isinstance(body, dict):
        body.pop("event", None)
        payload.update(body)
    return json.dumps(payload)


# ----------------------------------------------------------------------
# Markdown snapshot (for repro.report)
# ----------------------------------------------------------------------

def metrics_markdown(registry: MetricsRegistry, top: int = 40) -> str:
    """A compact markdown table of the registry's current values."""
    lines = ["| metric | kind | labels | value |", "|---|---|---|---|"]
    rows = 0
    for m in registry:
        if isinstance(m, Histogram):
            for key in m.label_keys():
                labels = m._label_dict(key)
                label_s = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                cnt = m.count(**labels)
                p50 = m.quantile(0.5, **labels) if cnt else float("nan")
                lines.append(
                    f"| {m.name} | histogram | {label_s or '—'} | "
                    f"n={cnt}, sum={m.sum(**labels):.6g}, p50={p50:.6g} |"
                )
                rows += 1
        else:
            for s in m.samples():
                label_s = ",".join(
                    f"{k}={v}" for k, v in sorted(s.labels.items())
                )
                lines.append(
                    f"| {s.name} | {m.kind} | {label_s or '—'} | "
                    f"{s.value:.6g} |"
                )
                rows += 1
        if rows >= top:
            lines.append(f"| … | | | ({len(registry)} families total) |")
            break
    return "\n".join(lines)
