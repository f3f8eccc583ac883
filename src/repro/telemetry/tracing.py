"""End-to-end request tracing for the serving path.

PR 1's :func:`repro.telemetry.spans.span` times *host* phases with the
wall clock; this module adds the request-scoped counterpart on the
**simulated** clock: every request entering
:class:`~repro.serve.service.InferenceService` is assigned a trace id
(client-supplied via ``InferenceRequest.trace_id`` or derived from the
request id), and each stage it passes through — queue wait in the
micro-batcher, token staging (h2d), the fold-in kernel, the result
download, and any hedged duplicate — is recorded as one
:class:`TraceSpan` linked to that trace id.

Span tree per request::

    request                        # arrival → terminal outcome (root)
    ├── queue                      # arrival → dispatch
    ├── staging   (lane=primary)   # token h2d on the chosen replica
    ├── kernel    (lane=primary)   # the fold-in launch
    ├── download  (lane=primary)   # doc_topic d2h
    ├── staging   (lane=hedge)     # the speculative duplicate, when
    ├── kernel    (lane=hedge)     #   hedging fired; exactly one lane
    └── download  (lane=hedge)     #   carries won=True

Rejected / failed / aged-out requests keep a degenerate tree (root
plus, when they reached dispatch, the queue span), so every submitted
request is reconstructible from its trace.

Exports: JSONL (one span per line, schema ``repro-trace/1``) and a
Chrome/Perfetto document where each trace id gets its own row —
``repro-lda profile --serve-trace`` renders the same data as a
critical-path breakdown in the terminal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "TRACE_SCHEMA",
    "TraceSpan",
    "TraceCollector",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "spans_chrome_json",
    "RequestTraceSummary",
    "summarize_traces",
    "format_serve_trace",
    "serve_trace_json",
]

#: Version tag written into every exported span record.
TRACE_SCHEMA = "repro-trace/1"

#: Stage names whose primary-lane durations make up the critical path.
STAGE_NAMES = ("queue", "staging", "kernel", "download")


@dataclass(frozen=True)
class TraceSpan:
    """One stage of one request, on the simulated clock."""

    trace_id: str
    span_id: str
    name: str
    start: float
    end: float
    parent_id: str | None = None
    kind: str = "serve"
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        record = {
            "schema": TRACE_SCHEMA,
            "trace": self.trace_id,
            "span": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "kind": self.kind,
        }
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "TraceSpan":
        for key in ("trace", "span", "name", "start", "end"):
            if key not in record:
                raise ValueError(f"span record is missing {key!r}")
        return cls(
            trace_id=str(record["trace"]),
            span_id=str(record["span"]),
            name=str(record["name"]),
            start=float(record["start"]),
            end=float(record["end"]),
            parent_id=(
                str(record["parent"]) if record.get("parent") is not None
                else None
            ),
            kind=str(record.get("kind", "serve")),
            attrs=dict(record.get("attrs", {})),
        )


class TraceCollector:
    """Accumulates spans; span ids are deterministic per trace.

    Within one trace the n-th recorded span is ``s<n>`` — so identical
    runs (same arrival trace, same machine) produce byte-identical
    exports, which is what makes replayed traces comparable.
    """

    def __init__(self) -> None:
        self.spans: list[TraceSpan] = []
        self._seq: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.spans)

    def add(
        self,
        trace_id: str,
        name: str,
        start: float,
        end: float,
        parent_id: str | None = None,
        kind: str = "serve",
        **attrs: object,
    ) -> TraceSpan:
        n = self._seq.get(trace_id, 0)
        self._seq[trace_id] = n + 1
        span = TraceSpan(
            trace_id=trace_id,
            span_id=f"s{n}",
            name=name,
            start=float(start),
            end=float(end),
            parent_id=parent_id,
            kind=kind,
            attrs={k: v for k, v in attrs.items() if v is not None},
        )
        self.spans.append(span)
        return span

    def by_trace(self) -> dict[str, list[TraceSpan]]:
        out: dict[str, list[TraceSpan]] = {}
        for span in self.spans:
            out.setdefault(span.trace_id, []).append(span)
        return out


# ----------------------------------------------------------------------
# JSONL + Chrome export
# ----------------------------------------------------------------------

def write_spans_jsonl(spans: list[TraceSpan], path: str | Path) -> None:
    """One span per line, in recording order."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_dict()) + "\n")


def read_spans_jsonl(path: str | Path) -> list[TraceSpan]:
    """Parse a span file written by :func:`write_spans_jsonl`."""
    spans: list[TraceSpan] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno + 1}: not valid JSON ({exc})"
                ) from exc
            spans.append(TraceSpan.from_dict(record))
    return spans


def spans_chrome_json(spans: list[TraceSpan]) -> str:
    """A Chrome/Perfetto document: one row (tid) per trace id.

    All rows live under pid 0 (process-named ``serve requests``);
    timestamps are simulated seconds converted to microseconds. Hedge
    lanes keep their spans in the same row as the primary, labelled
    ``name (hedge)``, so the race is visible as overlapping slices.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "serve requests"},
        }
    ]
    tids: dict[str, int] = {}
    for span in spans:
        tid = tids.get(span.trace_id)
        if tid is None:
            tid = len(tids)
            tids[span.trace_id] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": span.trace_id},
                }
            )
        name = span.name
        if span.attrs.get("lane") == "hedge":
            name = f"{name} (hedge)"
        args = {"trace": span.trace_id, "span": span.span_id}
        args.update(span.attrs)
        events.append(
            {
                "name": name,
                "cat": span.kind,
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "args": args,
            }
        )
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


# ----------------------------------------------------------------------
# Critical-path reconstruction
# ----------------------------------------------------------------------

@dataclass
class RequestTraceSummary:
    """One request's reconstructed timeline."""

    trace_id: str
    request_id: int | None
    status: str
    latency: float
    #: Primary-lane stage durations, keyed by :data:`STAGE_NAMES`.
    stages: dict[str, float]
    replica: int | None = None
    batch_id: int | None = None
    failovers: int = 0
    hedged: bool = False
    hedge_replica: int | None = None
    hedge_won: bool = False

    @property
    def accounted(self) -> float:
        return sum(self.stages.values())


def _summarize_one(trace_id: str, spans: list[TraceSpan]) -> RequestTraceSummary:
    root = next((s for s in spans if s.name == "request"), None)
    if root is None:
        raise ValueError(f"trace {trace_id!r} has no root 'request' span")
    stages = {name: 0.0 for name in STAGE_NAMES}
    hedged = bool(root.attrs.get("hedged", False))
    hedge_replica: int | None = None
    hedge_won = False
    for span in spans:
        lane = span.attrs.get("lane")
        if lane == "hedge":
            if span.attrs.get("replica") is not None:
                hedge_replica = int(span.attrs["replica"])
            hedge_won = hedge_won or bool(span.attrs.get("won", False))
            # The winning lane's stages are the critical path.
            if not hedged:
                continue
        elif lane == "primary" and hedged:
            continue
        if span.name in stages:
            stages[span.name] += span.duration
    return RequestTraceSummary(
        trace_id=trace_id,
        request_id=(
            int(root.attrs["request_id"])
            if "request_id" in root.attrs else None
        ),
        status=str(root.attrs.get("status", "unknown")),
        latency=root.duration,
        stages=stages,
        replica=(
            int(root.attrs["replica"])
            if root.attrs.get("replica") is not None else None
        ),
        batch_id=(
            int(root.attrs["batch_id"])
            if root.attrs.get("batch_id") is not None else None
        ),
        failovers=int(root.attrs.get("failovers", 0)),
        hedged=hedged,
        hedge_replica=hedge_replica,
        hedge_won=hedge_won,
    )


def summarize_traces(spans: list[TraceSpan]) -> list[RequestTraceSummary]:
    """Per-request summaries, in order of first appearance."""
    by_trace: dict[str, list[TraceSpan]] = {}
    order: list[str] = []
    for span in spans:
        if span.trace_id not in by_trace:
            order.append(span.trace_id)
        by_trace.setdefault(span.trace_id, []).append(span)
    return [_summarize_one(tid, by_trace[tid]) for tid in order]


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:9.3f}"


def format_serve_trace(
    spans: list[TraceSpan],
    trace_id: str | None = None,
    top: int = 10,
) -> str:
    """The ``profile --serve-trace`` terminal view.

    A status roll-up, the *top* slowest completed requests with their
    stage split, and the critical path of one request (*trace_id*, or
    the slowest completed one).
    """
    summaries = summarize_traces(spans)
    if not summaries:
        return "no spans"
    lines: list[str] = []
    by_status: dict[str, int] = {}
    for s in summaries:
        by_status[s.status] = by_status.get(s.status, 0) + 1
    roll = " ".join(f"{k}={v}" for k, v in sorted(by_status.items()))
    lines.append(
        f"{len(summaries)} request trace(s), {len(spans)} span(s): {roll}"
    )

    done = [s for s in summaries if s.status == "completed"]
    ranked = sorted(done, key=lambda s: -s.latency)
    if ranked:
        lines.append("")
        lines.append(f"slowest completed requests (top {min(top, len(ranked))}):")
        header = (
            f"  {'trace':<16s} {'req':>6s} {'latency':>9s} "
            + " ".join(f"{n:>9s}" for n in STAGE_NAMES)
            + "  notes"
        )
        lines.append(header + "   (ms)")
        for s in ranked[:top]:
            notes = []
            if s.hedged:
                notes.append("hedge-won")
            elif s.hedge_replica is not None:
                notes.append("hedged")
            if s.failovers:
                notes.append(f"failover x{s.failovers}")
            lines.append(
                f"  {s.trace_id:<16s} {s.request_id if s.request_id is not None else '-':>6} "
                f"{_fmt_ms(s.latency)} "
                + " ".join(_fmt_ms(s.stages[n]) for n in STAGE_NAMES)
                + ("  " + ",".join(notes) if notes else "")
            )

    pick: RequestTraceSummary | None = None
    if trace_id is not None:
        pick = next((s for s in summaries if s.trace_id == trace_id), None)
        if pick is None:
            lines.append("")
            lines.append(f"trace id {trace_id!r} not found in this file")
    elif ranked:
        pick = ranked[0]
    if pick is not None:
        lines.append("")
        where = f"replica {pick.replica}" if pick.replica is not None else "no replica"
        lines.append(
            f"critical path — trace {pick.trace_id} "
            f"(request {pick.request_id}, {pick.status}, {where}"
            + (f", batch {pick.batch_id}" if pick.batch_id is not None else "")
            + "):"
        )
        total = pick.latency or float("nan")
        for name in STAGE_NAMES:
            dur = pick.stages[name]
            share = dur / total if total and total > 0 else 0.0
            lines.append(f"  {name:<10s} {_fmt_ms(dur)} ms  ({share:6.1%})")
        other = pick.latency - pick.accounted
        if other > 1e-12:
            lines.append(
                f"  {'(other)':<10s} {_fmt_ms(other)} ms  "
                f"({other / total:6.1%})"
            )
        if pick.hedge_replica is not None:
            outcome = "hedge won" if pick.hedged else "primary won"
            lines.append(
                f"  hedge race: duplicate on replica {pick.hedge_replica} — "
                f"{outcome}"
            )
    return "\n".join(lines)


def serve_trace_json(spans: list[TraceSpan]) -> dict:
    """The ``--serve-trace --format json`` payload (schema
    ``repro-trace/1``): per-request summaries plus a status roll-up."""
    summaries = summarize_traces(spans)
    by_status: dict[str, int] = {}
    for s in summaries:
        by_status[s.status] = by_status.get(s.status, 0) + 1
    return {
        "schema": TRACE_SCHEMA,
        "traces": len(summaries),
        "spans": len(spans),
        "status_counts": by_status,
        "requests": [
            {
                "trace": s.trace_id,
                "request_id": s.request_id,
                "status": s.status,
                "latency_seconds": s.latency,
                "stages_seconds": s.stages,
                "replica": s.replica,
                "batch_id": s.batch_id,
                "failovers": s.failovers,
                "hedged": s.hedged,
                "hedge_replica": s.hedge_replica,
            }
            for s in summaries
        ],
    }
