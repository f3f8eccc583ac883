"""Timeline recording and breakdown reporting.

Every simulated operation (kernel, copy) lands here as an
:class:`Interval`. The recorder answers the questions the paper's
evaluation asks of its profiler:

- per-kind time breakdown (Table 5: Sampling / Update θ / Update φ),
- busy time per device (multi-GPU load balance),
- overlap checks (did WorkSchedule2 actually hide the transfers?).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

__all__ = ["Interval", "TraceRecorder", "cluster_trace", "to_chrome_json",
           "union_length"]


@dataclass(frozen=True)
class Interval:
    """One operation on the simulated timeline."""

    device_id: int
    stream: str
    kind: str
    label: str
    start: float
    end: float
    bytes_moved: float = 0.0
    flops: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(spans: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` *spans*: merged in sorted
    order, so overlapping spans count once."""
    busy = 0.0
    cur_s = cur_e = None
    for s, e in sorted(spans):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                busy += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        busy += cur_e - cur_s
    return busy


class TraceRecorder:
    """Accumulates :class:`Interval` records for one machine."""

    def __init__(self):
        self.intervals: list[Interval] = []

    def add(
        self,
        device_id: int,
        stream: str,
        kind: str,
        label: str,
        start: float,
        end: float,
        bytes_moved: float = 0.0,
        flops: float = 0.0,
    ) -> None:
        if end < start:
            raise ValueError("interval end precedes start")
        self.intervals.append(
            Interval(device_id, stream, kind, label, start, end, bytes_moved, flops)
        )

    def clear(self) -> None:
        self.intervals.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total_time_by_kind(self) -> dict[str, float]:
        """Summed durations per operation kind (may overlap in time)."""
        out: dict[str, float] = defaultdict(float)
        for iv in self.intervals:
            out[iv.kind] += iv.duration
        return dict(out)

    def breakdown_fractions(self, kinds: Iterable[str] | None = None) -> dict[str, float]:
        """Each kind's share of the summed busy time (Table 5 format)."""
        totals = self.total_time_by_kind()
        if kinds is not None:
            totals = {k: totals.get(k, 0.0) for k in kinds}
        grand = sum(totals.values())
        if grand == 0:
            return {k: 0.0 for k in totals}
        return {k: v / grand for k, v in totals.items()}

    def device_busy_time(self, device_id: int) -> float:
        """Union length of the device's busy intervals (overlap-merged)."""
        return union_length(
            (iv.start, iv.end)
            for iv in self.intervals
            if iv.device_id == device_id
        )

    def makespan(self) -> float:
        """End time of the last interval (0.0 if empty)."""
        return max((iv.end for iv in self.intervals), default=0.0)

    def overlap_seconds(self, kind_a: str, kind_b: str) -> float:
        """Total time during which a *kind_a* interval and a *kind_b*
        interval are simultaneously in flight (anywhere in the machine).

        Used by tests to assert that WorkSchedule2 pipelining really
        overlaps transfers with compute.
        """
        a = sorted(
            (iv.start, iv.end) for iv in self.intervals if iv.kind == kind_a
        )
        b = sorted(
            (iv.start, iv.end) for iv in self.intervals if iv.kind == kind_b
        )
        i = j = 0
        total = 0.0
        while i < len(a) and j < len(b):
            s = max(a[i][0], b[j][0])
            e = min(a[i][1], b[j][1])
            if e > s:
                total += e - s
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return total

    def gantt_text(self, width: int = 72) -> str:
        """A coarse text Gantt chart of the timeline (one row per stream).

        Rows group by device id, then stream name — numerically, so on
        a big box ``10.compute`` sorts after ``2.compute`` instead of
        lexicographically before it.
        """
        if not self.intervals:
            return "(empty trace)"
        t_end = self.makespan()
        if t_end == 0:
            return "(zero-length trace)"
        rows: dict[str, list[str]] = {}
        stream_device: dict[str, int] = {}
        for iv in sorted(self.intervals, key=lambda x: (x.stream, x.start)):
            row = rows.setdefault(iv.stream, [" "] * width)
            stream_device.setdefault(iv.stream, iv.device_id)
            lo = min(width - 1, int(iv.start / t_end * width))
            hi = min(width, max(lo + 1, int(iv.end / t_end * width)))
            mark = iv.kind[0].upper() if iv.kind else "#"
            for c in range(lo, hi):
                row[c] = mark
        lines = [f"timeline 0 .. {t_end:.6f}s"]
        for stream in sorted(rows, key=lambda s: (stream_device[s], s)):
            lines.append(f"{stream:>16s} |{''.join(rows[stream])}|")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.intervals)


def cluster_trace(traces: Sequence[TraceRecorder], gpus_per_node: int) -> TraceRecorder:
    """One recorder over the traces of a cluster whose machines share one
    clock. Node *n*'s GPU *j* becomes device ``n·G + j``, the global id
    fault plans use, and node *n*'s host device ``−2 − n`` (stream
    ``node{n}.host``), apart from the telemetry host spans at −1. A
    single machine's trace is returned as it is."""
    if len(traces) == 1:
        return traces[0]
    merged = TraceRecorder()
    for n, trace in enumerate(traces):
        for iv in trace.intervals:
            if iv.device_id < 0:
                dev, stream = -2 - n, f"node{n}.host"
            else:
                dev = n * gpus_per_node + iv.device_id
                stream = f"{dev}.{iv.stream.split('.', 1)[1]}"
            merged.intervals.append(replace(iv, device_id=dev, stream=stream))
    return merged


def to_chrome_json(trace: TraceRecorder, extra: TraceRecorder | None = None) -> str:
    """Export a trace as Chrome-tracing JSON (chrome://tracing, Perfetto).

    Devices map to processes, streams to threads; times are microseconds
    as the format requires. Thread ids are stable integers — streams of
    one device are numbered in sorted-name order — with ``thread_name``
    metadata events carrying the stream names (appended after the slice
    events, so consumers indexing ``traceEvents[0]`` still see a slice).

    *extra* optionally merges a second recorder into the same document,
    e.g. the telemetry session's host-span trace: host spans land under
    pid -1. Both clocks start at zero, so the host rows read as
    wall-clock phases beside the simulated timeline, not as aligned
    absolutes.

    Load the returned string from a ``.json`` file to inspect kernel
    overlap visually.
    """
    import json

    intervals = list(trace.intervals)
    if extra is not None:
        intervals.extend(extra.intervals)

    # Stable integer tids: per device, streams numbered by sorted name.
    by_device: dict[int, set[str]] = defaultdict(set)
    for iv in intervals:
        by_device[iv.device_id].add(iv.stream)
    tid_of: dict[tuple[int, str], int] = {}
    for dev, streams in by_device.items():
        for tid, stream in enumerate(sorted(streams)):
            tid_of[(dev, stream)] = tid

    events = []
    for iv in intervals:
        events.append(
            {
                "name": iv.label,
                "cat": iv.kind,
                "ph": "X",
                "ts": iv.start * 1e6,
                "dur": iv.duration * 1e6,
                "pid": iv.device_id,
                "tid": tid_of[(iv.device_id, iv.stream)],
                "args": {
                    "bytes": iv.bytes_moved,
                    "flops": iv.flops,
                },
            }
        )
    for (dev, stream), tid in sorted(tid_of.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": dev,
                "tid": tid,
                "args": {"name": stream},
            }
        )
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
