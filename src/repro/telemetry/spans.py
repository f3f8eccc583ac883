"""Host-side wall-clock spans over the TraceRecorder substrate.

A span measures one host phase (preprocessing, a baseline's training
loop, a likelihood evaluation) with ``time.perf_counter`` and records
it as an :class:`~repro.gpusim.trace.Interval` — the same record type
the simulator emits — into the active session's host trace. Exporters
can therefore merge simulated-clock kernel intervals and wall-clock
host phases into one Chrome/Perfetto trace
(:func:`repro.gpusim.trace.to_chrome_json`).

Every span also lands in the active registry as an observation of the
``span_seconds`` histogram (labelled by span name), which is what
deduplicates the hand-rolled ``time.perf_counter()`` bookkeeping the
baselines used to carry.

Usage::

    with span("sync", device=g):
        ...                      # timed block

    with span("train:warplda") as sp:
        ...
    print(sp.duration)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.gpusim.trace import TraceRecorder
from repro.telemetry.context import active_session
from repro.telemetry.registry import MetricsRegistry

__all__ = ["Span", "span"]

#: Fallback epoch when no session is active: module import time, so
#: bare spans still produce small, plottable timestamps.
_MODULE_EPOCH = time.perf_counter()

#: Trace kind of host spans. Deliberately distinct from the simulator's
#: kinds so span rows never enter kernel-time breakdowns.
SPAN_KIND = "span"


@dataclass
class Span:
    """One completed (or in-flight) host phase."""

    name: str
    device: int = -1
    #: Wall-clock endpoints relative to the session epoch.
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@contextmanager
def span(
    name: str,
    device: int = -1,
    trace: TraceRecorder | None = None,
    registry: MetricsRegistry | None = None,
) -> Iterator[Span]:
    """Time the enclosed block as one host-side span.

    Parameters
    ----------
    name: span label (``span_seconds`` histogram label, trace label).
    device: device id to attribute the span to (-1 = host, the
        default; pass a GPU id for per-device host phases like a
        per-GPU sync wait).
    trace / registry: explicit sinks; default to the active session's
        (see :mod:`repro.telemetry.context`). With neither a session
        nor explicit sinks the span still measures ``duration``.
    """
    session = active_session()
    if trace is None and session is not None:
        trace = session.trace
    if registry is None and session is not None:
        registry = session.registry
    epoch = session.epoch if session is not None else _MODULE_EPOCH

    sp = Span(name=name, device=device)
    t0 = time.perf_counter()
    try:
        yield sp
    finally:
        t1 = time.perf_counter()
        sp.start, sp.end = t0 - epoch, t1 - epoch
        if trace is not None:
            stream = "host" if device < 0 else f"host:dev{device}"
            trace.add(
                device_id=device,
                stream=stream,
                kind=SPAN_KIND,
                label=name,
                start=sp.start,
                end=sp.end,
            )
        if registry is not None:
            registry.histogram(
                "span_seconds",
                "wall-clock duration of host-side phases",
                ("name",),
            ).observe(sp.duration, name=name)
