"""Fault-aware transfers shared by every collective.

This module owns the retry policy for link transfers
(:class:`TransferRetry`) and the degraded host re-route for peer copies
(:func:`resilient_p2p`). A copy carries its own policy: the
machine's ``memcpy_h2d``, ``memcpy_d2h`` and ``memcpy_p2p`` take
``retry=`` and retry a transient link failure themselves, and every
copy that fails raises the same structured
:class:`~repro.gpusim.errors.SyncPathError` naming the link, its
operation and the devices of its buffers, whichever layer issued it.
Ethernet messages retry inside
:meth:`~repro.cluster.network.ClusterNetwork.send`, which takes the
same :class:`TransferRetry` and keeps the same rule: only a transient
failure is retried.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.errors import LinkDown
from repro.gpusim.memory import DeviceArray
from repro.gpusim.platform import Machine
from repro.gpusim.stream import Stream
from repro.telemetry.context import emit_counter

__all__ = [
    "TransferRetry",
    "resilient_p2p",
]


@dataclass(frozen=True)
class TransferRetry:
    """Retry policy for link transfers.

    When a copy's link fails transiently
    (:attr:`~repro.gpusim.errors.LinkDown.transient`), the copy is
    retried up to ``max_retries`` times; each retry charges an
    exponentially growing backoff stall (``backoff_seconds`` doubling per
    attempt) on the copy's stream. A link that is down for good is never
    retried. If a *peer* link fails past the retry budget, the copy is
    re-routed through host memory (d2h on the sender + h2d on the
    receiver — the degraded CPU-gather path of §5.2), each leg with the
    same policy. ``None`` anywhere a ``retry`` parameter is accepted
    means fail fast (seed behaviour).
    """

    max_retries: int = 3
    backoff_seconds: float = 1e-4

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_seconds <= 0:
            raise ValueError("backoff_seconds must be positive")


def resilient_p2p(
    machine: Machine,
    dst: DeviceArray,
    src: DeviceArray,
    dst_stream: Stream,
    src_stream: Stream,
    label: str,
    retry: TransferRetry | None,
) -> tuple[float, float]:
    """P2P copy with retry and, when the peer link fails past it, a
    degraded re-route through host memory (the paper's rejected gather
    path, pressed into service as a fault-tolerance fallback)."""
    try:
        return machine.memcpy_p2p(
            dst, src, stream=dst_stream, label=label, retry=retry
        )
    except LinkDown as exc:
        if retry is None:
            raise
        emit_counter(
            "degraded_sync_total", 1,
            help="p2p transfers re-routed through host memory",
            link=exc.link_name, op=label,
        )
    _, staged, host = machine.memcpy_d2h(
        src, stream=src_stream, label=f"{label}_via_host_d2h", pinned=False,
        retry=retry,
    )
    return machine.memcpy_h2d(
        dst, host, stream=dst_stream, label=f"{label}_via_host_h2d",
        pinned=False, not_before=staged, retry=retry,
    )
