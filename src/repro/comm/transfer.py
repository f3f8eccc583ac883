"""Fault-aware transfer primitives shared by every collective.

This module owns the retry/fallback policy that PR 3 introduced for
sync transfers (:class:`TransferRetry`), the retry loop itself
(:func:`with_retry`), and the degraded host re-route for peer copies
(:func:`resilient_p2p`). All collectives — tree, ring, cpu_gather,
hierarchical — and the serving φ re-broadcast funnel their link
operations through here, which is what lets them surface one uniform,
structured :class:`~repro.gpusim.errors.SyncPathError` naming the dead
link and the endpoint devices when a topology has no usable path,
instead of a bare mid-transfer ``LinkDown`` whose shape depends on the
algorithm. Ethernet messages retry inside
:meth:`~repro.cluster.network.ClusterNetwork.send`, which takes the
same :class:`TransferRetry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.gpusim.errors import LinkDown, SyncPathError
from repro.gpusim.memory import DeviceArray
from repro.gpusim.platform import Machine
from repro.gpusim.stream import Stream
from repro.telemetry.context import emit_counter

__all__ = [
    "TransferRetry",
    "with_retry",
    "resilient_p2p",
]

_T = TypeVar("_T")


@dataclass(frozen=True)
class TransferRetry:
    """Retry policy for link transfers during synchronization.

    When a transfer raises :class:`~repro.gpusim.errors.LinkDown`, it is
    retried up to ``max_retries`` times; each retry charges an
    exponentially growing backoff stall (``backoff_seconds`` doubling per
    attempt) on the issuing stream. If a *peer* link stays down past the
    retry budget, the copy is re-routed through host memory (d2h on the
    sender + h2d on the receiver — the degraded CPU-gather path of
    §5.2), itself retried. ``None`` anywhere a ``retry`` parameter is
    accepted means fail fast (seed behaviour).
    """

    max_retries: int = 3
    backoff_seconds: float = 1e-4

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_seconds <= 0:
            raise ValueError("backoff_seconds must be positive")


def _path_error(
    exc: LinkDown, op: str, devices: tuple[int, ...]
) -> SyncPathError:
    return SyncPathError(
        exc.link_name, op, devices=devices, transient=exc.transient
    )


def with_retry(
    op: Callable[[], _T],
    stream: Stream,
    label: str,
    retry: TransferRetry | None,
    devices: tuple[int, ...] = (),
) -> _T:
    """Run *op*, retrying on LinkDown with backoff charged to *stream*.

    A failure that exhausts the budget (or any failure with no *retry*
    policy) is re-raised as a structured
    :class:`~repro.gpusim.errors.SyncPathError` naming the link, the
    operation *label*, and the endpoint *devices*.
    """
    budget = retry.max_retries if retry is not None else 0
    for attempt in range(budget + 1):
        try:
            return op()
        except SyncPathError:
            raise
        except LinkDown as exc:
            if attempt == budget:
                raise _path_error(exc, label, devices) from exc
            emit_counter(
                "transfer_retries_total", 1,
                help="link transfers retried after a transient failure",
                link=exc.link_name, op=label,
            )
            stream.enqueue(
                duration=retry.backoff_seconds * 2.0**attempt,
                kind="stall", label=f"retry_backoff:{label}",
            )
    raise AssertionError("unreachable")  # pragma: no cover


def resilient_p2p(
    machine: Machine,
    dst: DeviceArray,
    src: DeviceArray,
    dst_stream: Stream,
    src_stream: Stream,
    label: str,
    retry: TransferRetry | None,
) -> tuple[float, float]:
    """P2P copy with retry and, when the peer link stays down, a degraded
    re-route through host memory (the paper's rejected gather path,
    pressed into service as a fault-tolerance fallback)."""
    devices = (src.device.device_id, dst.device.device_id)
    try:
        return with_retry(
            lambda: machine.memcpy_p2p(dst, src, stream=dst_stream, label=label),
            dst_stream, label, retry, devices=devices,
        )
    except LinkDown as exc:
        if retry is None:
            raise
        emit_counter(
            "degraded_sync_total", 1,
            help="p2p transfers re-routed through host memory",
            link=exc.link_name, op=label,
        )
        _, staged, host = with_retry(
            lambda: machine.memcpy_d2h(
                src, stream=src_stream, label=f"{label}_via_host_d2h",
                pinned=False,
            ),
            src_stream, f"{label}_via_host_d2h", retry,
            devices=(src.device.device_id,),
        )
        return with_retry(
            lambda: machine.memcpy_h2d(
                dst, host, stream=dst_stream, label=f"{label}_via_host_h2d",
                pinned=False, not_before=staged,
            ),
            dst_stream, f"{label}_via_host_h2d", retry,
            devices=(dst.device.device_id,),
        )

