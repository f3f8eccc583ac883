"""Streams over the simulated clock.

Timing semantics mirror CUDA's:

- Operations enqueued on one stream execute in order; the stream's
  ``available_at`` advances past each.
- Operations on different streams (or devices) may overlap — this is
  what makes the paper's WorkSchedule2 transfer/compute overlap (§5.1)
  observable in the simulated timeline.
- An operation names the device buffers it reads and writes. It starts
  no earlier than the last write to any byte it reads or writes ends,
  and no earlier than the last read of any byte it writes ends (each
  buffer's stamps, :meth:`~repro.gpusim.memory.DeviceArray.ready_at`),
  whichever streams those ran on. So a copy waits for its source to be
  written, a kernel for its inputs, and a chunk's upload for the last
  use of the slot it overwrites, with no event placed by hand.
- An operation starts no earlier than the host clock, and no earlier
  than its ``not_before``: an order that is not about a device buffer,
  such as a link grant or data relayed through host memory.

An operation is *executed functionally at enqueue time* (its NumPy work
happens immediately) but is *charged* on the simulated timeline. That is
sound because the harness only enqueues an operation after everything it
depends on has been enqueued — the schedulers in :mod:`repro.sched` are
written in that (standard CUDA) style.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.gpusim.errors import DeviceLost, KernelFault

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpusim.device import Device
    from repro.gpusim.memory import DeviceArray

__all__ = ["Stream"]


class Stream:
    """An in-order queue of simulated operations on one device."""

    def __init__(self, device: "Device", stream_id: int, label: str):
        self.device = device
        self.stream_id = stream_id
        self.label = label
        self.available_at = 0.0

    # ------------------------------------------------------------------
    # Enqueueing
    # ------------------------------------------------------------------
    def earliest(
        self, reads: Sequence[DeviceArray] = (), writes: Sequence[DeviceArray] = ()
    ) -> float:
        """When an operation issued now may start: after the stream's
        last operation and the host clock, and once its *reads* and
        *writes* are ready to touch."""
        machine = self.device.machine
        epoch = machine.clock_epoch
        return max(
            self.available_at,
            machine.host_time,
            *(buf.ready_at(False, epoch) for buf in reads),
            *(buf.ready_at(True, epoch) for buf in writes),
        )

    def enqueue(
        self,
        duration: float,
        kind: str,
        label: str,
        fn: Callable[[], object] | None = None,
        not_before: float = 0.0,
        bytes_moved: float = 0.0,
        flops: float = 0.0,
        reads: Sequence[DeviceArray] = (),
        writes: Sequence[DeviceArray] = (),
    ) -> tuple[float, float, object]:
        """Run *fn* now; charge ``duration`` seconds on this stream.

        Returns ``(start, end, result)`` in simulated time. The operation
        starts at :meth:`earliest` for the device buffers it *reads* and
        *writes*, and stamps them until its end. ``not_before`` lets
        callers add a dependency that is not a buffer (a link grant, or
        the end of the copy that staged a relayed payload on the host).
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if not self.device.alive:
            raise DeviceLost(self.device.device_id)
        if self.device.take_kernel_fault(kind):
            raise KernelFault(self.device.device_id, label)
        start = max(self.earliest(reads, writes), not_before)
        end = start + duration
        self.available_at = end
        now = self.device.machine.host_time
        for buf in reads:
            buf.stamp(end, False, now)
        for buf in writes:
            buf.stamp(end, True, now)
        result = fn() if fn is not None else None
        self.device.machine.trace.add(
            device_id=self.device.device_id,
            stream=f"{self.device.device_id}.{self.label}",
            kind=kind,
            label=label,
            start=start,
            end=end,
            bytes_moved=bytes_moved,
            flops=flops,
        )
        return start, end, result

    def synchronize(self) -> float:
        """Block the host until this stream drains; returns that time."""
        self.device.machine.advance_host(self.available_at)
        return self.available_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Stream(dev={self.device.device_id}, {self.label!r}, "
            f"available_at={self.available_at:.6f})"
        )
