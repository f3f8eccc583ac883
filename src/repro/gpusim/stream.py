"""Streams and events over the simulated clock.

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
  written and a kernel for its inputs, with no event placed by hand.
- :class:`Event` captures a point on a stream's timeline
  (:meth:`Stream.record`); :meth:`Stream.wait_event` makes every later
  operation on the stream start no earlier than the event, and an event
  recorded after the wait no earlier than it either, as
  ``cudaEventRecord`` after ``cudaStreamWaitEvent`` completes only once
  the waited-on event has. Events remain for orders that are not about
  a device buffer: memory reuse, and data relayed through host memory.

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

__all__ = ["Event", "Stream"]


class Event:
    """A recorded point on the simulated timeline (CUDA event)."""

    def __init__(self, label: str = "event"):
        self.label = label
        self._time: float | None = None

    @property
    def recorded(self) -> bool:
        return self._time is not None

    @property
    def time(self) -> float:
        """The simulated time of the event; raises if never recorded."""
        if self._time is None:
            raise RuntimeError(f"event {self.label!r} was never recorded")
        return self._time

    def _record(self, t: float) -> None:
        self._time = t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Event({self.label!r}, t={self._time})"


class Stream:
    """An in-order queue of simulated operations on one device."""

    def __init__(self, device: "Device", stream_id: int, label: str):
        self.device = device
        self.stream_id = stream_id
        self.label = label
        self.available_at = 0.0
        self._pending_after = 0.0  # max event time waited on

    # ------------------------------------------------------------------
    # Dependencies
    # ------------------------------------------------------------------
    def wait_event(self, event: Event) -> None:
        """Delay subsequent operations until *event* has occurred."""
        self._pending_after = max(self._pending_after, event.time)

    def record(self, label: str = "event") -> Event:
        """Record an event at the stream's current frontier: after its
        last operation and after every event it has been told to wait
        for."""
        event = Event(label)
        event._record(max(self.available_at, self._pending_after))
        return event

    # ------------------------------------------------------------------
    # Enqueueing
    # ------------------------------------------------------------------
    def earliest(
        self, reads: Sequence[DeviceArray] = (), writes: Sequence[DeviceArray] = ()
    ) -> float:
        """When an operation issued now may start: after the stream's
        last operation, every event it waits for and the host clock, and
        once its *reads* and *writes* are ready to touch."""
        machine = self.device.machine
        epoch = machine.clock_epoch
        return max(
            self.available_at,
            self._pending_after,
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
        callers add a dependency that is not a buffer (a link grant).
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
        self._pending_after = 0.0
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
