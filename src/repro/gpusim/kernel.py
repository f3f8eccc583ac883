r"""Kernel launch abstraction.

A simulated "kernel" is a Python callable plus a :class:`KernelCost`.
Launching it on a stream executes the callable immediately (real NumPy
numerics on :class:`~repro.gpusim.memory.DeviceArray` buffers) and
charges the roofline time on the stream's simulated timeline.

Kernels in :mod:`repro.core.kernels` follow the CUDA discipline the
paper describes: they derive their cost from launch geometry (blocks of
32 warps × 32 threads), count their *global* traffic with the Table 1
byte formulas, and omit traffic served by shared memory (staged p\*
columns, index trees) — which is how the paper's shared-memory
optimizations show up as speedups here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.gpusim.costmodel import KernelCost

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpusim.memory import DeviceArray
    from repro.gpusim.stream import Stream

__all__ = ["KernelLaunch"]


@dataclass
class KernelLaunch:
    """A (callable, cost, label) triple ready to run on a stream.

    Attributes
    ----------
    fn: zero-argument callable performing the kernel's real work
        (typically a closure over DeviceArrays).
    cost: resource footprint used by the cost model.
    label: trace label (e.g. ``"sampling"``, ``"update_theta"``).
    kind: trace kind used for breakdowns; defaults to the label.
    reads / writes: the device buffers the kernel reads and writes,
        which order it after the operations that touch them
        (:meth:`~repro.gpusim.stream.Stream.enqueue`). A buffer both
        read and written need only be listed as written.
    """

    fn: Callable[[], object]
    cost: KernelCost
    label: str
    kind: str | None = None
    reads: tuple["DeviceArray", ...] = ()
    writes: tuple["DeviceArray", ...] = ()

    def launch(self, stream: "Stream", not_before: float = 0.0) -> tuple[float, float, object]:
        """Execute on *stream*; returns ``(start, end, result)``."""
        machine = stream.device.machine
        duration = machine.cost_model.kernel_seconds(stream.device.spec, self.cost)
        return stream.enqueue(
            duration=duration,
            kind=self.kind or self.label,
            label=self.label,
            fn=self.fn,
            not_before=not_before,
            bytes_moved=self.cost.total_bytes,
            flops=self.cost.flops,
            reads=self.reads,
            writes=self.writes,
        )
