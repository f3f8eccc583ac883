"""Device memory: capacity-enforced allocation of real NumPy buffers.

The paper's scheduling algorithm (§5.1) is driven by device memory
capacity — ``M`` is chosen so a GPU holds one chunk (M = 1) or two
(M > 1, for double buffering). The simulator enforces real capacities so
that choosing M wrong fails the same way it would on hardware:
:class:`DeviceOutOfMemoryError`.

A :class:`DeviceArray` owns a NumPy array (the *functional* content) and
an allocation ticket (the *capacity* content). Data access from "host"
code goes through :meth:`DeviceArray.data`; kernels receive DeviceArrays
and operate on ``.data`` in place, mirroring CUDA's device-pointer
discipline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpusim.device import Device

__all__ = ["DeviceOutOfMemoryError", "DeviceAllocator", "DeviceArray", "DeviceView"]


class DeviceOutOfMemoryError(MemoryError):
    """Raised when an allocation exceeds the device's remaining capacity."""


class DeviceAllocator:
    """Tracks allocated bytes against a fixed capacity."""

    def __init__(self, capacity_bytes: int, owner: str = "device"):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.owner = owner
        self._in_use = 0
        self._peak = 0
        self._live: set[int] = set()
        self._next_ticket = 0

    @property
    def bytes_in_use(self) -> int:
        return self._in_use

    @property
    def bytes_free(self) -> int:
        return self.capacity_bytes - self._in_use

    @property
    def peak_bytes(self) -> int:
        """High-water mark of allocated bytes."""
        return self._peak

    @property
    def num_live(self) -> int:
        return len(self._live)

    def allocate(self, nbytes: int) -> int:
        """Reserve *nbytes*; returns a ticket id for :meth:`free`."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self._in_use + nbytes > self.capacity_bytes:
            raise DeviceOutOfMemoryError(
                f"{self.owner}: cannot allocate {nbytes / 2**20:.1f} MiB "
                f"({self._in_use / 2**20:.1f} MiB in use of "
                f"{self.capacity_bytes / 2**20:.1f} MiB)"
            )
        ticket = self._next_ticket
        self._next_ticket += 1
        self._in_use += nbytes
        self._peak = max(self._peak, self._in_use)
        self._live.add(ticket)
        self._ticket_sizes = getattr(self, "_ticket_sizes", {})
        self._ticket_sizes[ticket] = nbytes
        return ticket

    def free(self, ticket: int) -> None:
        """Release a previous allocation. Double-free raises."""
        if ticket not in self._live:
            raise ValueError(f"{self.owner}: ticket {ticket} is not live")
        self._live.remove(ticket)
        self._in_use -= self._ticket_sizes.pop(ticket)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DeviceAllocator({self.owner}, in_use={self._in_use}, "
            f"capacity={self.capacity_bytes})"
        )


class DeviceArray:
    """A typed buffer resident in a simulated device's memory.

    Parameters
    ----------
    device: owning device.
    shape / dtype: logical array shape and element type. The *charged*
        size is ``prod(shape) * dtype.itemsize`` — so using ``uint16``
        topic indices genuinely halves the footprint, which is the
        paper's data-compression optimization (§6.1.3).
    fill: optional initial NumPy array (copied) or scalar.
    label: debugging/tracing label.
    """

    def __init__(
        self,
        device: "Device",
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float32,
        fill: np.ndarray | float | int | None = None,
        label: str = "buf",
    ):
        self.device = device
        self.shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self.dtype = np.dtype(dtype)
        self.label = label
        self.nbytes = int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize
        self._ticket = device.allocator.allocate(self.nbytes)
        self._freed = False
        if isinstance(fill, np.ndarray):
            if fill.shape != self.shape:
                device.allocator.free(self._ticket)
                raise ValueError(f"fill shape {fill.shape} != {self.shape}")
            self._data = np.ascontiguousarray(fill, dtype=self.dtype).copy()
        elif fill is None:
            self._data = np.zeros(self.shape, dtype=self.dtype)
        else:
            self._data = np.full(self.shape, fill, dtype=self.dtype)

    @property
    def data(self) -> np.ndarray:
        """The underlying NumPy buffer (raises after :meth:`free`)."""
        if self._freed:
            raise RuntimeError(f"use-after-free of device buffer {self.label!r}")
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        if self._freed:
            raise RuntimeError(f"use-after-free of device buffer {self.label!r}")
        if value.shape != self.shape or np.dtype(value.dtype) != self.dtype:
            raise ValueError("replacement buffer must match shape and dtype")
        self._data = np.ascontiguousarray(value)

    @property
    def freed(self) -> bool:
        return self._freed

    def free(self) -> None:
        """Release the device memory. Safe to call once."""
        if self._freed:
            raise RuntimeError(f"double free of device buffer {self.label!r}")
        self.device.allocator.free(self._ticket)
        self._freed = True
        self._data = np.empty(0, dtype=self.dtype)

    def copy_to_host(self) -> np.ndarray:
        """A host-side copy of the buffer's contents (no time charged —
        use :meth:`Machine.memcpy_d2h` for timed transfers)."""
        return self.data.copy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "freed" if self.freed else f"{self.nbytes}B"
        return (
            f"DeviceArray({self.label!r}, shape={self.shape}, "
            f"dtype={self.dtype.name}, {state}, dev={self.device.device_id})"
        )


class DeviceView(DeviceArray):
    """A typed window onto bytes ``offset:offset + nbytes`` of another
    :class:`DeviceArray`, as a pointer offset into one ``cudaMalloc``:
    one field of a buffer laid out by hand, or rows ``lo:hi`` of a K×V
    φ as a copy endpoint. It allocates nothing; kernels and copies use
    it like any buffer, and it is freed with its base."""

    def __init__(
        self,
        base: DeviceArray,
        offset: int,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type,
        label: str = "view",
    ):
        self.device = base.device
        self.shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self.dtype = np.dtype(dtype)
        self.label = label
        self.nbytes = int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize
        if offset < 0 or offset + self.nbytes > base.nbytes:
            raise ValueError(
                f"view {label!r} [{offset}, {offset + self.nbytes}) lies "
                f"outside its base's {base.nbytes} bytes"
            )
        self._base = base
        self._offset = offset

    @property
    def data(self) -> np.ndarray:
        raw = self._base.data.reshape(-1).view(np.uint8)
        raw = raw[self._offset : self._offset + self.nbytes]
        return raw.view(self.dtype).reshape(self.shape)

    @property
    def freed(self) -> bool:
        return self._base.freed

    def free(self) -> None:
        raise RuntimeError(f"view {self.label!r} is freed with its base")
