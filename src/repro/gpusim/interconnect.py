"""Interconnect links: PCIe, NVLink, Ethernet.

A :class:`Link` is a contended, half-duplex-per-direction resource with
latency + bandwidth timing. Each transfer reserves the link's timeline,
so two simultaneous copies over the same PCIe lane serialize — which is
exactly the effect the paper's reduce *tree* (Fig 4) exploits by pairing
disjoint GPU pairs in each step.
"""

from __future__ import annotations

from repro.gpusim.errors import LinkDown

__all__ = ["Link"]


class Link:
    """A point-to-point (or shared-bus) communication resource.

    Parameters
    ----------
    name: label ("pcie[0]", "p2p[0-1]", "eth").
    bandwidth_gbps: bandwidth in **gigabytes** per second.
    latency_seconds: per-message latency.
    duplex: if True, each direction has an independent timeline
        (PCIe 3.0 is full duplex); if False both directions contend.
    """

    def __init__(
        self,
        name: str,
        bandwidth_gbps: float,
        latency_seconds: float = 5e-6,
        duplex: bool = True,
    ):
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_seconds < 0:
            raise ValueError("latency must be non-negative")
        self.name = name
        self.bandwidth_gbps = bandwidth_gbps
        self.latency_seconds = latency_seconds
        self.duplex = duplex
        self._busy_until = {0: 0.0, 1: 0.0}  # direction -> frontier
        self.bytes_carried = 0.0
        self.num_transfers = 0
        # Fault-injection state (see repro.faults). Healthy defaults.
        self.up = True
        self.bandwidth_scale = 1.0
        self._fail_next = 0
        self._corrupt_next = 0
        self.num_failed_transfers = 0

    @property
    def bandwidth_bytes(self) -> float:
        return self.bandwidth_gbps * 1e9

    # ------------------------------------------------------------------
    # Fault hooks (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def set_down(self, down: bool = True) -> None:
        """Take the link out of (or back into) service permanently."""
        self.up = not down

    def fail_next(self, count: int = 1) -> None:
        """Make the next *count* transfer attempts fail transiently."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._fail_next += int(count)

    def degrade(self, scale: float) -> None:
        """Scale the link's effective bandwidth (1.0 restores it)."""
        if scale <= 0:
            raise ValueError("bandwidth scale must be positive")
        self.bandwidth_scale = float(scale)

    def corrupt_next(self, count: int = 1) -> None:
        """Silently corrupt the payload of the next *count* transfers."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._corrupt_next += int(count)

    def take_corruption(self) -> bool:
        """Consume one pending corruption (called by the machine's
        memcpy paths when a transfer is granted)."""
        if self._corrupt_next > 0:
            self._corrupt_next -= 1
            return True
        return False

    def admit(self) -> None:
        """Raise :class:`~repro.gpusim.errors.LinkDown` if the link cannot
        carry a transfer now: it is out of service, or a transient fault
        is pending (which this attempt consumes)."""
        if not self.up:
            self.num_failed_transfers += 1
            raise LinkDown(self.name)
        if self._fail_next > 0:
            self._fail_next -= 1
            self.num_failed_transfers += 1
            raise LinkDown(self.name, transient=True)

    def reserve(self, nbytes: float, earliest: float, direction: int = 0) -> tuple[float, float]:
        """Reserve the link for *nbytes* starting no earlier than *earliest*.

        Returns the ``(start, end)`` simulated interval. ``direction`` is
        0 or 1; ignored (mapped to 0) on non-duplex links.

        Raises :class:`~repro.gpusim.errors.LinkDown` when the link is
        out of service or a transient fault is pending.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.admit()
        d = direction if self.duplex else 0
        if d not in (0, 1):
            raise ValueError("direction must be 0 or 1")
        start = max(earliest, self._busy_until[d])
        end = start + self.latency_seconds + nbytes / (
            self.bandwidth_bytes * self.bandwidth_scale
        )
        self._busy_until[d] = end
        self.bytes_carried += nbytes
        self.num_transfers += 1
        return start, end

    def busy_until(self, direction: int = 0) -> float:
        return self._busy_until[direction if self.duplex else 0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Link({self.name!r}, {self.bandwidth_gbps} GB/s)"
