"""Roofline cost model.

The paper's §3 characterization shows LDA sampling performs ~0.27
floating-point operations per byte of memory traffic (Table 1), far
below the compute/bandwidth ratio of any evaluated processor, so the
sampling time is governed by memory traffic. The simulator therefore
charges each kernel

.. math::

    t = \\max\\left(\\frac{B}{BW_{eff}},\\; \\frac{F}{FLOPS_{eff}},\\;
                  t_{atomic}\\right) + t_{launch} + t_{wave}

where :math:`BW_{eff}` is the device's peak bandwidth derated by an
architecture-specific efficiency (Table 2 platforms differ in cache and
scheduling quality — this is how the paper's Volta achieves a
super-bandwidth-ratio speedup), and :math:`t_{wave}` charges the tail
effect when the block count is not a multiple of what the SMs co-run.

Shared-memory and L1 reuse are modeled by the *kernels themselves*:
bytes served from shared memory are simply not counted in ``bytes_read``
(they were counted once, when the block staged them). This keeps the
cost model mechanism-free and puts the optimization story (sub-expression
reuse, shared p2 tree, compression) where the paper puts it — in the
kernel's traffic, not in a magic constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["KernelCost", "CostModel"]


@dataclass(frozen=True)
class KernelCost:
    """Resource footprint of one kernel launch.

    Attributes
    ----------
    bytes_read / bytes_written:
        Global (off-chip) memory traffic in bytes. On-chip traffic
        (shared memory, register shuffles) is free by design.
    flops:
        Floating-point operations.
    atomic_ops:
        Global atomic operations; charged at the device's atomic
        throughput *scaled by the locality factor* — the paper (§6.2)
        observes that atomics with good locality are fast on NVIDIA GPUs.
    atomic_locality:
        In [0, 1]; 1.0 = perfectly coalesced/local atomics (word-sorted φ
        update), 0.0 = fully scattered.
    num_blocks / shared_mem_per_block:
        Launch geometry, used for the wave/tail charge and shared-memory
        capacity checks.
    """

    bytes_read: float = 0.0
    bytes_written: float = 0.0
    flops: float = 0.0
    atomic_ops: float = 0.0
    atomic_locality: float = 1.0
    num_blocks: int = 1
    shared_mem_per_block: int = 0

    def __post_init__(self) -> None:
        for name in ("bytes_read", "bytes_written", "flops", "atomic_ops"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.atomic_locality <= 1.0:
            raise ValueError("atomic_locality must be in [0, 1]")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")

    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written

    @property
    def flops_per_byte(self) -> float:
        """Arithmetic intensity (Eq 3 of the paper)."""
        if self.total_bytes == 0:
            return float("inf")
        return self.flops / self.total_bytes

    def __add__(self, other: "KernelCost") -> "KernelCost":
        """Combine two cost footprints launched as one kernel."""
        if not isinstance(other, KernelCost):
            return NotImplemented
        total_atomics = self.atomic_ops + other.atomic_ops
        locality = (
            (self.atomic_ops * self.atomic_locality + other.atomic_ops * other.atomic_locality)
            / total_atomics
            if total_atomics
            else 1.0
        )
        return KernelCost(
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            flops=self.flops + other.flops,
            atomic_ops=total_atomics,
            atomic_locality=locality,
            num_blocks=max(self.num_blocks, other.num_blocks),
            shared_mem_per_block=max(
                self.shared_mem_per_block, other.shared_mem_per_block
            ),
        )

    def scaled(self, factor: float) -> "KernelCost":
        """Cost with traffic/flops/blocks multiplied by *factor*.

        Used by the analytic projection to scale measured per-token costs
        to full-dataset token counts.
        """
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return replace(
            self,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
            flops=self.flops * factor,
            atomic_ops=self.atomic_ops * factor,
            num_blocks=max(1, int(round(self.num_blocks * factor))),
        )


@dataclass(frozen=True)
class CostModel:
    """Timing rules shared by all devices (pure functions of a spec)."""

    #: Fraction of launch geometry below which the tail charge vanishes.
    min_wave_blocks: int = 1

    def kernel_seconds(self, spec: "DeviceSpec", cost: KernelCost) -> float:  # noqa: F821
        """Simulated execution time of *cost* on *spec*.

        Raises
        ------
        ValueError
            If the kernel requests more shared memory per block than the
            device provides (a real launch failure).
        """
        if cost.shared_mem_per_block > spec.shared_mem_per_block:
            raise ValueError(
                f"kernel requests {cost.shared_mem_per_block} B shared memory "
                f"per block; {spec.name} provides {spec.shared_mem_per_block} B"
            )
        bw = spec.peak_bandwidth_bytes * spec.mem_efficiency
        fl = spec.peak_flops * spec.compute_efficiency
        mem_t = cost.total_bytes / bw if bw > 0 else 0.0
        cmp_t = cost.flops / fl if fl > 0 else 0.0
        atom_rate = spec.atomic_ops_per_sec * (
            spec.atomic_locality_floor
            + (1.0 - spec.atomic_locality_floor) * cost.atomic_locality
        )
        atm_t = cost.atomic_ops / atom_rate if cost.atomic_ops else 0.0
        body = max(mem_t, cmp_t, atm_t)
        # Tail (wave) effect: the last partial wave of blocks underuses SMs.
        concurrent = max(self.min_wave_blocks, spec.num_sms * spec.blocks_per_sm)
        waves = -(-cost.num_blocks // concurrent)  # ceil
        tail = (waves * concurrent - cost.num_blocks) / (waves * concurrent)
        body *= 1.0 + spec.tail_penalty * tail
        return body + spec.kernel_launch_seconds
