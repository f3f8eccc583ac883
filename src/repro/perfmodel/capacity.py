"""Memory-capacity planning at paper scale (§5.1's sizing discussion).

"When deciding the value of M, we need to make sure that one GPU's
memory can accommodate at least one data chunk [...] to overlap the
computation and memory transfer, we need to allocate two data chunks."

:func:`plan_memory` answers, for a dataset's statistics and a device
spec, the questions a deployer asks before a run: does the corpus fit
resident (M = 1)? If not, what M streams it with double buffering?
How much headroom remains for K growth?
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kernels import KernelConfig
from repro.corpus.datasets import DatasetStats
from repro.gpusim.device import DeviceSpec
from repro.sched.partition import (
    chunk_device_bytes,
    chunk_slots,
    model_device_bytes,
    smallest_chunks_per_gpu,
)

__all__ = ["MemoryPlan", "plan_memory", "max_topics_resident"]


@dataclass(frozen=True)
class MemoryPlan:
    """The §5.1 memory decision for one (dataset, device, K) point."""

    dataset: str
    device: str
    num_topics: int
    num_gpus: int
    chunks_per_gpu: int          # M
    model_bytes: int             # φ buffers + n_k
    chunk_bytes: int             # one chunk's corpus + θ footprint
    budget_bytes: int            # usable device memory

    @property
    def resident(self) -> bool:
        """True -> WorkSchedule1 (M = 1)."""
        return self.chunks_per_gpu == 1

    @property
    def slots(self) -> int:
        """Chunk slots held simultaneously (1 resident, 2 streaming)."""
        return chunk_slots(self.chunks_per_gpu)

    @property
    def used_bytes(self) -> int:
        return self.model_bytes + self.slots * self.chunk_bytes

    @property
    def headroom_fraction(self) -> float:
        return 1.0 - self.used_bytes / self.budget_bytes

    def describe(self) -> str:
        mode = "resident (WorkSchedule1)" if self.resident else (
            f"streaming M={self.chunks_per_gpu} (WorkSchedule2)"
        )
        return (
            f"{self.dataset} on {self.device} x{self.num_gpus}, K={self.num_topics}: "
            f"{mode}; model {self.model_bytes / 2**30:.2f} GiB + "
            f"{self.slots} x chunk {self.chunk_bytes / 2**30:.2f} GiB "
            f"of {self.budget_bytes / 2**30:.2f} GiB "
            f"({self.headroom_fraction:.0%} headroom)"
        )


def plan_memory(
    stats: DatasetStats,
    spec: DeviceSpec,
    num_topics: int = 1024,
    num_gpus: int = 1,
    config: KernelConfig | None = None,
    headroom: float = 0.9,
) -> MemoryPlan:
    """Compute the §5.1 memory plan for a full-scale dataset: the
    trainer's rule (:func:`~repro.sched.partition.smallest_chunks_per_gpu`)
    with each GPU's share of the corpus cut into M chunks of average
    documents.

    Raises ``MemoryError`` if no chunking fits (the model alone exceeds
    the device, or even per-document chunks do not fit beside it).
    """
    config = config or KernelConfig()
    budget = int(spec.mem_capacity_bytes * headroom)
    model = model_device_bytes(num_topics, stats.num_words, config)
    T_g = stats.num_tokens / num_gpus
    D_g = stats.num_docs / num_gpus
    theta_g = min(stats.avg_doc_length, num_topics) * D_g

    def chunk(m: int) -> int:
        return chunk_device_bytes(
            T_g / m, D_g / m, theta_g / m, stats.num_words, config
        )

    m = smallest_chunks_per_gpu(
        model, chunk, budget, range(1, stats.num_docs // num_gpus + 1),
        spec.name,
    )
    return MemoryPlan(
        dataset=stats.name,
        device=spec.name,
        num_topics=num_topics,
        num_gpus=num_gpus,
        chunks_per_gpu=m,
        model_bytes=model,
        chunk_bytes=chunk(m),
        budget_bytes=budget,
    )


def max_topics_resident(
    stats: DatasetStats,
    spec: DeviceSpec,
    num_gpus: int = 1,
    config: KernelConfig | None = None,
    headroom: float = 0.9,
    k_limit: int = 1 << 15,
) -> int:
    """Largest power-of-two K for which the dataset stays resident
    (M = 1) on *spec* — the capacity frontier of WorkSchedule1."""
    config = config or KernelConfig()
    best = 0
    k = 2
    while k <= k_limit:
        try:
            plan = plan_memory(stats, spec, k, num_gpus, config, headroom)
        except MemoryError:
            break
        if not plan.resident:
            break
        best = k
        k *= 2
    return best
