"""Workload partition (paper §4, §5.1).

CuLDA_CGS partitions the corpus **by document** because synchronizing
the θ replicas (D×K, with D often orders of magnitude larger than V)
would dwarf synchronizing the φ replicas (K×V) — the analysis in §4,
reproduced by :func:`sync_volume_by_policy`.

Documents have wildly different lengths, so chunks are balanced **by
token count**, not document count (§4): :func:`partition_by_tokens`
cuts the cumulative token curve at C even levels.

The chunk count is ``C = M × G`` (§5.1). :func:`choose_chunking` picks
the smallest M whose memory plan fits the device: M = 1 needs one
resident chunk + the model; M > 1 needs **two** chunk slots (double
buffering for the transfer/compute overlap of WorkSchedule2). The rule
is written once — :func:`model_device_bytes`, :func:`chunk_device_bytes`
and :func:`smallest_chunks_per_gpu` — and the paper-scale projection
(:func:`~repro.perfmodel.capacity.plan_memory`) runs it on dataset
averages where the trainer feeds exact chunk counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.corpus.corpus import Corpus
from repro.core.kernels import KernelConfig
from repro.core.model import LDAHyperParams
from repro.gpusim.device import DeviceSpec

__all__ = [
    "PartitionPlan",
    "partition_by_tokens",
    "chunk_device_bytes",
    "estimate_chunk_device_bytes",
    "model_device_bytes",
    "chunk_slots",
    "smallest_chunks_per_gpu",
    "choose_chunking",
    "sync_volume_by_policy",
]


@dataclass(frozen=True)
class PartitionPlan:
    """The chosen chunking: C = M × G chunks as document ranges."""

    doc_ranges: tuple[tuple[int, int], ...]
    chunks_per_gpu: int          # M
    num_gpus: int                # G

    @property
    def num_chunks(self) -> int:
        return len(self.doc_ranges)

    def gpu_of_chunk(self, chunk_id: int) -> int:
        """Round-robin assignment: chunk i runs on GPU ``i % G`` (§5.1)."""
        return chunk_id % self.num_gpus


def partition_by_tokens(corpus: Corpus, num_chunks: int) -> list[tuple[int, int]]:
    """Split documents into *num_chunks* contiguous ranges of ~equal
    token mass.

    Cuts the cumulative token count at levels ``i·T/C``; every chunk is
    guaranteed at least one document (requires ``num_chunks ≤ D``).
    """
    D, T = corpus.num_docs, corpus.num_tokens
    if not 1 <= num_chunks <= D:
        raise ValueError(f"num_chunks must be in [1, D={D}]")
    csum = corpus.doc_indptr[1:]  # cumulative tokens after each doc
    targets = np.arange(1, num_chunks) * (T / num_chunks)
    cuts = (np.searchsorted(csum, targets, side="left") + 1).astype(np.int64)
    # Enforce strictly increasing cuts inside (0, D) so no chunk is
    # empty. Feasible because num_chunks <= D: cut i must leave room for
    # i+1 chunks before it and num_chunks-1-i after it.
    prev = 0
    for i in range(cuts.size):
        lo_bound = prev + 1
        hi_bound = D - (num_chunks - 1 - i)
        cuts[i] = min(max(cuts[i], lo_bound), hi_bound)
        prev = cuts[i]
    bounds = np.concatenate(([0], cuts, [D])).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(num_chunks)]


def chunk_device_bytes(
    tokens: float,
    docs: float,
    theta_entries: float,
    num_words: int,
    config: KernelConfig,
) -> int:
    """Device bytes of one chunk, field by field as
    :class:`~repro.sched.schedule.DeviceChunk` lays it out in a slot.

    *theta_entries* is the θ capacity Σ_d min(DocLen_d, K). Exact
    counts give one chunk's bytes: :func:`choose_chunking` budgets
    with them, and each of a GPU's slots
    (:meth:`~repro.sched.schedule.GpuWorker.allocate_slots`) is this
    size for the largest of its chunks. Dataset averages give the
    paper-scale estimate (:func:`~repro.perfmodel.capacity.plan_memory`).
    """
    idx_b = config.index_bytes
    return int(
        tokens * 4                  # token_doc
        + (num_words + 1) * 8       # word_indptr
        + (docs + 1) * 8            # doc_map_indptr
        + tokens * 8                # doc_map_indices
        + tokens * idx_b            # topics
        + (docs + 1) * 8            # theta indptr
        + theta_entries * (idx_b + 4)  # theta indices + counts
    )


def estimate_chunk_device_bytes(
    corpus: Corpus,
    doc_range: tuple[int, int],
    hyper: LDAHyperParams,
    config: KernelConfig,
) -> int:
    """Device bytes for one chunk's corpus data, topics, and θ replica.

    θ capacity is the per-document bound nnz_d ≤ min(DocLen_d, K)
    (a row cannot have more distinct topics than tokens, nor than K).
    """
    lo, hi = doc_range
    lengths = np.diff(corpus.doc_indptr[lo : hi + 1])
    return chunk_device_bytes(
        int(lengths.sum()),
        hi - lo,
        int(np.minimum(lengths, hyper.num_topics).sum()),
        corpus.num_words,
        config,
    )


def model_device_bytes(
    num_topics: int, num_words: int, config: KernelConfig
) -> int:
    """Bytes one :class:`~repro.sched.schedule.GpuWorker` allocates: the
    φ full, partial and reduce-scratch buffers and n_k."""
    phi = num_topics * num_words * config.phi_bytes
    return int(3 * phi + num_topics * 8)


def chunk_slots(chunks_per_gpu: int) -> int:
    """Chunk slots a GPU allocates: one resident chunk at M = 1, two
    (double buffering) when WorkSchedule2 streams."""
    return 1 if chunks_per_gpu == 1 else 2


def smallest_chunks_per_gpu(
    model_bytes: int,
    chunk_bytes: Callable[[int], int],
    budget: float,
    candidates: range,
    device: str,
) -> int:
    """§5.1's rule: the first M in *candidates* for which the model
    plus :func:`chunk_slots` (M) chunks of ``chunk_bytes(M)`` bytes fit
    in *budget*."""
    if model_bytes > budget:
        raise MemoryError(
            f"model alone ({model_bytes / 2**20:.0f} MiB) exceeds {device}'s "
            f"budget ({budget / 2**20:.0f} MiB); reduce K or V"
        )
    for m in candidates:
        if model_bytes + chunk_slots(m) * chunk_bytes(m) <= budget:
            return m
    raise MemoryError(f"no chunks_per_gpu in {candidates} fits on {device}")


def choose_chunking(
    corpus: Corpus,
    num_gpus: int,
    hyper: LDAHyperParams,
    config: KernelConfig,
    device_spec: DeviceSpec,
    chunks_per_gpu: int | None = None,
    headroom: float = 0.9,
) -> PartitionPlan:
    """Pick M (and thus C = M × G) per §5.1's memory rule
    (:func:`smallest_chunks_per_gpu`), charging each M its largest
    token-balanced chunk. An explicit ``chunks_per_gpu`` skips the
    search but is still validated against capacity.
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if chunks_per_gpu is not None and chunks_per_gpu < 1:
        raise ValueError("chunks_per_gpu must be >= 1")
    max_m = corpus.num_docs // num_gpus  # every chunk needs a document
    if chunks_per_gpu is None:
        candidates = range(1, max_m + 1)
    else:
        candidates = range(chunks_per_gpu, min(chunks_per_gpu, max_m) + 1)
    ranges: dict[int, list[tuple[int, int]]] = {}

    def worst_chunk_bytes(m: int) -> int:
        ranges[m] = partition_by_tokens(corpus, m * num_gpus)
        return max(
            estimate_chunk_device_bytes(corpus, r, hyper, config)
            for r in ranges[m]
        )

    m = smallest_chunks_per_gpu(
        model_device_bytes(hyper.num_topics, corpus.num_words, config),
        worst_chunk_bytes,
        device_spec.mem_capacity_bytes * headroom,
        candidates,
        device_spec.name,
    )
    return PartitionPlan(tuple(ranges[m]), m, num_gpus)


def sync_volume_by_policy(
    num_docs: int, num_words: int, num_topics: int, config: KernelConfig
) -> dict[str, int]:
    """Per-iteration synchronization volume of the two partition policies
    (§4's argument for partition-by-document).

    partition-by-document replicates φ (K × V); partition-by-word
    replicates θ (D × K, CSR-bounded here by its dense size for the
    comparison the paper makes: D ≫ V ⇒ θ sync ≫ φ sync).
    """
    return {
        "by_document": num_topics * num_words * config.phi_bytes,
        "by_word": num_docs * num_topics * (config.index_bytes + 4),
    }
