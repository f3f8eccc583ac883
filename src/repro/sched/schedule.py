"""Workload scheduling: Algorithm 1 of the paper.

Two schedules, selected by the chunk multiplier M chosen in
:mod:`repro.sched.partition`:

- **WorkSchedule1** (M = 1): every GPU holds its chunk for the whole
  training run; data moves host→device once before iteration 0 and
  device→host once at the end. Each iteration is
  ``sampling → update φ → update θ`` on the compute stream, with the φ
  reduce-tree/broadcast running on a separate sync stream so the θ
  update overlaps the synchronization (§6.2's ordering argument).

- **WorkSchedule2** (M > 1): each GPU cycles through its M chunks per
  iteration (round-robin ``chunk i → GPU i % G``), uploading chunk m+1
  on an upload stream while chunk m computes, and downloading finished
  chunks on a download stream — the stream-pipelined double buffering
  of §5.1. The per-GPU partial φ accumulates across its M chunks before
  the sync.

The functional model state is mirrored on the host eagerly (kernel
bodies update both the device buffer and the host mirror), so the
trainer can evaluate likelihood at any iteration without un-simulated
transfers — matching how the paper evaluates from checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.corpus import TokenChunk
from repro.core.kernels import (
    KernelConfig,
    SamplingStats,
    accumulate_phi,
    gibbs_sample_chunk,
    phi_delta_cost,
    recount_theta,
    sampling_cost,
    update_phi_cost,
    update_theta_cost,
)
from repro.core.model import LDAHyperParams, SparseTheta
from repro.gpusim.costmodel import KernelCost
from repro.gpusim.device import Device
from repro.gpusim.errors import KernelFault
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import DeviceArray
from repro.gpusim.platform import Machine
from repro.gpusim.stream import Event, Stream
from repro.gpusim.trace import union_length
from repro.comm import AUTO, SyncContext, TransferRetry, WireDelta, plan_sync
from repro.telemetry.context import emit_counter, emit_gauge_max
from repro.telemetry.spans import span

__all__ = [
    "ChunkRuntime",
    "DeviceChunk",
    "GpuWorker",
    "upload_chunk",
    "download_chunk",
    "enqueue_chunk_compute",
    "run_iteration_resident",
    "run_iteration_streaming",
    "launch_nk_rowsum",
    "launch_phi_delta",
    "synchronize_model",
    "busy_fractions",
    "iteration_trace_stats",
]


@dataclass
class ChunkRuntime:
    """Host-side authoritative state of one corpus chunk."""

    chunk_id: int
    chunk: TokenChunk
    topics: np.ndarray
    theta: SparseTheta
    rng: np.random.Generator
    last_stats: SamplingStats | None = None


@dataclass
class DeviceChunk:
    """Device-resident buffers of one chunk (while loaded on a GPU)."""

    token_doc: DeviceArray
    word_indptr: DeviceArray
    doc_map_indptr: DeviceArray
    doc_map_indices: DeviceArray
    topics: DeviceArray
    theta_indptr: DeviceArray
    theta_indices: DeviceArray
    theta_data: DeviceArray

    def free_all(self) -> None:
        for buf in (
            self.token_doc,
            self.word_indptr,
            self.doc_map_indptr,
            self.doc_map_indices,
            self.topics,
            self.theta_indptr,
            self.theta_indices,
            self.theta_data,
        ):
            if not buf.freed:
                buf.free()

    def replace_theta(self, device: Device, theta: SparseTheta, label: str) -> None:
        """Reinstall the θ CSR buffers after an update (sizes change)."""
        for buf in (self.theta_indptr, self.theta_indices, self.theta_data):
            buf.free()
        self.theta_indptr = DeviceArray(
            device, theta.indptr.shape, theta.indptr.dtype, theta.indptr,
            label=f"{label}.theta_indptr",
        )
        self.theta_indices = DeviceArray(
            device, theta.indices.shape, theta.indices.dtype, theta.indices,
            label=f"{label}.theta_indices",
        )
        self.theta_data = DeviceArray(
            device, theta.data.shape, theta.data.dtype, theta.data,
            label=f"{label}.theta_data",
        )


class GpuWorker:
    """Per-GPU streams and model buffers."""

    def __init__(
        self,
        device: Device,
        num_topics: int,
        num_words: int,
        config: KernelConfig,
    ):
        self.device = device
        self.config = config
        self.compute = device.create_stream("compute")
        self.sync = device.create_stream("sync")
        self.upload = device.create_stream("upload")
        self.download = device.create_stream("download")
        phi_dtype = np.uint16 if config.compressed else np.int32
        shape = (num_topics, num_words)
        self.phi_full = DeviceArray(device, shape, phi_dtype, label="phi_full")
        self.phi_partial = DeviceArray(device, shape, phi_dtype, label="phi_partial")
        self.phi_scratch = DeviceArray(device, shape, phi_dtype, label="phi_scratch")
        self.n_k = DeviceArray(device, (num_topics,), np.int64, label="n_k")

    def free_all(self) -> None:
        for buf in (self.phi_full, self.phi_partial, self.phi_scratch, self.n_k):
            if not buf.freed:
                buf.free()


# ----------------------------------------------------------------------
# Chunk movement
# ----------------------------------------------------------------------

def upload_chunk(
    machine: Machine,
    worker: GpuWorker,
    cr: ChunkRuntime,
    stream: Stream | None = None,
) -> DeviceChunk:
    """Allocate device buffers for *cr* and copy its data up (timed)."""
    dev = worker.device
    stream = stream or worker.upload
    label = f"chunk{cr.chunk_id}"
    ch, th = cr.chunk, cr.theta

    def up(arr: np.ndarray, name: str) -> DeviceArray:
        buf = DeviceArray(dev, arr.shape, arr.dtype, label=f"{label}.{name}")
        machine.memcpy_h2d(buf, arr, stream=stream, label=f"h2d:{label}.{name}")
        emit_counter(
            "transfer_bytes_total", buf.nbytes,
            help="host-link bytes moved per direction and device",
            direction="h2d", device=str(dev.device_id),
        )
        return buf

    return DeviceChunk(
        token_doc=up(ch.token_doc, "token_doc"),
        word_indptr=up(ch.word_indptr, "word_indptr"),
        doc_map_indptr=up(ch.doc_map_indptr, "doc_map_indptr"),
        doc_map_indices=up(ch.doc_map_indices, "doc_map_indices"),
        topics=up(cr.topics, "topics"),
        theta_indptr=up(th.indptr, "theta_indptr"),
        theta_indices=up(th.indices, "theta_indices"),
        theta_data=up(th.data, "theta_data"),
    )


def download_chunk(
    machine: Machine,
    worker: GpuWorker,
    cr: ChunkRuntime,
    dc: DeviceChunk,
    stream: Stream | None = None,
    free: bool = True,
) -> None:
    """Copy the mutable chunk state (topics, θ) back to the host (timed)
    and optionally free the device buffers.

    The host mirrors are already current (kernel bodies update them);
    the transfers are charged for timing fidelity.
    """
    stream = stream or worker.download
    label = f"chunk{cr.chunk_id}"
    for buf, name in (
        (dc.topics, "topics"),
        (dc.theta_indptr, "theta_indptr"),
        (dc.theta_indices, "theta_indices"),
        (dc.theta_data, "theta_data"),
    ):
        machine.memcpy_d2h(buf, stream=stream, label=f"d2h:{label}.{name}")
        emit_counter(
            "transfer_bytes_total", buf.nbytes,
            help="host-link bytes moved per direction and device",
            direction="d2h", device=str(worker.device.device_id),
        )
    if free:
        dc.free_all()


# ----------------------------------------------------------------------
# Per-chunk compute (sampling + updates)
# ----------------------------------------------------------------------

def enqueue_chunk_compute(
    machine: Machine,
    worker: GpuWorker,
    cr: ChunkRuntime,
    dc: DeviceChunk,
    hyper: LDAHyperParams,
    config: KernelConfig,
    accumulate: bool = False,
) -> "Event":
    """Enqueue sampling → update-φ → update-θ for one chunk on the
    worker's compute stream (paper order: φ before θ so the θ update can
    overlap the φ synchronization).

    ``accumulate=True`` adds the chunk's counts into the existing partial
    φ (WorkSchedule2's multi-chunk accumulation) instead of overwriting.

    Returns the event marking φ-partial readiness — recorded *between*
    the update-φ and update-θ launches, so the synchronization can start
    while θ is still updating (the paper's overlap, §6.2).
    """
    K = hyper.num_topics
    ch = cr.chunk

    # --- sampling: cost is computable before the draw -----------------
    row_len = np.diff(cr.theta.indptr)
    kd_sum = int(row_len[cr.chunk.token_doc].sum())
    num_blocks, num_segments = ch.sampling_plan
    pre_stats = SamplingStats(
        num_tokens=ch.num_tokens,
        kd_sum=kd_sum,
        p1_draws=0,
        num_word_segments=num_segments,
        num_blocks=num_blocks,
    )
    s_cost = sampling_cost(pre_stats, hyper, ch.num_words, config)

    def sampling_body() -> None:
        new_topics, stats = gibbs_sample_chunk(
            ch,
            dc.topics.data,
            cr.theta,
            worker.phi_full.data,
            worker.n_k.data,
            hyper,
            cr.rng,
            config,
        )
        dc.topics.data[...] = new_topics
        cr.topics = new_topics.copy()
        cr.last_stats = stats

    KernelLaunch(sampling_body, s_cost, f"sampling:chunk{cr.chunk_id}", "sampling").launch(
        worker.compute
    )

    # --- update φ (partial replica) ------------------------------------
    phi_cost = update_phi_cost(ch.num_tokens, ch.num_words, hyper, config)
    if accumulate:
        # No zeroing pass when accumulating into an existing partial.
        phi_cost = KernelCost(
            bytes_read=phi_cost.bytes_read
            + float(K) * ch.num_words * config.phi_bytes,
            bytes_written=float(cr.chunk.num_tokens) * config.phi_bytes,
            flops=phi_cost.flops,
            atomic_ops=phi_cost.atomic_ops,
            atomic_locality=phi_cost.atomic_locality,
            num_blocks=phi_cost.num_blocks,
        )

    def update_phi_body() -> None:
        counts = accumulate_phi(ch, dc.topics.data, K)
        total = counts.astype(np.int64)
        if accumulate:
            total += worker.phi_partial.data.astype(np.int64)
        emit_gauge_max(
            "phi_count_high_water", float(total.max(initial=0)),
            help="largest phi count seen (uint16 saturates at 65535)",
            device=str(worker.device.device_id),
        )
        if config.compressed and total.max(initial=0) >= 2**16:
            raise OverflowError(
                "phi count exceeds uint16 under compression; "
                "set KernelConfig(compressed=False)"
            )
        worker.phi_partial.data[...] = total.astype(worker.phi_partial.dtype)

    KernelLaunch(
        update_phi_body, phi_cost, f"update_phi:chunk{cr.chunk_id}", "update_phi"
    ).launch(worker.compute)
    phi_ready = worker.compute.record(label=f"phi_partial_ready:chunk{cr.chunk_id}")

    # --- update θ (recount eagerly so the cost uses the true nnz) -----
    new_theta = recount_theta(ch, cr.topics, K, config.compressed)
    t_cost = update_theta_cost(ch.num_tokens, ch.num_docs, new_theta.nnz, hyper, config)

    def update_theta_body() -> None:
        cr.theta = new_theta
        dc.replace_theta(worker.device, new_theta, f"chunk{cr.chunk_id}")

    KernelLaunch(
        update_theta_body, t_cost, f"update_theta:chunk{cr.chunk_id}", "update_theta"
    ).launch(worker.compute)
    return phi_ready


# ----------------------------------------------------------------------
# Model synchronization wrapper
# ----------------------------------------------------------------------

def launch_nk_rowsum(
    worker: GpuWorker, config: KernelConfig, stream: Stream
) -> None:
    """n_k = Σ_v φ_kv on *worker*: the cheap row-sum kernel that follows
    every refresh of its full φ, on *stream*."""
    K, V = worker.phi_full.shape

    def body() -> None:
        worker.n_k.data[...] = worker.phi_full.data.astype(np.int64).sum(axis=1)

    KernelLaunch(
        body,
        KernelCost(
            bytes_read=float(K) * V * config.phi_bytes,
            bytes_written=K * 8.0,
            flops=float(K) * V,
        ),
        "n_k_rowsum",
        "sync",
    ).launch(stream)


def launch_phi_delta(
    worker: GpuWorker,
    payload: DeviceArray,
    delta: WireDelta,
    config: KernelConfig,
    stream: Stream,
) -> None:
    """φ += Δ and n_k += Δ's row sums on *worker*, on *stream*: the one
    kernel that applies a redistributed Δφ on a cluster node.

    It decodes *payload*, the bytes the h2d delivered, with *delta*'s
    shape, form and value width as its launch arguments, so a payload
    the link corrupted is applied as delivered. An index outside K×V,
    or a count driven outside the φ dtype's range (which a true view
    never is: every φ entry is at most its word's corpus frequency),
    raises :class:`~repro.gpusim.errors.KernelFault`.
    """
    K, V = worker.phi_full.shape
    dense = delta.index is None
    entries = K * V if dense else delta.values.size
    dev = worker.device.device_id

    def body() -> None:
        got = delta.unpack(payload.data)
        flat = worker.phi_full.data.reshape(-1)
        values = got.values.astype(np.int64)
        index = slice(None) if dense else got.index
        if not dense and index.size and not (
            0 <= index.min() and index.max() < flat.size
        ):
            raise KernelFault(
                dev, "phi_delta_apply",
                f"Δφ payload on device {dev} indexes outside the {K}x{V} φ",
            )
        new = flat[index].astype(np.int64) + values
        if new.size and not (
            0 <= new.min() and new.max() <= np.iinfo(flat.dtype).max
        ):
            raise KernelFault(
                dev, "phi_delta_apply",
                f"Δφ payload on device {dev} drives a φ count out of range",
            )
        flat[index] = new
        if dense:
            worker.n_k.data += values.reshape(K, V).sum(axis=1)
        else:
            np.add.at(worker.n_k.data, index // V, values)

    KernelLaunch(
        body,
        phi_delta_cost(entries, payload.nbytes, K, V, dense, config),
        "phi_delta_apply",
        "sync",
    ).launch(stream)


def synchronize_model(
    machine: Machine,
    workers: list[GpuWorker],
    hyper: LDAHyperParams,
    config: KernelConfig,
    phi_ready: list,
    algorithm: str = AUTO,
    retry: TransferRetry | None = None,
    to_host: bool = False,
) -> np.ndarray | None:
    """Combine the partial φ replicas and refresh every GPU's full φ/n_k.

    ``phi_ready[g]`` is the event marking GPU *g*'s update-φ completion.
    ``algorithm`` is ``"auto"`` (:func:`~repro.comm.plan_sync` picks
    the cheapest collective for the current topology) or any
    registered collective name, which forces that plan. ``retry``
    enables fault-tolerant transfers (see
    :class:`~repro.comm.TransferRetry`).

    With *to_host* (a cluster node) only the collective's reduce half
    runs, and the owners copy the node sum to the host: that sum is
    returned, and every full φ and n_k stays as it was until the
    node's Δφ arrives (:func:`launch_phi_delta`).
    """
    sync_streams = [w.sync for w in workers]
    for g, w in enumerate(workers):
        w.sync.wait_event(phi_ready[g])

    partials = [w.phi_partial for w in workers]
    with span("sync_plan"):
        plan = plan_sync(
            machine, partials[0].shape, config,
            retry=retry, algorithm=algorithm,
            devices=[w.device.device_id for w in workers],
            to_host=to_host,
        )
    ctx = SyncContext(
        machine=machine,
        partials=partials,
        fulls=[w.phi_full for w in workers],
        scratch=[w.phi_scratch for w in workers],
        streams=sync_streams,
        config=config,
        retry=retry,
    )
    if to_host:
        return plan.collective.reduce_to_host(ctx)
    plan.collective.allreduce(ctx)

    for w in workers:
        launch_nk_rowsum(w, config, w.sync)

    # The next iteration's sampling must see the fresh φ.
    for w in workers:
        done = w.sync.record(label="sync_done")
        w.compute.wait_event(done)
    return None


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------

def run_iteration_resident(
    machine: Machine,
    workers: list[GpuWorker],
    runtimes: list[ChunkRuntime],
    dev_chunks: list[DeviceChunk],
    hyper: LDAHyperParams,
    config: KernelConfig,
    sync_algorithm: str = AUTO,
    retry: TransferRetry | None = None,
    to_host: bool = False,
) -> np.ndarray | None:
    """One WorkSchedule1 iteration (M = 1): chunk g is resident on GPU g.
    Returns what :func:`synchronize_model` returns for *to_host*."""
    G = len(workers)
    if not (len(runtimes) == len(dev_chunks) == G):
        raise ValueError("WorkSchedule1 requires exactly one chunk per GPU")
    phi_ready = [
        enqueue_chunk_compute(
            machine, workers[g], runtimes[g], dev_chunks[g], hyper, config
        )
        for g in range(G)
    ]
    return synchronize_model(
        machine, workers, hyper, config, phi_ready, sync_algorithm,
        retry=retry, to_host=to_host,
    )


def run_iteration_streaming(
    machine: Machine,
    workers: list[GpuWorker],
    runtimes: list[ChunkRuntime],
    hyper: LDAHyperParams,
    config: KernelConfig,
    chunks_per_gpu: int | None,
    sync_algorithm: str = AUTO,
    overlap: bool = True,
    retry: TransferRetry | None = None,
    to_host: bool = False,
) -> np.ndarray | None:
    """One WorkSchedule2 iteration (M > 1): per-iteration chunk streaming.

    With ``overlap=True`` uploads run on a dedicated stream so chunk m+1
    stages while chunk m computes (the paper's pipelining); with False
    all copies are funneled through the compute stream (the ablation's
    serial variant).

    ``chunks_per_gpu=None`` accepts an uneven round-robin (elastic
    layouts after a migration can leave GPUs with different chunk
    counts); every GPU still needs at least one chunk so its φ replica
    participates in the reduce. Returns what
    :func:`synchronize_model` returns for *to_host*.
    """
    G = len(workers)
    if chunks_per_gpu is None and len(runtimes) < G:
        raise ValueError("streaming schedule needs at least one chunk per GPU")
    phi_ready = []
    for g, worker in enumerate(workers):
        my = [runtimes[c] for c in range(g, len(runtimes), G)]
        if chunks_per_gpu is not None and len(my) != chunks_per_gpu:
            raise ValueError("chunk count does not match M x G round-robin")
        up_stream = worker.upload if overlap else worker.compute
        down_stream = worker.download if overlap else worker.compute
        last_phi_ready = None
        for m, cr in enumerate(my):
            dc = upload_chunk(machine, worker, cr, stream=up_stream)
            staged = up_stream.record(label=f"staged:chunk{cr.chunk_id}")
            worker.compute.wait_event(staged)
            last_phi_ready = enqueue_chunk_compute(
                machine, worker, cr, dc, hyper, config, accumulate=(m > 0)
            )
            done = worker.compute.record(label=f"done:chunk{cr.chunk_id}")
            down_stream.wait_event(done)
            download_chunk(machine, worker, cr, dc, stream=down_stream)
        phi_ready.append(last_phi_ready)
    return synchronize_model(
        machine, workers, hyper, config, phi_ready, sync_algorithm,
        retry=retry, to_host=to_host,
    )


def busy_fractions(intervals, device_ids, t0: float, t1: float) -> dict[int, float]:
    """Per-device busy share of the window [t0, t1] (overlap-merged)."""
    out = {int(d): 0.0 for d in device_ids}
    dt = t1 - t0
    if dt <= 0:
        return out
    by_dev: dict[int, list[tuple[float, float]]] = {d: [] for d in out}
    for iv in intervals:
        if iv.device_id in by_dev:
            s, e = max(iv.start, t0), min(iv.end, t1)
            if e > s:
                by_dev[iv.device_id].append((s, e))
    for d, spans in by_dev.items():
        out[d] = union_length(spans) / dt
    return out


def iteration_trace_stats(
    intervals, device_ids, t0: float, t1: float
) -> tuple[float, float, dict[int, float]]:
    """Summarize one iteration's trace slice: ``(sync_seconds,
    p2p_bytes, busy_fraction_by_device)`` over the window [t0, t1]."""
    sync_seconds = sum(iv.duration for iv in intervals if iv.kind == "sync")
    p2p_bytes = sum(iv.bytes_moved for iv in intervals if iv.kind == "p2p")
    return sync_seconds, p2p_bytes, busy_fractions(intervals, device_ids, t0, t1)
