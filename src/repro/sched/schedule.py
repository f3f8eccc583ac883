"""Workload scheduling: Algorithm 1 of the paper.

Two schedules, selected by the chunk multiplier M chosen in
:mod:`repro.sched.partition`, run by one iteration body
(:func:`run_iteration`). Every GPU always holds one of its chunks: the
trainer stages each GPU's first chunk before iteration 0, and a GPU
keeps the chunk it samples last in an iteration and samples it first in
the next. A chunk lives in one device allocation, so it moves up in one
h2d and its topics and θ come back in one d2h.

- **WorkSchedule1** (M = 1): every GPU holds its chunk for the whole
  training run; data moves host→device once before iteration 0 and
  device→host once at the end. Each iteration is
  ``sampling → update φ → update θ`` on the compute stream, with the φ
  reduce-tree/broadcast running on a separate sync stream so the θ
  update overlaps the synchronization (§6.2's ordering argument).

- **WorkSchedule2** (M > 1): each GPU cycles through its M chunks per
  iteration (round-robin ``chunk i → GPU i % G``): it samples the chunk
  it kept, and streams the other M − 1 through a second slot, uploading
  the next chunk on an upload stream while one computes and downloading
  finished chunks on a download stream — the stream-pipelined double
  buffering of §5.1. An upload waits for the download that frees its
  slot, so a GPU holds at most two chunks, as
  :func:`~repro.sched.partition.chunk_slots` budgets. The per-GPU
  partial φ accumulates across its M chunks before the sync; chunk
  order within a GPU changes no bit, because every chunk samples the
  iteration-start φ with its own RNG and θ.

Every GPU of a machine samples against the same synchronized φ, so the
sampler's word tables are built once per machine and iteration and
shared by every GPU whose φ and n_k equal the first GPU's byte for
byte. On one machine the sync is the planned §5.2 collective
(:func:`synchronize_model`). A cluster node runs none: each GPU sends
its host only what its partial changed (:func:`send_phi_deltas`).

The functional model state is mirrored on the host eagerly (kernel
bodies update both the device buffer and the host mirror), so the
trainer can evaluate likelihood at any iteration without un-simulated
transfers — matching how the paper evaluates from checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.corpus.corpus import TokenChunk
from repro.core.kernels import (
    KernelConfig,
    SamplingStats,
    WordTables,
    accumulate_phi,
    gibbs_sample_chunk,
    phi_compact_cost,
    phi_delta_cost,
    recount_theta,
    sampling_cost,
    update_phi_cost,
    update_theta_cost,
    word_tables,
)
from repro.core.model import LDAHyperParams, SparseTheta
from repro.gpusim.costmodel import KernelCost
from repro.gpusim.device import Device
from repro.gpusim.errors import KernelFault
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import DeviceArray, DeviceView
from repro.gpusim.platform import Machine
from repro.gpusim.stream import Event, Stream
from repro.gpusim.trace import union_length
from repro.comm import (
    AUTO,
    SyncContext,
    TransferRetry,
    WireDelta,
    plan_sync,
    with_retry,
)
from repro.telemetry.context import emit_counter, emit_gauge_max
from repro.telemetry.spans import span

__all__ = [
    "ChunkRuntime",
    "DeviceChunk",
    "GpuWorker",
    "upload_chunk",
    "download_chunk",
    "enqueue_chunk_compute",
    "run_iteration",
    "launch_nk_rowsum",
    "launch_phi_delta",
    "launch_phi_base_reset",
    "launch_phi_compact",
    "synchronize_model",
    "send_phi_deltas",
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


def _fields(cr: ChunkRuntime) -> list[tuple[str, np.ndarray]]:
    """A chunk's fields in device order: the corpus layout, which never
    changes, then (from index 4) the state each iteration rewrites."""
    ch, th = cr.chunk, cr.theta
    return [
        ("token_doc", ch.token_doc),
        ("word_indptr", ch.word_indptr),
        ("doc_map_indptr", ch.doc_map_indptr),
        ("doc_map_indices", ch.doc_map_indices),
        ("topics", cr.topics),
        ("theta_indptr", th.indptr),
        ("theta_indices", th.indices),
        ("theta_data", th.data),
    ]


class DeviceChunk:
    """One chunk on a GPU, in one device allocation: its fields back to
    back, the corpus layout first and the state (topics, θ) last, so the
    chunk goes up in one h2d and its state comes back in one d2h, each
    carrying exactly its fields' bytes. θ has room for its capacity
    Σ_d min(DocLen_d, K) entries, as
    :func:`~repro.sched.partition.chunk_device_bytes` budgets, so the θ
    update rewrites it in place. Each field is a typed
    :class:`~repro.gpusim.memory.DeviceView` of the allocation."""

    token_doc: DeviceView
    word_indptr: DeviceView
    doc_map_indptr: DeviceView
    doc_map_indices: DeviceView
    topics: DeviceView
    theta_indptr: DeviceView
    theta_indices: DeviceView
    theta_data: DeviceView

    def __init__(self, device: Device, cr: ChunkRuntime, num_topics: int):
        fields = _fields(cr)
        self.chunk_id = cr.chunk_id
        self._corpus_bytes = sum(a.nbytes for _, a in fields[:4])
        th = cr.theta
        capacity = int(np.minimum(cr.chunk.doc_lengths, num_topics).sum())
        self.buf = DeviceArray(
            device,
            self._corpus_bytes + cr.topics.nbytes + th.indptr.nbytes
            + capacity * (th.indices.itemsize + th.data.itemsize),
            np.uint8,
            label=f"chunk{cr.chunk_id}",
        )
        self._place(fields, 0)

    def _place(self, fields, offset: int) -> None:
        """Lay *fields* out back to back from byte *offset*."""
        for name, arr in fields:
            setattr(self, name, DeviceView(
                self.buf, offset, arr.shape, arr.dtype,
                label=f"{self.buf.label}.{name}",
            ))
            offset += arr.nbytes
        self._end = offset

    def whole(self) -> DeviceView:
        """Every field's bytes: what an upload moves."""
        return DeviceView(self.buf, 0, self._end, np.uint8, "chunk")

    def state(self) -> DeviceView:
        """The topics' and θ's bytes: what a download moves."""
        return DeviceView(
            self.buf, self._corpus_bytes, self._end - self._corpus_bytes,
            np.uint8, "chunk_state",
        )

    def write_theta(self, theta: SparseTheta) -> None:
        """Rewrite θ in place after an update (its entry count changes)."""
        fields = [
            ("theta_indptr", theta.indptr),
            ("theta_indices", theta.indices),
            ("theta_data", theta.data),
        ]
        self._place(fields, self._corpus_bytes + self.topics.nbytes)
        for name, arr in fields:
            getattr(self, name).data[...] = arr

    def free_all(self) -> None:
        if not self.buf.freed:
            self.buf.free()


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

def _emit_transfer(nbytes: int, direction: str, worker: GpuWorker) -> None:
    emit_counter(
        "transfer_bytes_total", nbytes,
        help="host-link bytes moved per direction and device",
        direction=direction, device=str(worker.device.device_id),
    )


def upload_chunk(
    machine: Machine,
    worker: GpuWorker,
    cr: ChunkRuntime,
    stream: Stream | None = None,
) -> DeviceChunk:
    """Allocate *cr*'s device buffer and copy the chunk up in one h2d
    (timed) from its pinned host image, its fields back to back."""
    dc = DeviceChunk(worker.device, cr, worker.phi_full.shape[0])
    dst = dc.whole()
    image = np.concatenate([
        np.ascontiguousarray(a).reshape(-1).view(np.uint8)
        for _, a in _fields(cr)
    ])
    try:
        machine.memcpy_h2d(
            dst, image, stream=stream or worker.upload,
            label=f"h2d:chunk{cr.chunk_id}",
        )
    except BaseException:
        dc.free_all()  # a faulted copy returns no chunk to free later
        raise
    _emit_transfer(dst.nbytes, "h2d", worker)
    return dc


def download_chunk(
    machine: Machine,
    worker: GpuWorker,
    dc: DeviceChunk,
    stream: Stream | None = None,
) -> None:
    """Copy the chunk's mutable state (topics, θ) back to the host in
    one d2h (timed) and free its device buffer.

    The host mirrors are already current (kernel bodies update them);
    the transfer is charged for timing fidelity.
    """
    src = dc.state()
    machine.memcpy_d2h(
        src, stream=stream or worker.download, label=f"d2h:chunk{dc.chunk_id}"
    )
    _emit_transfer(src.nbytes, "d2h", worker)
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
    tables: WordTables | None = None,
) -> "Event":
    """Enqueue sampling → update-φ → update-θ for one chunk on the
    worker's compute stream (paper order: φ before θ so the θ update can
    overlap the φ synchronization).

    ``accumulate=True`` adds the chunk's counts into the existing partial
    φ (WorkSchedule2's multi-chunk accumulation) instead of overwriting.
    *tables* are the :func:`~repro.core.kernels.word_tables` of the
    worker's φ and n_k; the sampler builds its own when not given.

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
            tables,
        )
        dc.topics.data[...] = new_topics
        cr.topics = new_topics.copy()
        cr.last_stats = stats

    KernelLaunch(sampling_body, s_cost, f"sampling:chunk{cr.chunk_id}", "sampling").launch(
        worker.compute
    )

    # --- update φ (partial replica) ------------------------------------
    phi_cost = update_phi_cost(
        ch.num_tokens, ch.num_words, hyper, config, accumulate=accumulate
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
        dc.write_theta(new_theta)

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
        try:
            got = delta.unpack(payload.data)
        except ValueError as exc:
            raise KernelFault(
                dev, "phi_delta_apply", f"Δφ payload on device {dev}: {exc}"
            ) from None
        flat = worker.phi_full.data.reshape(-1)
        values = got.values.astype(np.int64)
        index = slice(None) if dense else got.index
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


def launch_phi_base_reset(
    worker: GpuWorker, config: KernelConfig, stream: Stream
) -> None:
    """Zero the Δ base on *worker* (its ``phi_scratch``), on *stream*:
    after a rebuild or a rollback a cluster node's host contribution
    restarts at zero, so each GPU's next Δ is its whole partial."""
    K, V = worker.phi_scratch.shape

    def body() -> None:
        worker.phi_scratch.data[...] = 0

    KernelLaunch(
        body,
        KernelCost(bytes_written=float(K) * V * config.phi_bytes),
        "phi_base_reset",
        "sync",
    ).launch(stream)


def launch_phi_compact(
    worker: GpuWorker, config: KernelConfig, stream: Stream
) -> tuple[DeviceArray, DeviceArray]:
    """Pack Δ = φ partial − base on *worker*, on *stream*: the one
    kernel a cluster node's GPU runs for its φ sync.

    The base is the partial at the GPU's last send. It lives in
    ``phi_scratch``, which no collective uses on a cluster. The kernel
    reads both buffers, writes the changed entries as a
    :class:`~repro.comm.WireDelta` payload (its :meth:`pack` bytes) and
    that payload's 24-byte layout, and keeps the partial as the next
    base by swapping the two buffers. Returns the ``(layout, payload)``
    device buffers; the caller frees them.
    """
    delta = WireDelta.between(worker.phi_partial.data, worker.phi_scratch.data)
    layout, packed = delta.layout(), delta.pack()
    out: list[DeviceArray] = []

    def body() -> None:
        out.append(DeviceArray(
            worker.device, layout.shape, layout.dtype, fill=layout,
            label="phi_delta_layout",
        ))
        out.append(DeviceArray(
            worker.device, packed.shape, np.uint8, fill=packed,
            label="phi_delta",
        ))
        worker.phi_partial, worker.phi_scratch = (
            worker.phi_scratch, worker.phi_partial
        )

    K, V = delta.shape
    KernelLaunch(
        body,
        phi_compact_cost(K, V, packed.nbytes + layout.nbytes, config),
        "phi_delta_compact",
        "sync",
    ).launch(stream)
    return out[0], out[1]


def _fetch(
    machine: Machine,
    buf: DeviceArray,
    stream: Stream,
    label: str,
    retry: TransferRetry | None,
) -> tuple[float, float, np.ndarray]:
    """d2h *buf* on *stream*, retried as every sync transfer is."""
    dev = buf.device.device_id
    return with_retry(
        lambda: machine.memcpy_d2h(buf, stream=stream, label=label),
        stream, label, retry, devices=(dev,),
    )


def _add_checked(
    contribution: np.ndarray,
    layout: np.ndarray,
    payload: np.ndarray,
    columns: np.ndarray,
    dev: int,
) -> None:
    """Add one GPU's Δφ, read from the bytes its copies delivered, into
    *contribution* — after :meth:`WireDelta.read` accepts them (layout,
    size, indices in K×V) and checking that the Δ's column sums are
    *columns*. Raises :class:`~repro.gpusim.errors.KernelFault`
    otherwise."""
    K, V = contribution.shape
    try:
        delta = WireDelta.read((K, V), layout, payload)
    except ValueError as exc:
        raise KernelFault(
            dev, "phi_delta_host_add", f"Δφ from device {dev}: {exc}"
        ) from None
    flat, index, values = contribution.reshape(-1), delta.index, delta.values
    if index is None:
        sums = values.reshape(K, V).sum(axis=0, dtype=np.int64)
    else:
        sums = np.bincount(index % V, weights=values, minlength=V)
    if not np.array_equal(sums, columns):
        raise KernelFault(
            dev, "phi_delta_host_add",
            f"Δφ from device {dev} moves tokens between words",
        )
    if index is None:
        flat += values
    else:
        np.add.at(flat, index, values)  # adds every entry, as a host loop would


def send_phi_deltas(
    machine: Machine,
    workers: list[GpuWorker],
    config: KernelConfig,
    phi_ready: list,
    contribution: np.ndarray,
    columns: list[np.ndarray] | None = None,
    retry: TransferRetry | None = None,
) -> None:
    """A cluster node's φ sync: each GPU sends its host only what its
    partial changed since its last send, and the host adds that into
    *contribution* (int64 K×V: the sum of the node's partials, once
    every GPU's Δ is in).

    Once ``phi_ready[g]`` has passed, GPU *g*'s sync stream runs
    :func:`launch_phi_compact`, then copies the payload's layout to the
    host, so the host learns the payload's size. When a layout lands,
    the host issues that payload's copy. Every GPU's kernel and layout
    copy are issued before the host clock advances.

    As each payload lands, the host checks it and adds it on its own
    clock (:meth:`~repro.gpusim.platform.Machine.host_compute`). A
    payload must match its layout and index only K×V. Each of its
    columns must sum to zero, because sampling moves a token between
    topics, never between words — or to ``columns[g]`` when given: a
    GPU whose base was just reset sends its whole partial, whose column
    sums are its chunks' word counts. A payload that fails raises
    :class:`~repro.gpusim.errors.KernelFault`, so the iteration is
    rolled back.
    """
    K, V = contribution.shape
    staged: list[DeviceArray] = []
    layouts, payloads = [], []
    try:
        for g, w in enumerate(workers):
            w.sync.wait_event(phi_ready[g])
            layout, payload = launch_phi_compact(w, config, w.sync)
            staged += [layout, payload]
            _, end, got = _fetch(
                machine, layout, w.sync, "d2h:phi_delta_layout", retry
            )
            layouts.append((end, g, got, payload))
        for end, g, got, payload in sorted(layouts, key=lambda item: item[0]):
            machine.advance_host(end)
            _, p_end, data = _fetch(
                machine, payload, workers[g].sync, "d2h:phi_delta", retry
            )
            emit_counter(
                "sync_bytes_total", data.nbytes,
                help="bytes moved per link during model synchronization",
                link=f"{workers[g].device.device_id}->host",
                phase="delta_to_host",
            )
            payloads.append((p_end, g, got, data))
    finally:
        for buf in staged:
            buf.free()
    for end, g, got, data in sorted(payloads, key=lambda item: item[0]):
        machine.advance_host(end)
        want = columns[g] if columns is not None else np.zeros(V, np.int64)
        entries = int(np.clip(got[1], 0, K * V))  # value entries it adds
        machine.host_compute(
            lambda: _add_checked(
                contribution, got, data, want, workers[g].device.device_id
            ),
            KernelCost(
                bytes_read=float(data.nbytes) + 8.0 * entries,
                bytes_written=8.0 * (entries + V),
                flops=2.0 * entries,
            ),
            label="phi_delta_host_add",
        )


def synchronize_model(
    machine: Machine,
    workers: list[GpuWorker],
    config: KernelConfig,
    phi_ready: list,
    algorithm: str = AUTO,
    retry: TransferRetry | None = None,
) -> None:
    """Combine the partial φ replicas and refresh every GPU's full φ/n_k.

    ``phi_ready[g]`` is the event marking GPU *g*'s update-φ completion.
    ``algorithm`` is ``"auto"`` (:func:`~repro.comm.plan_sync` picks
    the cheapest collective for the current topology) or any
    registered collective name, which forces that plan. ``retry``
    enables fault-tolerant transfers (see
    :class:`~repro.comm.TransferRetry`).
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
        )
    plan.collective.allreduce(SyncContext(
        machine=machine,
        partials=partials,
        fulls=[w.phi_full for w in workers],
        scratch=[w.phi_scratch for w in workers],
        streams=sync_streams,
        config=config,
        retry=retry,
    ))

    for w in workers:
        launch_nk_rowsum(w, config, w.sync)

    # The next iteration's sampling must see the fresh φ.
    for w in workers:
        done = w.sync.record(label="sync_done")
        w.compute.wait_event(done)


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------

def _sampler_tables(
    workers: list[GpuWorker], hyper: LDAHyperParams
) -> list[WordTables | None]:
    """The sampler's word tables, built once for the first GPU's φ and
    n_k and shared by every GPU whose copies equal them byte for byte.
    Any other GPU (a replica a fault corrupted) gets None: the sampler
    builds its own from that GPU's φ, as without sharing."""
    ref = workers[0]
    tables = word_tables(ref.phi_full.data, ref.n_k.data, hyper)
    return [
        tables
        if w is ref
        or np.array_equal(w.phi_full.data, ref.phi_full.data)
        and np.array_equal(w.n_k.data, ref.n_k.data)
        else None
        for w in workers
    ]


def run_iteration(
    machine: Machine,
    workers: list[GpuWorker],
    runtimes: list[ChunkRuntime],
    held: list[DeviceChunk],
    hyper: LDAHyperParams,
    config: KernelConfig,
    overlap: bool = True,
    sync: Callable[[list], None] | None = None,
) -> None:
    """One iteration of Alg 1 on one machine, WorkSchedule1 and 2 alike.

    GPU g's chunks are ``runtimes[g::G]`` (an elastic layout after a
    migration may leave GPUs with different counts). ``held[g]`` is the
    one on GPU g: the GPU samples it first, then streams its other
    chunks through a second slot, and keeps the last one it samples in
    ``held[g]`` for the next iteration. So at M = 1 no chunk moves
    (WorkSchedule1); at M > 1 (WorkSchedule2) each GPU moves M − 1
    chunks each way, and its first sampling launch waits on no upload.

    With ``overlap=True`` copies run on the upload and download streams,
    so a chunk stages while the one before it computes (§5.1's
    pipelining); with False they go through the compute stream (the
    ablation's serial variant). An upload waits for the download that
    frees its slot, so a GPU never holds more than two of its chunks.
    ``sync(phi_ready)`` is the iteration's φ sync; by default the
    planned collective (:func:`synchronize_model`).
    """
    G = len(workers)
    if len(held) != G or len(runtimes) < G:
        raise ValueError("every GPU needs a chunk, and holds one of them")
    tables = _sampler_tables(workers, hyper)
    phi_ready = []
    for g, worker in enumerate(workers):
        mine = runtimes[g::G]
        first = [cr for cr in mine if cr.chunk_id == held[g].chunk_id]
        if not first:
            raise ValueError(
                f"GPU {worker.device.device_id} holds chunk "
                f"{held[g].chunk_id}, which is not one of its chunks"
            )
        order = first + [cr for cr in mine if cr is not first[0]]
        up = worker.upload if overlap else worker.compute
        down = worker.download if overlap else worker.compute
        freed: list[Event] = []  # freed[i]: order[i]'s slot is free
        for m, cr in enumerate(order):
            if m:
                if m >= 2:
                    up.wait_event(freed[m - 2])
                held[g] = upload_chunk(machine, worker, cr, stream=up)
                staged = up.record(label=f"staged:chunk{cr.chunk_id}")
                worker.compute.wait_event(staged)
            ready = enqueue_chunk_compute(
                machine, worker, cr, held[g], hyper, config,
                accumulate=m > 0, tables=tables[g],
            )
            if m < len(order) - 1:
                done = worker.compute.record(label=f"done:chunk{cr.chunk_id}")
                down.wait_event(done)
                download_chunk(machine, worker, held[g], stream=down)
                freed.append(down.record(label=f"freed:chunk{cr.chunk_id}"))
        phi_ready.append(ready)
    if sync is None:
        synchronize_model(machine, workers, config, phi_ready)
    else:
        sync(phi_ready)


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
