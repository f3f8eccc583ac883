"""CuLDA_CGS: the multi-GPU LDA trainer (paper Alg 1 + §4–6).

This is the library's primary public API::

    from repro.core import CuLDA, TrainConfig
    from repro.corpus import nytimes_like
    from repro.gpusim import pascal_platform

    corpus = nytimes_like(num_tokens=100_000)
    trainer = CuLDA(corpus, machine=pascal_platform(4),
                    config=TrainConfig(num_topics=64, iterations=50))
    result = trainer.train()
    print(result.summary())

`train()` runs the full pipeline: CPU-side preprocessing (word-first
sort, document–word maps), memory-driven chunking (C = M × G), the
WorkSchedule1/WorkSchedule2 iteration loop with per-GPU sampling and
update kernels, and the φ reduce-tree synchronization — all on the
simulated machine, with real Gibbs numerics. Results carry both the
statistical outputs (φ, θ, topic assignments, log-likelihood trace) and
the performance outputs (simulated per-iteration throughput, kernel
time breakdown) the paper reports.

The trainer body is written per node over ``self.machines``: one
machine here, N in :class:`~repro.core.distributed.DistributedCuLDA`,
which adds only the cluster layer (inter-node leg, failure detection,
node migration, barriers on the one timeline every node's machine runs
on). Iteration control (likelihood cadence,
early stopping, callbacks, checkpoint/resume) lives in
:mod:`repro.engine`; this module implements the
:class:`~repro.engine.algorithm.Algorithm` strategy surface for the
multi-GPU sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.corpus import Corpus, TokenChunk
from repro.core.kernels import KernelConfig, accumulate_phi
from repro.core.likelihood import _doc_log_likelihood, word_log_likelihood
from repro.core.model import LDAHyperParams, SparseTheta
from repro.engine.algorithm import Algorithm, IterationOutcome
from repro.engine.loop import LoopConfig, TrainingLoop
from repro.engine.results import BREAKDOWN_KINDS, IterationStats, TrainResult
from repro.engine.state import RunState
from repro.gpusim.errors import FaultError
from repro.gpusim.platform import Machine, volta_platform
from repro.sched.partition import PartitionPlan, choose_chunking
from repro.sched.schedule import (
    ChunkRuntime,
    GpuWorker,
    busy_fractions,
    download_chunk,
    launch_nk_rowsum,
    run_iteration,
    synchronize_model,
    upload_chunk,
)
from repro.telemetry.context import emit_gauge, emit_observe
from repro.telemetry.spans import span

__all__ = [
    "TrainConfig",
    "IterationStats",
    "TrainResult",
    "CuLDA",
    "BREAKDOWN_KINDS",
]


@dataclass(frozen=True)
class TrainConfig:
    """Configuration of one training run.

    Defaults follow the paper: α = 50/K, β = 0.01, all kernel
    optimizations on, GPU-tree synchronization, overlapped transfers.
    """

    num_topics: int = 128
    alpha: float | None = None          # None → 50/K
    beta: float = 0.01
    iterations: int = 100
    seed: int = 0
    # Kernel optimization switches (ablations flip these).
    compressed: bool = True
    sparse_sampler: bool = True
    share_p2_tree: bool = True
    reuse_pstar: bool = True
    # Scheduling.
    chunks_per_gpu: int | None = None   # None → smallest M that fits (§5.1)
    sync_algorithm: str = "auto"        # planner picks; or any collective name
    overlap_transfers: bool = True
    # Multi-node (DistributedCuLDA; ignored by the single-machine trainer).
    #: Inter-node φ-sync backend: "auto" (cluster planner picks) or any
    #: cluster collective ("eth_ring", "param_server").
    inter_sync: str = "auto"
    #: Bounded staleness (F+NOMAD): nodes run up to s iterations on a
    #: stale global φ (plus their own pending updates) between
    #: inter-node syncs. 0 = synchronous — bit-identical to one machine.
    staleness: int = 0
    # Analysis.
    likelihood_every: int = 0           # 0 = only at the end
    #: Early stopping: stop once the likelihood plateau's relative
    #: improvement falls below this (requires likelihood_every > 0).
    stop_rel_tolerance: float | None = None

    def hyper(self) -> LDAHyperParams:
        return LDAHyperParams(
            num_topics=self.num_topics,
            alpha=-1.0 if self.alpha is None else self.alpha,
            beta=self.beta,
        )

    def kernel_config(self) -> KernelConfig:
        return KernelConfig(
            sparse_sampler=self.sparse_sampler,
            share_p2_tree=self.share_p2_tree,
            reuse_pstar=self.reuse_pstar,
            compressed=self.compressed,
        )


class CuLDA(Algorithm):
    """The CuLDA_CGS trainer.

    Parameters
    ----------
    corpus: input corpus.
    machine: simulated platform; defaults to a 1-GPU Volta machine.
    config: training configuration.
    callbacks: :class:`~repro.telemetry.callbacks.TrainerCallback`
        instances fired during training (see ``docs/OBSERVABILITY.md``).
    registry: metrics sink; defaults to the active session's registry
        or a fresh one (inspect ``trainer.registry`` after train()).

    Notes
    -----
    Determinism: runs with the same corpus, config and seed produce
    bit-identical models *regardless of the GPU count*, because each
    chunk owns an independent RNG spawned by chunk id and the integer φ
    reduction is order-independent. (Requires the same chunk count C —
    pin ``chunks_per_gpu`` when comparing across G.) Checkpoints written
    by ``train(save_every=...)`` resume bit-identically too: they carry
    every chunk's topic assignments, θ and RNG stream position, and φ is
    recounted exactly from the restored assignments. For the same
    reason a lost GPU (``recovery="elastic"``) costs only time: its
    chunks move intact to the survivors and the recovered model is
    bit-identical to the fault-free one.
    """

    name = "culda"

    def __init__(
        self,
        corpus: Corpus,
        machine: Machine | None = None,
        config: TrainConfig | None = None,
        warm_start_phi: np.ndarray | None = None,
        callbacks=None,
        registry=None,
    ):
        self.corpus = corpus
        self.machine = machine or volta_platform(1)
        #: The nodes the per-node bodies run over (one machine here).
        self.machines = [self.machine]
        self.config = config or TrainConfig()
        self._telemetry_init(callbacks, registry)
        if not self.machine.gpus:
            raise ValueError("machine has no GPUs")
        if warm_start_phi is not None:
            expected = (self.config.num_topics, corpus.num_words)
            if warm_start_phi.shape != expected:
                raise ValueError(
                    f"warm_start_phi shape {warm_start_phi.shape} != {expected}"
                )
        self._warm_start_phi = warm_start_phi
        self._validate_compression()

    @property
    def hyper(self) -> LDAHyperParams:
        return self.config.hyper()

    @property
    def num_nodes(self) -> int:
        return len(self.machines)

    @property
    def gpus_per_node(self) -> int:
        return len(self.machines[0].gpus)

    @property
    def num_workers(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def _validate_compression(self) -> None:
        cfg = self.config
        if not cfg.compressed:
            return
        cfg.hyper().topic_dtype(compressed=True)  # raises if K too large
        max_freq = int(self.corpus.word_frequencies().max(initial=0))
        if max_freq >= 2**16:
            raise ValueError(
                f"word frequency {max_freq} overflows 16-bit φ compression; "
                "set TrainConfig(compressed=False)"
            )

    # ------------------------------------------------------------------
    def train(
        self,
        callbacks=None,
        *,
        save_every: int = 0,
        checkpoint_path=None,
        resume=None,
        vocabulary=None,
        recovery=None,
        fault_plan=None,
    ) -> TrainResult:
        """Run the full training loop (Alg 1). Returns a TrainResult.

        *callbacks* extends the constructor's callback list for this run
        only. ``save_every``/``checkpoint_path`` write full run-state
        checkpoints every N iterations; ``resume`` continues from such a
        checkpoint (path or :class:`RunState`) bit-identically. A
        telemetry session over ``self.registry`` is active for the
        duration, so kernel-level counters (sampler branch counts,
        transfer bytes, φ high-water) accumulate there.

        ``recovery`` is a :class:`~repro.engine.recovery.RecoveryPolicy`
        or a mode string (``"none"``/``"retry"``/``"elastic"``);
        ``fault_plan`` is a :class:`~repro.faults.FaultPlan` or a path to
        its JSON — see ``docs/ROBUSTNESS.md``.
        """
        cfg = self.config
        if isinstance(recovery, str):
            from repro.engine.recovery import RecoveryPolicy

            recovery = RecoveryPolicy(mode=recovery)
        if isinstance(fault_plan, (str, bytes)) or hasattr(fault_plan, "__fspath__"):
            from repro.faults.plan import FaultPlan

            fault_plan = FaultPlan.from_json(fault_plan)
        loop = TrainingLoop(
            self,
            LoopConfig(
                iterations=cfg.iterations,
                likelihood_every=cfg.likelihood_every,
                stop_rel_tolerance=cfg.stop_rel_tolerance,
                save_every=save_every,
                checkpoint_path=checkpoint_path,
                vocabulary=vocabulary,
                recovery=recovery,
                fault_plan=fault_plan,
            ),
            callbacks=callbacks,
            resume=resume,
        )
        return loop.run()

    # ------------------------------------------------------------------
    # Algorithm strategy surface
    # ------------------------------------------------------------------
    def init_state(self, resume: RunState | None = None) -> RunState:
        cfg = self.config
        self._hyper, self._kcfg = cfg.hyper(), cfg.kernel_config()
        policy = self.recovery_policy
        #: Every copy's transfer-retry policy for this run.
        self._retry = policy.transfer_retry() if policy is not None else None
        #: When the last completed iteration ended (see :meth:`_charge`).
        self._charged = 0.0
        N = self.num_nodes

        with span("preprocess"):
            # ONE global plan over all W = N × G workers: chunk i belongs
            # to global worker i % W, worker w = n*G + j lives on node n.
            # Chunk ids (and therefore RNG streams) are layout-invariant.
            self._plan = choose_chunking(
                self.corpus, self.num_workers, self._hyper, self._kcfg,
                self.machine.gpus[0].spec,
                chunks_per_gpu=cfg.chunks_per_gpu,
            )
            self._runtimes = self._init_runtimes(
                self._plan, self._hyper, self._kcfg
            )
            if resume is not None:
                self._restore_runtimes(resume)

        self._node_workers: list[list[GpuWorker]] = [[] for _ in range(N)]
        #: Per node, the chunk each GPU holds (see ``run_iteration``).
        self._node_dev_chunks: list[list] = [[] for _ in range(N)]
        self._restore_hosting(resume)
        # Initial distribution (Alg 1 lines 7-9), then measure iterations
        # from t=0, as Fig 7 does.
        self._rebuild_nodes("h2d:phi", resume, reset_clock=True)
        self._peak_device_bytes = 0

        state = resume if resume is not None else RunState(algo=self.name)
        # The simulated clock restarts at 0 on resume; sim totals keep
        # telescoping from the checkpoint's accumulated seconds.
        self._sim_base = state.sim_seconds
        self.capture_state(state)
        return state

    def _restore_runtimes(self, state: RunState) -> None:
        """Overwrite the chunk runtimes with a checkpoint's or snapshot's
        state (topics z, θ, RNG stream position), validating shape."""
        runtimes = self._runtimes
        if len(state.topics) != len(runtimes):
            raise ValueError(
                f"checkpoint has {len(state.topics)} chunk(s), this run "
                f"plans {len(runtimes)}; pin chunks_per_gpu to match"
            )
        if state.thetas is None or len(state.rngs) != len(runtimes):
            raise ValueError("checkpoint is missing per-chunk sampler state")
        dtype = self._hyper.topic_dtype(self._kcfg.compressed)
        for i, rt in enumerate(runtimes):
            topics = state.topics[i]
            if topics.size != rt.chunk.num_tokens:
                raise ValueError(
                    "checkpoint chunk sizes do not match this corpus/plan"
                )
            rt.topics = topics.astype(dtype, copy=False)
            rt.theta = state.thetas[i]
            rt.rng = state.rngs[i]

    def _restore_hosting(self, state: RunState | None) -> None:
        """Chunk hosting: logical worker w lives on node w // G."""
        G = self.gpus_per_node
        self._worker_node = [w // G for w in range(self.num_workers)]

    def start_event(self, state: RunState) -> dict:
        return {
            "machine": self.machine.name,
            "num_gpus": len(self.machine.gpus),
            "num_chunks": self._plan.num_chunks,
            "chunks_per_gpu": self._plan.chunks_per_gpu,
            "sync_algorithm": self.config.sync_algorithm,
        }

    def run_iteration(self, state: RunState) -> IterationOutcome:
        """One WorkSchedule1/2 pass (Alg 1 lines 10-16 / 23-34)."""
        legs = self._run_nodes()
        t_end = max(self.machines[n].synchronize() for n in legs)
        return self._outcome(legs, self._charge(t_end))

    def log_likelihood(self, state: RunState) -> float:
        """Joint log-likelihood per token from the host mirrors.

        Analysis-only (not charged to the simulated clock), as the paper
        evaluates likelihood offline from model snapshots.
        """
        with span("likelihood"):
            hyper = self._hyper
            phi = self._phi().astype(np.int64)
            n_k = phi.sum(axis=1)
            ll = word_log_likelihood(phi, n_k, hyper, self.corpus.num_words)
            for r in self._runtimes:
                ll += _doc_log_likelihood(r.theta, r.chunk.doc_lengths, hyper)
            return ll / self.corpus.num_tokens

    def capture_state(self, state: RunState) -> None:
        state.phi = self._phi().astype(np.int32)
        state.topics = [r.topics for r in self._runtimes]
        state.thetas = [r.theta for r in self._runtimes]
        state.rngs = [r.rng for r in self._runtimes]
        state.sim_mark = self._charged

    def check_invariants(self, state: RunState) -> list[str]:
        """Every GPU of a node must hold the same synchronized φ replica —
        silent transfer corruption of any one replica breaks this."""
        out: list[str] = []
        for n, workers in enumerate(self._node_workers):
            if not workers:  # dead node / work migrated away
                continue
            ref = workers[0].phi_full.data
            for w in workers[1:]:
                if not np.array_equal(w.phi_full.data, ref):
                    out.append(
                        f"phi replica on node {n} GPU {w.device.device_id} "
                        f"diverges from GPU {workers[0].device.device_id}"
                    )
        return out

    def finalize(self, state: RunState, wall_seconds: float) -> TrainResult:
        # One machine's clock stops before the final collection.
        total_sim = self._sim_base + max(m.synchronize() for m in self.machines)
        num_gpus = sum(len(w) for w in self._node_workers)  # the survivors
        self._collect()
        return self._result(
            state, wall_seconds, total_sim,
            machine_name=self.machine.name, num_gpus=num_gpus,
        )

    def end_event(self, state: RunState, result: TrainResult) -> dict:
        return {"peak_device_bytes": self._peak_device_bytes}

    # ------------------------------------------------------------------
    # Recovery surface (see repro.engine.recovery / docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------
    def rollback(self, state: RunState) -> None:
        """Reinstall the sampler from a known-good *state* snapshot.

        The chunk layout is unchanged: per-chunk z/θ/RNG come straight
        from the snapshot, φ is recounted from the restored assignments
        (a pure function of z, so the rebuild is exact) and re-uploaded
        to every worker, and each GPU stages its first chunk afresh.
        With the snapshot's RNG stream positions the
        rerun of the poisoned iteration is bit-identical to a run that
        never faulted. The iterations after the snapshot are discarded,
        so their time, and the rollback's, is charged to the rerun.
        """
        self._restore_runtimes(state)
        self._charged = state.sim_mark
        views = self._recount(state)
        for n in self._host_nodes:
            self._upload_phi(n, views[n], "h2d:phi_rollback")
            self._stage_chunks(n)
            # Recovery time stays on the clock (no reset): fault handling
            # is part of the run the timeline reports.
            self.machines[n].synchronize()
        state.phi = self._phi().astype(np.int32)

    def handle_device_loss(self, state: RunState) -> None:
        """Elastic recovery from a lost GPU.

        The node's chunks move intact — chunk, topic assignments, θ, RNG
        stream — round-robin over its surviving GPUs, restored from the
        known-good *state* (the dead GPU's shard state lives in the
        snapshot, not on the dead GPU). Nothing is re-chunked and no RNG
        is re-spawned, so the recovered model is bit-identical to the
        fault-free run; φ is recounted exactly and the node's reduce
        tree is re-planned at the new fan-in by the per-machine sync
        planner. Migration time stays on the simulated clock, charged
        with the discarded iterations to the rerun, as a rollback's is.
        """
        self._restore_runtimes(state)
        self._charged = state.sim_mark
        self._rebuild_nodes("h2d:phi_repartition")
        emit_gauge(
            "surviving_gpus", float(sum(len(w) for w in self._node_workers)),
            help="GPUs still alive after elastic re-partition",
        )
        # Refresh the restored state: φ reflects the recount.
        self.capture_state(state)

    # ------------------------------------------------------------------
    # Per-node internals
    # ------------------------------------------------------------------
    def _phi(self) -> np.ndarray:
        """The synchronized model φ: after the intra-node all-reduce
        every GPU of the node holds it."""
        return self._node_workers[self._host_nodes[0]][0].phi_full.data

    def _device_key(self, node: int, device: int):
        """The key of a GPU in per-device reports (its device id)."""
        return device

    def _recount(self, state: RunState | None = None) -> dict[int, np.ndarray]:
        """Recount φ exactly from the chunks' current assignments (a pure
        function of z). Returns the φ each hosting node samples against,
        in the device dtype."""
        phi = self._sum_counts(
            [self._node_phi_counts(n) for n in range(self.num_nodes)]
        )
        view = self._as_phi_dtype(phi, self._kcfg)
        return {n: view for n in self._host_nodes}

    def _hosted_runtimes(self) -> list[list[ChunkRuntime]]:
        """Per-node chunk-runtime lists under the current hosting map,
        round-major then worker-ascending — identical to the pristine
        ``m*W + n*G + j`` order while hosting is the identity."""
        W, M = self.num_workers, self._plan.chunks_per_gpu
        by_node: list[list[ChunkRuntime]] = [[] for _ in range(self.num_nodes)]
        for m in range(M):
            for w in range(W):
                by_node[self._worker_node[w]].append(self._runtimes[m * W + w])
        return by_node

    def _rebuild_nodes(
        self,
        label: str,
        state: RunState | None = None,
        reset_clock: bool = False,
    ) -> None:
        """Rebuild every node's device state under the current hosting
        map: free the old buffers, recount φ (see :meth:`_recount`), then
        create GPU workers on each hosting node's alive GPUs, allocate
        each one's chunk slots for its chunks, upload the node's φ view,
        stage each GPU's first chunk, and leave every hosting machine
        synchronized (its clock reset at init)."""
        self._release()
        self._node_runtimes = self._hosted_runtimes()
        self._host_nodes = [
            n for n in range(self.num_nodes) if self._node_runtimes[n]
        ]
        views = self._recount(state)
        hyper, kcfg = self._hyper, self._kcfg
        hosting = set(self._host_nodes)
        for n in range(self.num_nodes):
            if n not in hosting:
                self._node_workers[n] = []
                self._node_dev_chunks[n] = []
                continue
            machine = self.machines[n]
            workers = [
                GpuWorker(dev, hyper.num_topics, self.corpus.num_words, kcfg)
                for dev in machine.alive_gpus
            ]
            if not workers:
                raise FaultError(f"node {n} hosts work but has no alive GPUs")
            for g, w in enumerate(workers):
                w.allocate_slots(self._node_runtimes[n][g::len(workers)])
            self._node_workers[n] = workers
            self._upload_phi(n, views[n], label)
            self._stage_chunks(n)
            machine.synchronize()
            if reset_clock:
                machine.reset_clock()

    def _stage_chunks(self, node: int) -> None:
        """Stage each GPU of *node*'s first chunk in its first slot: the
        chunk it samples first next iteration."""
        machine, local = self.machines[node], self._node_runtimes[node]
        self._node_dev_chunks[node] = [
            upload_chunk(machine, w, local[g], w.slots[0], retry=self._retry)
            for g, w in enumerate(self._node_workers[node])
        ]

    def _upload_phi(self, node: int, view_host: np.ndarray, label: str) -> None:
        """Copy a φ view to every GPU of *node* and recount n_k there."""
        machine = self.machines[node]
        for w in self._node_workers[node]:
            machine.memcpy_h2d(
                w.phi_full, view_host, stream=w.upload, label=label,
                retry=self._retry,
            )
            launch_nk_rowsum(w, self._kcfg, w.upload)

    def _release(self) -> None:
        """Free every node's device buffers, chunk slots included
        (host-side bookkeeping only; a dead GPU's memory is gone with the
        GPU)."""
        for workers in self._node_workers:
            for w in workers:
                w.free_all()

    def _run_nodes(self) -> dict[int, tuple[int, float]]:
        """Alg 1's iteration on every hosting node: WorkSchedule1/2, then
        the node's φ sync (:meth:`_sync_node`). Returns, per node, its
        trace mark and its host clock when the iteration started. Each
        host clock is left where the node's sync left it."""
        legs = {}
        for n in self._host_nodes:
            machine = self.machines[n]
            legs[n] = (len(machine.trace.intervals), machine.host_time)
            with span("iteration"):
                run_iteration(
                    machine, self._node_workers[n], self._node_runtimes[n],
                    self._node_dev_chunks[n], self._hyper, self._kcfg,
                    overlap=self.config.overlap_transfers,
                    sync=lambda n=n: self._sync_node(n), retry=self._retry,
                )
        return legs

    def _sync_node(self, node: int) -> None:
        """Node *node*'s φ sync: the §5.2 collective ``--sync`` plans for
        the machine."""
        synchronize_model(
            self.machines[node], self._node_workers[node], self._kcfg,
            self.config.sync_algorithm, retry=self._retry,
        )

    def _charge(self, t_end: float) -> float:
        """The simulated seconds of an iteration that ends at *t_end*:
        from the end of the last completed one, so an aborted attempt
        and the recovery after it land on the iteration that reruns."""
        dt, self._charged = t_end - self._charged, t_end
        return dt

    def _trace_stats(self, legs) -> tuple[float, float, dict]:
        """``(sync_seconds, p2p_bytes, busy share by device)`` over each
        node's iteration window: from its start to its host clock, which
        the iteration has synchronized."""
        sync_seconds = p2p_bytes = 0
        busy = {}
        for n, (mark, start) in legs.items():
            machine = self.machines[n]
            ivs = machine.trace.intervals[mark:]
            sync_seconds += sum(iv.duration for iv in ivs if iv.kind == "sync")
            p2p_bytes += sum(iv.bytes_moved for iv in ivs if iv.kind == "p2p")
            devices = [w.device.device_id for w in self._node_workers[n]]
            for d, f in busy_fractions(ivs, devices, start, machine.host_time).items():
                busy[self._device_key(n, d)] = f
        return sync_seconds, p2p_bytes, busy

    def _outcome(
        self,
        legs,
        dt: float,
        network_seconds: float = 0.0,
        stats: dict | None = None,
        event: dict | None = None,
    ) -> IterationOutcome:
        """One iteration's outcome, the same shape for one and N nodes:
        *dt* simulated seconds over the nodes' *legs*. The cluster adds
        its inter-node *network_seconds* to the sync time, and its own
        *stats* and *event* keys."""
        tps = self.corpus.num_tokens / dt if dt > 0 else 0.0
        sync_seconds, p2p_bytes, busy = self._trace_stats(legs)
        sampler = self._sampler_stats()
        self._emit_iteration(dt, tps, busy)
        runtimes = self._runtimes
        return IterationOutcome(
            sim_seconds=dt,
            tokens_per_sec=tps,
            stats={**sampler, **(stats or {})},
            sync_event={
                "sync_seconds": sync_seconds + network_seconds,
                "p2p_bytes": p2p_bytes,
            },
            event={
                **sampler,
                "p1_draws": sum(r.last_stats.p1_draws for r in runtimes),
                "p2_draws": sum(
                    r.last_stats.num_tokens - r.last_stats.p1_draws
                    for r in runtimes
                ),
                "tree_probe_levels": sum(
                    r.last_stats.tree_probe_levels for r in runtimes
                ),
                **(event or {}),
                "device_busy_fraction": busy,
                "phi": lambda phi=self._phi(): phi.astype(np.int32),
            },
        )

    def _sampler_stats(self) -> dict:
        """Token-weighted mean K_d and p1 share of the last sweep."""
        runtimes = self._runtimes
        kd = np.array([r.last_stats.mean_kd for r in runtimes])
        p1 = np.array([r.last_stats.p1_fraction for r in runtimes])
        weights = np.array([r.chunk.num_tokens for r in runtimes], dtype=float)
        weights /= weights.sum()
        return {
            "mean_kd": float(kd @ weights),
            "p1_fraction": float(p1 @ weights),
        }

    @staticmethod
    def _emit_iteration(dt: float, tps: float, busy: dict) -> None:
        emit_observe(
            "iteration_sim_seconds", dt,
            help="simulated duration of one training iteration",
        )
        emit_gauge(
            "train_tokens_per_sec", tps,
            help="simulated sampling throughput (Eq 2)",
        )
        for dev, f in busy.items():
            emit_gauge(
                "device_busy_fraction", f,
                help="device busy share of the last iteration",
                device=str(dev),
            )

    def _collect(self) -> None:
        """Final collection on every hosting node (Alg 1 lines 17-20 /
        35)."""
        for n in self._host_nodes:
            machine = self.machines[n]
            workers = self._node_workers[n]
            machine.memcpy_d2h(
                workers[0].phi_full, stream=workers[0].download,
                label="d2h:phi", retry=self._retry,
            )
            for w, dc in zip(workers, self._node_dev_chunks[n]):
                download_chunk(machine, w, dc, retry=self._retry)

    def _result(
        self, state: RunState, wall_seconds: float, total_sim: float, **where
    ) -> TrainResult:
        """The run's TrainResult (*where* names the hardware); frees every
        device buffer."""
        hyper, plan, runtimes = self._hyper, self._plan, self._runtimes
        # Kernel-time breakdown over every machine's trace.
        by_kind = dict.fromkeys(BREAKDOWN_KINDS, 0.0)
        for machine in self.machines:
            for iv in machine.trace.intervals:
                if iv.kind in by_kind:
                    by_kind[iv.kind] += iv.duration
        grand = sum(by_kind.values())
        breakdown = {
            k: (v / grand if grand > 0 else 0.0) for k, v in by_kind.items()
        }
        phi_final = self._phi().astype(np.int32)
        theta_final = SparseTheta.concatenate(
            [r.theta for r in runtimes], hyper.num_topics
        )
        topics_final = self._merge_topics(runtimes)
        peak = max(
            gpu.allocator.peak_bytes
            for machine in self.machines for gpu in machine.gpus
        )
        self._release()
        self._peak_device_bytes = peak
        return TrainResult(
            corpus_name=self.corpus.name,
            num_tokens=self.corpus.num_tokens,
            plan_chunks=plan.num_chunks,
            chunks_per_gpu=plan.chunks_per_gpu,
            iterations=list(state.history),
            total_sim_seconds=total_sim,
            wall_seconds=wall_seconds,
            breakdown=breakdown,
            phi=phi_final,
            theta=theta_final,
            hyper=hyper,
            peak_device_bytes=peak,
            topics=topics_final,
            algo=self.name,
            **where,
        )

    def _node_phi_counts(self, node: int) -> np.ndarray:
        """Node *node*'s exact φ contribution (int64), recounted from
        its chunks' current topic assignments."""
        K = self._hyper.num_topics
        counts = np.zeros((K, self.corpus.num_words), dtype=np.int64)
        for r in self._node_runtimes[node]:
            counts += accumulate_phi(r.chunk, r.topics, K)
        return counts

    @staticmethod
    def _sum_counts(node_counts: list[np.ndarray]) -> np.ndarray:
        total = np.zeros_like(node_counts[0])
        for c in node_counts:
            total += c
        return total

    @staticmethod
    def _as_phi_dtype(phi: np.ndarray, kcfg: KernelConfig) -> np.ndarray:
        if kcfg.compressed:
            if phi.max(initial=0) >= 2**16:
                raise OverflowError("φ overflows 16-bit compression")
            return phi.astype(np.uint16)
        return phi.astype(np.int32)

    def _init_runtimes(
        self, plan: PartitionPlan, hyper: LDAHyperParams, kcfg: KernelConfig
    ) -> list[ChunkRuntime]:
        """CPU preprocessing: chunk layouts, initial topics, initial θ.

        Chunk RNGs are spawned from the seed by chunk id, making results
        independent of the GPU count at fixed C. Initial topics are
        uniform random (paper §2.1) unless a warm-start φ was given, in
        which case each token's topic is drawn from p(k | w) ∝ φ_kw + β.
        """
        master = np.random.default_rng(self.config.seed)
        children = master.spawn(len(plan.doc_ranges) + 1)
        runtimes = []
        dtype = hyper.topic_dtype(kcfg.compressed)
        warm_cdf = None
        if self._warm_start_phi is not None:
            w = self._warm_start_phi.astype(np.float64) + hyper.beta
            warm_cdf = np.cumsum(w / w.sum(axis=0, keepdims=True), axis=0)
            warm_cdf[-1, :] = 1.0
        for cid, (lo, hi) in enumerate(plan.doc_ranges):
            chunk = TokenChunk.from_corpus_range(self.corpus, lo, hi)
            rng = children[cid]
            if warm_cdf is None:
                topics = rng.integers(
                    0, hyper.num_topics, size=chunk.num_tokens
                ).astype(dtype)
            else:
                words = chunk.token_word.astype(np.int64)
                u = rng.random(chunk.num_tokens)
                topics = np.empty(chunk.num_tokens, dtype=np.int64)
                step = max(1, (1 << 22) // hyper.num_topics)
                for lo_t in range(0, chunk.num_tokens, step):
                    sel = slice(lo_t, min(lo_t + step, chunk.num_tokens))
                    cols = warm_cdf[:, words[sel]]  # (K, m)
                    topics[sel] = (cols > u[sel][None, :]).argmax(axis=0)
                topics = topics.astype(dtype)
            theta = SparseTheta.from_assignments(
                chunk, topics, hyper.num_topics, kcfg.compressed
            )
            runtimes.append(ChunkRuntime(cid, chunk, topics, theta, rng))
        return runtimes

    def _merge_topics(self, runtimes: list[ChunkRuntime]) -> np.ndarray:
        """Scatter each chunk's (word-sorted) topics back to the original
        corpus token order via the stored source positions."""
        out = np.empty(self.corpus.num_tokens, dtype=np.int32)
        for r in runtimes:
            base = int(self.corpus.doc_indptr[r.chunk.doc_offset])
            out[base + r.chunk.source_pos] = r.topics.astype(np.int32)
        return out
