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

Iteration control (likelihood cadence, early stopping, callbacks,
checkpoint/resume) lives in :mod:`repro.engine`; this module implements
the :class:`~repro.engine.algorithm.Algorithm` strategy surface for the
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
from repro.gpusim.costmodel import KernelCost
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.platform import Machine, volta_platform
from repro.sched.partition import PartitionPlan, choose_chunking
from repro.sched.schedule import (
    ChunkRuntime,
    DeviceChunk,
    GpuWorker,
    busy_fractions,
    download_chunk,
    iteration_trace_stats,
    run_iteration_resident,
    run_iteration_streaming,
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

#: Backward-compatible alias (the implementation moved to repro.sched).
_busy_fractions = busy_fractions


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
    tree_fanout: int = 32
    # Scheduling.
    chunks_per_gpu: int | None = None   # None → smallest M that fits (§5.1)
    sync_algorithm: str = "auto"        # planner picks; or any registered collective
    overlap_transfers: bool = True
    # Multi-node (DistributedCuLDA; ignored by the single-machine trainer).
    #: Inter-node φ-sync backend: "auto" (cluster planner picks) or any
    #: registered cluster collective ("eth_ring", "param_server").
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
            tree_fanout=self.tree_fanout,
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
    recounted exactly from the restored assignments.
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

    def _transfer_retry(self):
        policy = self.recovery_policy
        return policy.transfer_retry() if policy is not None else None

    # ------------------------------------------------------------------
    # Algorithm strategy surface
    # ------------------------------------------------------------------
    def init_state(self, resume: RunState | None = None) -> RunState:
        cfg = self.config
        hyper = cfg.hyper()
        kcfg = cfg.kernel_config()
        machine = self.machine
        G = len(machine.gpus)

        with span("preprocess"):
            plan = choose_chunking(
                self.corpus,
                G,
                hyper,
                kcfg,
                machine.gpus[0].spec,
                chunks_per_gpu=cfg.chunks_per_gpu,
            )
            runtimes = self._init_runtimes(plan, hyper, kcfg)
            if resume is not None:
                self._restore_runtimes(runtimes, resume, hyper, kcfg)
            phi_host = self._initial_phi(runtimes, hyper, kcfg)
        workers = [
            GpuWorker(dev, hyper.num_topics, self.corpus.num_words, kcfg)
            for dev in machine.gpus
        ]

        # Initial distribution (Alg 1 lines 7-9).
        dev_chunks: list[DeviceChunk] = []
        for w in workers:
            machine.memcpy_h2d(w.phi_full, phi_host, stream=w.upload, label="h2d:phi")
            self._launch_nk(w, kcfg)
        if plan.chunks_per_gpu == 1:
            dev_chunks = [
                upload_chunk(machine, workers[g], runtimes[g])
                for g in range(G)
            ]
        machine.synchronize()
        machine.reset_clock()  # measure iterations from t=0, as Fig 7 does

        self._hyper, self._kcfg = hyper, kcfg
        self._plan, self._runtimes = plan, runtimes
        self._workers, self._dev_chunks = workers, dev_chunks
        self._t_prev = 0.0
        self._peak_device_bytes = 0

        state = resume if resume is not None else RunState(algo=self.name)
        # The simulated clock restarts at 0 on resume; sim totals keep
        # telescoping from the checkpoint's accumulated seconds.
        self._sim_base = state.sim_seconds
        self.capture_state(state)
        return state

    def _restore_runtimes(
        self,
        runtimes: list[ChunkRuntime],
        state: RunState,
        hyper: LDAHyperParams,
        kcfg: KernelConfig,
    ) -> None:
        """Overwrite freshly initialized chunk runtimes with checkpoint
        state (topics z, θ, RNG stream position), validating shape."""
        if len(state.topics) != len(runtimes):
            raise ValueError(
                f"checkpoint has {len(state.topics)} chunk(s), this run "
                f"plans {len(runtimes)}; pin chunks_per_gpu to match"
            )
        if state.thetas is None or len(state.rngs) != len(runtimes):
            raise ValueError("checkpoint is missing per-chunk sampler state")
        dtype = hyper.topic_dtype(kcfg.compressed)
        for i, rt in enumerate(runtimes):
            topics = state.topics[i]
            if topics.size != rt.chunk.num_tokens:
                raise ValueError(
                    "checkpoint chunk sizes do not match this corpus/plan"
                )
            rt.topics = topics.astype(dtype, copy=False)
            rt.theta = state.thetas[i]
            rt.rng = state.rngs[i]

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
        cfg = self.config
        machine = self.machine
        runtimes, workers = self._runtimes, self._workers
        iv0 = len(machine.trace.intervals)
        with span("iteration"):
            retry = self._transfer_retry()
            if self._plan.chunks_per_gpu == 1:
                run_iteration_resident(
                    machine, workers, runtimes, self._dev_chunks,
                    self._hyper, self._kcfg, cfg.sync_algorithm,
                    retry=retry,
                )
            else:
                run_iteration_streaming(
                    machine, workers, runtimes, self._hyper, self._kcfg,
                    self._plan.chunks_per_gpu, cfg.sync_algorithm,
                    overlap=cfg.overlap_transfers, retry=retry,
                )
            t_now = machine.synchronize()
        dt = t_now - self._t_prev
        sync_seconds, p2p_bytes, busy = iteration_trace_stats(
            machine.trace.intervals[iv0:],
            [w.device.device_id for w in workers],
            self._t_prev,
            t_now,
        )
        self._t_prev = t_now

        kd = np.array([r.last_stats.mean_kd for r in runtimes])
        p1 = np.array([r.last_stats.p1_fraction for r in runtimes])
        weights = np.array([r.chunk.num_tokens for r in runtimes], dtype=float)
        weights /= weights.sum()
        tps = self.corpus.num_tokens / dt if dt > 0 else 0.0

        emit_observe(
            "iteration_sim_seconds", dt,
            help="simulated duration of one training iteration",
        )
        emit_gauge(
            "train_tokens_per_sec", tps,
            help="simulated sampling throughput (Eq 2)",
        )
        for d, f in busy.items():
            emit_gauge(
                "device_busy_fraction", f,
                help="device busy share of the last iteration",
                device=str(d),
            )
        return IterationOutcome(
            sim_seconds=dt,
            tokens_per_sec=tps,
            stats={
                "mean_kd": float(kd @ weights),
                "p1_fraction": float(p1 @ weights),
            },
            sync_event={
                "sync_seconds": sync_seconds,
                "p2p_bytes": p2p_bytes,
            },
            event={
                "mean_kd": float(kd @ weights),
                "p1_fraction": float(p1 @ weights),
                "p1_draws": sum(r.last_stats.p1_draws for r in runtimes),
                "p2_draws": sum(
                    r.last_stats.num_tokens - r.last_stats.p1_draws
                    for r in runtimes
                ),
                "tree_probe_levels": sum(
                    r.last_stats.tree_probe_levels for r in runtimes
                ),
                "device_busy_fraction": busy,
                "phi": lambda w=workers[0]: (
                    w.phi_full.data.astype(np.int32).copy()
                ),
            },
        )

    def log_likelihood(self, state: RunState) -> float:
        with span("likelihood"):
            return self._likelihood(self._runtimes, self._workers[0], self._hyper)

    def capture_state(self, state: RunState) -> None:
        state.phi = self._workers[0].phi_full.data.astype(np.int32).copy()
        state.topics = [r.topics for r in self._runtimes]
        state.thetas = [r.theta for r in self._runtimes]
        state.rngs = [r.rng for r in self._runtimes]

    def check_invariants(self, state: RunState) -> list[str]:
        """Every GPU must hold the same synchronized φ replica — silent
        transfer corruption of any one replica breaks this."""
        workers = self._workers
        ref = workers[0].phi_full.data
        out = []
        for w in workers[1:]:
            if not np.array_equal(w.phi_full.data, ref):
                out.append(
                    f"phi replica on GPU {w.device.device_id} diverges "
                    f"from GPU {workers[0].device.device_id}"
                )
        return out

    def finalize(self, state: RunState, wall_seconds: float) -> TrainResult:
        machine = self.machine
        runtimes, workers = self._runtimes, self._workers
        plan, hyper = self._plan, self._hyper
        G = len(workers)  # surviving GPUs (== all, absent device loss)
        total_sim = self._sim_base + machine.synchronize()

        # Final collection (Alg 1 lines 17-20 / 35).
        machine.memcpy_d2h(workers[0].phi_full, stream=workers[0].download,
                           label="d2h:phi")
        if plan.chunks_per_gpu == 1:
            for g in range(G):
                download_chunk(machine, workers[g], runtimes[g],
                               self._dev_chunks[g])
        machine.synchronize()

        breakdown = machine.trace.breakdown_fractions(BREAKDOWN_KINDS)
        phi_final = workers[0].phi_full.data.astype(np.int32).copy()
        theta_final = SparseTheta.concatenate(
            [r.theta for r in runtimes], hyper.num_topics
        )
        topics_final = self._merge_topics(runtimes)
        peak = max(gpu.allocator.peak_bytes for gpu in machine.gpus)
        for w in workers:
            w.free_all()
        self._peak_device_bytes = peak

        return TrainResult(
            corpus_name=self.corpus.name,
            machine_name=machine.name,
            num_gpus=G,
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
        to every worker. With the snapshot's RNG stream positions the
        rerun of the poisoned iteration is bit-identical to a run that
        never faulted.
        """
        machine = self.machine
        hyper, kcfg = self._hyper, self._kcfg
        runtimes = self._runtimes
        if len(state.topics) != len(runtimes) or state.thetas is None:
            raise ValueError(
                "rollback state does not match the live chunk layout"
            )
        dtype = hyper.topic_dtype(kcfg.compressed)
        for i, rt in enumerate(runtimes):
            rt.topics = state.topics[i].astype(dtype, copy=False)
            rt.theta = state.thetas[i]
            rt.rng = state.rngs[i]
        phi_host = self._initial_phi(runtimes, hyper, kcfg)
        for w in self._workers:
            machine.memcpy_h2d(
                w.phi_full, phi_host, stream=w.upload, label="h2d:phi_rollback"
            )
            self._launch_nk(w, kcfg)
        if self._plan.chunks_per_gpu == 1:
            for g, w in enumerate(self._workers):
                dc, rt = self._dev_chunks[g], runtimes[g]
                machine.memcpy_h2d(
                    dc.topics, rt.topics, stream=w.upload,
                    label=f"h2d:chunk{rt.chunk_id}.topics_rollback",
                )
                dc.replace_theta(w.device, rt.theta, f"chunk{rt.chunk_id}")
        # Recovery time stays on the clock (no reset): fault handling is
        # part of the run the timeline reports.
        self._t_prev = machine.synchronize()
        state.phi = self._workers[0].phi_full.data.astype(np.int32).copy()

    def handle_device_loss(self, state: RunState) -> None:
        """Elastic re-partition over the surviving GPUs.

        From the known-good *state*: merge every chunk's assignments
        back to corpus token order (the dead GPU's shard state lives in
        the snapshot, not on the dead GPU), re-chunk the corpus over the
        G−1 survivors with the same token-balancing planner, recount φ,
        and rebuild workers/device buffers. Chunk RNGs are re-spawned
        from (seed, generation) so the continued run stays deterministic
        given the same fault plan.
        """
        from repro.gpusim.errors import FaultError

        machine = self.machine
        cfg = self.config
        hyper, kcfg = self._hyper, self._kcfg
        alive = machine.alive_gpus
        if not alive:
            raise FaultError("no surviving GPUs to re-partition over")
        old_runtimes = self._runtimes
        if len(state.topics) != len(old_runtimes) or state.thetas is None:
            raise ValueError(
                "device-loss state does not match the live chunk layout"
            )

        # Dead GPU's shard state comes from the snapshot: merge all
        # chunks' assignments back to the original corpus token order.
        global_topics = np.empty(self.corpus.num_tokens, dtype=np.int32)
        for i, rt in enumerate(old_runtimes):
            base = int(self.corpus.doc_indptr[rt.chunk.doc_offset])
            global_topics[base + rt.chunk.source_pos] = (
                state.topics[i].astype(np.int32)
            )

        # Drop every old device buffer (host-side bookkeeping only; the
        # dead GPU's memory is gone with the GPU).
        for dc in self._dev_chunks:
            dc.free_all()
        for w in self._workers:
            w.free_all()

        plan = choose_chunking(
            self.corpus, len(alive), hyper, kcfg, alive[0].spec,
            chunks_per_gpu=cfg.chunks_per_gpu,
        )
        self._rng_generation = getattr(self, "_rng_generation", 0) + 1
        children = np.random.default_rng(
            [cfg.seed, self._rng_generation]
        ).spawn(len(plan.doc_ranges))
        dtype = hyper.topic_dtype(kcfg.compressed)
        runtimes = []
        for cid, (lo, hi) in enumerate(plan.doc_ranges):
            chunk = TokenChunk.from_corpus_range(self.corpus, lo, hi)
            base = int(self.corpus.doc_indptr[chunk.doc_offset])
            topics = global_topics[base + chunk.source_pos].astype(dtype)
            theta = SparseTheta.from_assignments(
                chunk, topics, hyper.num_topics, kcfg.compressed
            )
            runtimes.append(ChunkRuntime(cid, chunk, topics, theta, children[cid]))
        phi_host = self._initial_phi(runtimes, hyper, kcfg)

        workers = [
            GpuWorker(dev, hyper.num_topics, self.corpus.num_words, kcfg)
            for dev in alive
        ]
        dev_chunks: list[DeviceChunk] = []
        for w in workers:
            machine.memcpy_h2d(
                w.phi_full, phi_host, stream=w.upload,
                label="h2d:phi_repartition",
            )
            self._launch_nk(w, kcfg)
        if plan.chunks_per_gpu == 1:
            dev_chunks = [
                upload_chunk(machine, workers[g], runtimes[g])
                for g in range(len(workers))
            ]
        self._plan, self._runtimes = plan, runtimes
        self._workers, self._dev_chunks = workers, dev_chunks
        # Migration/redistribution time stays on the clock.
        self._t_prev = machine.synchronize()
        emit_gauge(
            "surviving_gpus", float(len(alive)),
            help="GPUs still alive after elastic re-partition",
        )

        # Refresh the restored state to the new shard layout.
        state.topics = [r.topics for r in runtimes]
        state.thetas = [r.theta for r in runtimes]
        state.rngs = [r.rng for r in runtimes]
        state.phi = workers[0].phi_full.data.astype(np.int32).copy()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
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
                words = chunk.token_word_expanded().astype(np.int64)
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

    def _initial_phi(
        self,
        runtimes: list[ChunkRuntime],
        hyper: LDAHyperParams,
        kcfg: KernelConfig,
    ) -> np.ndarray:
        """The full initial φ (host-side, part of preprocessing).

        On resume this recounts φ from the restored assignments, which
        reproduces the checkpoint's synchronized φ exactly (integer
        counts are a pure function of z).
        """
        phi = np.zeros((hyper.num_topics, self.corpus.num_words), dtype=np.int64)
        for r in runtimes:
            phi += accumulate_phi(r.chunk, r.topics, hyper.num_topics)
        if kcfg.compressed and phi.max(initial=0) >= 2**16:
            raise OverflowError("initial φ overflows 16-bit compression")
        dtype = np.uint16 if kcfg.compressed else np.int32
        return phi.astype(dtype)

    def _launch_nk(self, worker: GpuWorker, kcfg: KernelConfig) -> None:
        K, V = worker.phi_full.shape

        def body() -> None:
            worker.n_k.data[...] = worker.phi_full.data.astype(np.int64).sum(axis=1)

        KernelLaunch(
            body,
            KernelCost(
                bytes_read=float(K) * V * kcfg.phi_bytes,
                bytes_written=K * 8.0,
                flops=float(K) * V,
            ),
            "n_k_rowsum",
            "sync",
        ).launch(worker.upload)

    def _likelihood(
        self,
        runtimes: list[ChunkRuntime],
        worker0: GpuWorker,
        hyper: LDAHyperParams,
    ) -> float:
        """Joint log-likelihood per token from the host mirrors.

        Analysis-only (not charged to the simulated clock), as the paper
        evaluates likelihood offline from model snapshots.
        """
        phi = worker0.phi_full.data.astype(np.int64)
        n_k = phi.sum(axis=1)
        ll = word_log_likelihood(phi, n_k, hyper, self.corpus.num_words)
        for r in runtimes:
            ll += _doc_log_likelihood(r.theta, r.chunk.doc_lengths, hyper)
        return ll / self.corpus.num_tokens

    def _merge_topics(self, runtimes: list[ChunkRuntime]) -> np.ndarray:
        """Scatter each chunk's (word-sorted) topics back to the original
        corpus token order via the stored source positions."""
        out = np.empty(self.corpus.num_tokens, dtype=np.int32)
        for r in runtimes:
            base = int(self.corpus.doc_indptr[r.chunk.doc_offset])
            out[base + r.chunk.source_pos] = r.topics.astype(np.int32)
        return out
