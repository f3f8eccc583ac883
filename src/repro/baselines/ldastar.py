"""LDA* — the distributed comparator (Yu et al., VLDB 2017).

LDA* trains LDA on a CPU cluster with a sharded parameter server over
10 Gb/s Ethernet. The paper's argument (§3, §7.2): per-iteration model
synchronization makes the network the bottleneck, so a single multi-GPU
node with PCIe/NVLink beats the cluster.

This implementation is a working system on the simulated substrate:

- documents are token-balanced across workers (same partitioner as
  CuLDA);
- each iteration every worker pulls the φ columns for its own words
  from the sharded server, samples its partition with the same
  sparsity-aware CGS used by the GPU kernels (run at CPU speed), and
  pushes its count deltas;
- the iteration clock is the max over workers of
  pull → compute → push, with all messages contending on the per-node
  Ethernet links.

Iteration control lives in :mod:`repro.engine`; checkpoints carry each
worker's assignments/θ/RNG plus the parameter-server φ, the pending
push deltas and stale φ caches, so bounded-staleness runs resume
bit-identically mid-window.

Fault domain (docs/ROBUSTNESS.md §8). The cluster is LDA*'s unit of
failure: a heartbeat :class:`~repro.cluster.membership.MembershipMonitor`
watches every node, Ethernet transfers retry transient faults under a
:class:`~repro.engine.recovery.ClusterRecoveryPolicy`, pulls/pushes
against an unreachable shard primary fail over to its chained replica,
and a worker blocked on a silent peer stalls until the detector rules —
raising :class:`~repro.gpusim.errors.NodeLost` on a dead verdict. Under
``--recovery elastic`` the engine then calls
:meth:`LDAStar.handle_device_loss`: the dead node's logical workers
migrate *intact* (chunk, assignments, θ, RNG) to the token-lightest
survivors, φ is recounted exactly from the assignments, and the server
re-shards over the survivors — so the recovered run's φ is
bit-identical to the fault-free run's, not merely statistically close.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.cluster.membership import HeartbeatConfig, MembershipMonitor
from repro.cluster.network import ClusterNetwork
from repro.cluster.paramserver import ShardedParameterServer
from repro.cluster.placement import place_token_lightest
from repro.corpus.corpus import Corpus, TokenChunk
from repro.core.kernels import (
    KernelConfig,
    accumulate_phi,
    gibbs_sample_chunk,
    recount_theta,
    sampling_cost,
    sampling_launch_plan,
    SamplingStats,
)
from repro.core.likelihood import _doc_log_likelihood, word_log_likelihood
from repro.core.model import LDAHyperParams, SparseTheta
from repro.engine.algorithm import Algorithm, IterationOutcome
from repro.engine.loop import LoopConfig, TrainingLoop
from repro.engine.recovery import ClusterRecoveryPolicy, RecoveryPolicy
from repro.engine.results import TrainResult
from repro.engine.state import RunState
from repro.gpusim.costmodel import CostModel
from repro.gpusim.errors import NodeLost
from repro.gpusim.device import DeviceSpec
from repro.gpusim.platform import CPU_E5_2690V4
from repro.sched.partition import partition_by_tokens
from repro.telemetry.context import emit_counter

__all__ = ["LDAStar"]


class _Worker:
    """One cluster node's partition and sampler state."""

    def __init__(
        self,
        worker_id: int,
        chunk: TokenChunk,
        hyper: LDAHyperParams,
        rng: np.random.Generator,
    ):
        self.worker_id = worker_id
        self.chunk = chunk
        self.rng = rng
        self.topics = rng.integers(
            0, hyper.num_topics, size=chunk.num_tokens
        ).astype(np.int32)
        self.theta = SparseTheta.from_assignments(
            chunk, self.topics, hyper.num_topics, compressed=False
        )
        self.words = chunk.words_present().astype(np.int64)
        self.local_counts = accumulate_phi(chunk, self.topics, hyper.num_topics)


class LDAStar(Algorithm):
    """The parameter-server distributed LDA trainer.

    Parameters
    ----------
    corpus: input corpus.
    hyper: hyperparameters.
    num_workers: cluster size (the paper's PubMed comparison uses 20).
    cpu_spec: per-node processor model.
    link_gbps: per-node network bandwidth (default 10 GbE = 1.25 GB/s).
    staleness: bounded staleness — workers synchronize with the server
        only every ``staleness + 1`` iterations, sampling from their
        (self-updated) cached φ in between. 0 = fully synchronous (the
        default, the paper's per-iteration sync); larger values trade
        statistical freshness for network traffic, the knob
        parameter-server systems actually turn.
    seed: RNG seed.
    """

    name = "ldastar"

    def __init__(
        self,
        corpus: Corpus,
        hyper: LDAHyperParams,
        num_workers: int = 20,
        cpu_spec: DeviceSpec = CPU_E5_2690V4,
        link_gbps: float = 1.25,
        staleness: int = 0,
        seed: int = 0,
        callbacks=None,
        registry=None,
    ):
        self._telemetry_init(callbacks, registry)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if staleness < 0:
            raise ValueError("staleness must be >= 0")
        self.staleness = staleness
        self.corpus = corpus
        self.hyper = hyper
        self.cpu_spec = cpu_spec
        self.network = ClusterNetwork(num_workers, link_gbps)
        master = np.random.default_rng(seed)
        ranges = partition_by_tokens(corpus, num_workers)
        rngs = master.spawn(num_workers)
        self.workers = [
            _Worker(
                i,
                TokenChunk.from_corpus_range(corpus, lo, hi),
                hyper,
                rngs[i],
            )
            for i, (lo, hi) in enumerate(ranges)
        ]
        phi0 = np.zeros((hyper.num_topics, corpus.num_words), dtype=np.int64)
        for w in self.workers:
            phi0 += w.local_counts
        self.server = ShardedParameterServer(phi0, num_workers, self.network)
        #: Which cluster node hosts each logical worker. Starts as the
        #: identity map; elastic recovery re-homes a dead node's workers
        #: onto survivors without touching their partitions.
        self._node_of = {i: i for i in range(num_workers)}
        self.membership = MembershipMonitor(self.network)
        self._config = KernelConfig(compressed=False)
        self._cost_model = CostModel()
        # Per-worker stale φ caches (populated at each sync round).
        self._phi_cache: dict[int, np.ndarray] = {}
        self._pending_delta: dict[int, np.ndarray] = {}
        self._clock = 0.0
        #: Clock up to which sim_seconds has been reported. Recovery
        #: stalls (failure-detector leases, re-shard traffic) advance
        #: _clock inside aborted iterations; the gap is charged to the
        #: next completed iteration so recovery time shows up in
        #: sim_seconds instead of silently vanishing.
        self._charged = 0.0
        #: Network bytes accumulated before this process's ClusterNetwork
        #: existed (carried over a checkpoint/resume boundary).
        self._net_base = 0.0

    # ------------------------------------------------------------------
    def _compute_seconds(self, worker: _Worker) -> float:
        """CPU roofline time for one worker's sampling pass."""
        ch = worker.chunk
        row_len = np.diff(worker.theta.indptr)
        kd_sum = int(row_len[ch.token_doc].sum())
        nb, ns = sampling_launch_plan(ch.word_indptr)
        stats = SamplingStats(ch.num_tokens, kd_sum, 0, ns, nb)
        cost = sampling_cost(stats, self.hyper, ch.num_words, self._config)
        # CPUs have no shared-memory constraint; drop the launch geometry.
        from repro.gpusim.costmodel import KernelCost

        cost = KernelCost(
            bytes_read=cost.bytes_read,
            bytes_written=cost.bytes_written,
            flops=cost.flops,
            num_blocks=1,
        )
        return self._cost_model.kernel_seconds(self.cpu_spec, cost)

    def train(
        self,
        iterations: int = 50,
        likelihood_every: int = 0,
        callbacks=None,
        *,
        save_every: int = 0,
        checkpoint_path=None,
        resume=None,
        vocabulary=None,
        recovery: str | RecoveryPolicy | None = None,
        fault_plan=None,
    ) -> TrainResult:
        if isinstance(recovery, str):
            recovery = ClusterRecoveryPolicy(mode=recovery)
        if isinstance(fault_plan, (str, Path)):
            from repro.faults.plan import FaultPlan

            fault_plan = FaultPlan.from_json(fault_plan)
        loop = TrainingLoop(
            self,
            LoopConfig(
                iterations=iterations,
                likelihood_every=likelihood_every,
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
        self._clock = 0.0
        self._charged = 0.0
        # The loop sets recovery_policy before init_state, so the
        # failure detector picks up the policy's heartbeat thresholds.
        policy = getattr(self, "recovery_policy", None)
        heartbeat: HeartbeatConfig | None = None
        if policy is not None and hasattr(policy, "heartbeat_config"):
            heartbeat = policy.heartbeat_config()
        self.membership = MembershipMonitor(self.network, heartbeat)
        if resume is not None:
            self._restore(resume)
        state = resume if resume is not None else RunState(algo=self.name)
        self.capture_state(state)
        return state

    def _restore(self, state: RunState) -> None:
        if len(state.topics) != len(self.workers) or state.thetas is None:
            raise ValueError(
                f"checkpoint has {len(state.topics)} worker(s), this run "
                f"has {len(self.workers)}; match num_workers to resume"
            )
        K = self.hyper.num_topics
        for i, w in enumerate(self.workers):
            topics = state.topics[i]
            if topics.size != w.chunk.num_tokens:
                raise ValueError(
                    "checkpoint partition sizes do not match this corpus"
                )
            w.topics = topics.astype(np.int32, copy=False)
            w.theta = state.thetas[i]
            w.rng = state.rngs[i]
            w.local_counts = accumulate_phi(w.chunk, w.topics, K)
        hosting = state.extras.get("node_hosting")
        if hosting is not None:
            self._node_of = {i: int(n) for i, n in enumerate(hosting)}
        else:
            self._node_of = {i: i for i in range(len(self.workers))}
        dead = state.extras.get("dead_nodes")
        if dead is not None and len(dead):
            # Re-bury nodes the checkpointed run had already lost: fail
            # them on the (possibly fresh) network, tell the detector,
            # and re-home φ shards over the survivors so placement
            # matches the run that wrote the checkpoint.
            for n in dead:
                n = int(n)
                if self.network.node_alive(n):
                    self.network.fail_node(n)
                self.membership.force_dead(n, self._clock)
            self.server.rehome([
                n for n in range(self.network.num_nodes)
                if self.network.node_up(n)
            ])
        self.server.phi = state.phi.astype(np.int64).copy()
        self._phi_cache = {}
        self._pending_delta = {}
        for i in range(len(self.workers)):
            pd = state.extras.get(f"pending_delta_{i}")
            if pd is not None:
                self._pending_delta[i] = pd.astype(np.int64).copy()
            pc = state.extras.get(f"phi_cache_{i}")
            if pc is not None:
                self._phi_cache[i] = pc.astype(np.int64).copy()
        nb = state.extras.get("network_bytes")
        self._net_base = float(nb[0]) if nb is not None else 0.0

    def start_event(self, state: RunState) -> dict:
        return {"machine": f"{len(self.workers)}x {self.cpu_spec.name}"}

    def run_iteration(self, state: RunState) -> IterationOutcome:
        prev = self._charged
        self._clock, net_time, cmp_time = self._iterate_once(
            state.iteration, self._clock
        )
        self._charged = self._clock
        dt = self._clock - prev
        tps = self.corpus.num_tokens / dt if dt > 0 else 0.0
        extras = {"network_seconds": net_time, "compute_seconds": cmp_time}
        return IterationOutcome(
            sim_seconds=dt,
            tokens_per_sec=tps,
            stats=dict(extras),
            event=dict(extras),
        )

    def log_likelihood(self, state: RunState) -> float:
        return self.log_likelihood_per_token()

    def capture_state(self, state: RunState) -> None:
        state.phi = self.server.phi.copy()
        state.topics = [w.topics for w in self.workers]
        state.thetas = [w.theta for w in self.workers]
        state.rngs = [w.rng for w in self.workers]
        extras = {
            "network_bytes": np.array(
                [self._net_base + self.network.total_bytes()]
            ),
            "node_hosting": np.array(
                [self._node_of[i] for i in range(len(self.workers))],
                dtype=np.int64,
            ),
            "dead_nodes": np.array(self.membership.dead_nodes, dtype=np.int64),
        }
        for i, delta in self._pending_delta.items():
            extras[f"pending_delta_{i}"] = delta
        for i, cache in self._phi_cache.items():
            extras[f"phi_cache_{i}"] = cache
        state.extras = extras

    def finalize(self, state: RunState, wall_seconds: float) -> TrainResult:
        return TrainResult(
            corpus_name=self.corpus.name,
            num_tokens=self.corpus.num_tokens,
            iterations=list(state.history),
            total_sim_seconds=state.sim_seconds,
            wall_seconds=wall_seconds,
            phi=self.server.phi.astype(np.int32),
            theta=SparseTheta.concatenate(
                [w.theta for w in self.workers], self.hyper.num_topics
            ),
            hyper=self.hyper,
            algo=self.name,
            cpu_name=self.cpu_spec.name,
            num_workers=len(self.workers),
            network_bytes=self._net_base + self.network.total_bytes(),
        )

    def end_event(self, state: RunState, result: TrainResult) -> dict:
        return {"network_bytes": result.network_bytes}

    # ------------------------------------------------------------------
    # Recovery surface (driven by the engine loop)
    # ------------------------------------------------------------------
    def rollback(self, state: RunState) -> None:
        """Reinstall a known-good snapshot; the cluster clock stays
        monotonic (recovery time is real time)."""
        self._restore(state)

    def _recounted_phi(self) -> np.ndarray:
        """Exact dense φ from the workers' current assignments minus
        their pending (unpushed) deltas — the server's logical content,
        reconstructed from ground truth rather than copied from
        possibly-lost shards."""
        K, V = self.hyper.num_topics, self.corpus.num_words
        dense = np.zeros((K, V), dtype=np.int64)
        for w in self.workers:
            dense += w.local_counts.astype(np.int64)
        for i, delta in self._pending_delta.items():
            dense[:, self.workers[i].words] -= delta
        return dense

    def handle_device_loss(self, state: RunState) -> None:
        """Elastic node-loss recovery: migrate the dead nodes' logical
        workers intact to the token-lightest survivors and re-shard φ.

        Migrating whole workers (chunk, assignments, θ, RNG) instead of
        re-chunking keeps every token's RNG stream identical to the
        fault-free run, so the recovered φ is bit-identical — only the
        wire placement changes. Placement is token-balanced across
        survivors with ties broken by node id, so recovery itself is
        deterministic.
        """
        self._restore(state)
        dead = set(self.membership.dead_nodes)
        survivors = [
            n for n in range(self.network.num_nodes)
            if n not in dead and self.network.node_up(n)
        ]
        if not survivors:
            raise NodeLost(
                min(dead) if dead else 0,
                "no surviving nodes to migrate work to",
            )
        hosting = [self._node_of[w.worker_id] for w in self.workers]
        placed = place_token_lightest(
            hosting, [w.chunk.num_tokens for w in self.workers], survivors
        )
        for w, old, target in zip(self.workers, hosting, placed):
            if target == old:
                continue
            self._node_of[w.worker_id] = target
            emit_counter(
                "node_migrations_total", 1,
                help="Logical workers migrated off dead cluster nodes.",
                worker=w.worker_id, to_node=target,
            )
        _, done = self.server.reshard(self._recounted_phi(), self._clock)
        self._clock = max(self._clock, done)
        # Refresh the state the engine will snapshot: φ now reflects the
        # re-shard and extras carry the new hosting map / dead set.
        self.capture_state(state)

    # ------------------------------------------------------------------
    def _iterate_once(self, it: int, clock: float) -> tuple[float, float, float]:
        """One synchronous parameter-server round; returns the advanced
        cluster clock and the round's (network, compute) critical paths."""
        K, V = self.hyper.num_topics, self.corpus.num_words
        policy = getattr(self, "recovery_policy", None)
        retry = (
            policy.transfer_retry()
            if policy is not None and policy.active
            else None
        )
        self.membership.observe(clock)
        self.server.verify()
        worker_done = []
        net_time = 0.0
        cmp_time = 0.0
        sync_round = (it % (self.staleness + 1)) == 0
        n_k = self.server.n_k
        for w in self.workers:
            node = self._node_of[w.worker_id]
            t0 = clock
            if not self.network.node_up(node):
                # The node hosting this worker is silent. The barrier
                # stalls until the failure detector rules; the stall
                # stays on the clock even though the iteration is
                # aborted and re-run after recovery.
                verdict_at = self.membership.await_verdict(node, t0)
                self._clock = max(self._clock, verdict_at)
                if self.membership.is_dead(node):
                    raise NodeLost(node)
                t0 = verdict_at  # the NIC came back during the stall
            if w.worker_id not in self._pending_delta:
                self._pending_delta[w.worker_id] = np.zeros(
                    (K, w.words.size), dtype=np.int64
                )
            if sync_round or w.worker_id not in self._phi_cache:
                phi_slice, t_pull = self.server.pull(
                    node, w.words, t0, retry=retry
                )
                # Worker-local φ view (zeros for absent words — its
                # tokens never touch those columns). The pull happens
                # before this round's push, so the view excludes the
                # worker's still-pending deltas; re-apply them to keep
                # its own updates visible (read-your-writes).
                phi_local = np.zeros((K, V), dtype=np.int64)
                phi_local[:, w.words] = phi_slice
                phi_local[:, w.words] += self._pending_delta[w.worker_id]
                self._phi_cache[w.worker_id] = phi_local
            else:
                phi_local = self._phi_cache[w.worker_id]
                t_pull = t0
            new_topics, _ = gibbs_sample_chunk(
                w.chunk, w.topics, w.theta, phi_local, n_k,
                self.hyper, w.rng, self._config,
            )
            w.topics = new_topics
            w.theta = recount_theta(w.chunk, new_topics, K, compressed=False)
            new_counts = accumulate_phi(w.chunk, new_topics, K)
            delta = (
                new_counts.astype(np.int64) - w.local_counts.astype(np.int64)
            )[:, w.words]
            w.local_counts = new_counts
            # The worker always sees its own updates immediately.
            phi_local[:, w.words] += delta
            self._pending_delta[w.worker_id] += delta
            t_cmp = self._compute_seconds(w)
            if sync_round:
                t_push = self.server.push(
                    node, w.words,
                    self._pending_delta[w.worker_id],
                    t_pull + t_cmp,
                    retry=retry,
                )
                self._pending_delta[w.worker_id][...] = 0
            else:
                t_push = t_pull + t_cmp
            worker_done.append(t_push)
            net_time = max(net_time, (t_pull - t0) + (t_push - t_pull - t_cmp))
            cmp_time = max(cmp_time, t_cmp)
        return max(worker_done), net_time, cmp_time

    def log_likelihood_per_token(self) -> float:
        phi = self.server.phi
        ll = word_log_likelihood(
            phi, phi.sum(axis=1), self.hyper, self.corpus.num_words
        )
        for w in self.workers:
            ll += _doc_log_likelihood(w.theta, w.chunk.doc_lengths, self.hyper)
        return ll / self.corpus.num_tokens
