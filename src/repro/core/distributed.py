"""DistributedCuLDA: CuLDA_CGS across N nodes × G GPUs.

The paper stops at one machine; this trainer spans the cluster
substrate with hierarchical synchronization:

1. the corpus is token-balanced into ``C = M × N × G`` chunks by the
   same planner the single-machine trainer uses — one *global* plan
   over all ``W = N × G`` workers, so chunk boundaries and per-chunk
   RNG streams are identical for every (N, G) layout with the same W;
2. each node runs the paper's intra-node iteration — the per-node
   body of :class:`~repro.core.culda.CuLDA` (WorkSchedule1/2) — but no
   §5.2 collective: each GPU sends its host only what its partial φ
   changed since its last send, and the host adds that into the node's
   contribution (``send_phi_deltas``);
3. an inter-node leg combines each node's Δφ since the last sync
   over the Ethernet fabric through a cluster collective (``eth_ring``
   allgathers the deltas in a sparse 16-bit wire format;
   ``param_server`` pushes them to the sharded server), chosen behind
   ``--inter-sync auto`` by the planner, which prices each backend by
   rehearsing it on an idle shadow cluster for this iteration's
   payload; once it has delivered to a node, each of the node's GPUs
   receives the new view (the last synced φ plus the deltas) as its
   change from the view the host last sent the node, in one h2d that
   one kernel adds in (docs/DISTRIBUTED.md §2).

This class adds only that cluster layer: the inter-node leg, failure
detection, the parameter server, the staleness cache, node migration,
the cluster clock and the ``dist_*`` checkpoint extras. A one-node
cluster has none of it, so ``DistributedCuLDA`` over one machine *is*
the single-machine trainer (same plan, same timings, same checkpoint
bytes).

Because the reduction is exact integer addition and chunk RNGs are
keyed by global chunk id, synchronous training is **bit-identical**
across worker layouts (1×4 ≡ 2×2 ≡ 4×1) and across inter-node
backends — enforced by ``tests/test_distributed.py``.

Bounded staleness (``TrainConfig.staleness = s``, after F+NOMAD): the
inter-node leg runs every ``s+1`` iterations; in between, each node
samples against the last global φ *plus its own pending updates*
(read-your-writes, so token counts are conserved). ``s = 0`` is the
synchronous mode and degenerates bit-identically.

Elasticity (docs/DISTRIBUTED.md §5, docs/ROBUSTNESS.md §8): this is
the repository's one cluster node-loss path. Under a
:class:`~repro.engine.recovery.RecoveryPolicy` the trainer survives
node death, NIC outages, and parameter-server shard corruption. A
heartbeat :class:`~repro.cluster.membership.MembershipMonitor` turns
silence into a verdict when the default
:class:`~repro.cluster.membership.HeartbeatConfig` lease expires; the
dead node's logical workers then migrate intact (chunk, z, θ, RNG) to
the token-lightest survivors, the replicated
:class:`ShardedParameterServer` — which parks the chunk-hosting plan
as control-plane metadata — re-shards over the surviving placement
from an exact φ recount, and training resumes.
Because chunk RNG streams are keyed by global chunk id and migration
never re-chunks, the recovered synchronous model is **bit-identical**
to the fault-free run; the async mode conserves tokens with the dead
node's staleness window drained deterministically at a fresh sync
point. Recovery stalls stay on the simulated clock
(``node_recovery_stall_seconds_total``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm import (
    AUTO,
    ClusterSyncContext,
    WireDelta,
    get_cluster_collective,
    plan_cluster_sync,
)
from repro.core.culda import CuLDA, TrainConfig
from repro.cluster.membership import MembershipMonitor
from repro.cluster.network import ClusterNetwork
from repro.cluster.paramserver import ShardedParameterServer
from repro.cluster.placement import place_token_lightest
from repro.corpus.corpus import Corpus
from repro.engine.algorithm import IterationOutcome
from repro.engine.results import TrainResult
from repro.engine.state import RunState
from repro.gpusim.errors import NodeLost
from repro.gpusim.memory import DeviceArray
from repro.gpusim.platform import Machine
from repro.sched.schedule import (
    launch_phi_base_reset,
    launch_phi_delta,
    send_phi_deltas,
)
from repro.telemetry.context import emit_counter, emit_gauge
from repro.telemetry.spans import span

# The per-node code that calls these lives in repro.core.culda now; the
# names stay importable here because bench/layertrace.py patches them.
from repro.core.kernels import accumulate_phi  # noqa: F401
from repro.sched.partition import choose_chunking  # noqa: F401
from repro.sched.schedule import download_chunk, upload_chunk  # noqa: F401

__all__ = ["DistributedCuLDA"]


def _check_cluster_args(
    config: TrainConfig,
    num_nodes: int,
    network: ClusterNetwork | None,
) -> None:
    if config.staleness < 0:
        raise ValueError("staleness must be >= 0")
    if config.inter_sync != AUTO:
        get_cluster_collective(config.inter_sync)  # raises on unknown name
    if network is not None and network.num_nodes != num_nodes:
        raise ValueError(
            f"network has {network.num_nodes} node(s), trainer has "
            f"{num_nodes}"
        )


class DistributedCuLDA(CuLDA):
    """CuLDA_CGS on *N* simulated machines joined by a cluster network.

    Parameters
    ----------
    corpus: input corpus.
    machines: one simulated machine per node; all nodes must have the
        same GPU count (G). A single machine builds
        :class:`~repro.core.culda.CuLDA` itself.
    network: the Ethernet fabric; defaults to a fresh
        :class:`~repro.cluster.network.ClusterNetwork` over the nodes.

    The ``param_server`` backend shards φ once per node.

    The checkpoint format and ``name`` are shared with the
    single-machine trainer, so run-state files resume across any
    layout with the same total worker count.
    """

    def __new__(
        cls,
        corpus: Corpus,
        machines: Sequence[Machine],
        network: ClusterNetwork | None = None,
        config: TrainConfig | None = None,
        warm_start_phi: np.ndarray | None = None,
        callbacks=None,
        registry=None,
    ):
        """A one-node cluster has no cluster layer — no inter-node leg,
        no cluster clock, no ``dist_*`` extras — so after the same
        argument checks it is the single-machine trainer itself."""
        if len(machines) != 1:
            return super().__new__(cls)
        _check_cluster_args(config or TrainConfig(), 1, network)
        return CuLDA(
            corpus, machines[0], config, warm_start_phi=warm_start_phi,
            callbacks=callbacks, registry=registry,
        )

    def __init__(
        self,
        corpus: Corpus,
        machines: Sequence[Machine],
        network: ClusterNetwork | None = None,
        config: TrainConfig | None = None,
        warm_start_phi: np.ndarray | None = None,
        callbacks=None,
        registry=None,
    ):
        machines = list(machines)
        if not machines:
            raise ValueError("need at least one machine (node)")
        gpus = {len(m.gpus) for m in machines}
        if len(gpus) != 1:
            raise ValueError(
                f"all nodes must have the same GPU count; got {sorted(gpus)}"
            )
        super().__init__(
            corpus, machines[0], config,
            warm_start_phi=warm_start_phi, callbacks=callbacks,
            registry=registry,
        )
        self.machines = machines
        _check_cluster_args(self.config, self.num_nodes, network)
        self.network = network or ClusterNetwork(self.num_nodes)
        #: Built in init_state (needs φ); exposed for fault wiring.
        self.server: ShardedParameterServer | None = None
        #: Heartbeat failure detector; built afresh in init_state.
        self.membership: MembershipMonitor | None = None

    # ------------------------------------------------------------------
    # Algorithm strategy surface
    # ------------------------------------------------------------------
    def init_state(self, resume: RunState | None = None) -> RunState:
        self.membership = MembershipMonitor(self.network)
        #: Per node, the φ view its GPUs hold: the host's reference
        #: for the next Δφ and for check_invariants.
        self._held: dict[int, np.ndarray] = {}
        #: Per node, the sum of what its GPUs sent since their Δ bases
        #: were reset: the node's contribution once each GPU has sent.
        self._contrib: dict[int, np.ndarray] = {}
        #: Nodes whose Δ bases were reset since their last send.
        self._fresh: set[int] = set()
        self._cluster_time = 0.0
        self._charged = 0.0
        extras = resume.extras if resume is not None else {}
        self._net_base = 0.0
        if "dist_net_base" in extras:
            self._net_base = float(np.asarray(extras["dist_net_base"])[0])

        state = super().init_state(resume)

        self.server = ShardedParameterServer(
            self._phi_cache.copy(), self.num_nodes, self.network
        )
        if self._dead_nodes:
            self.server.rehome([
                n for n in range(self.num_nodes) if self.network.node_up(n)
            ])
        self._park_plan()
        return state

    def _restore_hosting(self, state: RunState | None) -> None:
        """Logical worker w starts on physical node w // G. A checkpoint
        or snapshot written after an elastic recovery carries the
        migrated map and the buried node set in extras; both apply only
        when the node count matches — on any other layout the resume
        point is a fresh, healthy cluster (exact for sync mode, where
        placement is invisible to the numerics). Buried nodes are
        re-failed on the network and re-declared to the detector, so
        the restored run matches the one that wrote the state."""
        super()._restore_hosting(state)
        N, W = self.num_nodes, self.num_workers
        self._dead_nodes: set[int] = set()
        extras = state.extras if state is not None else {}
        hosting = extras.get("dist_worker_node")
        wrote_nodes = extras.get("dist_num_nodes")
        if (
            hosting is not None
            and len(hosting) == W
            and wrote_nodes is not None
            and int(np.asarray(wrote_nodes)[0]) == N
        ):
            hosting = [int(x) for x in np.asarray(hosting)]
            if all(0 <= n < N for n in hosting):
                self._worker_node = hosting
                self._dead_nodes = {
                    int(x)
                    for x in np.asarray(extras.get("dist_dead_nodes", ()))
                }
        for n in sorted(self._dead_nodes):
            if self.network.node_alive(n):
                self.network.fail_node(n)
            self.membership.force_dead(n, self._cluster_time)

    def _recount(self, state: RunState | None = None) -> dict[int, np.ndarray]:
        """Keeps every node's contribution and their sum, plus the
        staleness bookkeeping: the last globally synced φ and each
        node's contribution at that sync. Those are restored from
        *state*'s extras when it stopped mid-window on this node count;
        otherwise the recount is a fresh sync point (exact for
        synchronous runs, where cache and base are pure functions of z).
        A node samples against the synced φ plus its own pending
        updates."""
        N = self.num_nodes
        node_counts = [self._node_phi_counts(n) for n in range(N)]
        self._global_phi = self._sum_counts(node_counts)
        extras = state.extras if state is not None else {}
        cache = extras.get("dist_phi_cache")
        bases = [extras.get(f"dist_node_base_{n}") for n in range(N)]
        if cache is not None and all(b is not None for b in bases):
            self._phi_cache = np.asarray(cache).astype(np.int64)
            self._node_base = [np.asarray(b).astype(np.int64) for b in bases]
        else:
            self._phi_cache = self._global_phi.copy()
            self._node_base = [c.copy() for c in node_counts]
        return {
            n: self._as_phi_dtype(
                self._phi_cache + node_counts[n] - self._node_base[n],
                self._kcfg,
            )
            for n in self._host_nodes
        }

    def _phi(self) -> np.ndarray:
        return self._global_phi

    def _upload_phi(self, node: int, view_host: np.ndarray, label: str) -> None:
        """The dense upload (init, rollback, migration); the host keeps
        *view_host* as the view node *node* holds. Every GPU's Δ base
        and the node's contribution restart at zero, so each GPU's next
        Δ is its whole partial."""
        super()._upload_phi(node, view_host, label)
        self._held[node] = view_host
        for w in self._node_workers[node]:
            launch_phi_base_reset(w, self._kcfg, w.upload)
        self._contrib[node] = np.zeros(view_host.shape, dtype=np.int64)
        self._fresh.add(node)

    def _sync_node(self, node: int, phi_ready: list, retry) -> None:
        """A cluster node runs no §5.2 collective: each GPU sends its
        host only its partial's change, which the host checks and adds
        into the node's contribution (``send_phi_deltas``). Right after
        a reset each Δ is the GPU's whole partial, whose columns sum to
        its chunks' word counts."""
        workers = self._node_workers[node]
        columns = None
        if node in self._fresh:
            local, G = self._node_runtimes[node], len(workers)
            columns = [
                sum(np.diff(r.chunk.word_indptr) for r in local[g::G])
                for g in range(G)
            ]
            self._fresh.discard(node)
        send_phi_deltas(
            self.machines[node], workers, self._kcfg, phi_ready,
            self._contrib[node], columns, retry,
        )

    def _send_delta(
        self, node: int, delta: WireDelta, payload: np.ndarray
    ) -> None:
        """Send every GPU of *node* the packed Δφ *payload* in one h2d,
        into a buffer of the payload's size, and apply it there."""
        machine = self.machines[node]
        for w in self._node_workers[node]:
            buf = DeviceArray(
                w.device, payload.shape, payload.dtype, label="phi_delta"
            )
            try:
                machine.memcpy_h2d(
                    buf, payload, stream=w.upload, label="h2d:phi_delta"
                )
                launch_phi_delta(w, buf, delta, self._kcfg, w.upload)
            finally:
                buf.free()

    def check_invariants(self, state: RunState) -> list[str]:
        """Every GPU must hold the φ view the host last sent its node —
        silent corruption of any replica breaks this, on a one-GPU node
        too."""
        return [
            f"phi replica on node {n} GPU {w.device.device_id} diverges "
            f"from the view the host sent node {n}"
            for n in self._host_nodes
            for w in self._node_workers[n]
            if not np.array_equal(w.phi_full.data, self._held[n])
        ]

    def _device_key(self, node: int, device: int):
        return f"{node}.{device}"

    def _charge_recovery(self, seconds: float) -> None:
        """The cluster clock charges the stall to the next iteration."""
        self._cluster_time += seconds

    def start_event(self, state: RunState) -> dict:
        event = super().start_event(state)
        event.update(
            num_nodes=self.num_nodes,
            gpus_per_node=self.gpus_per_node,
            inter_sync=self.config.inter_sync,
            staleness=self.config.staleness,
        )
        return event

    def run_iteration(self, state: RunState) -> IterationOutcome:
        cfg = self.config
        N = self.num_nodes
        it = state.iteration
        sync_round = cfg.staleness == 0 or it % (cfg.staleness + 1) == 0
        retry = self._transfer_retry()
        hosts = list(self._host_nodes)

        # --- failure detection: the barrier stalls on silent nodes -----
        self.membership.observe(self._cluster_time)
        if self.server is not None:
            # Checksum-verify the φ shards before any backend overwrites
            # them in lockstep, so silent corruption is repaired (and
            # counted) rather than papered over.
            self.server.verify()
        for n in hosts:
            if self.network.node_up(n):
                continue
            # A hosting node is silent: the BSP barrier stalls until the
            # failure detector rules. The stall stays on the clock even
            # though the iteration is aborted and re-run after recovery.
            t0 = self._cluster_time
            verdict_at = self.membership.await_verdict(n, t0)
            if verdict_at > t0:
                emit_counter(
                    "node_recovery_stall_seconds_total", verdict_at - t0,
                    help="Simulated seconds training stalled detecting "
                         "node failures and re-partitioning after them.",
                    phase="detect",
                )
            self._cluster_time = max(self._cluster_time, verdict_at)
            if self.membership.is_dead(n):
                raise NodeLost(n)
            # The NIC came back during the stall; training proceeds.

        # --- intra-node leg: the paper's iteration, per machine, whose
        # sync sends each GPU's Δφ to its node's host ------------------
        legs = self._run_nodes(retry)
        dt_intra = {
            n: self._t_prev_node[n] - start for n, (_, start) in legs.items()
        }
        ready = {n: self._cluster_time + dt_intra[n] for n in hosts}

        # Node n's host now holds the sum of its chunk counts — the
        # node's contribution. Nodes hosting nothing (dead, their work
        # migrated) contribute zeros.
        node_counts = [
            self._contrib[n] if n in legs else np.zeros_like(self._node_base[n])
            for n in range(N)
        ]
        self._global_phi = self._sum_counts(node_counts)

        # --- inter-node leg: each hosting node's Δφ since the last
        # sync, encoded once, is the payload the planner prices and the
        # collective combines ------------------------------------------
        internode_bytes = 0.0
        if sync_round:
            wire = {
                n: WireDelta.between(node_counts[n], self._node_base[n])
                for n in hosts
            }
            with span("cluster_sync_plan"):
                plan = plan_cluster_sync(
                    self.network, wire, algorithm=cfg.inter_sync,
                    nodes=hosts, server=self.server,
                )
            nodes = plan.participants
            if len(nodes) != len(hosts):
                # The topology excluded a hosting node (declared dead
                # between the stall check and the plan): surface it as a
                # node loss so the elastic hook can migrate its work.
                missing = sorted(set(hosts) - set(nodes))
                raise NodeLost(missing[0])
            # The collective runs over the surviving hosting nodes only;
            # for eth_ring that *is* the leader re-election — the ring
            # re-forms over them. Every backend adds the Δs to the last
            # synced φ and leaves the server holding the result.
            result = plan.collective.allreduce(
                ClusterSyncContext(
                    network=self.network, nodes=nodes, base=self._phi_cache,
                    pending=[wire[n] for n in nodes],
                    ready=[ready[n] for n in nodes],
                    retry=retry, server=self.server,
                )
            )
            done = {n: result.done[i] for i, n in enumerate(nodes)}
            internode_bytes = result.bytes_on_wire
            self._phi_cache = result.phi
            # The contributions keep accumulating; the bases are copies.
            self._node_base = [c.copy() for c in node_counts]
            views = {n: self._phi_cache for n in hosts}
            self._park_plan()
        else:
            done = dict(ready)
            views = {
                n: self._phi_cache + node_counts[n] - self._node_base[n]
                for n in hosts
            }

        # --- redistribution: each GPU receives only what changed since
        # the view the host last sent its node. Nodes holding the same
        # pair of views (all of them at s = 0) share one encoding. -----
        held = dict(self._held)  # alive for the loop, so ids stay unique
        deltas: dict[tuple[int, int], tuple[WireDelta, np.ndarray]] = {}
        finish = {}
        for n in hosts:
            machine, start = self.machines[n], legs[n][1]
            # The node's host sends once the leg has delivered to it:
            # done[n] on the cluster clock, mapped onto the node's.
            machine.advance_host(start + done[n] - self._cluster_time)
            key = (id(views[n]), id(held[n]))
            if key not in deltas:
                delta = WireDelta.between(views[n], held[n])
                deltas[key] = (delta, delta.pack())
            self._send_delta(n, *deltas[key])
            self._held[n] = views[n]
            self._t_prev_node[n] = machine.synchronize()
            finish[n] = self._cluster_time + self._t_prev_node[n] - start
        t_next = max(finish.values())
        for n in hosts:
            emit_counter(
                "internode_stall_seconds_total", t_next - finish[n],
                help="time nodes wait at the inter-node sync barrier",
                node=str(n),
            )
        # Charge from the last *completed* iteration's finish, so any
        # recovery stall (detection, re-partition, re-shard) between the
        # two lands on this iteration's simulated duration.
        dt_iter = t_next - self._charged
        self._cluster_time = t_next
        self._charged = t_next
        net_seconds = (
            max(done.values()) - max(ready.values()) if sync_round else 0.0
        )

        return self._outcome(
            legs, dt_iter, network_seconds=net_seconds,
            stats={
                "network_seconds": net_seconds,
                "compute_seconds": max(dt_intra.values()),
            },
            event={
                "sync_round": sync_round,
                "internode_bytes": internode_bytes,
            },
        )

    def log_likelihood(self, state: RunState) -> float:
        # Defined here, not only inherited: bench/layertrace.py patches
        # each trainer class's own attribute.
        return super().log_likelihood(state)

    def capture_state(self, state: RunState) -> None:
        super().capture_state(state)
        state.extras["dist_net_base"] = np.array(
            [self._net_base + self.network.total_bytes()]
        )
        G = self.gpus_per_node
        if self._dead_nodes or any(
            self._worker_node[w] != w // G for w in range(self.num_workers)
        ):
            # Only a run that has actually lost a node carries hosting
            # extras — fault-free checkpoints keep the PR 9 layout (and
            # sync-mode ones stay interchangeable across layouts).
            state.extras["dist_worker_node"] = np.array(
                self._worker_node, dtype=np.int64
            )
            state.extras["dist_dead_nodes"] = np.array(
                sorted(self._dead_nodes), dtype=np.int64
            )
            state.extras["dist_num_nodes"] = np.array(
                [self.num_nodes], dtype=np.int64
            )
        if self.config.staleness > 0:
            # Mid-window resume needs the stale global φ and each node's
            # contribution at the last sync; for synchronous runs both
            # are recomputable from z, so they are omitted (keeping the
            # checkpoint layout closer to the single-machine one).
            state.extras["dist_phi_cache"] = self._phi_cache.copy()
            for n in range(self.num_nodes):
                state.extras[f"dist_node_base_{n}"] = self._node_base[n].copy()

    def finalize(self, state: RunState, wall_seconds: float) -> TrainResult:
        # The cluster clock runs through the slowest node's final
        # collection.
        total_sim = self._sim_base + self._cluster_time + self._collect()
        N = self.num_nodes
        return self._result(
            state, wall_seconds, total_sim,
            machine_name=f"{N}x {self.machine.name}",
            num_gpus=N * self.gpus_per_node,
            num_workers=N,
            network_bytes=self._net_base + self.network.total_bytes(),
        )

    # ------------------------------------------------------------------
    # Recovery surface
    # ------------------------------------------------------------------
    def rollback(self, state: RunState) -> None:
        super().rollback(state)
        if self.server is not None:
            self.server.phi = self._phi_cache.copy()

    def handle_device_loss(self, state: RunState) -> None:
        """Elastic recovery for the hierarchical trainer.

        Handles both fault units with one deterministic re-partition:

        - a **dead node** (heartbeat lease expired): its logical
          workers migrate intact — chunk, topic assignments, θ, RNG
          stream — to the token-lightest surviving nodes. Migrating
          whole workers instead of re-chunking keeps every token's RNG
          stream identical to the fault-free run, so the recovered
          synchronous model is bit-identical; only the wire placement
          changes.
        - a **dead GPU** inside a surviving node: the single-machine
          path (:meth:`CuLDA.handle_device_loss`) — the node's chunks
          move round-robin over its remaining GPUs and the node's
          reduce tree is re-planned at the new fan-in.

        Afterwards the parameter server re-shards φ over the surviving
        placement from an exact recount, any open staleness window is
        drained at a fresh sync point (the dead node's pending Δφ is
        folded in exactly once, deterministically, because z comes from
        the snapshot), and the refreshed hosting plan is parked back in
        the replicated server. All recovery traffic stays on the
        simulated clock.
        """
        N, W = self.num_nodes, self.num_workers
        M = self._plan.chunks_per_gpu
        t_start = self._cluster_time
        self._restore_hosting(state)

        dead = set(self._dead_nodes) | set(self.membership.dead_nodes)
        survivors = [
            n for n in range(N)
            if n not in dead and self.machines[n].alive_gpus
        ]
        if not survivors:
            raise NodeLost(
                min(dead) if dead else 0,
                "no surviving nodes to migrate work to",
            )

        # The hosting plan parked in the replicated server survives the
        # node that owned any given assignment; the snapshot extras are
        # the fallback when no server is wired yet.
        hosting = self._worker_node
        parked = (
            self.server.parked("chunk_hosting")
            if self.server is not None else None
        )
        if parked is not None and parked.size == W:
            parked_map = [int(x) for x in parked]
            if all(0 <= n < N for n in parked_map):
                hosting = parked_map

        wtok = [
            sum(self._runtimes[m * W + w].chunk.num_tokens for m in range(M))
            for w in range(W)
        ]
        placed = place_token_lightest(hosting, wtok, survivors)
        for w, (old, new) in enumerate(zip(hosting, placed)):
            if new != old:
                emit_counter(
                    "workers_migrated_total", 1,
                    help="Logical CuLDA workers migrated off dead cluster "
                         "nodes onto token-lightest survivors.",
                    worker=str(w), to_node=str(new),
                )
        self._worker_node = placed
        self._dead_nodes = dead

        # Rebuild every node under the new hosting map on the alive GPUs
        # only. The recount is a fresh sync point: it covers every
        # token's current assignment, so any open staleness window —
        # including the dead node's — is drained exactly once.
        super().handle_device_loss(state)

        if self.server is not None:
            _, done = self.server.reshard(self._phi_cache, self._cluster_time)
            self._cluster_time = max(self._cluster_time, done)
            self._park_plan()

        stall = self._cluster_time - t_start
        if stall > 0:
            emit_counter(
                "node_recovery_stall_seconds_total", stall,
                help="Simulated seconds training stalled detecting "
                     "node failures and re-partitioning after them.",
                phase="repartition",
            )
        emit_gauge(
            "cluster_nodes_hosting", float(len(self._host_nodes)),
            help="cluster nodes currently hosting CuLDA workers",
        )
        # Refresh the state the engine will snapshot: φ reflects the
        # recount and extras carry the new hosting map / dead set.
        self.capture_state(state)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _park_plan(self) -> None:
        """Park the chunk-hosting map in the replicated parameter server,
        so the plan survives the node that owned any given assignment
        (docs/ROBUSTNESS.md §8)."""
        if self.server is None:
            return
        self.server.park(
            "chunk_hosting", np.array(self._worker_node, dtype=np.int64)
        )
