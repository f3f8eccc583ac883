"""Cluster collectives: the inter-node φ-sync leg of multi-node CuLDA.

Multi-node training runs the paper's intra-node reduce tree (§5.2) on
each machine, then combines the per-node partial counts across the
Ethernet fabric. This module provides the two interchangeable backends
for that inter-node leg, behind the same registry/planner pattern as
the GPU collectives in :mod:`repro.comm.collectives`:

- ``eth_ring`` — a leader ring over :class:`ClusterNetwork`: each
  node's leader GPU contributes its node-summed φ, and the leaders run
  a segmented ring all-reduce (2(N−1) lock-stepped steps over row
  segments) directly over the node NICs.
- ``param_server`` — push/pull through the replicated
  :class:`~repro.cluster.paramserver.ShardedParameterServer` (the LDA*
  substrate): every node pushes its Δφ since the last global sync, a
  barrier waits for all pushes, and every node pulls the assembled φ —
  paying for chained replication but inheriting the server's CRC
  checksums, failover, and single-copy repair.

Both backends are **exact**: φ is combined in integer arithmetic, so
the result is bit-identical whichever backend (or GPU layout) produced
it. Their ``estimate`` methods *replay* the exact message schedule
against the :class:`~repro.comm.topology.Topology` snapshot — the same
per-link, per-direction frontier arithmetic
:meth:`~repro.gpusim.interconnect.Link.reserve` uses — so the planner's
predicted seconds equal the simulator's measured seconds for the same
ready times. ``Topology.from_cluster`` excludes detector-dead nodes, so
a plan can never route through one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.comm.collectives import CostEstimate
from repro.comm.topology import LinkInfo, Topology
from repro.comm.transfer import TransferRetry
from repro.telemetry.context import emit_counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.network import ClusterNetwork
    from repro.cluster.paramserver import ShardedParameterServer

__all__ = [
    "ClusterSyncContext",
    "ClusterSyncResult",
    "ClusterCollective",
    "EthRingCollective",
    "ParamServerCollective",
    "register_cluster_collective",
    "get_cluster_collective",
    "cluster_collective_names",
    "cluster_collectives",
    "ring_segment_bytes",
]


# ----------------------------------------------------------------------
# Context / result
# ----------------------------------------------------------------------

@dataclass
class ClusterSyncContext:
    """Everything one inter-node φ combine needs.

    ``node_counts[i]`` is node ``nodes[i]``'s absolute φ counts (the
    node-local intra-reduce result, int64 ``K×V``); ``pending[i]`` is
    its delta since the last global sync (what a parameter-server push
    carries). ``ready[i]`` is the earliest global-clock time node ``i``
    can start communicating (its intra-node work is done then).
    """

    network: "ClusterNetwork"
    nodes: tuple[int, ...]
    node_counts: list[np.ndarray]
    pending: list[np.ndarray]
    ready: list[float]
    entry_bytes: int = 4
    retry: TransferRetry | None = None
    server: "ShardedParameterServer | None" = None


@dataclass(frozen=True)
class ClusterSyncResult:
    """Outcome of one inter-node combine: the new global φ (int64),
    each participating node's completion time on the global clock, and
    the payload bytes put on the wire."""

    phi: np.ndarray
    done: tuple[float, ...]
    bytes_on_wire: float


class ClusterCollective:
    """Interface every inter-node sync backend implements."""

    name: str = "?"

    def allreduce(self, ctx: ClusterSyncContext) -> ClusterSyncResult:
        raise NotImplementedError

    def estimate(
        self,
        topo: Topology,
        nodes: tuple[int, ...],
        shape: tuple[int, int],
        entry_bytes: int = 4,
        retry: TransferRetry | None = None,
        server: "ShardedParameterServer | None" = None,
    ) -> CostEstimate:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Shared replay machinery
# ----------------------------------------------------------------------

_NO_PATH = CostEstimate(float("inf"))


@dataclass
class _LinkFrontiers:
    """Mirror of the cluster links' per-direction busy frontiers, used
    to replay a message schedule analytically. Direction 0 is egress,
    1 is ingress — exactly :meth:`ClusterNetwork._send_once`."""

    host: dict[int, LinkInfo]
    frontier: dict[tuple[int, int], float] = field(default_factory=dict)

    def send(self, src: int, dst: int, nbytes: float, earliest: float) -> float:
        """Replay one ``src → dst`` message; returns its end time, or
        ``inf`` when either endpoint link is down or absent."""
        if src == dst:
            return earliest
        a, b = self.host.get(src), self.host.get(dst)
        if a is None or b is None or not a.up or not b.up:
            return float("inf")
        s1 = max(earliest, self.frontier.get((src, 0), 0.0))
        e1 = s1 + a.transfer_seconds(nbytes)
        self.frontier[(src, 0)] = e1
        s2 = max(s1, self.frontier.get((dst, 1), 0.0))
        e2 = s2 + b.transfer_seconds(nbytes)
        self.frontier[(dst, 1)] = e2
        return max(e1, e2)


def ring_segment_bytes(
    shape: tuple[int, int], num_nodes: int, entry_bytes: int
) -> list[float]:
    """Per-step payload of the segmented ring: φ's K rows split into
    ``num_nodes`` near-equal contiguous row blocks."""
    K, V = shape
    rows = [len(block) for block in np.array_split(np.arange(K), num_nodes)]
    return [float(r) * V * entry_bytes for r in rows]


def _ring_schedule(num_nodes: int) -> list[list[int]]:
    """Segment index sent by each node position at each of the
    2(N−1) ring steps (reduce-scatter then all-gather)."""
    steps = []
    for t in range(num_nodes - 1):           # reduce-scatter
        steps.append([(i - t) % num_nodes for i in range(num_nodes)])
    for t in range(num_nodes - 1):           # all-gather
        steps.append([(i + 1 - t) % num_nodes for i in range(num_nodes)])
    return steps


# ----------------------------------------------------------------------
# eth_ring: leader ring over the node NICs
# ----------------------------------------------------------------------

class EthRingCollective(ClusterCollective):
    """Segmented ring all-reduce between node leaders.

    Steps are lock-stepped: every step starts once all leaders have
    finished the previous one (the barrier is what makes the schedule
    replayable analytically), and in each step leader *i* sends one row
    segment to leader *i+1 mod N*. 2(N−1) steps move ≈ 2(N−1)/N · |φ|
    bytes through each NIC — the bandwidth-optimal exchange.
    """

    name = "eth_ring"

    def allreduce(self, ctx: ClusterSyncContext) -> ClusterSyncResult:
        nodes = ctx.nodes
        N = len(nodes)
        phi = np.zeros_like(ctx.node_counts[0], dtype=np.int64)
        for counts in ctx.node_counts:
            phi += counts
        if N == 1:
            return ClusterSyncResult(phi, (ctx.ready[0],), 0.0)
        seg_bytes = ring_segment_bytes(phi.shape, N, ctx.entry_bytes)
        times = list(ctx.ready)
        total = 0.0
        for segs in _ring_schedule(N):
            t0 = max(times)
            ends = [t0] * N
            for i in range(N):
                j = (i + 1) % N
                nbytes = seg_bytes[segs[i]]
                _, end = ctx.network.send(
                    nodes[i], nodes[j], nbytes, t0,
                    op="internode_ring", retry=ctx.retry,
                )
                total += nbytes
                ends[i] = max(ends[i], end)   # i's egress finishes
                ends[j] = max(ends[j], end)   # j's ingress finishes
            times = ends
        emit_counter(
            "internode_sync_bytes_total", total,
            help="inter-node φ-sync payload bytes, per backend",
            backend=self.name,
        )
        return ClusterSyncResult(phi, tuple(times), total)

    def estimate(
        self, topo, nodes, shape, entry_bytes=4, retry=None, server=None
    ) -> CostEstimate:
        N = len(nodes)
        if N == 0:
            return _NO_PATH
        if N == 1:
            return CostEstimate(0.0)
        links = _LinkFrontiers(topo.host)
        seg_bytes = ring_segment_bytes(shape, N, entry_bytes)
        times = [0.0] * N
        for segs in _ring_schedule(N):
            t0 = max(times)
            ends = [t0] * N
            for i in range(N):
                j = (i + 1) % N
                nbytes = seg_bytes[segs[i]]
                end = links.send(nodes[i], nodes[j], nbytes, t0)
                if not np.isfinite(end):
                    return _NO_PATH
                ends[i] = max(ends[i], end)
                ends[j] = max(ends[j], end)
            times = ends
        return CostEstimate(max(times))


# ----------------------------------------------------------------------
# param_server: push/pull through the replicated sharded server
# ----------------------------------------------------------------------

class ParamServerCollective(ClusterCollective):
    """Synchronous push/pull through the sharded parameter server.

    Every node pushes its Δφ since the last global sync (one message
    per shard to the shard's primary, chained to its replica), a
    barrier waits for the last push, then every node pulls the
    assembled φ. More wire traffic than the ring (replication and the
    pull fan-out), but the counts land in the PR 8 substrate: CRC
    checksums, failover reads, single-copy repair.
    """

    name = "param_server"

    def allreduce(self, ctx: ClusterSyncContext) -> ClusterSyncResult:
        server = ctx.server
        if server is None:
            raise ValueError(
                "param_server inter-node sync requires a ShardedParameterServer"
            )
        nodes = ctx.nodes
        if len(nodes) == 1:
            phi = ctx.node_counts[0].astype(np.int64, copy=True)
            server.phi = phi
            return ClusterSyncResult(phi, (ctx.ready[0],), 0.0)
        words = np.arange(server.num_words)
        wire0 = server.bytes_pushed + server.bytes_pulled
        push_done = [
            server.push(
                node, words, ctx.pending[i], ctx.ready[i],
                entry_bytes=ctx.entry_bytes, retry=ctx.retry,
            )
            for i, node in enumerate(nodes)
        ]
        barrier = max(push_done)  # pulls must observe every push
        done = []
        for node in nodes:
            _, end = server.pull(
                node, words, barrier,
                entry_bytes=ctx.entry_bytes, retry=ctx.retry,
            )
            done.append(end)
        total = server.bytes_pushed + server.bytes_pulled - wire0
        emit_counter(
            "internode_sync_bytes_total", total,
            help="inter-node φ-sync payload bytes, per backend",
            backend=self.name,
        )
        return ClusterSyncResult(server.phi.copy(), tuple(done), total)

    # -- estimate: replay the push/pull schedule exactly ----------------
    def _placement(self, nodes, num_words, server):
        """(num_shards, per-shard word count, primary, replica): the live
        server's placement when given, else the canonical placement a
        fresh server over *nodes* would choose."""
        if server is not None:
            S = server.num_shards
            counts = [len(cols) for cols in server._cols]
            primary = [server.primary_node_of(s) for s in range(S)]
            replica = [server.replica_node_of(s) for s in range(S)]
            return S, counts, primary, replica
        ordered = sorted(nodes)
        S = len(ordered)
        counts = [len(range(s, num_words, S)) for s in range(S)]
        primary = [ordered[s % S] for s in range(S)]
        replica = (
            [ordered[(s + 1) % S] for s in range(S)] if S > 1 else list(primary)
        )
        return S, counts, primary, replica

    def estimate(
        self, topo, nodes, shape, entry_bytes=4, retry=None, server=None
    ) -> CostEstimate:
        N = len(nodes)
        if N == 0:
            return _NO_PATH
        if N == 1:
            return CostEstimate(0.0)
        K, V = shape
        S, counts, primary, replica = self._placement(nodes, V, server)

        def reachable(node: int) -> bool:
            info = topo.host.get(node)
            return info is not None and info.up

        links = _LinkFrontiers(topo.host)
        # Push phase (same issue order as allreduce: node-ascending, then
        # shard-ascending within each node).
        push_done = []
        for node in nodes:
            end_n = 0.0
            for s in range(S):
                if not counts[s]:
                    continue
                nbytes = float(K) * counts[s] * entry_bytes
                dst, rep = primary[s], replica[s]
                if not reachable(dst):
                    # Failover push to the replica as acting primary.
                    if rep == dst or not reachable(rep):
                        return _NO_PATH
                    end = links.send(node, rep, nbytes, 0.0)
                else:
                    end = links.send(node, dst, nbytes, 0.0)
                    if rep != dst and reachable(rep):
                        end = max(end, links.send(dst, rep, nbytes, end))
                if not np.isfinite(end):
                    return _NO_PATH
                end_n = max(end_n, end)
            push_done.append(end_n)
        barrier = max(push_done)
        # Pull phase.
        done = []
        for node in nodes:
            end_n = barrier
            for s in range(S):
                if not counts[s]:
                    continue
                nbytes = float(K) * counts[s] * entry_bytes + K * 8
                src = primary[s]
                if not reachable(src):
                    src = replica[s]
                    if src == primary[s] or not reachable(src):
                        return _NO_PATH
                end = links.send(src, node, nbytes, barrier)
                if not np.isfinite(end):
                    return _NO_PATH
                end_n = max(end_n, end)
            done.append(end_n)
        return CostEstimate(max(done))


# ----------------------------------------------------------------------
# Registry (mirrors repro.comm.collectives; separate namespace so the
# GPU --sync choices are untouched)
# ----------------------------------------------------------------------

_REGISTRY: dict[str, ClusterCollective] = {}


def register_cluster_collective(collective: ClusterCollective) -> ClusterCollective:
    """Add an inter-node backend to the registry. Registration order is
    the ``auto`` tie-break, exactly as for the GPU collectives."""
    if collective.name in _REGISTRY:
        raise ValueError(
            f"cluster collective {collective.name!r} is already registered"
        )
    _REGISTRY[collective.name] = collective
    return collective


def get_cluster_collective(name: str) -> ClusterCollective:
    try:
        return _REGISTRY[name]
    except KeyError:
        choices = ", ".join(["auto", *_REGISTRY])
        raise ValueError(
            f"unknown inter-node sync algorithm {name!r}; choices: {choices}"
        ) from None


def cluster_collective_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def cluster_collectives() -> tuple[ClusterCollective, ...]:
    return tuple(_REGISTRY.values())


register_cluster_collective(EthRingCollective())
register_cluster_collective(ParamServerCollective())
