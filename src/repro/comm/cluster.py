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
it, and both leave the server (when there is one) holding it. Their
shared ``estimate`` prices a backend by running its own ``allreduce``
on an idle shadow cluster built from the
:class:`~repro.comm.topology.Topology` snapshot, so the planner's
predicted seconds are the simulator's measured seconds for the same
ready times. ``Topology.from_cluster`` excludes detector-dead nodes, so
a plan can never route through one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.network import ClusterNetwork
from repro.cluster.paramserver import ShardedParameterServer
from repro.comm.collectives import CostEstimate, _copy_state
from repro.comm.topology import LinkInfo, Topology
from repro.comm.transfer import TransferRetry
from repro.gpusim.errors import SyncPathError
from repro.telemetry.context import emit_counter, telemetry_session

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

#: φ crosses the inter-node wire as dense int32 entries.
ENTRY_BYTES = 4


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

    network: ClusterNetwork
    nodes: tuple[int, ...]
    node_counts: list[np.ndarray]
    pending: list[np.ndarray]
    ready: list[float]
    retry: TransferRetry | None = None
    server: ShardedParameterServer | None = None


@dataclass(frozen=True)
class ClusterSyncResult:
    """Outcome of one inter-node combine: the new global φ (int64),
    each participating node's completion time on the global clock, and
    the payload bytes put on the wire."""

    phi: np.ndarray
    done: tuple[float, ...]
    bytes_on_wire: float


class ClusterCollective:
    """One inter-node sync backend: an executable :meth:`allreduce`,
    priced by replaying it (:meth:`estimate`)."""

    name: str = "?"

    def allreduce(self, ctx: ClusterSyncContext) -> ClusterSyncResult:
        """Combine ``ctx.node_counts`` into the global φ; leave
        ``ctx.server`` (when given) holding it."""
        raise NotImplementedError

    def estimate(
        self,
        network: ClusterNetwork,
        topo: Topology,
        nodes: tuple[int, ...],
        shape: tuple[int, int],
        server: ShardedParameterServer | None = None,
    ) -> CostEstimate:
        """Predicted cost of :meth:`allreduce` over *nodes* on *topo*
        for a (K, V) payload — the planner's ranking input.

        Runs :meth:`allreduce` itself on an idle shadow network with
        *network*'s node count and *topo*'s link states, through a
        zero-φ server placed like *server* (canonically over *nodes*
        when there is none), so the prediction is the simulated time
        the same run takes from idle.
        """
        if not nodes:
            return CostEstimate(math.inf)
        if server is None:
            shards, placed_over = len(nodes), tuple(sorted(nodes))
        else:
            shards, placed_over = server.num_shards, server.placed_over
        return _replay(
            self,
            network.num_nodes,
            tuple(topo.host.items()),
            tuple(nodes),
            tuple(shape),
            shards,
            placed_over,
        )


@functools.lru_cache(maxsize=256)
def _replay(
    collective: ClusterCollective,
    num_nodes: int,
    host: tuple[tuple[int, LinkInfo], ...],
    nodes: tuple[int, ...],
    shape: tuple[int, int],
    num_shards: int,
    placed_over: tuple[int, ...],
) -> CostEstimate:
    """Run *collective* on a fresh idle cluster built from the
    arguments alone — they are the memo key, so a cached estimate can
    only be reused for an identical replay."""
    shadow = ClusterNetwork(num_nodes)
    links = dict(host)
    for n in range(num_nodes):
        if n in links:
            _copy_state(shadow.links[n], links[n])
        else:
            shadow.fail_node(n)  # the snapshot leaves dead nodes out
    zero = np.zeros(shape, dtype=np.int64)
    server = ShardedParameterServer(zero, num_shards, shadow)
    server.rehome(list(placed_over))
    ctx = ClusterSyncContext(
        network=shadow,
        nodes=nodes,
        node_counts=[zero] * len(nodes),
        pending=[zero] * len(nodes),
        ready=[0.0] * len(nodes),
        server=server,
    )
    # A throwaway session keeps the replay's byte, failover and repair
    # counters out of the caller's registry.
    with telemetry_session():
        try:
            result = collective.allreduce(ctx)
        except SyncPathError:
            return CostEstimate(math.inf)
    return CostEstimate(max(result.done))


def ring_segment_bytes(shape: tuple[int, int], num_nodes: int) -> list[float]:
    """Per-step payload of the segmented ring: φ's K rows split into
    ``num_nodes`` near-equal contiguous row blocks."""
    K, V = shape
    rows = [len(block) for block in np.array_split(np.arange(K), num_nodes)]
    return [float(r) * V * ENTRY_BYTES for r in rows]


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
    finished the previous one, and in each step leader *i* sends one
    row segment to leader *i+1 mod N*. 2(N−1) steps move ≈ 2(N−1)/N ·
    |φ| bytes through each NIC — the bandwidth-optimal exchange.
    """

    name = "eth_ring"

    def allreduce(self, ctx: ClusterSyncContext) -> ClusterSyncResult:
        nodes = ctx.nodes
        N = len(nodes)
        phi = np.zeros_like(ctx.node_counts[0], dtype=np.int64)
        for counts in ctx.node_counts:
            phi += counts
        times = list(ctx.ready)
        total = 0.0
        if N > 1:
            seg_bytes = ring_segment_bytes(phi.shape, N)
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
        if ctx.server is not None:
            # Keep the server in lockstep, so backends can alternate
            # mid-run without drift.
            ctx.server.phi = phi
        return ClusterSyncResult(phi, tuple(times), total)


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
                entry_bytes=ENTRY_BYTES, retry=ctx.retry,
            )
            for i, node in enumerate(nodes)
        ]
        barrier = max(push_done)  # pulls must observe every push
        done = []
        for node in nodes:
            _, end = server.pull(
                node, words, barrier,
                entry_bytes=ENTRY_BYTES, retry=ctx.retry,
            )
            done.append(end)
        total = server.bytes_pushed + server.bytes_pulled - wire0
        emit_counter(
            "internode_sync_bytes_total", total,
            help="inter-node φ-sync payload bytes, per backend",
            backend=self.name,
        )
        return ClusterSyncResult(server.phi.copy(), tuple(done), total)


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
