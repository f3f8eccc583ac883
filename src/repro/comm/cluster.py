"""Cluster collectives: the inter-node φ-sync leg of multi-node CuLDA.

Multi-node training runs the paper's intra-node reduce tree (§5.2) on
each machine, then combines what each node changed since the last
global sync (its Δφ) across the Ethernet fabric. This module provides
the two interchangeable backends for that inter-node leg, behind the
same registry/planner pattern as the GPU collectives in
:mod:`repro.comm.collectives`:

- ``eth_ring`` — a leader ring over :class:`ClusterNetwork` that
  allgathers every node's Δφ in N−1 lock-stepped steps, each message
  one node's Δ as a :class:`WireDelta` (the paper's §6.1 16-bit φ,
  carried onto the fabric: sparse index/value pairs or dense 16-bit,
  whichever is smaller); every node then adds the N deltas to the last
  synced φ.
- ``param_server`` — push/pull through the replicated
  :class:`~repro.cluster.paramserver.ShardedParameterServer` (the LDA*
  substrate): every node pushes its Δφ since the last global sync, a
  barrier waits for all pushes, and every node pulls the assembled φ —
  paying for chained replication but inheriting the server's CRC
  checksums, failover, and single-copy repair.

Both backends are **exact**: φ is combined in integer arithmetic, so
the result is bit-identical whichever backend (or GPU layout) produced
it, and both leave the server (when there is one) holding it. Their
shared ``estimate`` prices a backend by rehearsing its traffic on an
idle shadow cluster built from the
:class:`~repro.comm.topology.Topology` snapshot — ``eth_ring`` from
the per-node wire sizes alone, ``param_server`` by running its
``allreduce`` through a zero-φ server — so the planner's predicted
seconds are the simulator's measured seconds for the same ready times.
``Topology.from_cluster`` excludes detector-dead nodes, so a plan can
never route through one.
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
    "WireDelta",
]

#: ``param_server`` moves φ columns as dense int32 entries.
ENTRY_BYTES = 4

#: ``eth_ring``'s sparse form addresses an entry by its int32 flat
#: index into K×V; an index at or past this limit cannot be sent.
_INDEX_LIMIT = 2**31


@dataclass(frozen=True, eq=False)
class WireDelta:
    """One node's Δφ as it crosses the inter-node wire.

    Values are int16, or int32 when some |Δ| ≥ 2¹⁵. The sparse form
    sends (int32 flat index, value) pairs for the non-zero entries; the
    dense form (``index`` is None) sends all K×V values. :meth:`encode`
    picks whichever is smaller, so below 1/3 density the pairs win at
    16 bits (1/2 at 32), and an empty Δ takes 0 bytes.
    """

    shape: tuple[int, int]
    values: np.ndarray
    index: np.ndarray | None = None

    @classmethod
    def encode(cls, delta: np.ndarray) -> WireDelta:
        """Encode an integer Δφ. Raises ``OverflowError`` when a value
        or a sparse flat index does not fit in 32 bits, instead of
        wrapping it."""
        flat = delta.ravel()
        index = np.flatnonzero(flat != 0)
        values = flat[index]
        peak = max(int(values.max()), -int(values.min())) if index.size else 0
        if peak >= 2**31:
            raise OverflowError(
                f"a Δφ entry of ±{peak} does not fit in 32 bits"
            )
        width = 2 if peak < 2**15 else 4
        dtype = np.int16 if width == 2 else np.int32
        if flat.size * width < index.size * (4 + width):
            return cls(delta.shape, flat.astype(dtype))
        if index.size and index[-1] >= _INDEX_LIMIT:
            raise OverflowError(
                f"flat index {index[-1]} of a {delta.shape} Δφ does not "
                f"fit in int32"
            )
        return cls(delta.shape, values.astype(dtype), index.astype(np.int32))

    @property
    def nbytes(self) -> int:
        """Bytes on the wire."""
        extra = 0 if self.index is None else self.index.nbytes
        return self.values.nbytes + extra

    def pack(self) -> np.ndarray:
        """The delta as one ``uint8`` buffer of :attr:`nbytes` bytes, so
        a single copy carries it: the int32 indices (sparse form), then
        the values."""
        parts = [self.values] if self.index is None else [self.index, self.values]
        return np.concatenate([part.view(np.uint8) for part in parts])

    def unpack(self, payload: np.ndarray) -> WireDelta:
        """The delta a :meth:`pack` layout *payload* carries, read with
        this delta's shape, form and value width: what a kernel given
        those as launch arguments decodes from the bytes delivered."""
        if self.index is None:
            return WireDelta(self.shape, payload.view(self.values.dtype))
        cut = self.index.nbytes
        return WireDelta(
            self.shape,
            payload[cut:].view(self.values.dtype),
            payload[:cut].view(np.int32),
        )


def _add_deltas(base: np.ndarray, deltas: list[WireDelta]) -> np.ndarray:
    """``base + Σ deltas`` as a fresh int64 array, in exact integer
    arithmetic: what every node computes once it holds all deltas."""
    phi = base.astype(np.int64, order="C")
    flat = phi.reshape(-1)  # a view: phi is a fresh C-order array
    for delta in deltas:
        if delta.index is None:
            flat += delta.values
        else:
            flat[delta.index] += delta.values  # indices are distinct
    return phi


# ----------------------------------------------------------------------
# Context / result
# ----------------------------------------------------------------------

@dataclass
class ClusterSyncContext:
    """Everything one inter-node φ combine needs.

    ``base`` is the last globally synced φ (int64 ``K×V``), which every
    node holds; ``pending[i]`` is node ``nodes[i]``'s Δφ since then
    (its node-local intra-reduce result minus its contribution at that
    sync), encoded for the wire. ``ready[i]`` is the earliest
    global-clock time node ``i`` can start communicating (its
    intra-node work is done then).
    """

    network: ClusterNetwork
    nodes: tuple[int, ...]
    base: np.ndarray
    pending: list[WireDelta]
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
    priced by rehearsing its traffic (:meth:`estimate`)."""

    name: str = "?"

    def allreduce(self, ctx: ClusterSyncContext) -> ClusterSyncResult:
        """Add ``ctx.pending`` to ``ctx.base`` into the new global φ;
        leave ``ctx.server`` (when given) holding it."""
        raise NotImplementedError

    def replay_key(
        self,
        nodes: tuple[int, ...],
        pending: list[WireDelta],
        server: ShardedParameterServer | None,
    ) -> tuple:
        """Everything :meth:`allreduce`'s traffic over *nodes* depends
        on besides the fabric: the payload part of the memo key, and
        all :meth:`rehearse` is given."""
        raise NotImplementedError

    def rehearse(
        self, network: ClusterNetwork, nodes: tuple[int, ...], key: tuple
    ) -> tuple[float, ...]:
        """Put :meth:`allreduce`'s traffic for *key* on the idle
        *network*, every node ready at t = 0; return each node's
        completion time."""
        raise NotImplementedError

    def estimate(
        self,
        network: ClusterNetwork,
        topo: Topology,
        nodes: tuple[int, ...],
        pending: list[WireDelta],
        server: ShardedParameterServer | None = None,
    ) -> CostEstimate:
        """Predicted cost of :meth:`allreduce` over *nodes* on *topo*
        for the payload *pending* (``pending[i]`` is ``nodes[i]``'s Δφ)
        — the planner's ranking input.

        Rehearses the backend on an idle shadow network with
        *network*'s node count and *topo*'s link states, from what its
        :meth:`replay_key` keeps of *pending* and *server*, so the
        prediction is the simulated time the same run takes from idle.
        """
        if not nodes:
            return CostEstimate(math.inf)
        return _replay(
            self,
            network.num_nodes,
            tuple(topo.host.items()),
            tuple(nodes),
            self.replay_key(tuple(nodes), pending, server),
        )


@functools.lru_cache(maxsize=256)
def _replay(
    collective: ClusterCollective,
    num_nodes: int,
    host: tuple[tuple[int, LinkInfo], ...],
    nodes: tuple[int, ...],
    key: tuple,
) -> CostEstimate:
    """Rehearse *collective* on a fresh idle cluster built from the
    arguments alone — they are the memo key, so a cached estimate can
    only be reused for an identical replay."""
    shadow = ClusterNetwork(num_nodes)
    links = dict(host)
    for n in range(num_nodes):
        if n in links:
            _copy_state(shadow.links[n], links[n])
        else:
            shadow.fail_node(n)  # the snapshot leaves dead nodes out
    # A throwaway session keeps the replay's byte, failover and repair
    # counters out of the caller's registry.
    with telemetry_session():
        try:
            done = collective.rehearse(shadow, nodes, key)
        except SyncPathError:
            return CostEstimate(math.inf)
    return CostEstimate(max(done))


# ----------------------------------------------------------------------
# eth_ring: leader ring over the node NICs
# ----------------------------------------------------------------------

class EthRingCollective(ClusterCollective):
    """Ring allgather of every node's Δφ between node leaders.

    Steps are lock-stepped: every step starts once all leaders have
    finished the previous one, and in step *t* leader *i* forwards the
    Δ that originated at leader *i − t* to leader *i + 1 mod N*. After
    N − 1 steps every leader holds all N deltas and adds them to the
    last synced φ. A message is one :class:`WireDelta`, so the replay
    needs only their sizes.
    """

    name = "eth_ring"

    def allreduce(self, ctx: ClusterSyncContext) -> ClusterSyncResult:
        done, total = self._allgather(
            ctx.network, ctx.nodes, [d.nbytes for d in ctx.pending],
            ctx.ready, ctx.retry,
        )
        phi = _add_deltas(ctx.base, ctx.pending)
        if ctx.server is not None:
            # Keep the server in lockstep, so backends can alternate
            # mid-run without drift.
            ctx.server.phi = phi
        return ClusterSyncResult(phi, done, total)

    def replay_key(self, nodes, pending, server) -> tuple:
        return tuple(d.nbytes for d in pending)

    def rehearse(self, network, nodes, key) -> tuple[float, ...]:
        ready = [0.0] * len(nodes)
        return self._allgather(network, nodes, key, ready, None)[0]

    def _allgather(
        self,
        network: ClusterNetwork,
        nodes: tuple[int, ...],
        sizes: list[int],
        ready: list[float],
        retry: TransferRetry | None,
    ) -> tuple[tuple[float, ...], float]:
        """Time the N − 1 steps; return each node's completion time and
        the bytes put on the wire."""
        N = len(nodes)
        times = list(ready)
        total = 0.0
        for t in range(N - 1):
            t0 = max(times)
            ends = [t0] * N
            for i in range(N):
                j = (i + 1) % N
                nbytes = sizes[(i - t) % N]
                _, end = network.send(
                    nodes[i], nodes[j], nbytes, t0,
                    op="internode_ring", retry=retry,
                )
                total += nbytes
                ends[i] = max(ends[i], end)   # i's egress finishes
                ends[j] = max(ends[j], end)   # j's ingress finishes
            times = ends
        if N > 1:
            emit_counter(
                "internode_sync_bytes_total", total,
                help="inter-node φ-sync payload bytes, per backend",
                backend=self.name,
            )
        return tuple(times), total


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
            phi = _add_deltas(ctx.base, ctx.pending)
            server.phi = phi
            return ClusterSyncResult(phi, (ctx.ready[0],), 0.0)
        words = np.arange(server.num_words)
        wire0 = server.bytes_pushed + server.bytes_pulled
        zero = np.zeros(ctx.base.shape, dtype=np.int64)
        push_done = [
            server.push(
                node, words, _add_deltas(zero, [ctx.pending[i]]),
                ctx.ready[i], entry_bytes=ENTRY_BYTES, retry=ctx.retry,
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

    def replay_key(self, nodes, pending, server) -> tuple:
        # The wire carries whole φ columns, so the counts never change
        # the timing.
        if server is None:
            return pending[0].shape, len(nodes), tuple(sorted(nodes))
        return pending[0].shape, server.num_shards, server.placed_over

    def rehearse(self, network, nodes, key) -> tuple[float, ...]:
        shape, shards, placed_over = key
        zero = np.zeros(shape, dtype=np.int64)
        server = ShardedParameterServer(zero, shards, network)
        server.rehome(list(placed_over))
        return self.allreduce(
            ClusterSyncContext(
                network=network, nodes=nodes, base=zero,
                pending=[WireDelta.encode(zero)] * len(nodes),
                ready=[0.0] * len(nodes), server=server,
            )
        ).done


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
