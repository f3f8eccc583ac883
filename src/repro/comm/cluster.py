"""Cluster collectives: the inter-node φ-sync leg of multi-node CuLDA.

Multi-node training runs the paper's intra-node reduce tree (§5.2) on
each machine, then combines what each node changed since the last
global sync (its Δφ) across the Ethernet fabric. This module provides
the two interchangeable backends for that inter-node leg, behind the
same planner as the GPU collectives in :mod:`repro.comm.collectives`:

- ``eth_ring`` — a leader ring over :class:`ClusterNetwork` that
  allgathers every node's Δφ in N−1 lock-stepped steps, each message
  one node's Δ as a :class:`WireDelta` (the paper's §6.1 16-bit φ,
  carried onto the fabric as index/value pairs of its changed
  entries); every node then adds the N deltas to the last synced φ.
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
idle shadow cluster that copies each node's liveness and NIC state —
``eth_ring`` from the per-node wire sizes alone, ``param_server`` by
running its ``allreduce`` through a zero-φ server — so the planner's
predicted seconds are the simulator's measured seconds for the same
ready times. A dead node stays dead in the shadow, and the planner
leaves it out of every plan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.network import ClusterNetwork
from repro.cluster.paramserver import ShardedParameterServer
from repro.comm.collectives import CostEstimate, _link_state, _set_state
from repro.comm.transfer import TransferRetry
from repro.gpusim.errors import SyncPathError
from repro.telemetry.context import emit_counter, telemetry_session

__all__ = [
    "ClusterSyncContext",
    "ClusterSyncResult",
    "ClusterCollective",
    "EthRingCollective",
    "ParamServerCollective",
    "get_cluster_collective",
    "cluster_collective_names",
    "cluster_collectives",
    "WireDelta",
]

#: ``param_server`` moves φ columns as dense int32 entries.
ENTRY_BYTES = 4

#: A :class:`WireDelta` addresses an entry by its int32 flat index
#: into K×V; an index at or past this limit cannot be sent.
_INDEX_LIMIT = 2**31


@dataclass(frozen=True, eq=False)
class WireDelta:
    """One node's Δφ as it crosses the inter-node wire: an (int32 flat
    index, value) pair for each non-zero entry.

    Values are int16, or int32 when some |Δ| ≥ 2¹⁵, so a pair takes 6
    or 8 bytes and an empty Δ takes 0 bytes.
    """

    shape: tuple[int, int]
    values: np.ndarray
    index: np.ndarray

    @classmethod
    def encode(cls, delta: np.ndarray) -> WireDelta:
        """Encode an integer Δφ. Raises ``OverflowError`` when a value
        or a flat index does not fit in 32 bits, instead of wrapping
        it."""
        flat = delta.ravel()
        index = np.flatnonzero(flat)
        return cls._from_entries(delta.shape, index, flat[index])

    @classmethod
    def between(cls, new: np.ndarray, old: np.ndarray) -> WireDelta:
        """``encode(new − old)`` for two count arrays of one shape,
        computed from the entries that differ: no full-size difference
        is formed."""
        a, b = new.reshape(-1), old.reshape(-1)
        index = np.flatnonzero(a != b)
        return cls._from_entries(
            new.shape, index, a[index].astype(np.int64) - b[index]
        )

    @classmethod
    def _from_entries(cls, shape, index, values) -> WireDelta:
        """The Δ whose non-zero entries are *values* at flat *index*."""
        peak = max(int(values.max()), -int(values.min())) if index.size else 0
        if peak >= 2**31:
            raise OverflowError(
                f"a Δφ entry of ±{peak} does not fit in 32 bits"
            )
        if index.size and index[-1] >= _INDEX_LIMIT:
            raise OverflowError(
                f"flat index {index[-1]} of a {shape} Δφ does not "
                f"fit in int32"
            )
        dtype = np.int16 if peak < 2**15 else np.int32
        return cls(shape, values.astype(dtype), index.astype(np.int32))

    @property
    def nbytes(self) -> int:
        """Bytes on the wire."""
        return self.index.nbytes + self.values.nbytes

    def pack(self) -> np.ndarray:
        """The delta as one ``uint8`` buffer of :attr:`nbytes` bytes, so
        a single copy carries it: the int32 indices, then the values."""
        return np.concatenate(
            [self.index.view(np.uint8), self.values.view(np.uint8)]
        )

    def layout(self) -> np.ndarray:
        """What a receiver needs to read :meth:`pack`'s bytes besides
        the shape: ``int64 [index entries, value entries, value
        bytes]``."""
        return np.array(
            [self.index.size, self.values.size, self.values.itemsize],
            dtype=np.int64,
        )

    def unpack(self, payload: np.ndarray) -> WireDelta:
        """The delta a :meth:`pack` layout *payload* carries, read with
        this delta's shape, entry count and value width: what a kernel
        given those as launch arguments decodes from the bytes
        delivered."""
        return WireDelta.read(self.shape, self.layout(), payload)

    @classmethod
    def read(
        cls, shape: tuple[int, int], layout: np.ndarray, payload: np.ndarray
    ) -> WireDelta:
        """The delta a :meth:`pack` layout *payload* carries, read as
        *layout* (:meth:`layout`) says. Raises ``ValueError`` when the
        layout is not one :meth:`encode` makes, the payload is not its
        size, or an index lies outside *shape*."""
        n_index, n_values, width = (int(x) for x in layout)
        if (
            width not in (2, 4)
            or n_values != n_index
            or payload.nbytes != (4 + width) * n_index
        ):
            raise ValueError(
                f"a {payload.nbytes}-byte payload does not match the "
                f"layout {[n_index, n_values, width]} of a {shape} Δφ"
            )
        index = payload[:4 * n_index].view(np.int32)
        if n_index and not (
            0 <= index.min() and index.max() < math.prod(shape)
        ):
            raise ValueError(
                f"the payload indexes outside the {shape[0]}x{shape[1]} Δφ"
            )
        dtype = np.int16 if width == 2 else np.int32
        return cls(shape, payload[4 * n_index:].view(dtype), index)


def _add_deltas(base: np.ndarray, deltas: list[WireDelta]) -> np.ndarray:
    """``base + Σ deltas`` as a fresh int64 array, in exact integer
    arithmetic: what every node computes once it holds all deltas."""
    phi = base.astype(np.int64, order="C")
    flat = phi.reshape(-1)  # a view: phi is a fresh C-order array
    for delta in deltas:
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
    (the sum of its GPUs' partials minus that sum at the last sync),
    encoded for the wire. ``ready[i]`` is when node ``i``'s host has
    summed its Δφ, on the cluster's timeline: the leg reads nothing
    else of the node.
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
    """Outcome of one inter-node combine: the new global φ (a fresh
    int64 array the caller owns), each participating node's completion
    time on the cluster's timeline, and the payload bytes put on the wire."""

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
        nodes: tuple[int, ...],
        pending: list[WireDelta],
        server: ShardedParameterServer | None = None,
    ) -> CostEstimate:
        """Predicted cost of :meth:`allreduce` over *nodes* on *network*
        for the payload *pending* (``pending[i]`` is ``nodes[i]``'s Δφ)
        — the planner's ranking input.

        Rehearses the backend on an idle shadow network with
        *network*'s node states (:func:`_network_key`), from what its
        :meth:`replay_key` keeps of *pending* and *server*, so the
        prediction is the simulated time the same run takes from idle.
        """
        return _estimate(
            self, _network_key(network), tuple(nodes), pending, server
        )


def _network_key(network: ClusterNetwork) -> tuple:
    """The fabric part of a replay's memo key: each node's liveness and
    its NIC's :func:`~repro.comm.collectives._link_state`."""
    return tuple(
        (network.node_alive(n), _link_state(link))
        for n, link in enumerate(network.links)
    )


def _estimate(
    collective: ClusterCollective,
    fabric: tuple,
    nodes: tuple[int, ...],
    pending: list[WireDelta],
    server: ShardedParameterServer | None,
) -> CostEstimate:
    """:meth:`ClusterCollective.estimate` on the network whose
    :func:`_network_key` is *fabric*."""
    if not nodes:
        return CostEstimate(math.inf)
    return _replay(
        collective, fabric, nodes, collective.replay_key(nodes, pending, server)
    )


@functools.lru_cache(maxsize=256)
def _replay(
    collective: ClusterCollective,
    fabric: tuple,
    nodes: tuple[int, ...],
    key: tuple,
) -> CostEstimate:
    """Rehearse *collective* on a fresh idle cluster built from the
    arguments alone (*fabric* is a :func:`_network_key`) — they are the
    memo key, so a cached estimate can only be reused for an identical
    replay."""
    shadow = ClusterNetwork(len(fabric))
    for n, (alive, state) in enumerate(fabric):
        _set_state(shadow.links[n], state)
        if not alive:
            shadow.fail_node(n)
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


#: The inter-node backends, in the planner's tie-break order (as for
#: the GPU collectives, a separate namespace from ``--sync``'s).
_CLUSTER_COLLECTIVES = (EthRingCollective(), ParamServerCollective())


def get_cluster_collective(name: str) -> ClusterCollective:
    for collective in _CLUSTER_COLLECTIVES:
        if collective.name == name:
            return collective
    raise ValueError(
        f"unknown inter-node sync algorithm {name!r}; choices: "
        + ", ".join(["auto", *cluster_collective_names()])
    )


def cluster_collective_names() -> tuple[str, ...]:
    return tuple(c.name for c in _CLUSTER_COLLECTIVES)


def cluster_collectives() -> tuple[ClusterCollective, ...]:
    return _CLUSTER_COLLECTIVES
