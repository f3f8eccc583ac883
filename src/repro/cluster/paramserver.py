"""Sharded parameter server for the LDA* baseline and multi-node CuLDA.

LDA* keeps the topic–word matrix φ in a parameter server sharded across
the worker nodes themselves (so aggregate server bandwidth scales with
the cluster). Every iteration each worker

- **pulls** the φ rows for the words its partition contains, and
- **pushes** its count deltas for those words,

each message timed on the sender's/receiver's Ethernet links by
:meth:`ClusterNetwork.send <repro.cluster.network.ClusterNetwork.send>`,
one message per shard. The functional
content (the actual counts) is exact; staleness appears only through
the iteration-granular sync, the same delayed-update semantics as the
GPU trainer.

Fault domain (docs/ROBUSTNESS.md §8). Each of the ``S`` logical shards
(shard of word ``v`` is ``v % S``) has a **primary** copy on one node
and, when the cluster has more than one live node, a **chained
replica** on the next live node: a push lands on the primary and is
forwarded one hop down the chain, so losing any single node loses no
counts. Each copy carries a CRC32 **checksum** updated at every write;
a checksum mismatch on read (silent ``ps_shard_corruption``) is
repaired from the intact copy. When a node is unreachable, pulls
**fail over** to the replica and pushes are applied to it as acting
primary — bit-identical content, different wire. Permanent node loss
triggers a deterministic **re-shard** (:meth:`reshard`): shard
placement is recomputed over the survivors and every copy is rebuilt
from an exact φ recount off the workers' assignments.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.cluster.network import ClusterNetwork
from repro.gpusim.errors import SyncPathError
from repro.telemetry.context import emit_counter

__all__ = ["ShardedParameterServer"]


def _crc(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


class ShardedParameterServer:
    """φ sharded by word across *num_shards* logical shards.

    Shard of word v is ``v % num_shards`` (hash sharding). In the LDA*
    deployment servers are co-located with workers; shard *s* initially
    lives on node *s* with its replica chained to node ``s+1``. The
    logical shard count never changes — node loss only remaps shards
    onto the surviving nodes — so message layouts (which words travel
    together) are stable across failures.
    """

    def __init__(self, phi: np.ndarray, num_shards: int, network: ClusterNetwork):
        if num_shards < 1 or num_shards > network.num_nodes:
            raise ValueError("num_shards must be in [1, num_nodes]")
        self.num_shards = num_shards
        self.network = network
        self.num_words = phi.shape[1]
        #: Column ids (words) owned by each shard, ascending.
        self._cols = [
            np.arange(s, self.num_words, num_shards)
            for s in range(num_shards)
        ]
        self._primary_node: list[int] = []
        self._replica_node: list[int] = []
        self._place_shards(list(range(network.num_nodes)))
        self._primary: list[np.ndarray] = []
        self._replica: list[np.ndarray] = []
        self._sum_p: list[int] = []
        self._sum_r: list[int] = []
        self._install(phi.astype(np.int64))
        self.bytes_pulled = 0.0
        self.bytes_pushed = 0.0
        self.bytes_resharded = 0.0
        #: Structured event log (failovers, repairs, re-shards).
        self.events: list[dict] = []
        #: Replicated control-plane metadata (see :meth:`park`).
        self._parked: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Placement and storage
    # ------------------------------------------------------------------
    def _place_shards(self, nodes: list[int]) -> None:
        """Deterministic shard → node map over *nodes* (ascending)."""
        if not nodes:
            raise ValueError("cannot place shards on an empty cluster")
        nodes = sorted(nodes)
        #: The nodes the current placement spreads over; ``rehome`` on
        #: them rebuilds it.
        self.placed_over = tuple(nodes)
        self._primary_node = [
            nodes[s % len(nodes)] for s in range(self.num_shards)
        ]
        if len(nodes) > 1:
            self._replica_node = [
                nodes[(s + 1) % len(nodes)] for s in range(self.num_shards)
            ]
        else:
            self._replica_node = list(self._primary_node)

    def _install(self, phi: np.ndarray) -> None:
        """(Re)build every shard copy from a dense φ, refreshing checksums."""
        self._primary = [phi[:, cols].copy() for cols in self._cols]
        self._replica = [p.copy() for p in self._primary]
        self._sum_p = [_crc(p) for p in self._primary]
        self._sum_r = list(self._sum_p)
        self._dense_cache: np.ndarray | None = None

    def rehome(self, nodes: list[int]) -> None:
        """Re-place every shard over *nodes* without timing any wire
        traffic — used when a restored checkpoint was written after a
        re-shard and placement must match the run that wrote it."""
        self._place_shards(nodes)
        self._dense_cache = None

    def _authoritative(self, shard: int) -> np.ndarray:
        """The copy reads are served from: the primary while its node is
        reachable, the chained replica otherwise."""
        if self.network.node_up(self._primary_node[shard]):
            return self._primary[shard]
        return self._replica[shard]

    def _dense(self) -> np.ndarray:
        if self._dense_cache is None:
            K = self._primary[0].shape[0]
            dense = np.empty((K, self.num_words), dtype=np.int64)
            for s, cols in enumerate(self._cols):
                dense[:, cols] = self._authoritative(s)
            self._dense_cache = dense
        return self._dense_cache

    @property
    def phi(self) -> np.ndarray:
        """The assembled dense φ (authoritative copy of every shard)."""
        return self._dense()

    @phi.setter
    def phi(self, value: np.ndarray) -> None:
        """Reinstall φ wholesale (checkpoint restore / rollback); every
        copy is rebuilt in place at the current shard placement, which
        also heals any injected shard corruption."""
        self._install(np.asarray(value).astype(np.int64))

    @property
    def n_k(self) -> np.ndarray:
        return self.phi.sum(axis=1)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def _verify_shard(self, shard: int) -> None:
        """Checksum both copies; repair a corrupted one from its intact
        peer. Double corruption is left for the engine's conservation
        validation to catch (it cannot be silently 'repaired')."""
        p_ok = _crc(self._primary[shard]) == self._sum_p[shard]
        r_ok = _crc(self._replica[shard]) == self._sum_r[shard]
        if p_ok and r_ok:
            return
        if p_ok != r_ok:
            good, bad = ("replica", "primary") if r_ok else ("primary", "replica")
            if r_ok:
                self._primary[shard] = self._replica[shard].copy()
                self._sum_p[shard] = self._sum_r[shard]
            else:
                self._replica[shard] = self._primary[shard].copy()
                self._sum_r[shard] = self._sum_p[shard]
            self._dense_cache = None
            self.events.append(
                {"kind": "shard_repair", "shard": shard, "from": good,
                 "repaired": bad}
            )
            emit_counter(
                "ps_shard_repairs_total", 1,
                help="Corrupted φ shard copies repaired from their "
                     "replication peer.",
                shard=shard,
            )

    def verify(self) -> None:
        """Checksum-verify every shard copy, repairing any single
        corrupted copy from its intact replication peer."""
        for shard in range(self.num_shards):
            self._verify_shard(shard)

    # ------------------------------------------------------------------
    # Parked control-plane metadata
    # ------------------------------------------------------------------
    def park(self, key: str, value: np.ndarray) -> None:
        """Park a small control-plane array (e.g. the chunk hosting map)
        under *key*, replicated with the shards.

        Parked state is how an elastic trainer survives losing the node
        that owned an assignment: the plan lives with the (replicated)
        server, not with the node. Like heartbeats, parking is
        control-plane traffic and is not charged to the simulated
        wire — it is tiny next to the φ payloads it describes.
        """
        self._parked[key] = np.asarray(value).copy()
        self.events.append({"kind": "park", "key": key})

    def parked(self, key: str) -> np.ndarray | None:
        """The array parked under *key*, or ``None``. Parked metadata
        survives node loss (every copy is replicated) and re-shards."""
        value = self._parked.get(key)
        return None if value is None else value.copy()

    def corrupt_shard(self, node: int, offset: int = 7919) -> None:
        """Fault hook (``ps_shard_corruption``): silently perturb the
        primary copy of every shard homed on *node* without touching
        its stored checksum."""
        hit = [s for s in range(self.num_shards)
               if self._primary_node[s] == node]
        if not hit:
            raise ValueError(
                f"no φ shard has its primary on node {node}; primaries "
                f"live on nodes {sorted(set(self._primary_node))}"
            )
        for s in hit:
            self._primary[s][0, 0] += offset
        self._dense_cache = None

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def _traffic_split(self, words: np.ndarray) -> np.ndarray:
        """Words per shard for a worker's word set."""
        return np.bincount(words % self.num_shards, minlength=self.num_shards)

    def _failover(self, shard: int, exc: SyncPathError) -> int:
        """The node a shard operation retargets when its primary is
        unreachable, or re-raise when failover cannot help."""
        primary = self._primary_node[shard]
        replica = self._replica_node[shard]
        if (
            exc.transient
            or self.network.node_up(primary)
            or replica == primary
            or not self.network.node_up(replica)
        ):
            raise exc
        return replica

    def pull(
        self, worker: int, words: np.ndarray, earliest: float,
        entry_bytes: int = 4, retry=None,
    ) -> tuple[np.ndarray, float]:
        """Fetch φ[:, words] (and n_k); returns (slice, completion time).

        One message per shard, shard-node → *worker* (the pulling
        worker's **node**), each of ``K × |words_in_shard| × entry_bytes``.
        A shard whose primary node is unreachable is served by its
        chained replica (a **failover read** — same bits, different
        wire); a checksum mismatch on either copy is repaired first.
        """
        K = self._primary[0].shape[0]
        total = 0.0
        done = earliest
        for shard, count in enumerate(self._traffic_split(words)):
            if not count:
                continue
            self._verify_shard(shard)
            nbytes = float(K) * int(count) * entry_bytes + K * 8
            src = self._primary_node[shard]
            try:
                _, end = self.network.send(
                    src, worker, nbytes, earliest, op="ps_pull", retry=retry
                )
            except SyncPathError as exc:
                src = self._failover(shard, exc)
                _, end = self.network.send(
                    src, worker, nbytes, earliest, op="ps_pull_failover",
                    retry=retry,
                )
                self.events.append(
                    {"kind": "failover_read", "shard": shard, "worker": worker,
                     "replica_node": src}
                )
                emit_counter(
                    "ps_failover_reads_total", 1,
                    help="Shard pulls served by the chained replica "
                         "because the primary node was unreachable.",
                    shard=shard,
                )
            total += nbytes
            done = max(done, end)
            emit_counter(
                "cluster_bytes_total", nbytes,
                help="parameter-server bytes moved per operation",
                op="ps_pull",
            )
        self.bytes_pulled += total
        return self._dense()[:, words].copy(), done

    def _apply(self, shard: int, cols: np.ndarray, part: np.ndarray,
               copy: str) -> None:
        """Accumulate *part* into one shard copy. ``np.add.at`` applies
        every occurrence of a duplicated column — plain fancy-index
        ``+=`` would silently drop all but one."""
        arr = self._primary[shard] if copy == "primary" else self._replica[shard]
        np.add.at(arr, (slice(None), cols), part)
        if copy == "primary":
            self._sum_p[shard] = _crc(arr)
        else:
            self._sum_r[shard] = _crc(arr)
        self._dense_cache = None

    def push(
        self,
        worker: int,
        words: np.ndarray,
        delta: np.ndarray,
        earliest: float,
        entry_bytes: int = 4,
        retry=None,
    ) -> float:
        """Apply a worker's Δφ for its word set; returns completion time.

        One message per shard, worker-node → shard-node, then one
        chained-replication hop shard-node → replica-node, so the delta
        lands on **both** copies. When the primary node is unreachable
        the delta is applied to the replica as acting primary (the
        re-shard after the node's death recounts φ exactly, so the
        primary's missed update can never resurface).
        """
        K = self._primary[0].shape[0]
        if delta.shape != (K, words.size):
            raise ValueError("delta must be (K, |words|)")
        total = 0.0
        done = earliest
        shard_ids = words % self.num_shards
        for shard, count in enumerate(self._traffic_split(words)):
            if not count:
                continue
            mask = shard_ids == shard
            cols = words[mask] // self.num_shards
            part = delta[:, mask]
            nbytes = float(K) * int(count) * entry_bytes
            dst = self._primary_node[shard]
            replica = self._replica_node[shard]
            try:
                _, end = self.network.send(
                    worker, dst, nbytes, earliest, op="ps_push", retry=retry
                )
            except SyncPathError as exc:
                dst = self._failover(shard, exc)
                _, end = self.network.send(
                    worker, dst, nbytes, earliest, op="ps_push_failover",
                    retry=retry,
                )
                self.events.append(
                    {"kind": "failover_push", "shard": shard, "worker": worker,
                     "replica_node": dst}
                )
                emit_counter(
                    "ps_failover_pushes_total", 1,
                    help="Shard pushes applied to the chained replica as "
                         "acting primary.",
                    shard=shard,
                )
                self._apply(shard, cols, part, "replica")
            else:
                self._apply(shard, cols, part, "primary")
                if replica != dst and self.network.node_up(replica):
                    _, end2 = self.network.send(
                        dst, replica, nbytes, end, op="ps_replicate",
                        retry=retry,
                    )
                    end = max(end, end2)
                    total += nbytes
                    self._apply(shard, cols, part, "replica")
            total += nbytes
            done = max(done, end)
            emit_counter(
                "cluster_bytes_total", nbytes,
                help="parameter-server bytes moved per operation",
                op="ps_push",
            )
        self.bytes_pushed += total
        return done

    # ------------------------------------------------------------------
    # Elastic re-shard
    # ------------------------------------------------------------------
    def reshard(
        self, phi_recount: np.ndarray, earliest: float,
        entry_bytes: int = 4,
    ) -> tuple[float, float]:
        """Deterministically re-place every shard over the live nodes.

        *phi_recount* is the exact dense φ recounted from the workers'
        topic assignments (a pure function of z — node loss can never
        cost counts). Copies that must move are timed on the wire: each
        relocated copy is one message from a surviving holder of that
        shard, or a fan-in of per-node recount contributions when both
        old holders are gone. Returns ``(bytes_moved, completion_time)``.
        """
        phi_recount = np.asarray(phi_recount).astype(np.int64)
        if phi_recount.shape[1] != self.num_words:
            raise ValueError("recounted phi has the wrong vocabulary size")
        live = [n for n in range(self.network.num_nodes)
                if self.network.node_up(n)]
        old_primary = list(self._primary_node)
        old_replica = list(self._replica_node)
        self._place_shards(live)
        K = phi_recount.shape[0]
        bytes_moved = 0.0
        adopted = 0
        done = earliest
        for s, cols in enumerate(self._cols):
            nbytes = float(K) * cols.size * entry_bytes
            old_holders = [
                n for n in dict.fromkeys((old_primary[s], old_replica[s]))
                if self.network.node_up(n)
            ]
            for dst in dict.fromkeys(
                (self._primary_node[s], self._replica_node[s])
            ):
                if dst in old_holders:
                    continue
                adopted += 1
                if old_holders:
                    _, end = self.network.send(
                        old_holders[0], dst, nbytes, earliest,
                        op="ps_reshard",
                    )
                else:
                    # Both copies died with their nodes: rebuild from the
                    # recount, each live node contributing its share.
                    end = earliest
                    for src in live:
                        if src == dst:
                            continue
                        _, e = self.network.send(
                            src, dst, nbytes / max(1, len(live)),
                            earliest, op="ps_reshard_recount",
                        )
                        end = max(end, e)
                bytes_moved += nbytes
                done = max(done, end)
        self._install(phi_recount)
        self.bytes_resharded += bytes_moved
        self.events.append(
            {"kind": "reshard", "live_nodes": list(live),
             "bytes_moved": bytes_moved, "shards_adopted": adopted}
        )
        emit_counter(
            "ps_reshards_total", 1,
            help="Deterministic φ re-shards after permanent node loss.",
        )
        if adopted:
            emit_counter(
                "shards_adopted_total", adopted,
                help="φ shard copies adopted by a new home node during "
                     "elastic re-shards.",
            )
        emit_counter(
            "ps_reshard_bytes_total", bytes_moved,
            help="Bytes moved relocating φ shard copies during re-shards.",
        )
        return bytes_moved, done
