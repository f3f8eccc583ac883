"""Pluggable collective-communication layer with a topology-aware planner.

``repro.comm`` owns everything that moves φ between devices:

- :mod:`~repro.comm.topology` — immutable fabric snapshots
  (:class:`Topology`, :class:`LinkInfo`) derived from a simulated
  machine or cluster network;
- :mod:`~repro.comm.transfer` — the retry/host-fallback policy
  (:class:`TransferRetry`, :func:`with_retry`, :func:`resilient_p2p`);
- :mod:`~repro.comm.collectives` — the executable sync algorithms
  (tree, ring, cpu_gather, hierarchical), each reached only as a
  registered :class:`Collective` through its one ``allreduce``
  (``get_collective(name).allreduce(SyncContext(...))``; a cluster
  node runs none), whose ``estimate`` replays it on an idle shadow
  machine, in an ordered registry. The ring moves φ rows in place,
  straight from one GPU's φ into the next one's;
- :mod:`~repro.comm.cluster` — the inter-node backends (``eth_ring``,
  an allgather of sparse 16-bit Δφ, and ``param_server``) behind
  :class:`ClusterCollective`, whose one ``estimate`` replays a backend
  on an idle shadow cluster;
- :mod:`~repro.comm.planner` — :func:`plan_sync` and
  :func:`plan_cluster_sync`, one force-or-cheapest body that resolves
  ``--sync auto`` / ``--inter-sync auto`` into a :class:`SyncPlan`: the
  cheapest feasible collective per (topology, payload, participants).

Consumers — the training engine's sync phase, the serving φ
re-broadcast, the multi-node trainer's inter-node leg — go through
this package;
none of them dispatches on algorithm names themselves. See
``docs/SYNC.md`` for the planner design and decision tables.
"""

from repro.comm.cluster import (
    ClusterCollective,
    ClusterSyncContext,
    ClusterSyncResult,
    EthRingCollective,
    ParamServerCollective,
    WireDelta,
    cluster_collective_names,
    cluster_collectives,
    get_cluster_collective,
    register_cluster_collective,
)
from repro.comm.collectives import (
    Collective,
    CostEstimate,
    SyncContext,
    broadcast_phi,
    collective_names,
    collectives,
    get_collective,
    reduce_phi_tree,
    register,
)
from repro.comm.planner import (
    AUTO,
    SyncPlan,
    cluster_sync_choices,
    decisions_from_registry,
    plan_cluster_sync,
    plan_sync,
    sync_choices,
)
from repro.comm.topology import NVLINK_CLASS_GBPS, LinkInfo, Topology
from repro.comm.transfer import (
    TransferRetry,
    resilient_p2p,
    with_retry,
)

__all__ = [
    "AUTO",
    "ClusterCollective",
    "ClusterSyncContext",
    "ClusterSyncResult",
    "Collective",
    "CostEstimate",
    "EthRingCollective",
    "LinkInfo",
    "NVLINK_CLASS_GBPS",
    "ParamServerCollective",
    "SyncContext",
    "SyncPlan",
    "Topology",
    "TransferRetry",
    "WireDelta",
    "broadcast_phi",
    "cluster_collective_names",
    "cluster_collectives",
    "cluster_sync_choices",
    "collective_names",
    "collectives",
    "decisions_from_registry",
    "get_cluster_collective",
    "get_collective",
    "plan_cluster_sync",
    "plan_sync",
    "reduce_phi_tree",
    "register",
    "register_cluster_collective",
    "resilient_p2p",
    "sync_choices",
    "with_retry",
]
