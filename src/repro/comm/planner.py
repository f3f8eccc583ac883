"""Cost-model-driven selection of the sync collective, for both fabrics.

``--sync auto`` (the default) resolves here: the planner snapshots the
current :class:`~repro.comm.topology.Topology`, asks every registered
:class:`~repro.comm.collectives.Collective` for a
:class:`~repro.comm.collectives.CostEstimate` of this payload on this
fabric — each one a replay of the collective itself on an idle shadow
machine — and executes the cheapest feasible one. Manual ``--sync``
choices remain available as *forced* plans — the planner still runs, so
the estimate and decision telemetry are recorded either way, but the
named collective executes regardless of cost. ``--inter-sync`` resolves
the same way over the cluster registry
(:mod:`repro.comm.cluster`), whose estimates replay each backend on an
idle shadow cluster: :func:`plan_sync` and :func:`plan_cluster_sync`
differ only in the snapshot and the candidates, and share one
force-or-cheapest body and one :class:`SyncPlan`.

Because the topology is re-snapshotted every call, the plan adapts
within a run: a link taken down by a fault plan re-routes the next sync
(typically to ``cpu_gather``, whose legs never touch the P2P fabric),
and a lost GPU shrinks the device set (the elastic G−1 path). Ties are
broken by registration order, which puts ``gpu_tree`` — the paper's
choice and the previous hard-wired default — first: ``auto`` can never
be slower than the old behaviour on equal estimates.

Decisions are emitted as telemetry (``sync_planner_decisions_total``
counters and a ``sync_planner_predicted_seconds`` gauge) and surfaced
by ``repro-lda profile`` via :func:`decisions_from_registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.comm.cluster import (
    ClusterCollective,
    WireDelta,
    cluster_collective_names,
    cluster_collectives,
    get_cluster_collective,
)
from repro.comm.collectives import (
    Collective,
    CostEstimate,
    collective_names,
    collectives,
    get_collective,
)
from repro.comm.topology import Topology
from repro.comm.transfer import TransferRetry
from repro.core.kernels import KernelConfig
from repro.gpusim.errors import SyncPathError
from repro.gpusim.platform import Machine
from repro.telemetry.context import emit_counter, emit_gauge

__all__ = [
    "AUTO",
    "SyncPlan",
    "plan_sync",
    "plan_cluster_sync",
    "sync_choices",
    "cluster_sync_choices",
    "decisions_from_registry",
]

#: The sentinel algorithm name that delegates the choice to the planner.
AUTO = "auto"


@dataclass(frozen=True)
class SyncPlan:
    """One resolved sync decision: which collective runs over which
    participants (GPUs inside a machine, nodes across a cluster), and
    why.

    ``forced`` distinguishes a manual ``--sync``/``--inter-sync``
    override from a planner pick; ``estimate`` is the replayed cost of
    the chosen collective on ``topology`` (recorded even when forced,
    so profiles can show what the override cost).
    """

    algorithm: str
    collective: Collective | ClusterCollective
    estimate: CostEstimate
    forced: bool
    topology: Topology
    participants: tuple[int, ...]


def _force_or_cheapest(
    algorithm: str,
    get: Callable[[str], Collective | ClusterCollective],
    candidates: Sequence[Collective | ClusterCollective],
    price: Callable[[Collective | ClusterCollective], CostEstimate],
    topo: Topology,
    participants: tuple[int, ...],
    fabric: str,
    op: str,
) -> SyncPlan:
    """Resolve *algorithm* into a :class:`SyncPlan` and record it.

    ``AUTO`` picks the minimum *price* over *candidates* (registration
    order breaks ties); any other name forces ``get(name)``. Raises
    :class:`~repro.gpusim.errors.SyncPathError` — naming the first
    down link, else *fabric* — when no candidate is feasible.
    """
    forced = algorithm != AUTO
    if forced:
        chosen = get(algorithm)
        estimate = price(chosen)
    else:
        chosen = None
        estimate = None
        for cand in candidates:
            est = price(cand)
            if est.feasible and (
                estimate is None or est.seconds < estimate.seconds
            ):
                chosen, estimate = cand, est
        if chosen is None:
            dead = sorted(
                info.name for info in topo.host.values() if not info.up
            )
            raise SyncPathError(
                dead[0] if dead else fabric, op, devices=participants,
            )
    plan = SyncPlan(
        algorithm=chosen.name,
        collective=chosen,
        estimate=estimate,
        forced=forced,
        topology=topo,
        participants=participants,
    )
    label = topo.describe()
    emit_counter(
        "sync_planner_decisions_total", 1,
        help="sync collectives chosen by the planner (forced=manual --sync)",
        algorithm=plan.algorithm,
        topology=label,
        forced=str(forced).lower(),
    )
    if estimate.feasible:
        emit_gauge(
            "sync_planner_predicted_seconds", estimate.seconds,
            help="cost-model prediction for the chosen sync collective",
            algorithm=plan.algorithm,
            topology=label,
        )
    return plan


def plan_sync(
    machine: Machine,
    shape: tuple[int, int],
    config: KernelConfig,
    retry: TransferRetry | None = None,
    algorithm: str = AUTO,
    devices: list[int] | None = None,
    to_host: bool = False,
) -> SyncPlan:
    """Resolve ``--sync`` *algorithm* for one machine's φ sync.

    Each collective is priced for the op that will run: its
    ``allreduce`` on one machine, its ``reduce_to_host`` when *to_host*
    (a cluster node, whose sum leaves for the NIC). *devices* defaults
    to the machine's alive-GPU set. Raises
    :class:`~repro.gpusim.errors.SyncPathError` if no collective has a
    usable path, and ``ValueError`` for an unknown name.
    """
    topo = Topology.from_machine(machine, devices=devices)
    return _force_or_cheapest(
        algorithm, get_collective, collectives(),
        lambda c: c.estimate(
            machine, topo, shape, config, retry=retry, to_host=to_host
        ),
        topo, topo.devices, "p2p", "sync_plan",
    )


def plan_cluster_sync(
    network,
    payload: Mapping[int, WireDelta] | Sequence[WireDelta],
    algorithm: str = AUTO,
    nodes: list[int] | None = None,
    server=None,
) -> SyncPlan:
    """Resolve ``--inter-sync`` *algorithm* for the inter-node φ leg.

    The snapshot comes from :meth:`Topology.from_cluster`, which leaves
    out nodes the failure detector has declared dead, so a plan can
    never route through one. *nodes* defaults to every detector-alive
    node; dead nodes are filtered out of an explicit list too.
    *payload* holds each node's Δφ since the last sync, indexed by
    node id; the estimates read the participants' entries. *server*
    is the live parameter server, whose shard placement the estimates
    replay. Raises :class:`~repro.gpusim.errors.SyncPathError` when no
    backend has a usable path and ``ValueError`` for an unknown name.
    """
    topo = Topology.from_cluster(network)
    live = (
        topo.devices if nodes is None
        else tuple(n for n in nodes if n in topo.devices)
    )
    pending = [payload[n] for n in live]
    return _force_or_cheapest(
        algorithm, get_cluster_collective, cluster_collectives(),
        lambda c: c.estimate(network, topo, live, pending, server),
        topo, live, "eth", "cluster_sync_plan",
    )


def cluster_sync_choices() -> tuple[str, ...]:
    """Every valid ``--inter-sync`` value: ``auto`` plus the cluster
    registry, in registration order."""
    return (AUTO, *cluster_collective_names())


def sync_choices() -> tuple[str, ...]:
    """Every valid ``--sync`` value: ``auto`` plus the registry, in
    registration order — the single source for CLI ``choices=``."""
    return (AUTO, *collective_names())


def decisions_from_registry(registry) -> list[dict[str, object]]:
    """Planner decisions recorded in *registry*, for profile output.

    Returns one dict per (algorithm, topology, forced) series of the
    ``sync_planner_decisions_total`` counter, with the matching
    predicted-seconds gauge folded in when present.
    """
    counter = registry.get("sync_planner_decisions_total")
    if counter is None:
        return []
    gauge = registry.get("sync_planner_predicted_seconds")
    # Read the recorded series, not Gauge.value: a one-node cluster
    # plan predicts 0.0 s, which value() also returns for a miss.
    predicted = {
        (s.labels["algorithm"], s.labels["topology"]): s.value
        for s in (gauge.samples() if gauge is not None else ())
    }
    out: list[dict[str, object]] = []
    for sample in counter.samples():
        key = (sample.labels["algorithm"], sample.labels["topology"])
        entry: dict[str, object] = {
            "algorithm": key[0],
            "topology": key[1],
            "forced": sample.labels["forced"] == "true",
            "count": int(sample.value),
        }
        if key in predicted:
            entry["predicted_seconds"] = predicted[key]
        out.append(entry)
    out.sort(key=lambda e: -e["count"])
    return out
