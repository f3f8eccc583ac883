"""Cost-model-driven selection of the sync collective.

``--sync auto`` (the default) resolves here: the planner snapshots the
current :class:`~repro.comm.topology.Topology`, asks every registered
:class:`~repro.comm.collectives.Collective` for a
:class:`~repro.comm.collectives.CostEstimate` of this payload on this
fabric — each one a replay of the collective itself on an idle shadow
machine — and executes the cheapest feasible one. Manual ``--sync``
choices remain available as *forced* plans — the planner still runs, so
the estimate and decision telemetry are recorded either way, but the
named collective executes regardless of cost.

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

from repro.comm.cluster import (
    ClusterCollective,
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
    "SyncPlanner",
    "ClusterSyncPlan",
    "ClusterSyncPlanner",
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
    """One resolved sync decision: which collective runs, and why.

    ``forced`` distinguishes a manual ``--sync`` override from a
    planner pick; ``estimate`` is the cost model's prediction for the
    chosen collective on ``topology`` (recorded even when forced, so
    profiles can show what the override cost).
    """

    algorithm: str
    collective: Collective
    estimate: CostEstimate
    forced: bool
    topology: Topology


class SyncPlanner:
    """Picks the cheapest feasible collective for a (topology, payload).

    Stateless apart from the registry it reads; one module-level
    instance behind :func:`plan_sync` serves the whole process.
    """

    def plan(
        self,
        machine: Machine,
        shape: tuple[int, int],
        config: KernelConfig,
        retry: TransferRetry | None = None,
        algorithm: str = AUTO,
        devices: list[int] | None = None,
    ) -> SyncPlan:
        """Resolve *algorithm* into a :class:`SyncPlan`.

        ``AUTO`` picks the minimum predicted simulated time over the
        registered collectives (registration order breaks ties); any
        other name forces that collective. *devices* defaults to the
        machine's alive-GPU set. Raises
        :class:`~repro.gpusim.errors.SyncPathError` if no collective
        has a usable path, and ``ValueError`` for an unknown name.
        """
        topo = Topology.from_machine(machine, devices=devices)
        forced = algorithm != AUTO
        if forced:
            chosen = get_collective(algorithm)
            estimate = chosen.estimate(machine, topo, shape, config, retry=retry)
        else:
            chosen = None
            estimate = None
            for cand in collectives():
                est = cand.estimate(machine, topo, shape, config, retry=retry)
                if est.feasible and (
                    estimate is None or est.seconds < estimate.seconds
                ):
                    chosen, estimate = cand, est
            if chosen is None:
                dead = sorted(
                    info.name
                    for info in topo.host.values()
                    if not info.up
                )
                raise SyncPathError(
                    dead[0] if dead else "p2p", "sync_plan",
                    devices=topo.devices,
                )
        plan = SyncPlan(
            algorithm=chosen.name,
            collective=chosen,
            estimate=estimate,
            forced=forced,
            topology=topo,
        )
        self._emit(plan)
        return plan

    @staticmethod
    def _emit(plan: SyncPlan) -> None:
        emit_counter(
            "sync_planner_decisions_total", 1,
            help="sync collectives chosen by the planner (forced=manual --sync)",
            algorithm=plan.algorithm,
            topology=plan.topology.describe(),
            forced=str(plan.forced).lower(),
        )
        if plan.estimate is not None and plan.estimate.feasible:
            emit_gauge(
                "sync_planner_predicted_seconds", plan.estimate.seconds,
                help="cost-model prediction for the chosen sync collective",
                algorithm=plan.algorithm,
                topology=plan.topology.describe(),
            )


@dataclass(frozen=True)
class ClusterSyncPlan:
    """One resolved inter-node sync decision (multi-node CuLDA's φ
    exchange leg): which cluster collective runs, over which live
    nodes, and what the replay-exact cost model predicted."""

    algorithm: str
    collective: ClusterCollective
    estimate: CostEstimate
    forced: bool
    topology: Topology
    nodes: tuple[int, ...]


class ClusterSyncPlanner:
    """Picks the cheapest feasible inter-node backend for a payload.

    The cluster analog of :class:`SyncPlanner`: the topology snapshot
    comes from :meth:`Topology.from_cluster`, which excludes nodes the
    failure detector has declared dead — so a plan can never route
    through one — and each candidate's estimate *replays* its exact
    message schedule on the snapshot, making the prediction equal to
    the simulator's measurement for the same ready times.
    """

    def plan(
        self,
        network,
        shape: tuple[int, int],
        entry_bytes: int = 4,
        retry: TransferRetry | None = None,
        algorithm: str = AUTO,
        nodes: list[int] | None = None,
        server=None,
    ) -> ClusterSyncPlan:
        """Resolve *algorithm* into a :class:`ClusterSyncPlan`.

        *nodes* defaults to every detector-alive node; dead nodes are
        filtered out of an explicit list too. Raises
        :class:`~repro.gpusim.errors.SyncPathError` when no backend has
        a usable path and ``ValueError`` for an unknown name.
        """
        topo = Topology.from_cluster(network)
        live = (
            topo.devices if nodes is None
            else tuple(n for n in nodes if n in topo.devices)
        )
        forced = algorithm != AUTO
        if forced:
            chosen = get_cluster_collective(algorithm)
            estimate = chosen.estimate(
                topo, live, shape, entry_bytes, retry=retry, server=server
            )
        else:
            chosen = None
            estimate = None
            for cand in cluster_collectives():
                est = cand.estimate(
                    topo, live, shape, entry_bytes, retry=retry, server=server
                )
                if est.feasible and (
                    estimate is None or est.seconds < estimate.seconds
                ):
                    chosen, estimate = cand, est
            if chosen is None:
                dead = sorted(
                    info.name for info in topo.host.values() if not info.up
                )
                raise SyncPathError(
                    dead[0] if dead else "eth", "cluster_sync_plan",
                    devices=live,
                )
        plan = ClusterSyncPlan(
            algorithm=chosen.name,
            collective=chosen,
            estimate=estimate,
            forced=forced,
            topology=topo,
            nodes=live,
        )
        SyncPlanner._emit(plan)
        return plan


_PLANNER = SyncPlanner()
_CLUSTER_PLANNER = ClusterSyncPlanner()


def plan_cluster_sync(
    network,
    shape: tuple[int, int],
    entry_bytes: int = 4,
    retry: TransferRetry | None = None,
    algorithm: str = AUTO,
    nodes: list[int] | None = None,
    server=None,
) -> ClusterSyncPlan:
    """Module-level convenience over one shared :class:`ClusterSyncPlanner`."""
    return _CLUSTER_PLANNER.plan(
        network, shape, entry_bytes=entry_bytes, retry=retry,
        algorithm=algorithm, nodes=nodes, server=server,
    )


def cluster_sync_choices() -> tuple[str, ...]:
    """Every valid ``--inter-sync`` value: ``auto`` plus the cluster
    registry, in registration order."""
    return (AUTO, *cluster_collective_names())


def plan_sync(
    machine: Machine,
    shape: tuple[int, int],
    config: KernelConfig,
    retry: TransferRetry | None = None,
    algorithm: str = AUTO,
    devices: list[int] | None = None,
) -> SyncPlan:
    """Module-level convenience over one shared :class:`SyncPlanner`."""
    return _PLANNER.plan(
        machine, shape, config, retry=retry, algorithm=algorithm,
        devices=devices,
    )


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
