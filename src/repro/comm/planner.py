"""Cost-model-driven selection of the sync collective, for both fabrics.

``--sync auto`` (the default) resolves here: the planner reads the
machine's specs and link states into one replay key, asks every
:class:`~repro.comm.collectives.Collective` for a
:class:`~repro.comm.collectives.CostEstimate` of this payload on this
fabric — each one a replay of the collective itself on an idle shadow
machine built from that key — and executes the cheapest feasible one.
Manual ``--sync`` choices remain available as *forced* plans — the
planner still runs, so the estimate and decision telemetry are
recorded either way, but the named collective executes regardless of
cost. ``--inter-sync`` resolves the same way over the cluster backends
(:mod:`repro.comm.cluster`), whose estimates replay each backend on an
idle shadow cluster: :func:`plan_sync` and :func:`plan_cluster_sync`
differ only in the key and the candidates, and share one
force-or-cheapest body and one :class:`SyncPlan`.

Because the key is read afresh every call, the plan adapts within a
run: a link taken down by a fault plan re-routes the next sync
(typically to ``cpu_gather``, whose legs never touch the P2P fabric),
and a lost GPU shrinks the device set (the elastic G−1 path); a
pending transient fault does not count, since retrying it is the run's
concern. Ties are broken by the collectives' order, which puts
``gpu_tree`` — the paper's choice and the previous hard-wired default —
first: ``auto`` can never be slower than the old behaviour on equal
estimates.

Decisions are emitted as telemetry (``sync_planner_decisions_total``
counters and a ``sync_planner_predicted_seconds`` gauge, labelled by
the fabric, e.g. ``4gpu-2sock-pcie``) and surfaced by ``repro-lda
profile`` via :func:`decisions_from_registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, Sequence

from repro.comm.cluster import (
    ClusterCollective,
    WireDelta,
    _estimate,
    _network_key,
    cluster_collective_names,
    cluster_collectives,
    get_cluster_collective,
)
from repro.comm.collectives import (
    Collective,
    CostEstimate,
    _machine_key,
    _replay,
    collective_names,
    collectives,
    get_collective,
)
from repro.comm.transfer import TransferRetry
from repro.core.kernels import KernelConfig
from repro.gpusim.errors import SyncPathError
from repro.gpusim.interconnect import Link
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
    the chosen collective on the planned fabric (recorded even when
    forced, so profiles can show what the override cost). ``lanes`` is
    the :attr:`~repro.comm.collectives.SyncContext.lanes` count it runs at:
    the cheapest of the collective's ``lane_counts``, forced or not
    (always 1 across a cluster).
    """

    algorithm: str
    collective: Collective | ClusterCollective
    estimate: CostEstimate
    forced: bool
    participants: tuple[int, ...]
    lanes: int = 1


#: Effective GB/s from which a peer link labels the fabric NVLink-class
#: (PCIe switch and bridge paths stay far below it).
_NVLINK_GBPS = 50.0


def _label(devices: tuple[int, ...], machine: Machine | None = None) -> str:
    """The telemetry label of a plan over *devices*: GPUs of *machine*
    (``"4gpu-2sock-pcie"``, ``"4gpu-2sock-nvlink"`` once a peer link
    carries NVLink-class bandwidth, ``"1gpu-1sock-host"``), cluster
    nodes without one (``"3node-eth"``), or ``"0gpu"`` for none."""
    if not devices:
        return "0gpu"
    if machine is None:
        return f"{len(devices)}node-eth"
    peers = [machine.p2p_link(a, b) for a, b in combinations(devices, 2)]
    if not peers:
        fabric = "host"
    elif any(
        link.bandwidth_gbps * link.bandwidth_scale >= _NVLINK_GBPS
        for link in peers
    ):
        fabric = "nvlink"
    else:
        fabric = "pcie"
    sockets = len({machine.socket_of(d) for d in devices})
    return f"{len(devices)}gpu-{sockets}sock-{fabric}"


def _force_or_cheapest(
    forced: bool,
    candidates: Sequence[tuple[Collective | ClusterCollective, int]],
    price: Callable[[Collective | ClusterCollective, int], CostEstimate],
    label: str,
    participants: tuple[int, ...],
    uplinks: Sequence[Link],
    fabric: str,
    op: str,
) -> SyncPlan:
    """Resolve the cheapest feasible (collective, lanes) of *candidates*
    into a :class:`SyncPlan` and record it under the telemetry *label*.

    A forced plan's candidates are one collective's; it keeps its
    cheapest lane count, or its first candidate when none is feasible.
    Candidate order breaks ties: the collectives' order, then fewer
    lanes. Otherwise raises :class:`~repro.gpusim.errors.SyncPathError` —
    naming the first of *uplinks* (host links or NICs) that is down,
    else *fabric* — when no candidate is feasible.
    """
    chosen, lanes, estimate = None, 1, None
    for cand, n in candidates:
        est = price(cand, n)
        if est.feasible and (estimate is None or est.seconds < estimate.seconds):
            chosen, lanes, estimate = cand, n, est
    if chosen is None:
        if not forced:
            dead = min(
                (link.name for link in uplinks if not link.up), default=fabric
            )
            raise SyncPathError(dead, op, devices=participants)
        chosen, lanes = candidates[0]
        estimate = price(chosen, lanes)
    plan = SyncPlan(
        algorithm=chosen.name,
        collective=chosen,
        estimate=estimate,
        forced=forced,
        participants=participants,
        lanes=lanes,
    )
    emit_counter(
        "sync_planner_decisions_total", 1,
        help="sync collectives chosen by the planner (forced=manual --sync)",
        algorithm=plan.algorithm,
        topology=label,
        forced=str(forced).lower(),
        lanes=str(lanes),
    )
    if estimate.feasible:
        emit_gauge(
            "sync_planner_predicted_seconds", estimate.seconds,
            help="cost-model prediction for the chosen sync collective",
            algorithm=plan.algorithm,
            topology=label,
            lanes=str(lanes),
        )
    return plan


def plan_sync(
    machine: Machine,
    shape: tuple[int, int],
    config: KernelConfig,
    retry: TransferRetry | None = None,
    algorithm: str = AUTO,
    devices: list[int] | None = None,
) -> SyncPlan:
    """Resolve ``--sync`` *algorithm* for one machine's φ all-reduce
    (a cluster node runs none). *devices* defaults to the machine's
    alive-GPU set. Every candidate is priced from one replay key, as
    :meth:`~repro.comm.collectives.Collective.estimate` prices it.
    Raises :class:`~repro.gpusim.errors.SyncPathError` if no collective
    has a usable path, and ``ValueError`` for an unknown name.
    """
    key = _machine_key(machine, devices)
    participants, shape = key[3], tuple(shape)
    pool = collectives() if algorithm == AUTO else (get_collective(algorithm),)
    return _force_or_cheapest(
        algorithm != AUTO, [(c, n) for c in pool for n in c.lane_counts],
        lambda c, lanes: _replay(c, key, shape, config, retry, lanes),
        _label(participants, machine), participants,
        [machine.pcie[d] for d in participants], "p2p", "sync_plan",
    )


def plan_cluster_sync(
    network,
    payload: Mapping[int, WireDelta] | Sequence[WireDelta],
    algorithm: str = AUTO,
    nodes: list[int] | None = None,
    server=None,
) -> SyncPlan:
    """Resolve ``--inter-sync`` *algorithm* for the inter-node φ leg.

    A node the failure detector has declared dead takes part in no
    plan, so a plan can never route through one: *nodes* defaults to
    every detector-alive node, and dead nodes are filtered out of an
    explicit list too. *payload* holds each node's Δφ since the last
    sync, indexed by node id; the estimates read the participants'
    entries. *server* is the live parameter server, whose shard
    placement the estimates replay. Raises
    :class:`~repro.gpusim.errors.SyncPathError` when no backend has a
    usable path and ``ValueError`` for an unknown name.
    """
    key = _network_key(network)
    alive = tuple(network.alive_nodes)
    live = alive if nodes is None else tuple(n for n in nodes if n in alive)
    pending = [payload[n] for n in live]
    pool = (
        cluster_collectives() if algorithm == AUTO
        else (get_cluster_collective(algorithm),)
    )
    return _force_or_cheapest(
        algorithm != AUTO, [(c, 1) for c in pool],
        lambda c, _: _estimate(c, key, live, pending, server),
        _label(alive), live, [network.links[n] for n in alive], "eth",
        "cluster_sync_plan",
    )


def cluster_sync_choices() -> tuple[str, ...]:
    """Every valid ``--inter-sync`` value: ``auto`` plus the cluster
    backends, in tie-break order."""
    return (AUTO, *cluster_collective_names())


def sync_choices() -> tuple[str, ...]:
    """Every valid ``--sync`` value: ``auto`` plus the collectives, in
    tie-break order — the single source for CLI ``choices=``."""
    return (AUTO, *collective_names())


def decisions_from_registry(registry) -> list[dict[str, object]]:
    """Planner decisions recorded in *registry*, for profile output.

    Returns one dict per (algorithm, topology, forced, lanes) series of
    the ``sync_planner_decisions_total`` counter, with the matching
    predicted-seconds gauge folded in when present.
    """
    counter = registry.get("sync_planner_decisions_total")
    if counter is None:
        return []
    gauge = registry.get("sync_planner_predicted_seconds")

    def key(labels) -> tuple[str, str, str]:
        return labels["algorithm"], labels["topology"], labels["lanes"]

    # Read the recorded series, not Gauge.value: a one-node cluster
    # plan predicts 0.0 s, which value() also returns for a miss.
    predicted = {
        key(s.labels): s.value
        for s in (gauge.samples() if gauge is not None else ())
    }
    out: list[dict[str, object]] = []
    for sample in counter.samples():
        k = key(sample.labels)
        entry: dict[str, object] = {
            "algorithm": k[0],
            "topology": k[1],
            "forced": sample.labels["forced"] == "true",
            "count": int(sample.value),
            "lanes": int(k[2]),
        }
        if k in predicted:
            entry["predicted_seconds"] = predicted[k]
        out.append(entry)
    out.sort(key=lambda e: -e["count"])
    return out
