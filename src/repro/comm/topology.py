"""Topology descriptors: what the sync planner knows about the wires.

A :class:`Topology` is an immutable snapshot of the communication
fabric between a set of devices, derived from a
:class:`~repro.gpusim.platform.Machine` (or a
:class:`~repro.cluster.network.ClusterNetwork`): which devices exist,
how they group into sockets (root complexes), and the effective
bandwidth / latency / health of every host uplink and peer link.

The planner (:mod:`repro.comm.planner`) consumes only this snapshot —
never the machine directly — so cost estimates see exactly what a real
collective would: a degraded link shows its scaled bandwidth, a link
taken down by fault injection shows ``up=False``, and a dead GPU is
simply absent from ``devices`` (the elastic G−1 path). Transient
faults (``fail_next``) are deliberately *invisible* here: they are a
runtime-retry concern, not a planning concern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.interconnect import Link
from repro.gpusim.platform import Machine

__all__ = ["LinkInfo", "Topology", "NVLINK_CLASS_GBPS"]

#: Effective GB/s above which a peer link is classified as NVLink-class
#: fabric (PCIe switch/bridge paths top out far below this).
NVLINK_CLASS_GBPS = 50.0


@dataclass(frozen=True)
class LinkInfo:
    """One link as the planner sees it.

    ``kind`` is one of ``"host"`` (PCIe uplink to the root complex),
    ``"p2p_switch"`` (peer pair under one PCIe switch / socket),
    ``"p2p_bridge"`` (peer pair across the inter-socket bridge),
    ``"nvlink"`` (NVLink-class peer fabric), or ``"eth"`` (cluster
    Ethernet). ``bandwidth_gbps`` is the *effective* rate — degradation
    scaling is already applied.
    """

    name: str
    kind: str
    bandwidth_gbps: float
    latency_seconds: float
    up: bool


def _info(link: Link, kind: str) -> LinkInfo:
    return LinkInfo(
        name=link.name,
        kind=kind,
        bandwidth_gbps=link.bandwidth_gbps * link.bandwidth_scale,
        latency_seconds=link.latency_seconds,
        up=link.up,
    )


@dataclass(frozen=True)
class Topology:
    """Immutable fabric snapshot for one set of devices.

    Attributes
    ----------
    devices: the participating device ids, in position order.
    sockets: devices grouped by root complex, one tuple per socket
        (ascending socket id; the hierarchical collective's grouping).
    host: device id → its host-uplink :class:`LinkInfo`.
    p2p: ``(min_id, max_id)`` → the peer link between that pair
        (empty for cluster topologies, where all traffic is host/eth).
    """

    devices: tuple[int, ...]
    sockets: tuple[tuple[int, ...], ...]
    host: dict[int, LinkInfo] = field(default_factory=dict)
    p2p: dict[tuple[int, int], LinkInfo] = field(default_factory=dict)

    @classmethod
    def from_machine(
        cls, machine: Machine, devices: list[int] | None = None
    ) -> "Topology":
        """Snapshot *machine*'s fabric for *devices* (default: the
        alive-GPU set, which is what an elastic G−1 run syncs over)."""
        devs = (
            tuple(int(d) for d in devices)
            if devices is not None
            else tuple(g.device_id for g in machine.alive_gpus)
        )
        by_socket: dict[int, list[int]] = {}
        for d in devs:
            by_socket.setdefault(machine.socket_of(d), []).append(d)
        sockets = tuple(tuple(by_socket[s]) for s in sorted(by_socket))
        host = {d: _info(machine.pcie[d], "host") for d in devs}
        p2p: dict[tuple[int, int], LinkInfo] = {}
        for a in devs:
            for b in devs:
                if a >= b:
                    continue
                link = machine.p2p_link(a, b)
                effective = link.bandwidth_gbps * link.bandwidth_scale
                if effective >= NVLINK_CLASS_GBPS:
                    kind = "nvlink"
                elif machine.socket_of(a) == machine.socket_of(b):
                    kind = "p2p_switch"
                else:
                    kind = "p2p_bridge"
                p2p[(a, b)] = _info(link, kind)
        return cls(devices=devs, sockets=sockets, host=host, p2p=p2p)

    @classmethod
    def from_cluster(cls, network) -> "Topology":
        """Snapshot a :class:`~repro.cluster.network.ClusterNetwork`:
        every node is its own socket and all traffic rides its eth
        uplink — there are no peer links. Nodes killed by fault
        injection (``node_failure``) are excluded — a sync plan must
        never route through a dead node."""
        devs = tuple(
            d for d in range(network.num_nodes) if network.node_alive(d)
        )
        return cls(
            devices=devs,
            sockets=tuple((d,) for d in devs),
            host={d: _info(network.links[d], "eth") for d in devs},
            p2p={},
        )

    # ------------------------------------------------------------------
    def p2p_info(self, a: int, b: int) -> LinkInfo:
        """The peer link between devices *a* and *b*."""
        if a == b:
            raise ValueError("no p2p link from a device to itself")
        return self.p2p[(min(a, b), max(a, b))]

    @property
    def num_sockets(self) -> int:
        return len(self.sockets)

    @property
    def has_nvlink(self) -> bool:
        return any(info.kind == "nvlink" for info in self.p2p.values())

    def describe(self) -> str:
        """Compact label for telemetry: ``"4gpu-2sock-pcie"`` etc., or
        ``"2node-eth"`` for a cluster snapshot."""
        if not self.devices:
            return "0gpu"
        if self.p2p:
            fabric = "nvlink" if self.has_nvlink else "pcie"
        else:
            fabric = next(iter(self.host.values())).kind if self.host else "?"
        if fabric == "eth":
            return f"{len(self.devices)}node-eth"
        return f"{len(self.devices)}gpu-{self.num_sockets}sock-{fabric}"
