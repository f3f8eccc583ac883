"""Cluster network: a star of Ethernet links.

Each node has one full-duplex NIC into a non-blocking switch; a node's
ingress and egress serialize on its own link (that is the bottleneck
the paper's §3/§7.2 argument rests on: 10 Gb/s = 1.25 GB/s per node
versus 13 GB/s effective PCIe or 300 GB/s NVLink inside one box).

The network is also the cluster's fault domain: fault injection can
take a NIC out of service (``eth_link_down``), make it flaky or slow
(``eth_link_flaky`` / ``eth_link_degraded``), or kill a whole node
(``node_failure`` → :meth:`ClusterNetwork.fail_node`). :meth:`send`
respects that state — a message over a dead or flaky link raises the
same structured :class:`~repro.gpusim.errors.SyncPathError` family the
GPU collectives raise, naming the operation and both endpoint nodes,
instead of silently timing a transfer on a dead wire.
"""

from __future__ import annotations

from repro.gpusim.errors import LinkDown, SyncPathError
from repro.gpusim.interconnect import Link
from repro.telemetry.context import emit_counter

__all__ = ["ClusterNetwork"]

#: 10 Gb/s Ethernet in GB/s (the interconnect used by LDA*, §7.2).
TEN_GBE_GBPS = 1.25


class ClusterNetwork:
    """A star network of *num_nodes* nodes behind a non-blocking switch."""

    def __init__(
        self,
        num_nodes: int,
        link_gbps: float = TEN_GBE_GBPS,
        latency_seconds: float = 50e-6,
    ):
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes
        self.links = [
            Link(f"eth[{i}]", link_gbps, latency_seconds, duplex=True)
            for i in range(num_nodes)
        ]
        self._alive = [True] * num_nodes
        #: Every delivered message as ``(op, src, dst, nbytes, start,
        #: end)`` — the audit trail tests use to prove traffic never
        #: touches a dead node.
        self.messages: list[tuple[str, int, int, float, float, float]] = []

    # ------------------------------------------------------------------
    # Fault hooks (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def fail_node(self, node: int) -> None:
        """Kill *node* permanently: the machine is gone, its NIC with it."""
        self._check_node(node)
        self._alive[node] = False
        self.links[node].set_down(True)

    def node_alive(self, node: int) -> bool:
        """Has the node process itself survived? (A node with a downed
        NIC is alive but unreachable — indistinguishable from dead to
        the failure detector, but its state still exists.)"""
        self._check_node(node)
        return self._alive[node]

    def node_up(self, node: int) -> bool:
        """Is the node reachable right now (alive *and* NIC in service)?"""
        self._check_node(node)
        return self._alive[node] and self.links[node].up

    @property
    def alive_nodes(self) -> list[int]:
        return [n for n in range(self.num_nodes) if self._alive[n]]

    def find_link(self, name: str) -> Link:
        """Look an Ethernet link up by its label (``eth[2]``)."""
        for link in self.links:
            if link.name == name:
                return link
        raise KeyError(
            f"no cluster link named {name!r}; cluster has "
            f"{[link.name for link in self.links]}"
        )

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"node {node} out of range; cluster has nodes "
                f"0..{self.num_nodes - 1}"
            )

    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        nbytes: float,
        earliest: float,
        op: str = "cluster_send",
        retry=None,
    ) -> tuple[float, float]:
        """Time a message src → dst: serialized on the source's egress
        and the destination's ingress; the switch adds nothing.

        Returns the (start, end) interval of the transfer.

        A message over a dead or flaky link raises a structured
        :class:`~repro.gpusim.errors.SyncPathError` naming *op* and the
        ``(src, dst)`` endpoints. With a
        :class:`~repro.comm.TransferRetry` policy, transient failures
        are retried with exponential backoff charged to the simulated
        clock (there is no issuing stream in the cluster; the sender
        simply waits) before the error surfaces.
        """
        if src == dst:
            return earliest, earliest
        attempts = retry.max_retries + 1 if retry is not None else 1
        backoff = retry.backoff_seconds if retry is not None else 0.0
        for attempt in range(attempts):
            try:
                start, end = self._send_once(src, dst, nbytes, earliest)
                self.messages.append((op, src, dst, nbytes, start, end))
                return start, end
            except LinkDown as exc:
                if not exc.transient or attempt == attempts - 1:
                    raise SyncPathError(
                        exc.link_name, op, devices=(src, dst),
                        transient=exc.transient,
                    ) from exc
                emit_counter(
                    "cluster_transfer_retries_total", 1,
                    help="Ethernet transfers retried after a transient "
                         "failure.",
                    link=exc.link_name, op=op,
                )
                earliest += backoff
                backoff *= 2.0
        raise AssertionError("unreachable")  # pragma: no cover

    def _send_once(
        self, src: int, dst: int, nbytes: float, earliest: float
    ) -> tuple[float, float]:
        egress, ingress = self.links[src], self.links[dst]
        # Both NICs admit the message before either is held, so one the
        # receiver refuses costs the sender no time and moves no bytes.
        egress.admit()
        ingress.admit()
        s1, e1 = egress.reserve(nbytes, earliest, direction=0)
        s2, e2 = ingress.reserve(nbytes, s1, direction=1)
        return s1, max(e1, e2)

    def total_bytes(self) -> float:
        """Total bytes injected into the network (each message counted
        once per traversed link)."""
        return sum(l.bytes_carried for l in self.links)
