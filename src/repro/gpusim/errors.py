"""Simulated-hardware fault exceptions.

The fault-injection subsystem (:mod:`repro.faults`) flips fault state on
:class:`~repro.gpusim.device.Device` and
:class:`~repro.gpusim.interconnect.Link` objects; the simulator raises
these exceptions at the same points real CUDA surfaces the corresponding
errors — a kernel launch on a lost device, a peer copy over a dead link.
The recovery layer in :mod:`repro.engine.recovery` catches them and
reacts per the run's :class:`~repro.engine.recovery.RecoveryPolicy`.

These classes live in ``gpusim`` (not ``repro.faults``) because the
hardware model must be able to raise them without importing the
fault-plan machinery layered on top of it.
"""

from __future__ import annotations

__all__ = [
    "FaultError",
    "DeviceLost",
    "NodeLost",
    "LinkDown",
    "SyncPathError",
    "KernelFault",
]


class FaultError(RuntimeError):
    """Base class for simulated hardware faults."""


class DeviceLost(FaultError):
    """An operation touched a device that has failed (permanent loss)."""

    #: Human name of the failed unit ("GPU" here, "node" for NodeLost);
    #: recovery messages use it so a cluster failure never reads "GPU 2".
    unit = "GPU"

    def __init__(self, device_id: int, message: str | None = None):
        self.device_id = int(device_id)
        super().__init__(
            message or f"device {device_id} is lost (simulated failure)"
        )


class NodeLost(DeviceLost):
    """A cluster node was declared dead by the membership failure
    detector (heartbeat lease expired — see
    :mod:`repro.cluster.membership`).

    Subclasses :class:`DeviceLost` because a node is the cluster's unit
    of permanent loss exactly as a GPU is the machine's: the engine's
    elastic-recovery path (snapshot restore + re-partition over the
    survivors) handles both through the same
    :meth:`~repro.engine.algorithm.Algorithm.handle_device_loss` hook.
    """

    unit = "node"

    def __init__(self, node_id: int, message: str | None = None):
        super().__init__(
            node_id,
            message or f"node {node_id} is lost (heartbeat lease expired)",
        )
        self.node_id = int(node_id)


class LinkDown(FaultError):
    """A transfer was attempted over a failed link.

    ``transient=True`` marks a flaky-link fault (the link recovers on a
    later attempt); ``False`` marks an outage that persists until the
    fault plan restores the link.
    """

    def __init__(
        self,
        link_name: str,
        message: str | None = None,
        transient: bool = False,
    ):
        self.link_name = str(link_name)
        self.transient = bool(transient)
        kind = "transient failure on" if transient else "down:"
        super().__init__(message or f"link {kind} {link_name} (simulated)")


class SyncPathError(LinkDown):
    """A collective operation found no usable path for a transfer.

    Raised by the communication layer (:mod:`repro.comm`) when a
    transfer exhausts its retry budget — or has none — on a down link,
    so every collective (tree, ring, cpu_gather, hierarchical) surfaces
    the *same* structured error naming the dead link, the operation,
    and the endpoint devices, instead of a bare mid-transfer
    :class:`LinkDown` whose context depends on the algorithm.

    Subclasses :class:`LinkDown` so existing handlers (recovery
    policies, fault tests) keep working unchanged. With
    ``transient=True`` the link is up but failed every attempt the
    retry budget allowed, and the message says so.
    """

    def __init__(
        self,
        link_name: str,
        op: str,
        devices: tuple[int, ...] = (),
        transient: bool = False,
        message: str | None = None,
    ):
        self.op = str(op)
        self.devices = tuple(int(d) for d in devices)
        if len(self.devices) >= 2:
            where = " between devices " + "->".join(
                str(d) for d in self.devices
            )
        elif self.devices:
            where = f" on device {self.devices[0]}"
        else:
            where = ""
        state = (
            "kept failing (transient faults, simulated)" if transient
            else "is down (simulated)"
        )
        super().__init__(
            link_name,
            message
            or f"no usable path for {self.op}{where}: link {link_name} {state}",
            transient=transient,
        )


class KernelFault(FaultError):
    """A kernel launch failed (simulated NaN / sticky ECC error).

    The device survives; the iteration's outputs are unusable and must
    be rolled back.
    """

    def __init__(self, device_id: int, label: str, message: str | None = None):
        self.device_id = int(device_id)
        self.label = str(label)
        super().__init__(
            message
            or f"kernel {label!r} faulted on device {device_id} (simulated)"
        )
