"""Declarative fault plans.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries,
each describing one fault to inject at a given training iteration (or,
for checkpoint faults, at the N-th checkpoint write). Plans are plain
data — JSON in, JSON out — so chaos scenarios live in version control
next to the experiments they harden:

.. code-block:: json

    {"faults": [
        {"kind": "link_flaky", "iteration": 2, "link": "p2p[0-1]", "count": 3},
        {"kind": "device_failure", "iteration": 5, "device": 1}
    ]}

Supported kinds (see ``docs/ROBUSTNESS.md`` for the full fault model):

- ``device_failure`` — GPU ``device`` is permanently lost at
  ``iteration``.
- ``link_down`` — ``link`` goes out of service at ``iteration``;
  optional ``until`` restores it at that iteration (exclusive).
- ``link_flaky`` — the next ``count`` transfer attempts on ``link``
  fail transiently (each failed attempt consumes one).
- ``link_degraded`` — ``link`` bandwidth is multiplied by ``scale``
  (< 1 slows it) at ``iteration``; optional ``until`` restores it.
- ``transfer_corruption`` — the next ``count`` transfers granted on
  ``link`` deliver silently corrupted payloads.
- ``kernel_fault`` — the next kernel of kind ``op`` (any kind when
  omitted) on ``device`` raises a detected fault at ``iteration``.
- ``checkpoint_truncation`` — the ``at_save``-th run-state checkpoint
  written (1-based) is truncated to half its size after the write,
  simulating a crash mid-``fsync``.

Cluster-level kinds (multi-node CuLDA's fault domain,
docs/ROBUSTNESS.md §8):

- ``node_failure`` — cluster ``node`` dies permanently at
  ``iteration`` (machine gone, NIC with it); detected by the heartbeat
  membership monitor.
- ``eth_link_down`` / ``eth_link_flaky`` / ``eth_link_degraded`` — the
  Ethernet NIC ``link`` (``eth[2]``) mirrors the GPU link fault family:
  out of service (optionally ``until``), next ``count`` transfers fail
  transiently, or bandwidth scaled by ``scale``.
- ``ps_shard_corruption`` — the primary φ shard copies homed on
  ``node`` are silently corrupted at ``iteration`` (detected by shard
  checksums on the next pull and repaired from the chained replica).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FAULT_KINDS",
    "CLUSTER_FAULT_KINDS",
    "GPU_FAULT_KINDS",
    "cluster_chaos_plan",
]

#: Kinds that target the simulated multi-GPU machine.
GPU_FAULT_KINDS = (
    "device_failure",
    "link_down",
    "link_flaky",
    "link_degraded",
    "transfer_corruption",
    "kernel_fault",
)

#: Kinds that target the simulated cluster (multi-node CuLDA).
CLUSTER_FAULT_KINDS = (
    "node_failure",
    "eth_link_down",
    "eth_link_flaky",
    "eth_link_degraded",
    "ps_shard_corruption",
)

FAULT_KINDS = GPU_FAULT_KINDS + CLUSTER_FAULT_KINDS + (
    "checkpoint_truncation",
)

#: Every field a fault entry may carry (validated in from_dict).
_FIELDS = frozenset(
    ("kind", "iteration", "device", "node", "link", "count", "until",
     "scale", "op", "at_save")
)

#: Which optional fields each kind requires (beyond kind itself).
_REQUIRED = {
    "device_failure": ("iteration", "device"),
    "link_down": ("iteration", "link"),
    "link_flaky": ("iteration", "link"),
    "link_degraded": ("iteration", "link", "scale"),
    "transfer_corruption": ("iteration", "link"),
    "kernel_fault": ("iteration", "device"),
    "checkpoint_truncation": ("at_save",),
    "node_failure": ("iteration", "node"),
    "eth_link_down": ("iteration", "link"),
    "eth_link_flaky": ("iteration", "link"),
    "eth_link_degraded": ("iteration", "link", "scale"),
    "ps_shard_corruption": ("iteration", "node"),
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject. Field applicability depends on ``kind``."""

    kind: str
    iteration: int | None = None     # trigger iteration (0-based)
    device: int | None = None        # GPU id (device faults)
    node: int | None = None          # cluster node id (cluster faults)
    link: str | None = None          # link label (link faults)
    count: int = 1                   # flaky / corruption repetitions
    until: int | None = None         # restore iteration (link outages)
    scale: float | None = None       # bandwidth multiplier (degradation)
    op: str | None = None            # kernel kind filter (kernel_fault)
    at_save: int | None = None       # 1-based checkpoint index

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        for name in _REQUIRED[self.kind]:
            if getattr(self, name) is None:
                raise ValueError(
                    f"fault kind {self.kind!r} requires field {name!r}"
                )
        if self.iteration is not None and self.iteration < 0:
            raise ValueError("iteration must be >= 0")
        if self.node is not None and self.node < 0:
            raise ValueError("node must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.until is not None:
            if self.iteration is None or self.until <= self.iteration:
                raise ValueError("until must be greater than iteration")
        if self.scale is not None and self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.at_save is not None and self.at_save < 1:
            raise ValueError("at_save is 1-based and must be >= 1")

    @property
    def domain(self) -> str:
        """What this fault targets: ``"gpu"`` (the simulated machine),
        ``"cluster"`` (the Ethernet cluster), or ``"checkpoint"``."""
        if self.kind in CLUSTER_FAULT_KINDS:
            return "cluster"
        if self.kind in GPU_FAULT_KINDS:
            return "gpu"
        return "checkpoint"

    def to_dict(self) -> dict:
        """JSON-ready dict with defaulted/None fields dropped."""
        out = {"kind": self.kind}
        for key, value in asdict(self).items():
            if key == "kind" or value is None:
                continue
            if key == "count" and value == 1:
                continue
            out[key] = value
        return out


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of faults for one training run."""

    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    @property
    def needs_machine(self) -> bool:
        """True when any fault targets the simulated GPU machine."""
        return any(f.domain == "gpu" for f in self.faults)

    @property
    def needs_cluster(self) -> bool:
        """True when any fault targets the simulated cluster."""
        return any(f.domain == "cluster" for f in self.faults)

    # -- serialization -------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Parse a plan dict, naming the offending entry and field.

        Every rejection says *which* fault entry (``fault #i``) and
        *which* field is wrong — a chaos plan that silently drops or
        misreads an entry tests nothing.
        """
        if not isinstance(data, dict) or "faults" not in data:
            raise ValueError('fault plan must be an object {"faults": [...]}')
        faults = data["faults"]
        if not isinstance(faults, list):
            raise ValueError(
                f"'faults' must be a list, got {type(faults).__name__}"
            )
        specs = []
        for i, entry in enumerate(faults):
            if not isinstance(entry, dict):
                raise ValueError(
                    f"fault #{i} must be an object, "
                    f"got {type(entry).__name__}"
                )
            if "kind" not in entry:
                raise ValueError(f"fault #{i} is missing the 'kind' field")
            kind = entry["kind"]
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"fault #{i}: unknown fault kind {kind!r}; "
                    f"choose from {FAULT_KINDS}"
                )
            unknown = sorted(set(entry) - _FIELDS)
            if unknown:
                raise ValueError(
                    f"fault #{i} ({kind}): unknown field(s) "
                    f"{', '.join(repr(u) for u in unknown)}; "
                    f"allowed fields are {tuple(sorted(_FIELDS))}"
                )
            missing = [
                name for name in _REQUIRED[kind] if entry.get(name) is None
            ]
            if missing:
                raise ValueError(
                    f"fault #{i} ({kind}): missing required field(s) "
                    f"{', '.join(repr(m) for m in missing)}"
                )
            try:
                specs.append(FaultSpec(**entry))
            except ValueError as exc:
                raise ValueError(f"fault #{i} ({kind}): {exc}") from exc
        return cls(faults=tuple(specs))

    def to_dict(self) -> dict:
        return {"faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_json(cls, path: str | Path) -> "FaultPlan":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan {path} is not valid JSON: {exc}") from exc
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"fault plan {path}: {exc}") from exc

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def cluster_chaos_plan(num_nodes: int = 4) -> FaultPlan:
    """The default cluster chaos plan (docs/ROBUSTNESS.md §8).

    One node death plus one Ethernet flap on a *num_nodes*-node
    multi-node CuLDA run: node ``num_nodes − 2`` dies permanently at
    iteration 2, and node 0's NIC drops its next three transfer
    attempts at iteration 4. Node 0 must survive the death for the
    flap to land, so the plan needs at least 3 nodes. Under
    ``--recovery elastic`` the run must complete with a final φ
    bit-identical to the fault-free run; under ``--recovery none`` it
    must fail with a structured :class:`TrainingFailure` naming the
    dead node and the membership timeline.
    """
    if num_nodes < 3:
        raise ValueError("the cluster chaos plan needs at least 3 nodes")
    return FaultPlan(faults=(
        FaultSpec(kind="node_failure", iteration=2, node=num_nodes - 2),
        FaultSpec(kind="eth_link_flaky", iteration=4, link="eth[0]", count=3),
    ))
