"""Replica scheduling: health-aware least-loaded routing with failover.

The scheduler owns one :class:`~repro.serve.replica.PhiReplica` per
*active* simulated GPU (trailing GPUs may be held back as **warm
spares**). Each batch is routed to the *least-loaded* routable replica
— the one whose serve stream drains earliest — with residency as the
tie-breaker (a replica that already holds the batch's φ skips the
broadcast upload).

Routing consults the :class:`~repro.serve.resilience.HealthMonitor`
when one is attached: replicas whose circuit breaker is open are
ejected from the candidate set until their cooldown half-opens them,
and replicas marked ``dead`` — by a
:class:`~repro.gpusim.errors.DeviceLost` or by exhausting the breaker's
fault budget — are **never selected again** (a permanent ``dead_replicas``
set, not a per-request skip). When a replica dies and a warm spare
remains, the spare is activated in its place (``respawning``) and φ is
re-broadcast to it over its PCIe uplink, a copy that retries a
transient failure with exponential backoff under the scheduler's
:class:`~repro.comm.TransferRetry`.

Failover semantics are unchanged from PR 4: a dispatch that raises a
:class:`~repro.gpusim.errors.FaultError` moves the batch to the next
candidate (activating a spare if the fault was fatal). Because each
request's fold-in is a pure function of ``(docs, φ, seed, iterations)``,
a failed-over or hedged batch returns exactly the bytes the original
replica would have — only its completion time changes. When every
candidate is exhausted the batch fails with a
:class:`~repro.serve.request.ServeError` naming the last fault.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.kernels import KernelConfig
from repro.core.model import LDAHyperParams
from repro.gpusim.errors import DeviceLost, FaultError
from repro.gpusim.platform import Machine
from repro.serve.replica import BatchExecution, PhiReplica
from repro.serve.request import InferenceRequest, ServeError
from repro.telemetry.context import emit_counter

__all__ = ["DispatchOutcome", "ReplicaScheduler"]


@dataclass
class DispatchOutcome:
    """One batch's execution plus the failover path it took."""

    execution: BatchExecution
    failovers: int
    phi_uploaded: bool


class ReplicaScheduler:
    """Places φ replicas on the machine's GPUs and routes batches.

    Parameters
    ----------
    machine: the simulated host+GPUs.
    num_replicas: active replicas (defaults to every GPU); the
        remaining GPUs are warm spares, activated when a replica dies.
    health: the :class:`~repro.serve.resilience.HealthMonitor`
        consulted for routing and notified of dispatch outcomes.
    upload_retry: the :class:`~repro.comm.TransferRetry` applied to φ
        broadcasts (respawn re-broadcast and ordinary residency misses
        alike).
    """

    def __init__(
        self,
        machine: Machine,
        num_replicas: int | None = None,
        *,
        health,
        upload_retry,
    ):
        if not machine.gpus:
            raise ValueError("machine has no GPUs to host replicas")
        total = len(machine.gpus)
        n = total if num_replicas is None else num_replicas
        if not 1 <= n <= total:
            raise ValueError(
                f"num_replicas must be in [1, {total}], got {n}"
            )
        self.machine = machine
        self.replicas = [PhiReplica(gpu) for gpu in machine.gpus[:n]]
        self._spares = list(machine.gpus[n:])
        self.health = health
        self.upload_retry = upload_retry
        #: Replica ids that must never be routed to again (DeviceLost or
        #: breaker exhaustion). Permanent for the scheduler's lifetime.
        self.dead_replicas: set[int] = set()
        self.respawns = 0
        for replica in self.replicas:
            health.register(replica.replica_id)

    # ------------------------------------------------------------------
    @property
    def alive_replicas(self) -> list[PhiReplica]:
        return [
            r for r in self.replicas
            if r.alive and r.replica_id not in self.dead_replicas
        ]

    @property
    def spare_count(self) -> int:
        return sum(1 for d in self._spares if d.alive)

    def routable_replicas(self, now: float = 0.0) -> list[PhiReplica]:
        """Alive replicas whose breaker admits traffic at *now*."""
        return [
            r for r in self.alive_replicas
            if self.health.routable(r.replica_id, now)
        ]

    def candidates(
        self,
        digest: str,
        now: float = 0.0,
        prefer: set[int] | None = None,
    ) -> list[PhiReplica]:
        """Routable replicas, least-loaded first; residency breaks ties.

        *prefer* (rollout affinity) outranks load so a replica that has
        been promoted to a model version keeps serving it. If every
        alive replica is breaker-ejected, routing falls back to the
        alive set — serving on a suspect replica beats failing the
        batch, and the attempt doubles as the breaker's trial.
        """
        pool = self.routable_replicas(now) or self.alive_replicas
        return sorted(
            pool,
            key=lambda r: (
                0 if prefer and r.replica_id in prefer else 1,
                r.busy_until(),
                not r.has_model(digest),
                r.replica_id,
            ),
        )

    # ------------------------------------------------------------------
    def _note_fault(self, replica: PhiReplica, exc: FaultError,
                    now: float) -> None:
        if isinstance(exc, DeviceLost):
            # Drop bookkeeping for the dead device; its memory is gone
            # with it — and never route here again.
            replica.forget_models()
            self.dead_replicas.add(replica.replica_id)
            self.health.mark_dead(replica.replica_id, now)
            return
        state = self.health.on_fault(replica.replica_id, exc, now)
        if state == "dead":
            self.dead_replicas.add(replica.replica_id)

    def _note_success(self, replica: PhiReplica, now: float) -> None:
        self.health.on_success(replica.replica_id, now)

    def reap(self, now: float) -> None:
        """Notice replicas whose device died *outside* a dispatch.

        A fault plan can kill a GPU between batches; no dispatch ever
        faults on it, so without this sweep the corpse would be
        silently skipped instead of marked dead (and its warm-spare
        replacement would never spawn).
        """
        for replica in self.replicas:
            if replica.alive or replica.replica_id in self.dead_replicas:
                continue
            replica.forget_models()
            self.dead_replicas.add(replica.replica_id)
            self.health.mark_dead(replica.replica_id, now)
            self.activate_spare(now)

    def activate_spare(self, now: float) -> PhiReplica | None:
        """Respawn a dead replica slot onto the next alive warm spare."""
        while self._spares:
            device = self._spares.pop(0)
            if not device.alive:
                continue
            replica = PhiReplica(device)
            self.replicas.append(replica)
            self.respawns += 1
            self.health.mark_respawning(replica.replica_id, now)
            emit_counter(
                "serve_respawns_total", 1,
                help="Warm spares activated after a replica death.",
                replica=replica.replica_id,
            )
            return replica
        return None

    # ------------------------------------------------------------------
    def dispatch(
        self,
        batch: list[InferenceRequest],
        digest: str,
        phi: np.ndarray,
        hyper: LDAHyperParams,
        default_iterations: int,
        config: KernelConfig,
        now: float,
        batch_id: int,
        prefer: set[int] | None = None,
    ) -> DispatchOutcome:
        """Execute *batch* on the best replica, failing over on faults.

        Failover tries every alive replica at most once — including
        replicas whose breaker opened *during* this dispatch (serving
        on a suspect replica beats failing the batch) — and activates a
        warm spare when a replica dies with none left to try.
        """
        failovers = 0
        last_fault: FaultError | None = None
        tried: set[int] = set()
        self.reap(now)
        queue = deque(self.candidates(digest, now, prefer))
        while True:
            while queue:
                replica = queue.popleft()
                if (
                    replica.replica_id in tried
                    or not replica.alive
                    or replica.replica_id in self.dead_replicas
                ):
                    continue
                tried.add(replica.replica_id)
                try:
                    uploaded = replica.ensure_model(digest, phi, self.upload_retry)
                    execution = replica.execute(
                        batch, phi, hyper, default_iterations, config,
                        not_before=now, batch_id=batch_id, digest=digest,
                    )
                except FaultError as exc:
                    last_fault = exc
                    failovers += 1
                    self._note_fault(replica, exc, now)
                    if replica.replica_id in self.dead_replicas:
                        spare = self.activate_spare(now)
                        if spare is not None:
                            queue.append(spare)
                    continue
                self._note_success(replica, now)
                return DispatchOutcome(
                    execution=execution,
                    failovers=failovers,
                    phi_uploaded=uploaded,
                )
            fallback = [
                r for r in self.alive_replicas if r.replica_id not in tried
            ]
            if not fallback:
                spare = self.activate_spare(now)
                if spare is None:
                    break
                fallback = [spare]
            queue.extend(sorted(
                fallback,
                key=lambda r: (
                    r.busy_until(), not r.has_model(digest), r.replica_id
                ),
            ))
        raise ServeError(
            f"batch {batch_id} ({len(batch)} request(s)) could not be "
            f"served: no routable replica succeeded"
            + (f"; last fault: {last_fault}" if last_fault else "")
        )

    # ------------------------------------------------------------------
    def hedge_candidate(
        self, digest: str, exclude: int, now: float,
        prefer: set[int] | None = None,
    ) -> PhiReplica | None:
        """The next-best replica for a speculative duplicate, or None."""
        for replica in self.candidates(digest, now, prefer):
            if replica.replica_id != exclude:
                return replica
        return None

    def hedge_dispatch(
        self,
        replica: PhiReplica,
        batch: list[InferenceRequest],
        digest: str,
        phi: np.ndarray,
        hyper: LDAHyperParams,
        default_iterations: int,
        config: KernelConfig,
        not_before: float,
        batch_id: int,
    ) -> tuple[BatchExecution, bool]:
        """Run the hedged duplicate of *batch* on *replica*.

        Faults propagate to the caller (the primary execution already
        holds the batch's payload, so a failed hedge is just noted
        against the replica's health and abandoned).
        """
        try:
            uploaded = replica.ensure_model(digest, phi, self.upload_retry)
            execution = replica.execute(
                batch, phi, hyper, default_iterations, config,
                not_before=not_before, batch_id=batch_id, digest=digest,
            )
        except FaultError as exc:
            self._note_fault(replica, exc, not_before)
            raise
        self._note_success(replica, not_before)
        return execution, uploaded

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        alive = len(self.alive_replicas)
        return (
            f"ReplicaScheduler(replicas={len(self.replicas)}, "
            f"alive={alive}, spares={self.spare_count}, "
            f"dead={sorted(self.dead_replicas)})"
        )
