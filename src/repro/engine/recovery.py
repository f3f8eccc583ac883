"""Recovery policies: what the training loop does when hardware lies.

Three escalating responses to a fault raised (or detected) during an
iteration, selected by :attr:`RecoveryPolicy.mode`:

- ``"none"`` — seed behaviour. Any :class:`~repro.gpusim.errors.FaultError`
  escapes the loop wrapped in a structured :class:`TrainingFailure`; no
  validation, no snapshots.
- ``"retry"`` — transient link faults are retried with exponential
  backoff inside the sync algorithms (see
  :class:`~repro.comm.TransferRetry`); after every iteration the
  sampler state is validated (:func:`validate_state`) and, on a
  violation or a detected kernel/link fault, rolled back to the last
  known-good in-memory snapshot and re-run — up to
  :attr:`RecoveryPolicy.max_rollbacks` times. Permanent device loss is
  fatal.
- ``"elastic"`` — everything ``"retry"`` does, plus permanent device
  loss triggers an elastic re-partition: the algorithm rebuilds its
  work assignment over the surviving GPUs from the last known-good
  state and the run continues (CuLDA implements
  :meth:`~repro.engine.algorithm.Algorithm.handle_device_loss`).

One policy type serves one machine and a cluster alike. On a
multi-node :class:`~repro.core.distributed.DistributedCuLDA` run the
transfer-retry budget also covers Ethernet sends, a dead node is a
:class:`~repro.gpusim.errors.NodeLost` (a ``DeviceLost``), and the
heartbeat thresholds that turn node silence into that verdict are
:class:`~repro.cluster.membership.HeartbeatConfig`'s defaults.

The invariants checked by :func:`validate_state` are the cheap global
ones LDA gives us for free: φ counts are non-negative and finite, and
Σφ over all topics and words equals the corpus token count — every
token is assigned exactly one topic, so any silent corruption of counts
breaks conservation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.state import RunState, freeze_rng_state, thaw_rng_state

__all__ = [
    "RecoveryPolicy",
    "TrainingFailure",
    "validate_state",
    "snapshot_run_state",
]


class TrainingFailure(RuntimeError):
    """A training run died in a structured, diagnosable way.

    Attributes
    ----------
    iteration: the iteration being executed (or validated) when the run
        failed.
    phase: ``"iteration"``, ``"validation"``, or ``"recovery"``.
    cause: the underlying exception (also the ``__cause__``), or None
        for validation failures.
    violations: invariant violations found by :func:`validate_state`.
    fault_events: the injector's event log up to the failure (empty when
        no fault plan was active).
    membership_events: the cluster membership timeline
        (``(sim_time, node, from_state, to_state)`` tuples) up to the
        failure — empty for single-node runs. When a distributed run
        dies this answers "which node, and when did the detector know".
    """

    def __init__(
        self,
        message: str,
        *,
        iteration: int,
        phase: str,
        cause: BaseException | None = None,
        violations: tuple[str, ...] = (),
        fault_events: tuple[dict, ...] = (),
        membership_events: tuple[tuple, ...] = (),
    ):
        super().__init__(message)
        self.iteration = iteration
        self.phase = phase
        self.cause = cause
        self.violations = tuple(violations)
        self.fault_events = tuple(fault_events)
        self.membership_events = tuple(
            tuple(event) for event in membership_events
        )


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the loop reacts to faults. See the module docstring."""

    mode: str = "none"
    #: Transient-transfer retry budget per copy (modes retry/elastic).
    max_transfer_retries: int = 3
    #: Initial backoff charged before the first retry; doubles each time.
    backoff_seconds: float = 1e-4
    #: Rollback-and-rerun budget for the whole run.
    max_rollbacks: int = 3
    #: Validate invariants every N iterations (0 disables validation).
    validate_every: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("none", "retry", "elastic"):
            raise ValueError(
                f"unknown recovery mode {self.mode!r}; "
                "choose none, retry, or elastic"
            )
        if self.max_transfer_retries < 0:
            raise ValueError("max_transfer_retries must be >= 0")
        if self.backoff_seconds <= 0:
            raise ValueError("backoff_seconds must be positive")
        if self.max_rollbacks < 0:
            raise ValueError("max_rollbacks must be >= 0")
        if self.validate_every < 0:
            raise ValueError("validate_every must be >= 0")

    @property
    def active(self) -> bool:
        return self.mode != "none"

    def transfer_retry(self):
        """The :class:`~repro.comm.TransferRetry` to hand to the
        sync layer, or None for mode ``"none"``."""
        if not self.active:
            return None
        from repro.comm import TransferRetry

        return TransferRetry(
            max_retries=self.max_transfer_retries,
            backoff_seconds=self.backoff_seconds,
        )


def validate_state(state: RunState, num_tokens: int) -> list[str]:
    """Cheap post-iteration invariant checks; returns violations found.

    ``state.phi`` must be freshly captured (see
    :meth:`Algorithm.capture_state`). An empty list means the state
    passed every check.
    """
    violations: list[str] = []
    phi = state.phi
    if phi is not None:
        as_signed = phi.astype(np.int64, copy=False)
        if not np.isfinite(phi.astype(np.float64, copy=False)).all():
            violations.append("phi contains non-finite values")
        if (as_signed < 0).any():
            violations.append("phi contains negative counts")
        total = int(as_signed.sum())
        if total != num_tokens:
            violations.append(
                "phi count conservation violated: "
                f"sum(phi) = {total} but corpus has {num_tokens} tokens"
            )
    for stats in state.history:
        ll = stats.log_likelihood_per_token
        if ll is not None and not np.isfinite(ll):
            violations.append(
                f"non-finite log-likelihood at iteration {stats.iteration}"
            )
            break
    return violations


def snapshot_run_state(state: RunState) -> RunState:
    """Deep-copy *state* so a later rollback can restore it exactly.

    RNGs round-trip through their serialized bit-generator state (the
    same mechanism checkpoints use), so a rolled-back rerun replays the
    identical random stream — rollback is bit-identical, not merely
    statistically equivalent.
    """
    thetas = None
    if state.thetas is not None:
        thetas = [
            None if th is None else type(th)(
                th.indptr.copy(), th.indices.copy(), th.data.copy(),
                th.num_topics,
            )
            for th in state.thetas
        ]
    return RunState(
        algo=state.algo,
        iteration=state.iteration,
        sim_seconds=state.sim_seconds,
        history=list(state.history),
        phi=None if state.phi is None else state.phi.copy(),
        topics=[z.copy() for z in state.topics],
        thetas=thetas,
        rngs=[thaw_rng_state(freeze_rng_state(r)) for r in state.rngs],
        extras={k: np.copy(v) for k, v in state.extras.items()},
        sim_mark=state.sim_mark,
    )
