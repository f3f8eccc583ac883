"""The Algorithm strategy surface the TrainingLoop drives.

A trainer subclasses :class:`Algorithm` and implements the sampling
strategy; the engine owns iteration control. The contract, in loop
order:

1. ``init_state(resume)`` — build (or restore) all sampler state and
   return the run's :class:`~repro.engine.state.RunState`.
2. ``start_event(state)`` — extra fields for the ``on_train_start``
   callback payload (machine name, chunking plan, ...).
3. ``run_iteration(state)`` — one full pass (sample → update → sync);
   returns an :class:`IterationOutcome` with timing and event extras.
4. ``log_likelihood(state)`` — joint log-likelihood per token of the
   current model (analysis-only; called on the evaluation cadence).
5. ``capture_state(state)`` — refresh ``state``'s φ/z/θ/RNG references
   from the live internals (called before checkpoints and finalize).
6. ``finalize(state, wall_seconds)`` — collect the model and build the
   :class:`~repro.engine.results.TrainResult`.
7. ``end_event(state, result)`` — extra fields for ``on_train_end``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.hooks import TelemetryMixin
from repro.engine.results import TrainResult
from repro.engine.state import RunState

__all__ = ["Algorithm", "IterationOutcome"]


@dataclass
class IterationOutcome:
    """What one ``run_iteration`` call reports back to the loop.

    ``sim_seconds=None`` marks an untimed algorithm (SCVB0 has no cost
    model): the loop then omits timing from the iteration event.
    ``sync_event`` triggers an ``on_sync_end`` callback when not None.
    ``stats`` feeds extra :class:`IterationStats` fields; ``event``
    extends the ``on_iteration_end`` payload.
    """

    sim_seconds: float | None = None
    tokens_per_sec: float | None = None
    stats: dict = field(default_factory=dict)
    sync_event: dict | None = None
    event: dict = field(default_factory=dict)


class Algorithm(TelemetryMixin):
    """Base class for every trainer the engine can drive.

    Subclasses must set :attr:`name` (the strategy id used for span
    labels, checkpoints and ``--algo``) and provide ``self.corpus`` and
    ``self.hyper`` (attribute or property) before the loop runs.
    """

    #: Strategy id; also the ``algo`` recorded in checkpoints/results.
    name: str = "algorithm"

    #: Iterations :meth:`train` runs when the caller names none.
    default_iterations: int = 1

    #: Set by the TrainingLoop before ``init_state`` when a recovery
    #: policy is active; algorithms that support fault tolerance read
    #: their transfer-retry settings from it.
    recovery_policy = None

    def train(
        self,
        iterations: int | None = None,
        likelihood_every: int = 0,
        callbacks=None,
        *,
        save_every: int = 0,
        checkpoint_path=None,
        resume=None,
        vocabulary=None,
    ) -> TrainResult:
        """Run the engine's :class:`~repro.engine.loop.TrainingLoop` over
        this algorithm (``default_iterations`` passes unless told)."""
        from repro.engine.loop import LoopConfig, TrainingLoop

        return TrainingLoop(
            self,
            LoopConfig(
                iterations=(
                    self.default_iterations if iterations is None else iterations
                ),
                likelihood_every=likelihood_every,
                save_every=save_every,
                checkpoint_path=checkpoint_path,
                vocabulary=vocabulary,
            ),
            callbacks=callbacks,
            resume=resume,
        ).run()

    # -- strategy surface ----------------------------------------------
    def init_state(self, resume: RunState | None = None) -> RunState:
        raise NotImplementedError

    def start_event(self, state: RunState) -> dict:
        return {}

    def run_iteration(self, state: RunState) -> IterationOutcome:
        raise NotImplementedError

    def log_likelihood(self, state: RunState) -> float:
        raise NotImplementedError

    def capture_state(self, state: RunState) -> None:
        pass

    def finalize(self, state: RunState, wall_seconds: float) -> TrainResult:
        raise NotImplementedError

    def end_event(self, state: RunState, result: TrainResult) -> dict:
        return {}

    # -- recovery surface (optional; see repro.engine.recovery) --------
    def check_invariants(self, state: RunState) -> list[str]:
        """Algorithm-specific invariant checks run alongside the
        engine's :func:`~repro.engine.recovery.validate_state` when a
        recovery policy is active. Returns violation strings."""
        return []

    def rollback(self, state: RunState) -> None:
        """Reinstall the sampler internals from a restored *state* after
        a detected fault (same shard layout). Algorithms that cannot
        roll back leave the default, which the loop converts into a
        :class:`~repro.engine.recovery.TrainingFailure`."""
        raise NotImplementedError(
            f"algorithm {self.name!r} does not support rollback"
        )

    def handle_device_loss(self, state: RunState) -> None:
        """Re-partition the restored *state* over the surviving devices
        after a permanent GPU loss (elastic recovery)."""
        raise NotImplementedError(
            f"algorithm {self.name!r} does not support elastic recovery"
        )
