"""The single training loop every trainer runs through.

:class:`TrainingLoop` drives an :class:`~repro.engine.algorithm.Algorithm`
for ``iterations`` passes: likelihood evaluation on a cadence,
convergence-based early stopping, the four callback hooks
(``on_train_start`` / ``on_sync_end`` / ``on_iteration_end`` /
``on_train_end``), and periodic full-sampler-state checkpoints that
:meth:`run` can later resume from bit-identically.

The loop also guarantees the telemetry invariants the trainers used to
maintain by hand: one ``train:<algo>`` span wraps the run, a telemetry
session over the trainer's registry is active throughout, and the final
iteration always carries a log-likelihood.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.engine.algorithm import Algorithm
from repro.engine.recovery import (
    RecoveryPolicy,
    TrainingFailure,
    snapshot_run_state,
    validate_state,
)
from repro.engine.results import IterationStats, TrainResult
from repro.engine.state import RunState
from repro.gpusim.errors import DeviceLost, FaultError
from repro.telemetry.context import emit_counter
from repro.telemetry.spans import span

__all__ = ["LoopConfig", "TrainingLoop"]


@dataclass(frozen=True)
class LoopConfig:
    """Execution parameters of one run (algorithm-independent).

    Invalid combinations are rejected at construction with actionable
    errors rather than surfacing as confusing failures mid-run.
    """

    iterations: int
    likelihood_every: int = 0           # 0 = only at the end
    #: Early stopping: stop once the likelihood plateau's relative
    #: improvement falls below this (requires likelihood_every > 0).
    stop_rel_tolerance: float | None = None
    #: Write a full run-state checkpoint every N iterations (0 = never).
    save_every: int = 0
    checkpoint_path: str | Path | None = None
    #: Stored with checkpoints so any of them feeds `repro-lda infer`.
    vocabulary: object | None = None
    #: Fault handling (None = RecoveryPolicy(mode="none"), the seed
    #: fail-fast behaviour). See :mod:`repro.engine.recovery`.
    recovery: RecoveryPolicy | None = None
    #: Chaos plan to inject during the run (see :mod:`repro.faults`).
    fault_plan: object | None = None

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError(
                f"iterations must be >= 0, got {self.iterations}"
            )
        if self.likelihood_every < 0:
            raise ValueError(
                f"likelihood_every must be >= 0 (0 = final only), "
                f"got {self.likelihood_every}"
            )
        if self.save_every < 0:
            raise ValueError(
                f"save_every must be >= 0 (0 = never), got {self.save_every}"
            )
        if self.stop_rel_tolerance is not None:
            if self.stop_rel_tolerance <= 0:
                raise ValueError(
                    "stop_rel_tolerance must be positive, "
                    f"got {self.stop_rel_tolerance}"
                )
            if not self.likelihood_every:
                raise ValueError(
                    "stop_rel_tolerance requires likelihood_every > 0 "
                    "(early stopping watches the likelihood cadence)"
                )
        if self.save_every and self.checkpoint_path is None:
            raise ValueError(
                "save_every requires a checkpoint_path to write to"
            )


class TrainingLoop:
    """Drive one algorithm to completion (or resume it from disk).

    Parameters
    ----------
    algorithm: the trainer strategy.
    config: execution parameters.
    callbacks: extra :class:`~repro.telemetry.callbacks.TrainerCallback`
        instances for this run only (merged after the constructor's).
    resume: a :class:`RunState`, or a path to a run-state checkpoint
        written by a previous run's ``save_every``.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        config: LoopConfig,
        callbacks=None,
        resume: RunState | str | Path | None = None,
    ):
        self.algorithm = algorithm
        self.config = config
        self.callbacks = callbacks
        self.resume = resume

    # ------------------------------------------------------------------
    def run(self) -> TrainResult:
        algo = self.algorithm
        cfg = self.config
        policy = cfg.recovery or RecoveryPolicy()
        algo.recovery_policy = policy

        resume_state = self._resolve_resume()
        detector = None
        if cfg.stop_rel_tolerance is not None:
            from repro.analysis.convergence import ConvergenceDetector

            detector = ConvergenceDetector(rel_tolerance=cfg.stop_rel_tolerance)

        injector = None
        self._injector = injector
        rollbacks = 0
        repartitions = 0
        snapshot: RunState | None = None

        def fail(
            message: str,
            *,
            iteration: int,
            phase: str,
            cause: BaseException | None = None,
            violations: tuple[str, ...] = (),
        ):
            events = tuple(injector.events) if injector is not None else ()
            membership = getattr(algo, "membership", None)
            timeline = (
                tuple(membership.timeline) if membership is not None else ()
            )
            raise TrainingFailure(
                message, iteration=iteration, phase=phase, cause=cause,
                violations=violations, fault_events=events,
                membership_events=timeline,
            ) from cause

        def recover(
            cause: BaseException | None,
            it: int,
            violations: tuple[str, ...] = (),
        ) -> None:
            """Restore *state* from the last known-good snapshot —
            re-partitioned over the survivors on device loss, reinstalled
            as-is otherwise — or raise TrainingFailure."""
            nonlocal state, snapshot, rollbacks, repartitions
            what = (
                f"{type(cause).__name__}: {cause}" if cause is not None
                else "invariant violation: " + "; ".join(violations)
            )
            if not policy.active or snapshot is None:
                fail(
                    f"iteration {it} failed ({what}) and recovery is "
                    "disabled; rerun with a recovery policy "
                    "(--recovery retry or --recovery elastic)",
                    iteration=it, phase="iteration", cause=cause,
                    violations=violations,
                )
            if isinstance(cause, DeviceLost):
                unit = getattr(cause, "unit", "GPU")
                if policy.mode != "elastic":
                    fail(
                        f"{unit} {cause.device_id} was lost at iteration "
                        f"{it} and recovery mode {policy.mode!r} cannot "
                        "replace it; rerun with --recovery elastic",
                        iteration=it, phase="iteration", cause=cause,
                    )
                restore = snapshot_run_state(snapshot)
                try:
                    algo.handle_device_loss(restore)
                except NotImplementedError as exc:
                    fail(str(exc), iteration=it, phase="recovery", cause=cause)
                except FaultError as exc:
                    fail(
                        f"elastic re-partition itself failed: {exc}",
                        iteration=it, phase="recovery", cause=exc,
                    )
                repartitions += 1
                emit_counter(
                    "elastic_repartitions_total", 1,
                    help="elastic re-partitions after permanent device loss",
                )
                state = restore
                snapshot = snapshot_run_state(state)
                return
            if rollbacks >= policy.max_rollbacks:
                fail(
                    f"iteration {it} failed ({what}) and the rollback "
                    f"budget ({policy.max_rollbacks}) is exhausted",
                    iteration=it, phase="recovery", cause=cause,
                    violations=violations,
                )
            restore = snapshot_run_state(snapshot)
            try:
                algo.rollback(restore)
            except NotImplementedError as exc:
                fail(str(exc), iteration=it, phase="recovery", cause=cause)
            except DeviceLost as exc:
                # A device died while reinstalling state — escalate.
                rollbacks += 1
                recover(exc, it)
                return
            except FaultError as exc:
                fail(
                    f"rollback itself failed: {exc}",
                    iteration=it, phase="recovery", cause=exc,
                )
            rollbacks += 1
            emit_counter(
                "rollbacks_total", 1,
                help="state rollbacks after detected faults or invariant "
                     "violations",
            )
            state = restore

        wall_start = time.perf_counter()
        with algo._telemetry_run(self.callbacks):
            with span(f"train:{algo.name}"):
                state = algo.init_state(resume_state)
                # Built after init_state so substrates the algorithm
                # constructs there (e.g. DistributedCuLDA's parameter
                # server) are wired in. Nothing fires before the first
                # iteration boundary, so the late build is invisible.
                if cfg.fault_plan is not None and len(cfg.fault_plan):
                    from repro.faults.injector import FaultInjector

                    injector = FaultInjector(
                        cfg.fault_plan,
                        machine=getattr(algo, "machine", None),
                        cluster=getattr(algo, "network", None),
                        server=getattr(algo, "server", None),
                        machines=getattr(algo, "machines", None),
                    )
                    self._injector = injector
                start = {
                    "algo": algo.name,
                    "corpus": algo.corpus.name,
                    "num_tokens": algo.corpus.num_tokens,
                    "num_topics": algo.hyper.num_topics,
                    "iterations_planned": cfg.iterations,
                }
                start.update(algo.start_event(state))
                if state.iteration:
                    start["resumed_from_iteration"] = state.iteration
                algo._fire("on_train_start", start)

                if policy.active:
                    algo.capture_state(state)
                    violations = validate_state(state, algo.corpus.num_tokens)
                    if violations:
                        fail(
                            "initial state failed validation: "
                            + "; ".join(violations),
                            iteration=state.iteration, phase="validation",
                            violations=tuple(violations),
                        )
                    snapshot = snapshot_run_state(state)

                while state.iteration < cfg.iterations:
                    it = state.iteration
                    if injector is not None:
                        injector.on_iteration_start(it)
                    try:
                        outcome = algo.run_iteration(state)
                    except FaultError as exc:
                        recover(exc, it)
                        continue
                    state.iteration = it + 1
                    if outcome.sim_seconds:
                        state.sim_seconds += outcome.sim_seconds

                    cadence = bool(
                        cfg.likelihood_every
                        and (it + 1) % cfg.likelihood_every == 0
                    )
                    ll = None
                    if cadence or it + 1 == cfg.iterations:
                        ll = algo.log_likelihood(state)

                    state.history.append(
                        IterationStats(
                            iteration=it,
                            sim_seconds=outcome.sim_seconds or 0.0,
                            tokens_per_sec=outcome.tokens_per_sec or 0.0,
                            log_likelihood_per_token=ll,
                            **outcome.stats,
                        )
                    )
                    if outcome.sync_event is not None:
                        algo._fire(
                            "on_sync_end",
                            {"iteration": it, **outcome.sync_event},
                        )
                    event = {
                        "iteration": it,
                        "log_likelihood_per_token": ll,
                    }
                    if outcome.sim_seconds is not None:
                        event["sim_seconds"] = outcome.sim_seconds
                        event["tokens_per_sec"] = outcome.tokens_per_sec or 0.0
                    event.update(outcome.event)
                    algo._fire("on_iteration_end", event)

                    if (
                        policy.active
                        and policy.validate_every
                        and (it + 1) % policy.validate_every == 0
                    ):
                        algo.capture_state(state)
                        violations = validate_state(
                            state, algo.corpus.num_tokens
                        )
                        violations += algo.check_invariants(state)
                        if violations:
                            emit_counter(
                                "validation_failures_total", len(violations),
                                help="post-iteration invariant violations "
                                     "detected",
                            )
                            recover(None, it, violations=tuple(violations))
                            continue
                        snapshot = snapshot_run_state(state)

                    if cfg.save_every and (it + 1) % cfg.save_every == 0:
                        self._save_checkpoint(state)
                    if (
                        detector is not None
                        and cadence
                        and ll is not None
                        and detector.update(ll)
                    ):
                        break

                # Early stop can leave the last iteration unevaluated.
                if (
                    state.history
                    and state.history[-1].log_likelihood_per_token is None
                ):
                    state.history[-1] = replace(
                        state.history[-1],
                        log_likelihood_per_token=algo.log_likelihood(state),
                    )
                algo.capture_state(state)
                if cfg.save_every and cfg.checkpoint_path is not None:
                    self._save_checkpoint(state, captured=True)

            result = algo.finalize(
                state, wall_seconds=time.perf_counter() - wall_start
            )
            result.rollbacks = rollbacks
            result.repartitions = repartitions
            if injector is not None:
                result.fault_events = list(injector.events)
            end = {
                "iterations": len(state.history),
                "total_sim_seconds": result.total_sim_seconds,
                "wall_seconds": result.wall_seconds,
                "avg_tokens_per_sec": result.avg_tokens_per_sec,
                "log_likelihood_per_token": result.final_log_likelihood,
            }
            end.update(algo.end_event(state, result))
            end["result"] = result
            algo._fire("on_train_end", end)
        return result

    # ------------------------------------------------------------------
    def _resolve_resume(self) -> RunState | None:
        if self.resume is None:
            return None
        if isinstance(self.resume, RunState):
            state = self.resume
        else:
            from repro.core.serialization import load_run_state

            state = load_run_state(self.resume)
        if state.algo != self.algorithm.name:
            raise ValueError(
                f"checkpoint was written by algorithm {state.algo!r}, "
                f"cannot resume it with {self.algorithm.name!r}"
            )
        return state

    def _save_checkpoint(self, state: RunState, captured: bool = False) -> None:
        from repro.core.serialization import save_run_state

        if not captured:
            self.algorithm.capture_state(state)
        save_run_state(
            state,
            self.config.checkpoint_path,
            hyper=self.algorithm.hyper,
            corpus_name=self.algorithm.corpus.name,
            vocabulary=self.config.vocabulary,
        )
        if getattr(self, "_injector", None) is not None:
            self._injector.on_checkpoint_saved(self.config.checkpoint_path)
