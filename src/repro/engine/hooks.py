"""Centralized callback and telemetry dispatch for the engine.

Every :class:`~repro.engine.algorithm.Algorithm` carries this mixin:
constructor plumbing for ``callbacks`` / ``registry`` with a uniform
resolution order (explicit argument → active session's registry → fresh
registry), :meth:`_fire` dispatch to every registered callback, and
:meth:`_telemetry_run` — the context manager the
:class:`~repro.engine.loop.TrainingLoop` opens around a run so that
``emit_*`` instrumentation deep in the kernels lands in the trainer's
registry.

Imports from :mod:`repro.telemetry` are deferred into the methods: this
module sits below both the telemetry package and the trainers, so it
must be importable before either finishes initializing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.callbacks import CallbackList, TrainerCallback
    from repro.telemetry.context import TelemetrySession
    from repro.telemetry.registry import MetricsRegistry

__all__ = ["TelemetryMixin"]


class TelemetryMixin:
    """Callback + registry plumbing for trainers."""

    callbacks: "CallbackList"
    registry: "MetricsRegistry | None"

    def _telemetry_init(
        self,
        callbacks: "Iterable[TrainerCallback] | None" = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        from repro.telemetry.callbacks import CallbackList

        self.callbacks = CallbackList(callbacks)
        self.registry = registry
        #: Host-side span trace of the last train() run (wall clock).
        self.host_trace = None

    def _resolve_registry(self) -> "MetricsRegistry":
        from repro.telemetry.context import active_registry
        from repro.telemetry.registry import MetricsRegistry

        if self.registry is not None:
            return self.registry
        active = active_registry()
        if active is not None:
            return active
        self.registry = MetricsRegistry()
        return self.registry

    @contextmanager
    def _telemetry_run(
        self, extra_callbacks: "Iterable[TrainerCallback] | None" = None
    ) -> "Iterator[TelemetrySession]":
        """Session + merged callback list for the duration of a run.

        Sets ``self._run_callbacks`` (constructor callbacks followed by
        the per-call extras) for :meth:`_fire`, and activates a
        telemetry session over the resolved registry so kernel-level
        ``emit_*`` calls are captured.
        """
        from repro.telemetry.context import telemetry_session

        registry = self._resolve_registry()
        self._run_callbacks = self.callbacks.merged(extra_callbacks)
        with telemetry_session(registry=registry) as session:
            # Record the resolved sinks so post-train inspection
            # (exporters, report, the profile CLI) sees what the run
            # populated.
            self.registry = registry
            self.host_trace = session.trace
            yield session

    def _fire(self, hook: str, event: dict) -> None:
        cbs = getattr(self, "_run_callbacks", self.callbacks)
        cbs.fire(hook, event)
