"""The online inference service: queue, batcher, scheduler, cache.

:class:`InferenceService` serves fold-in requests over a simulated
multi-GPU machine. It is a discrete-event simulation driven by
:meth:`InferenceService.run_trace`: arrivals and wait-bound batch
flushes are processed in simulated-time order, batches are routed to
the least-loaded φ replica, and every per-request outcome lands in a
:class:`ServiceReport`.

Admission control and backpressure
----------------------------------
The request queue is **bounded** (``max_queue``): an arrival that finds
``max_queue`` requests *in the system* — pending in the batcher **plus**
dispatched but not yet complete on a replica stream — is rejected
immediately (``RequestRejected`` / status ``rejected``) rather than
growing the backlog; under overload the service sheds load instead of
accumulating unbounded latency. (Bounding only the batcher's pending
count would never reject: batches leave it instantly and pile up on
the replica streams instead.) Admitted
requests additionally carry a **deadline**: one that ages out before
its batch dispatches is dropped without compute, and one whose batch
completes too late is counted ``deadline_exceeded`` with its payload
discarded (the client has already given up).

With a :class:`~repro.serve.resilience.DegradationPolicy` configured
the service degrades *before* the rejection cliff: past a queue
occupancy threshold it sheds low-priority arrivals (reason
``shed_low_priority``) and caps the micro-batcher's wait bound so
admitted work drains immediately.

Resilience
----------
Replica health (circuit breakers, warm-spare respawn), hedged
requests, and rolling model hot-swap with canary/rollback live in
:mod:`repro.serve.resilience`; the service wires them into admission
(rollout routing), dispatch (health-aware candidates, hedging), and
result recording (rollout canary statistics). See
``docs/SERVING.md#serving-resilience``.

Conservation invariants (load- and chaos-tested)::

    submitted = admitted + rejected
    admitted  = completed + deadline_exceeded + failed

Telemetry
---------
All serving metrics flow through the PR 1 registry, so ``repro-lda
serve``/``loadgen`` print them with the same machinery as ``profile``:
``serve_requests_total{status}``, ``serve_rejections_total{reason}``,
``serve_batches_total{replica}``, ``serve_batch_size``,
``serve_latency_seconds``, ``serve_queue_wait_seconds``,
``serve_queue_depth`` (+ high-water), cache hit/miss/eviction counters
and the resident-model gauge, ``serve_failovers_total``,
``serve_phi_uploads_total{replica}`` — plus the resilience families:
``serve_health_transitions_total{replica,to}``,
``serve_replicas_healthy``, ``serve_respawns_total{replica}``,
``serve_hedges_total`` / ``serve_hedge_wins_total``,
``serve_degraded_mode`` / ``serve_degraded_entries_total``, and
``serve_rollout_state`` / ``serve_rollout_promotions_total`` /
``serve_rollout_rollbacks_total``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

from repro.core.kernels import KernelConfig
from repro.gpusim.errors import FaultError
from repro.gpusim.platform import Machine
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.cache import ModelCache
from repro.serve.request import (
    DeadlineExceeded,
    InferenceRequest,
    RequestRejected,
    RequestResult,
    ServeError,
)
from repro.serve.resilience import (
    BreakerPolicy,
    DegradationPolicy,
    HealthMonitor,
    HedgePolicy,
    LatencyTracker,
    RolloutConfig,
    RolloutManager,
)
from repro.serve.replica import BatchExecution
from repro.serve.scheduler import ReplicaScheduler
from repro.telemetry.context import telemetry_session
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import TraceCollector, TraceSpan

__all__ = ["ServiceConfig", "InferenceService", "ServiceReport"]

#: Latency histogram buckets: 10 µs … 10 s of simulated time.
LATENCY_BUCKETS = tuple(float(10.0**e) for e in range(-5, 2)) + (float("inf"),)


@dataclass(frozen=True)
class ServiceConfig:
    """Service policy knobs.

    Attributes
    ----------
    max_batch_size / max_wait_seconds: the micro-batcher policy.
    max_queue: bounded-queue admission limit — requests *in the
        system* (pending in the batcher plus dispatched but not yet
        complete); arrivals that find it full are rejected.
    cache_capacity: resident models in the LRU cache.
    iterations: default fold-in sweeps for requests that don't choose.
    deadline_seconds: default per-request deadline (None = no default).
    breaker: circuit-breaker policy for replica health.
    hedge: hedged-request policy (None disables hedging).
    degradation: graceful-degradation policy (None = reject-only
        overload behaviour).
    warm_spares: GPUs held out of serving as respawn targets; the
        machine must have at least one more GPU than spares.
    """

    max_batch_size: int = 8
    max_wait_seconds: float = 2e-3
    max_queue: int = 64
    cache_capacity: int = 2
    iterations: int = 5
    deadline_seconds: float | None = None
    breaker: BreakerPolicy = BreakerPolicy()
    hedge: HedgePolicy | None = None
    degradation: DegradationPolicy | None = None
    warm_spares: int = 0

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        if self.warm_spares < 0:
            raise ValueError("warm_spares must be >= 0")
        # BatchPolicy re-validates its own pair; fail here with the
        # same message so bad configs never half-construct a service.
        BatchPolicy(self.max_batch_size, self.max_wait_seconds)


@dataclass
class ServiceReport:
    """Everything one trace run produced, plus derived SLO metrics."""

    results: list[RequestResult]
    registry: MetricsRegistry
    machine: Machine
    fault_events: list[dict] = field(default_factory=list)
    #: Final per-replica health states.
    health_states: dict[int, str] = field(default_factory=dict)
    #: Final rollout summary (None when no rollout was active).
    rollout: dict | None = None
    #: Every request's span tree (see :mod:`repro.telemetry.tracing`).
    trace_spans: list[TraceSpan] = field(default_factory=list)

    # ------------------------------------------------------------------
    def count(self, status: str) -> int:
        return sum(1 for r in self.results if r.status == status)

    @property
    def submitted(self) -> int:
        return len(self.results)

    @property
    def admitted(self) -> int:
        return self.submitted - self.count("rejected")

    def latency_quantile(self, q: float) -> float:
        """Exact latency quantile over requests that completed compute."""
        hist = self.registry.get("serve_latency_seconds")
        if hist is None or not hist.count():
            return float("nan")
        return hist.quantile(q)

    @property
    def makespan(self) -> float:
        """First arrival → last completion, simulated seconds."""
        arrivals = [r.request.arrival_time for r in self.results]
        ends = [r.completion_time for r in self.results if r.completion_time]
        if not arrivals or not ends:
            return 0.0
        return max(ends) - min(arrivals)

    @property
    def throughput_tokens_per_sec(self) -> float:
        span = self.makespan
        done = sum(
            r.request.num_tokens for r in self.results if r.status == "completed"
        )
        return done / span if span > 0 else 0.0

    @property
    def throughput_requests_per_sec(self) -> float:
        span = self.makespan
        return self.count("completed") / span if span > 0 else 0.0

    @property
    def rejection_rate(self) -> float:
        return self.count("rejected") / self.submitted if self.results else 0.0

    @property
    def cache_hit_rate(self) -> float:
        hits = self.registry.counter("serve_cache_hits_total").value()
        misses = self.registry.counter("serve_cache_misses_total").value()
        total = hits + misses
        return hits / total if total else 0.0

    def _counter_sum(self, name: str) -> int:
        metric = self.registry.get(name)
        if metric is None:
            return 0
        return int(sum(s.value for s in metric.samples()))

    @property
    def failovers(self) -> int:
        return int(self.registry.counter("serve_failovers_total").value())

    @property
    def hedges(self) -> int:
        return self._counter_sum("serve_hedges_total")

    @property
    def hedge_wins(self) -> int:
        return self._counter_sum("serve_hedge_wins_total")

    @property
    def respawns(self) -> int:
        return self._counter_sum("serve_respawns_total")

    def summary(self) -> str:
        """Human-readable SLO report, built from the telemetry registry."""
        lines = [
            f"requests: {self.submitted} submitted, "
            f"{self.count('completed')} completed, "
            f"{self.count('rejected')} rejected, "
            f"{self.count('deadline_exceeded')} deadline-exceeded, "
            f"{self.count('failed')} failed",
        ]
        if self.admitted and not math.isnan(self.latency_quantile(0.5)):
            lines.append(
                "latency (simulated): "
                f"p50 {self.latency_quantile(0.50) * 1e3:.3f} ms, "
                f"p95 {self.latency_quantile(0.95) * 1e3:.3f} ms, "
                f"p99 {self.latency_quantile(0.99) * 1e3:.3f} ms"
            )
        lines.append(
            f"throughput: {self.throughput_requests_per_sec:.1f} req/s, "
            f"{self.throughput_tokens_per_sec / 1e3:.1f} K tokens/s "
            f"over {self.makespan * 1e3:.3f} ms"
        )
        depth_hw = self.registry.gauge("serve_queue_depth_high_water").value()
        lines.append(
            f"queue: high-water {int(depth_hw)}, "
            f"rejection rate {self.rejection_rate:.1%}"
        )
        lines.append(
            f"model cache: hit rate {self.cache_hit_rate:.1%} "
            f"({int(self.registry.counter('serve_cache_hits_total').value())} hits, "
            f"{int(self.registry.counter('serve_cache_misses_total').value())} misses, "
            f"{self._counter_sum('serve_cache_evictions_total')} evictions)"
        )
        if self.failovers:
            lines.append(f"failovers: {self.failovers}")
        if self.health_states:
            by_state: dict[str, int] = {}
            for state in self.health_states.values():
                by_state[state] = by_state.get(state, 0) + 1
            parts = " ".join(f"{s}={n}" for s, n in sorted(by_state.items()))
            lines.append(f"replica health: {parts}")
        if self.respawns:
            lines.append(f"respawns: {self.respawns} warm spare(s) activated")
        if self.hedges:
            lines.append(
                f"hedges: {self.hedges} launched, {self.hedge_wins} won"
            )
        degraded = self._counter_sum("serve_degraded_entries_total")
        if degraded:
            lines.append(f"degraded mode: entered {degraded} time(s)")
        if self.rollout is not None:
            line = (
                f"rollout: {self.rollout['state']} "
                f"(fraction {self.rollout['fraction']:.0%}, "
                f"{self.rollout['upgraded']}/{self.rollout['replicas']} "
                f"replica(s) upgraded)"
            )
            if self.rollout.get("rollback_reason"):
                line += f" — {self.rollout['rollback_reason']}"
            lines.append(line)
        return "\n".join(lines)


class InferenceService:
    """Online fold-in serving over a simulated multi-GPU machine.

    Parameters
    ----------
    machine: the simulated host+GPUs (e.g. from
        :func:`repro.gpusim.platform.make_machine`); one φ replica is
        placed per GPU, minus ``config.warm_spares`` held in reserve.
    config: service policy (batching, queue bound, deadlines,
        resilience).
    registry: telemetry sink (a fresh one when omitted).
    fault_plan: optional :class:`~repro.faults.FaultPlan`; its
        ``iteration`` fields are interpreted as **batch sequence
        numbers** (batch *i* triggers faults scheduled at iteration
        *i*), reusing the PR 3 injector unchanged.
    loader / digest_fn: model-cache injection points (tests).
    """

    def __init__(
        self,
        machine: Machine,
        config: ServiceConfig | None = None,
        registry: MetricsRegistry | None = None,
        fault_plan=None,
        loader=None,
        digest_fn=None,
    ):
        self.machine = machine
        self.config = config or ServiceConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        cache_kwargs = {}
        if loader is not None:
            cache_kwargs["loader"] = loader
        if digest_fn is not None:
            cache_kwargs["digest_fn"] = digest_fn
        self.cache = ModelCache(self.config.cache_capacity, **cache_kwargs)
        self.batcher = MicroBatcher(
            BatchPolicy(self.config.max_batch_size, self.config.max_wait_seconds)
        )
        if self.config.warm_spares >= len(machine.gpus):
            raise ValueError(
                f"warm_spares ({self.config.warm_spares}) must leave at "
                f"least one active replica on a {len(machine.gpus)}-GPU "
                "machine"
            )
        self.health = HealthMonitor(self.config.breaker)
        self.scheduler = ReplicaScheduler(
            machine,
            num_replicas=len(machine.gpus) - self.config.warm_spares,
            health=self.health,
            upload_retry=self.config.breaker.transfer_retry(),
        )
        self.kernel_config = KernelConfig(compressed=False)
        self.rollout: RolloutManager | None = None
        self.injector = None
        if fault_plan is not None and len(fault_plan):
            from repro.faults import FaultInjector

            self.injector = FaultInjector(fault_plan, machine)
        self._batch_seq = 0
        self._service_times = LatencyTracker(
            self.config.hedge.window if self.config.hedge else 256
        )
        self._degraded = False
        #: min-heap of completion times for admitted-but-unfinished
        #: requests; admission bounds pending + in-flight against it.
        self._in_flight: list[float] = []
        #: End-to-end request spans (every submitted request gets a
        #: tree; see :mod:`repro.telemetry.tracing`).
        self.tracer = TraceCollector()

    # ------------------------------------------------------------------
    # Request tracing
    # ------------------------------------------------------------------
    @staticmethod
    def _trace_id(request: InferenceRequest) -> str:
        return (
            request.trace_id
            if request.trace_id is not None
            else f"req-{request.request_id}"
        )

    def _record_request_trace(
        self,
        request: InferenceRequest,
        status: str,
        end: float,
        dispatch: float | None = None,
        primary: BatchExecution | None = None,
        hedge_exec: BatchExecution | None = None,
        hedged: bool = False,
        batch_id: int | None = None,
        failovers: int = 0,
    ) -> None:
        """Record one submitted request's span tree.

        *primary* is the first dispatch's execution, *hedge_exec* the
        speculative duplicate (when one launched); ``hedged`` marks the
        duplicate as the winner. Rejected / aged-out / failed requests
        pass ``primary=None`` and keep a degenerate tree.
        """
        tid = self._trace_id(request)
        winner = hedge_exec if hedged else primary
        root = self.tracer.add(
            tid, "request", request.arrival_time, end,
            request_id=request.request_id,
            status=status,
            model=request.model_key,
            replica=winner.replica_id if winner is not None else None,
            batch_id=batch_id,
            failovers=failovers or None,
            hedged=hedged or None,
        )
        if dispatch is not None:
            self.tracer.add(
                tid, "queue", request.arrival_time, dispatch,
                parent_id=root.span_id,
            )
        if primary is not None:
            for name, start, stage_end in primary.stages:
                self.tracer.add(
                    tid, name, start, stage_end, parent_id=root.span_id,
                    lane="primary", replica=primary.replica_id,
                    won=not hedged,
                )
        if hedge_exec is not None:
            for name, start, stage_end in hedge_exec.stages:
                self.tracer.add(
                    tid, name, start, stage_end, parent_id=root.span_id,
                    lane="hedge", replica=hedge_exec.replica_id,
                    won=hedged,
                )

    # ------------------------------------------------------------------
    # Rolling model hot-swap
    # ------------------------------------------------------------------
    def start_rollout(self, config: RolloutConfig) -> RolloutManager:
        """Begin a rolling upgrade ``config.old_model → config.new_model``.

        Subsequent traffic addressed to ``old_model`` is canaried,
        promoted replica-by-replica, or rolled back per *config*; see
        :class:`~repro.serve.resilience.RolloutManager`.
        """
        if self.rollout is not None and self.rollout.state in (
            "canary", "promoting"
        ):
            raise ValueError(
                "a rollout is already in progress "
                f"({self.rollout.config.new_model!r}); finish or roll it "
                "back first"
            )
        with telemetry_session(registry=self.registry):
            self.rollout = RolloutManager(
                config, num_replicas=len(self.scheduler.replicas)
            )
        return self.rollout

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    def _mark(self, status: str) -> None:
        self.registry.counter(
            "serve_requests_total",
            "Requests by terminal status.",
            ("status",),
        ).inc(status=status)

    def _in_system(self, now: float) -> int:
        """Requests occupying the service at *now*: pending + in-flight.

        In-flight requests (dispatched, simulated completion in the
        future) count toward the queue bound — otherwise overload would
        never reject, because dispatch drains the batcher instantly and
        the backlog hides on the replica streams.
        """
        while self._in_flight and self._in_flight[0] <= now:
            heapq.heappop(self._in_flight)
        return self.batcher.depth() + len(self._in_flight)

    def _update_degraded(self, depth: int, now: float) -> None:
        """Enter/leave degraded mode on queue occupancy (hysteresis)."""
        policy = self.config.degradation
        if policy is None:
            return
        occupancy = depth / self.config.max_queue
        if not self._degraded and occupancy >= policy.shed_occupancy:
            self._degraded = True
            self.batcher.wait_cap = policy.degraded_max_wait_seconds
            self.registry.counter(
                "serve_degraded_entries_total",
                "Times the service entered degraded mode.",
            ).inc()
        elif self._degraded and occupancy < policy.exit_threshold:
            self._degraded = False
            self.batcher.wait_cap = None
        self.registry.gauge(
            "serve_degraded_mode",
            "1 while the service is in degraded (overload) mode.",
        ).set(1.0 if self._degraded else 0.0)

    def _queue_gauges(self, now: float) -> None:
        depth = self._in_system(now)
        self.registry.gauge(
            "serve_queue_depth",
            "Requests in the system (pending + in-flight).",
        ).set(depth)
        self.registry.gauge(
            "serve_queue_depth_high_water", "Max in-system depth seen."
        ).set_max(depth)
        self._update_degraded(depth, now)

    # ------------------------------------------------------------------
    # Trace-driven run
    # ------------------------------------------------------------------
    def run_trace(self, requests: list[InferenceRequest]) -> ServiceReport:
        """Serve *requests* (an offline arrival trace) to completion.

        Requests are processed in ``(arrival_time, request_id)`` order;
        the returned report lists results in that same order. The run
        is deterministic: same trace + same machine ⇒ same results and
        same simulated timings.
        """
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ValueError("request_ids must be unique within a trace")
        order = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        results: dict[int, RequestResult] = {}
        with telemetry_session(registry=self.registry):
            i = 0
            while i < len(order) or self.batcher.depth():
                next_arrival = (
                    order[i].arrival_time if i < len(order) else math.inf
                )
                due = self.batcher.next_due()
                due_time = due[1] if due is not None else math.inf
                if next_arrival <= due_time:
                    request = order[i]
                    i += 1
                    admitted = self._admit(request, results)
                    if admitted is not None:
                        while self.batcher.ready(admitted.model_key):
                            self._dispatch(
                                admitted.model_key, admitted.arrival_time,
                                results,
                            )
                else:
                    self._dispatch(due[0], due_time, results)
        report = ServiceReport(
            results=[results[r.request_id] for r in order],
            registry=self.registry,
            machine=self.machine,
            fault_events=list(self.injector.events) if self.injector else [],
            health_states=self.health.states(),
            rollout=(
                {
                    "state": self.rollout.state,
                    "fraction": self.rollout.fraction(),
                    "upgraded": self.rollout.upgraded,
                    "replicas": self.rollout.num_replicas,
                    "rollback_reason": self.rollout.rollback_reason,
                }
                if self.rollout is not None else None
            ),
            trace_spans=list(self.tracer.spans),
        )
        return report

    # ------------------------------------------------------------------
    def _reject(
        self,
        request: InferenceRequest,
        reason: str,
        message: str,
        results: dict[int, RequestResult],
    ) -> None:
        rejection = RequestRejected(request.request_id, reason, message)
        self.registry.counter(
            "serve_rejections_total", "Rejected requests by reason.",
            ("reason",),
        ).inc(reason=rejection.reason)
        self._mark("rejected")
        self._record_request_trace(
            request, "rejected", request.arrival_time
        )
        results[request.request_id] = RequestResult(
            request=request, status="rejected", error=str(rejection)
        )

    def _admit(
        self, request: InferenceRequest, results: dict[int, RequestResult]
    ) -> InferenceRequest | None:
        """Admission control at arrival time; returns the admitted
        request (possibly re-routed by an active rollout) or None."""
        now = request.arrival_time
        in_system = self._in_system(now)
        self._update_degraded(in_system, now)
        if in_system >= self.config.max_queue:
            self._reject(
                request, "queue_full",
                f"request {request.request_id} rejected: queue is at its "
                f"bound ({self.config.max_queue})",
                results,
            )
            return None
        policy = self.config.degradation
        if (
            self._degraded
            and policy is not None
            and request.priority < policy.shed_priority_below
        ):
            self._reject(
                request, "shed_low_priority",
                f"request {request.request_id} shed: service is degraded "
                f"and priority {request.priority} is below "
                f"{policy.shed_priority_below}",
                results,
            )
            return None
        if self.rollout is not None:
            routed = self.rollout.route(request)
            if routed != request.model_key:
                request = replace(request, model_key=routed)
        self.batcher.enqueue(request)
        self._queue_gauges(now)
        return request

    def _deadline_of(self, request: InferenceRequest) -> float | None:
        if request.deadline_seconds is not None:
            return request.deadline_seconds
        return self.config.deadline_seconds

    def _observe_rollout(self, model_key: str, status: str,
                         ll: float | None, now: float) -> None:
        if self.rollout is not None:
            self.rollout.observe(model_key, status, ll, now)

    def _fail_batch(
        self,
        batch: list[InferenceRequest],
        error: str,
        results: dict[int, RequestResult],
        now: float,
        batch_id: int,
        model_key: str,
    ) -> None:
        for request in batch:
            self._mark("failed")
            self._observe_rollout(model_key, "failed", None, now)
            self._record_request_trace(
                request, "failed", now, dispatch=now, batch_id=batch_id,
            )
            results[request.request_id] = RequestResult(
                request=request, status="failed", error=error,
                dispatch_time=now, batch_id=batch_id,
            )
        self._queue_gauges(now)

    def _dispatch(
        self,
        model_key: str,
        now: float,
        results: dict[int, RequestResult],
    ) -> None:
        """Pop one batch for *model_key* and run it at simulated *now*."""
        batch_id = self._batch_seq
        self._batch_seq += 1
        if self.injector is not None:
            self.injector.on_iteration_start(batch_id)
        batch = self.batcher.pop_batch(model_key)
        self.machine.advance_host(now)

        try:
            model, digest, hit = self.cache.get(model_key)
        except (OSError, ValueError) as exc:
            self._fail_batch(
                batch, f"model {model_key!r} could not be loaded: {exc}",
                results, now, batch_id, model_key,
            )
            return
        self.registry.counter(
            "serve_cache_hits_total", "Model-cache hits."
        ).inc(1.0 if hit else 0.0)
        self.registry.counter(
            "serve_cache_misses_total", "Model-cache misses (cold loads)."
        ).inc(0.0 if hit else 1.0)

        num_words = int(model.phi.shape[1])
        live: list[InferenceRequest] = []
        for request in batch:
            deadline = self._deadline_of(request)
            # Validate word ids against this model's φ before batching,
            # so one bad request can't fail its batch-mates.
            bad = max((max(d) for d in request.docs if d), default=-1)
            if bad >= num_words:
                self._mark("failed")
                self._observe_rollout(model_key, "failed", None, now)
                self._record_request_trace(
                    request, "failed", now, dispatch=now, batch_id=batch_id,
                )
                results[request.request_id] = RequestResult(
                    request=request, status="failed",
                    dispatch_time=now, batch_id=batch_id,
                    error=(
                        f"word id {bad} does not fit the model's "
                        f"{num_words} phi columns"
                    ),
                )
                continue
            if deadline is not None and now - request.arrival_time > deadline:
                exc = DeadlineExceeded(
                    request.request_id, deadline, now - request.arrival_time
                )
                self._mark("deadline_exceeded")
                self._record_request_trace(
                    request, "deadline_exceeded", now, dispatch=now,
                    batch_id=batch_id,
                )
                results[request.request_id] = RequestResult(
                    request=request, status="deadline_exceeded",
                    dispatch_time=now, batch_id=batch_id, error=str(exc),
                )
                continue
            live.append(request)
        if not live:
            self._queue_gauges(now)
            return

        prefer = None
        if self.rollout is not None:
            prefer = self.rollout.preferred_replicas(
                model_key, [r.replica_id for r in self.scheduler.replicas]
            )
        try:
            outcome = self.scheduler.dispatch(
                live, digest, model.phi, model.hyper,
                self.config.iterations, self.kernel_config,
                now, batch_id, prefer=prefer,
            )
        except ServeError as exc:
            self._fail_batch(live, str(exc), results, now, batch_id, model_key)
            return

        execution = outcome.execution
        if outcome.phi_uploaded:
            self.registry.counter(
                "serve_phi_uploads_total",
                "phi broadcasts to a replica.", ("replica",),
            ).inc(replica=execution.replica_id)

        # Hedging: if the primary's predicted service time exceeds the
        # policy quantile of recent batches, speculatively duplicate it
        # on the next-best replica at the moment the timeout would fire
        # and keep whichever completes first (payloads are identical).
        primary = execution
        hedge_exec: BatchExecution | None = None
        hedged = False
        hedge = self.config.hedge
        if (
            hedge is not None
            and len(self._service_times) >= hedge.min_observations
        ):
            threshold = self._service_times.quantile(hedge.quantile)
            if execution.end - now > threshold:
                alt = self.scheduler.hedge_candidate(
                    digest, execution.replica_id, now, prefer
                )
                if alt is not None:
                    self.registry.counter(
                        "serve_hedges_total",
                        "Speculative duplicate dispatches.",
                    ).inc()
                    try:
                        alt_exec, alt_uploaded = self.scheduler.hedge_dispatch(
                            alt, live, digest, model.phi, model.hyper,
                            self.config.iterations, self.kernel_config,
                            now + threshold, batch_id,
                        )
                    except FaultError:
                        pass  # primary still holds the payload
                    else:
                        hedge_exec = alt_exec
                        if alt_uploaded:
                            self.registry.counter(
                                "serve_phi_uploads_total",
                                "phi broadcasts to a replica.", ("replica",),
                            ).inc(replica=alt_exec.replica_id)
                        if alt_exec.end < execution.end:
                            execution = alt_exec
                            hedged = True
                            self.registry.counter(
                                "serve_hedge_wins_total",
                                "Hedged duplicates that finished first.",
                            ).inc()
        self._service_times.observe(execution.end - now)

        # These requests occupy the system until the batch's simulated
        # completion; admission counts them against max_queue.
        for _ in live:
            heapq.heappush(self._in_flight, execution.end)
        self._queue_gauges(now)
        if outcome.failovers:
            self.registry.counter(
                "serve_failovers_total",
                "Batches re-dispatched after a replica fault.",
            ).inc(outcome.failovers)
        self.registry.counter(
            "serve_batches_total", "Batches executed per replica.",
            ("replica",),
        ).inc(replica=execution.replica_id)
        self.registry.histogram(
            "serve_batch_size", "Requests per dispatched batch.",
        ).observe(len(live))
        self.registry.counter(
            "serve_tokens_served_total", "Tokens folded in (completed only).",
        )

        for request, inference in zip(live, execution.results):
            latency = execution.end - request.arrival_time
            self.registry.histogram(
                "serve_latency_seconds",
                "Request latency (arrival to batch completion).",
                buckets=LATENCY_BUCKETS,
            ).observe(latency)
            self.registry.histogram(
                "serve_queue_wait_seconds",
                "Arrival-to-dispatch wait.",
            ).observe(now - request.arrival_time)
            deadline = self._deadline_of(request)
            status = (
                "deadline_exceeded"
                if deadline is not None and latency > deadline
                else "completed"
            )
            self._record_request_trace(
                request, status, execution.end, dispatch=now,
                primary=primary, hedge_exec=hedge_exec, hedged=hedged,
                batch_id=batch_id, failovers=outcome.failovers,
            )
            if status == "deadline_exceeded":
                exc = DeadlineExceeded(request.request_id, deadline, latency)
                self._mark("deadline_exceeded")
                results[request.request_id] = RequestResult(
                    request=request, status="deadline_exceeded",
                    dispatch_time=now, completion_time=execution.end,
                    replica=execution.replica_id, batch_id=batch_id,
                    error=str(exc), failovers=outcome.failovers,
                    hedged=hedged,
                )
                continue
            self._mark("completed")
            self._observe_rollout(
                model_key, "completed",
                inference.log_likelihood_per_token, now,
            )
            self.registry.counter("serve_tokens_served_total").inc(
                request.num_tokens
            )
            results[request.request_id] = RequestResult(
                request=request, status="completed",
                doc_topic=inference.doc_topic,
                log_likelihood_per_token=inference.log_likelihood_per_token,
                dispatch_time=now, completion_time=execution.end,
                replica=execution.replica_id, batch_id=batch_id,
                failovers=outcome.failovers, hedged=hedged,
            )
