"""Serving resilience: replica health, circuit breakers, hedging, rollout.

PR 4's serving path had one-shot failover: a faulted batch moved to the
next replica, but the faulty replica stayed in the routing set and was
retried by every subsequent batch. This module gives the service the
machinery distributed LDA systems treat as table stakes (worker loss
and staleness are the *normal* case):

- :class:`HealthMonitor` — a per-replica health state machine
  (``healthy → suspect → dead → respawning``) driven by dispatch
  outcomes. A fault trips the replica's **circuit breaker**: it is
  ejected from routing (``suspect``) and *half-opened* after a cooldown
  — the next batch that finds the cooldown expired is the trial; a
  success closes the breaker (``healthy``), another fault re-opens it
  with an exponentially longer cooldown. ``dead_after`` consecutive
  faults — or any :class:`~repro.gpusim.errors.DeviceLost` — mark the
  replica ``dead`` permanently; the scheduler then activates a warm
  spare (``respawning``) if one is available.
- :class:`LatencyTracker` + :class:`HedgePolicy` — **hedged requests**.
  The tracker keeps a window of recent batch service times; when a
  dispatched batch's predicted service time exceeds the policy
  quantile, the service speculatively re-runs it on the next-best
  replica, launching at the moment the quantile timeout would fire,
  and takes whichever completion lands first. Payloads are
  bit-identical either way (each request's fold-in is a pure function
  of ``(docs, φ, seed, iterations)``), so hedging moves *time*, never
  bits.
- :class:`RolloutManager` + :class:`RolloutConfig` — **rolling model
  hot-swap**. A canary fraction of traffic for ``old_model`` is routed
  to ``new_model`` (deterministically, by request hash). Once enough
  canary and baseline results accumulate, the manager either rolls the
  new version out replica-by-replica (routing new-version batches to
  already-upgraded replicas) or **auto-rolls-back** on an error-rate or
  held-out-likelihood regression. Versions never share a φ buffer —
  the cache and the replicas key on content digest — so mixed-version
  traffic cannot see a stale or torn φ.
- :class:`DegradationPolicy` — **graceful degradation** under
  overload: above a queue-occupancy threshold the service enters
  degraded mode, shedding low-priority arrivals first and capping the
  micro-batcher's wait bound so admitted work drains immediately
  instead of queueing toward the rejection cliff.

All decisions run on the simulated clock and are deterministic: the
same trace, plan, and config reproduce the same transitions, hedges,
and rollout outcome.
"""

from __future__ import annotations

import bisect
import zlib
from collections import deque
from dataclasses import dataclass

from repro.gpusim.errors import DeviceLost
from repro.telemetry.context import emit_counter, emit_gauge

__all__ = [
    "HEALTH_STATES",
    "BreakerPolicy",
    "HealthMonitor",
    "HedgePolicy",
    "LatencyTracker",
    "DegradationPolicy",
    "ROLLOUT_STATES",
    "RolloutConfig",
    "RolloutManager",
]

#: Replica health states, in escalation order.
HEALTH_STATES = ("healthy", "suspect", "dead", "respawning")


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit-breaker knobs for the per-replica health machine.

    Attributes
    ----------
    dead_after: consecutive faults (without an intervening success)
        that mark a replica permanently ``dead``. ``DeviceLost`` kills
        immediately regardless.
    cooldown_seconds: how long a tripped (``suspect``) replica stays
        ejected from routing before the breaker half-opens and admits
        one trial batch.
    cooldown_factor: each re-trip multiplies the cooldown by this.
    upload_retries / upload_backoff_seconds: retry budget for the φ
        re-broadcast when a replica (re)spawns — the same
        :class:`~repro.comm.TransferRetry` policy training uses
        for sync transfers.
    """

    dead_after: int = 3
    cooldown_seconds: float = 5e-3
    cooldown_factor: float = 2.0
    upload_retries: int = 3
    upload_backoff_seconds: float = 1e-4

    def __post_init__(self) -> None:
        if self.dead_after < 1:
            raise ValueError("dead_after must be >= 1")
        if self.cooldown_seconds <= 0:
            raise ValueError("cooldown_seconds must be positive")
        if self.cooldown_factor < 1.0:
            raise ValueError("cooldown_factor must be >= 1")
        if self.upload_retries < 0:
            raise ValueError("upload_retries must be >= 0")
        if self.upload_backoff_seconds <= 0:
            raise ValueError("upload_backoff_seconds must be positive")

    def transfer_retry(self):
        """The φ-broadcast retry policy (PR 3's transfer-retry path)."""
        from repro.comm import TransferRetry

        return TransferRetry(
            max_retries=self.upload_retries,
            backoff_seconds=self.upload_backoff_seconds,
        )


@dataclass
class _ReplicaRecord:
    state: str = "healthy"
    #: Consecutive faults since the last success.
    streak: int = 0
    #: Breaker trips (drives the exponential cooldown).
    trips: int = 0
    #: Simulated time at which a suspect replica half-opens.
    retry_at: float = 0.0


class HealthMonitor:
    """Tracks every replica's health state and breaker timers.

    The monitor is clock-free: callers pass the simulated *now* with
    each event, so transitions are deterministic and replayable.
    """

    def __init__(self, policy: BreakerPolicy | None = None):
        self.policy = policy or BreakerPolicy()
        self._records: dict[int, _ReplicaRecord] = {}
        #: Transition log: (sim_time, replica_id, from_state, to_state).
        self.transitions: list[tuple[float, int, str, str]] = []

    # ------------------------------------------------------------------
    def register(self, replica_id: int, state: str = "healthy") -> None:
        if state not in HEALTH_STATES:
            raise ValueError(f"state must be one of {HEALTH_STATES}")
        self._records[replica_id] = _ReplicaRecord(state=state)

    def state(self, replica_id: int) -> str:
        return self._records[replica_id].state

    def states(self) -> dict[int, str]:
        return {rid: rec.state for rid, rec in self._records.items()}

    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in HEALTH_STATES}
        for rec in self._records.values():
            out[rec.state] += 1
        return out

    # ------------------------------------------------------------------
    def _transition(self, replica_id: int, to: str, now: float) -> None:
        rec = self._records[replica_id]
        if rec.state == to:
            return
        self.transitions.append((now, replica_id, rec.state, to))
        rec.state = to
        emit_counter(
            "serve_health_transitions_total", 1,
            help="Replica health-state transitions.",
            replica=replica_id, to=to,
        )
        emit_gauge(
            "serve_replicas_healthy", self.counts()["healthy"],
            help="Replicas currently in the healthy state.",
        )

    # ------------------------------------------------------------------
    def routable(self, replica_id: int, now: float) -> bool:
        """May the scheduler send a batch to this replica at *now*?

        ``healthy`` and ``respawning`` replicas route; ``dead`` never
        does; ``suspect`` routes only once its cooldown has expired —
        that dispatch *is* the breaker's half-open trial.
        """
        rec = self._records.get(replica_id)
        if rec is None:
            return True
        if rec.state == "dead":
            return False
        if rec.state == "suspect":
            return now >= rec.retry_at
        return True

    def on_success(self, replica_id: int, now: float) -> str:
        """A dispatched batch completed on the replica: close the breaker."""
        rec = self._records.setdefault(replica_id, _ReplicaRecord())
        if rec.state == "dead":
            return rec.state  # pragma: no cover - dead replicas don't serve
        rec.streak = 0
        rec.trips = 0
        self._transition(replica_id, "healthy", now)
        return rec.state

    def on_fault(self, replica_id: int, exc: BaseException, now: float) -> str:
        """A dispatch attempt faulted: trip (or re-trip) the breaker.

        Returns the replica's new state. ``DeviceLost`` — or
        ``dead_after`` consecutive faults — is terminal.
        """
        rec = self._records.setdefault(replica_id, _ReplicaRecord())
        rec.streak += 1
        if isinstance(exc, DeviceLost) or rec.streak >= self.policy.dead_after:
            self._transition(replica_id, "dead", now)
            return rec.state
        rec.trips += 1
        rec.retry_at = now + (
            self.policy.cooldown_seconds
            * self.policy.cooldown_factor ** (rec.trips - 1)
        )
        self._transition(replica_id, "suspect", now)
        return rec.state

    def mark_dead(self, replica_id: int, now: float) -> None:
        rec = self._records.setdefault(replica_id, _ReplicaRecord())
        rec.streak = max(rec.streak, self.policy.dead_after)
        self._transition(replica_id, "dead", now)

    def mark_respawning(self, replica_id: int, now: float) -> None:
        """A warm spare is being activated in this replica slot."""
        self._records[replica_id] = _ReplicaRecord(state="respawning")
        self.transitions.append((now, replica_id, "dead", "respawning"))
        emit_counter(
            "serve_health_transitions_total", 1,
            help="Replica health-state transitions.",
            replica=replica_id, to="respawning",
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        states = ", ".join(f"{r}:{s}" for r, s in sorted(self.states().items()))
        return f"HealthMonitor({states})"


# ----------------------------------------------------------------------
# Hedged requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HedgePolicy:
    """When to speculatively duplicate a slow batch.

    A batch whose predicted service time exceeds the ``quantile`` of
    the last ``window`` batch service times is re-dispatched on the
    next-best replica; the earlier completion wins. No hedging happens
    until ``min_observations`` service times have been recorded (cold
    quantiles hedge everything or nothing).
    """

    quantile: float = 0.95
    min_observations: int = 16
    window: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if self.window < self.min_observations:
            raise ValueError("window must be >= min_observations")


class LatencyTracker:
    """Sliding-window empirical quantiles of batch service times."""

    def __init__(self, window: int = 256):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._fifo: deque[float] = deque()
        self._sorted: list[float] = []

    def observe(self, value: float) -> None:
        self._fifo.append(value)
        bisect.insort(self._sorted, value)
        if len(self._fifo) > self.window:
            old = self._fifo.popleft()
            del self._sorted[bisect.bisect_left(self._sorted, old)]

    def __len__(self) -> int:
        return len(self._fifo)

    def quantile(self, q: float) -> float:
        if not self._sorted:
            raise ValueError("no observations")
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        idx = min(len(self._sorted) - 1, int(q * len(self._sorted)))
        return self._sorted[idx]


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DegradationPolicy:
    """Overload behaviour short of rejecting everything.

    When the in-system occupancy (pending + in-flight over
    ``max_queue``) reaches ``shed_occupancy`` the service enters
    degraded mode: arrivals with ``priority < shed_priority_below`` are
    rejected (reason ``shed_low_priority``) while higher-priority
    traffic is still admitted, and the micro-batcher's wait bound is
    capped at ``degraded_max_wait_seconds`` so queued work dispatches
    immediately instead of waiting for fuller batches. The mode exits
    once occupancy falls below ``exit_occupancy`` (hysteresis, default
    half the entry threshold).
    """

    shed_occupancy: float = 0.75
    shed_priority_below: int = 1
    degraded_max_wait_seconds: float = 0.0
    exit_occupancy: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.shed_occupancy <= 1.0:
            raise ValueError("shed_occupancy must be in (0, 1]")
        if self.shed_priority_below < 0:
            raise ValueError("shed_priority_below must be >= 0")
        if self.degraded_max_wait_seconds < 0:
            raise ValueError("degraded_max_wait_seconds must be >= 0")
        if self.exit_occupancy is not None and not (
            0.0 <= self.exit_occupancy <= self.shed_occupancy
        ):
            raise ValueError(
                "exit_occupancy must be in [0, shed_occupancy]"
            )

    @property
    def exit_threshold(self) -> float:
        if self.exit_occupancy is not None:
            return self.exit_occupancy
        return self.shed_occupancy / 2.0


# ----------------------------------------------------------------------
# Rolling model hot-swap
# ----------------------------------------------------------------------
ROLLOUT_STATES = ("canary", "promoting", "completed", "rolled_back")

#: serve_rollout_state gauge encoding.
_ROLLOUT_GAUGE = {"canary": 1, "promoting": 2, "completed": 3,
                  "rolled_back": -1}


@dataclass(frozen=True)
class RolloutConfig:
    """One rolling upgrade: ``old_model`` → ``new_model``.

    Attributes
    ----------
    old_model / new_model: checkpoint paths (service model keys).
    canary_fraction: share of ``old_model`` traffic routed to the new
        version while in the ``canary`` state.
    min_canary / min_baseline: terminal results required on each
        version before the first promote-or-rollback decision.
    max_error_rate_increase: canary failed-rate may exceed the
        baseline's by at most this before rollback.
    max_ll_regression: canary mean held-out log-likelihood/token may
        trail the baseline's by at most this (nats) before rollback.
    promote_step: new-version completions between successive
        replica promotions during the ``promoting`` state.
    """

    old_model: str
    new_model: str
    canary_fraction: float = 0.1
    min_canary: int = 16
    min_baseline: int = 16
    max_error_rate_increase: float = 0.05
    max_ll_regression: float = 0.25
    promote_step: int = 8

    def __post_init__(self) -> None:
        if self.old_model == self.new_model:
            raise ValueError("old_model and new_model must differ")
        if not 0.0 < self.canary_fraction < 1.0:
            raise ValueError("canary_fraction must be in (0, 1)")
        if self.min_canary < 1 or self.min_baseline < 1:
            raise ValueError("min_canary and min_baseline must be >= 1")
        if self.max_error_rate_increase < 0:
            raise ValueError("max_error_rate_increase must be >= 0")
        if self.max_ll_regression <= 0:
            raise ValueError("max_ll_regression must be positive")
        if self.promote_step < 1:
            raise ValueError("promote_step must be >= 1")


@dataclass
class _VersionStats:
    completed: int = 0
    failed: int = 0
    ll_sum: float = 0.0
    ll_count: int = 0

    @property
    def terminal(self) -> int:
        return self.completed + self.failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.terminal if self.terminal else 0.0

    @property
    def mean_ll(self) -> float | None:
        return self.ll_sum / self.ll_count if self.ll_count else None


class RolloutManager:
    """Routes and judges one rolling upgrade.

    States: ``canary`` (a hash-selected fraction of traffic tries the
    new version) → ``promoting`` (replicas upgrade one at a time; the
    new-version traffic share ramps with them) → ``completed`` — or
    ``rolled_back`` at any point where the canary regresses. Routing is
    deterministic: a request's version is a pure function of its
    ``(request_id, seed)`` hash and the current rollout state.
    """

    def __init__(self, config: RolloutConfig, num_replicas: int):
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        self.config = config
        self.num_replicas = num_replicas
        self.state = "canary"
        self.upgraded = 0            # replicas promoted so far
        self.rollback_reason: str | None = None
        self._stats = {
            config.old_model: _VersionStats(),
            config.new_model: _VersionStats(),
        }
        self._completions_at_last_promote = 0
        self._emit_state()

    # ------------------------------------------------------------------
    def _emit_state(self) -> None:
        emit_gauge(
            "serve_rollout_state", _ROLLOUT_GAUGE[self.state],
            help="Rollout state: 1 canary, 2 promoting, 3 completed, "
                 "-1 rolled back.",
        )
        emit_gauge(
            "serve_rollout_fraction", self.fraction(),
            help="Share of rollout traffic routed to the new model.",
        )

    def fraction(self) -> float:
        """Current share of ``old_model`` traffic sent to the new one."""
        if self.state == "rolled_back":
            return 0.0
        if self.state == "completed":
            return 1.0
        if self.state == "promoting":
            return max(self.config.canary_fraction,
                       self.upgraded / self.num_replicas)
        return self.config.canary_fraction

    @staticmethod
    def _hash_unit(request) -> float:
        """Deterministic request → [0, 1) hash (id + seed)."""
        key = f"{request.request_id}:{request.seed}".encode()
        return (zlib.crc32(key) & 0xFFFFFFFF) / 2**32

    def route(self, request) -> str:
        """The model key this request should actually be served from."""
        if request.model_key != self.config.old_model:
            return request.model_key
        if self._hash_unit(request) < self.fraction():
            return self.config.new_model
        return self.config.old_model

    def preferred_replicas(self, model_key: str,
                           replica_ids: list[int]) -> set[int] | None:
        """Replica-affinity for rolling upgrades.

        During ``promoting``, new-version batches prefer the first
        ``upgraded`` replica slots and old-version batches prefer the
        rest, so each replica flips version once instead of thrashing
        its φ residency.
        """
        if self.state != "promoting" or not 0 < self.upgraded < len(replica_ids):
            return None
        upgraded = set(replica_ids[: self.upgraded])
        if model_key == self.config.new_model:
            return upgraded
        if model_key == self.config.old_model:
            return set(replica_ids) - upgraded
        return None

    # ------------------------------------------------------------------
    def observe(self, model_key: str, status: str,
                ll_per_token: float | None, now: float) -> None:
        """Feed one terminal request outcome into the rollout decision."""
        stats = self._stats.get(model_key)
        if stats is None or self.state in ("completed", "rolled_back"):
            return
        if status == "completed":
            stats.completed += 1
            if ll_per_token is not None:
                stats.ll_sum += ll_per_token
                stats.ll_count += 1
        elif status == "failed":
            stats.failed += 1
        else:
            return  # rejected / deadline_exceeded: load, not model quality
        self._decide(now)

    def _regression(self) -> str | None:
        old = self._stats[self.config.old_model]
        new = self._stats[self.config.new_model]
        if new.error_rate > old.error_rate + self.config.max_error_rate_increase:
            return (
                f"canary error rate {new.error_rate:.1%} exceeds baseline "
                f"{old.error_rate:.1%} by more than "
                f"{self.config.max_error_rate_increase:.1%}"
            )
        if old.mean_ll is not None and new.mean_ll is not None:
            drop = old.mean_ll - new.mean_ll
            if drop > self.config.max_ll_regression:
                return (
                    "canary held-out log-likelihood regressed by "
                    f"{drop:.3f} nats/token (bound "
                    f"{self.config.max_ll_regression})"
                )
        return None

    def _decide(self, now: float) -> None:
        old = self._stats[self.config.old_model]
        new = self._stats[self.config.new_model]
        if new.terminal < self.config.min_canary or (
            self.state == "canary" and old.terminal < self.config.min_baseline
        ):
            return
        reason = self._regression()
        if reason is not None:
            self._rollback(reason, now)
            return
        if self.state == "canary":
            self.state = "promoting"
            self._promote(now)
            return
        if self.state == "promoting":
            since = new.completed - self._completions_at_last_promote
            if since >= self.config.promote_step:
                self._promote(now)

    def _promote(self, now: float) -> None:
        self.upgraded += 1
        self._completions_at_last_promote = (
            self._stats[self.config.new_model].completed
        )
        emit_counter(
            "serve_rollout_promotions_total", 1,
            help="Replica slots promoted to the new model version.",
        )
        if self.upgraded >= self.num_replicas:
            self.state = "completed"
        self._emit_state()

    def _rollback(self, reason: str, now: float) -> None:
        self.state = "rolled_back"
        self.rollback_reason = reason
        emit_counter(
            "serve_rollout_rollbacks_total", 1,
            help="Rollouts automatically rolled back on canary regression.",
        )
        self._emit_state()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RolloutManager(state={self.state!r}, "
            f"fraction={self.fraction():.2f}, "
            f"upgraded={self.upgraded}/{self.num_replicas})"
        )
