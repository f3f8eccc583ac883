"""Micro-batching: coalesce concurrent fold-in requests.

The paper's word-first sort (§6.1) is a batching argument: samplers that
share a word share the staged p* column and the p₂ index tree, so the
dense part of the conditional is paid once per *word segment*, not once
per token. Grouping concurrent requests into one fold-in batch extends
the same amortization across requests — the batch's combined chunk has
fewer word segments than the per-request chunks summed, which is exactly
how :func:`repro.serve.replica.foldin_batch_cost` charges it.

The policy is the classic max-size / max-wait pair:

- a batch dispatches **immediately** when it reaches
  ``max_batch_size`` pending requests for one model, and
- a non-full batch dispatches when its *oldest* request has waited
  ``max_wait_seconds`` — so no admitted request ever waits past the
  bound for batching reasons (tested as a property).

Requests are FIFO within a model; batches never mix models (they share
one frozen φ).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.serve.request import InferenceRequest

__all__ = ["BatchPolicy", "MicroBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batching knobs.

    Attributes
    ----------
    max_batch_size: dispatch as soon as this many requests for one
        model are pending.
    max_wait_seconds: dispatch a non-full batch once its oldest request
        has waited this long.
    """

    max_batch_size: int = 8
    max_wait_seconds: float = 2e-3

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be non-negative")


class MicroBatcher:
    """Per-model FIFO queues under a :class:`BatchPolicy`.

    The batcher holds no clock of its own — callers drive it from the
    event loop: :meth:`enqueue` new arrivals, ask :meth:`next_due` when
    the earliest wait-bound flush is, and :meth:`pop_batch` to take a
    batch out (either because :meth:`ready` says a queue is full or
    because the due time arrived).
    """

    def __init__(self, policy: BatchPolicy | None = None):
        self.policy = policy or BatchPolicy()
        #: model key → FIFO of pending requests. Ordered so ties on the
        #: due time resolve deterministically (insertion order).
        self._pending: "OrderedDict[str, deque[InferenceRequest]]" = OrderedDict()
        #: Degraded-mode override: when set, the effective wait bound is
        #: ``min(policy.max_wait_seconds, wait_cap)`` so queued work
        #: flushes promptly under overload (see
        #: :class:`~repro.serve.resilience.DegradationPolicy`).
        self.wait_cap: float | None = None

    @property
    def effective_wait(self) -> float:
        if self.wait_cap is None:
            return self.policy.max_wait_seconds
        return min(self.policy.max_wait_seconds, self.wait_cap)

    # ------------------------------------------------------------------
    def enqueue(self, request: InferenceRequest) -> None:
        """Append *request* to its model's FIFO."""
        self._pending.setdefault(request.model_key, deque()).append(request)

    def depth(self, model_key: str | None = None) -> int:
        """Pending request count (for one model, or in total)."""
        if model_key is not None:
            q = self._pending.get(model_key)
            return len(q) if q else 0
        return sum(len(q) for q in self._pending.values())

    def ready(self, model_key: str) -> bool:
        """True when *model_key*'s queue holds a full batch."""
        return self.depth(model_key) >= self.policy.max_batch_size

    # ------------------------------------------------------------------
    def due_time(self, model_key: str) -> float:
        """When *model_key*'s oldest pending request must dispatch."""
        q = self._pending.get(model_key)
        if not q:
            raise KeyError(f"no pending requests for model {model_key!r}")
        return q[0].arrival_time + self.effective_wait

    def next_due(self) -> tuple[str, float] | None:
        """The (model, time) of the earliest wait-bound flush, or None.

        Ties break on queue insertion order (the OrderedDict), keeping
        replays deterministic.
        """
        best: tuple[str, float] | None = None
        wait = self.effective_wait
        for model, q in self._pending.items():
            if not q:
                continue
            due = q[0].arrival_time + wait
            if best is None or due < best[1]:
                best = (model, due)
        return best

    def pop_batch(self, model_key: str) -> list[InferenceRequest]:
        """Remove and return up to ``max_batch_size`` requests, FIFO."""
        q = self._pending.get(model_key)
        if not q:
            raise KeyError(f"no pending requests for model {model_key!r}")
        batch = [q.popleft() for _ in range(min(len(q), self.policy.max_batch_size))]
        if not q:
            del self._pending[model_key]
        return batch

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MicroBatcher(depth={self.depth()}, "
            f"models={len(self._pending)}, policy={self.policy})"
        )
