"""Unified per-iteration and per-run results for every trainer.

One :class:`IterationStats` / :class:`TrainResult` pair replaces the
per-algorithm result dataclasses the trainers used to carry. Fields a
given algorithm does not produce keep their neutral defaults (an empty
breakdown, ``theta=None``, zero simulated time), so downstream
consumers — ``summary()``, ``repro.report``, ``save_model`` — work on
any trainer's output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BREAKDOWN_KINDS", "IterationStats", "TrainResult"]

#: The operation kinds a training timeline decomposes into. Together
#: they cover every simulated interval a train() run records, so
#: breakdown percentages over these kinds sum to 100.
BREAKDOWN_KINDS = (
    "sampling", "update_theta", "update_phi", "sync", "p2p", "h2d", "d2h",
)

#: Human-readable trainer names for summaries and reports.
_DISPLAY_NAMES = {
    "culda": "CuLDA_CGS",
    "saberlda": "SaberLDA",
    "warplda": "WarpLDA",
    "scvb0": "SCVB0",
    "ldastar": "LDA*",
}


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration measurements (the Fig 7 series).

    The first six fields match the historical CuLDA layout; the trailing
    network/compute split is populated by the distributed trainer. There
    ``compute_seconds`` runs from the iteration's barrier to the last
    host's Δφ sum, and ``network_seconds`` from there to the inter-node
    leg's last delivery.
    """

    iteration: int
    sim_seconds: float = 0.0
    tokens_per_sec: float = 0.0
    mean_kd: float = 0.0
    p1_fraction: float = 0.0
    log_likelihood_per_token: float | None = None
    network_seconds: float = 0.0
    compute_seconds: float = 0.0


@dataclass
class TrainResult:
    """Outputs of one training run, shared by all trainers."""

    corpus_name: str
    machine_name: str = ""
    num_gpus: int = 0
    num_tokens: int = 0
    plan_chunks: int = 0
    chunks_per_gpu: int = 0
    iterations: list[IterationStats] = field(default_factory=list)
    total_sim_seconds: float = 0.0
    wall_seconds: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)
    phi: np.ndarray | None = None
    theta: object | None = None        # SparseTheta, when the trainer keeps one
    hyper: object | None = None        # LDAHyperParams
    #: High-water device-memory mark across GPUs (bytes) — what §5.1's
    #: chunking decision actually bounded.
    peak_device_bytes: int = 0
    #: Per-token topic assignment in the ORIGINAL corpus token order
    #: (int32[T]); None for trainers without hard assignments.
    topics: np.ndarray | None = None
    #: Which algorithm produced this result (engine strategy name).
    algo: str = "culda"
    #: CPU-hosted trainers: the processor model used for timing.
    cpu_name: str = ""
    #: Distributed trainer: cluster size and total network traffic.
    num_workers: int = 0
    network_bytes: float = 0.0
    #: SCVB0: the expected-count matrices (φ is their hard-count analog).
    n_phi: np.ndarray | None = None
    n_theta: np.ndarray | None = None
    #: Chaos runs: faults injected (injector event dicts) and the
    #: recovery actions the loop took to survive them.
    fault_events: list = field(default_factory=list)
    rollbacks: int = 0
    repartitions: int = 0

    @property
    def avg_tokens_per_sec(self) -> float:
        """Eq 2 over the whole run: T × iters / simulated elapsed."""
        iters = len(self.iterations)
        if self.total_sim_seconds == 0:
            return 0.0
        return self.num_tokens * iters / self.total_sim_seconds

    @property
    def final_log_likelihood(self) -> float | None:
        for it in reversed(self.iterations):
            if it.log_likelihood_per_token is not None:
                return it.log_likelihood_per_token
        return None

    def top_words(self, topic: int, n: int = 10) -> list[int]:
        """Word ids with the highest φ counts for *topic*."""
        if self.phi is None:
            raise ValueError("result carries no phi")
        if not 0 <= topic < self.phi.shape[0]:
            raise IndexError("topic out of range")
        col = self.phi[topic]
        return [int(w) for w in np.argsort(col)[::-1][:n]]

    def summary(self) -> str:
        ll = self.final_log_likelihood
        name = _DISPLAY_NAMES.get(self.algo, self.algo)
        if self.machine_name:
            where = f"{self.machine_name} ({self.num_gpus} GPU(s))"
        elif self.num_workers:
            where = f"{self.num_workers}x {self.cpu_name or 'cpu'}"
        else:
            where = self.cpu_name or "host"
        lines = [
            f"{name} on {where}",
            f"  corpus: {self.corpus_name}  T={self.num_tokens:,}  "
            f"K={self.hyper.num_topics}",
        ]
        if self.plan_chunks:
            lines.append(
                f"  chunks: C={self.plan_chunks} (M={self.chunks_per_gpu})"
            )
        lines.append(
            f"  iterations: {len(self.iterations)}  "
            f"simulated: {self.total_sim_seconds:.3f}s  "
            f"wall: {self.wall_seconds:.1f}s"
        )
        lines.append(
            f"  throughput: {self.avg_tokens_per_sec / 1e6:.1f}M "
            "tokens/sec (simulated)"
        )
        if ll is not None:
            lines.append(f"  log-likelihood/token: {ll:.4f}")
        if self.fault_events or self.rollbacks or self.repartitions:
            lines.append(
                f"  recovery: {len(self.fault_events)} fault event(s), "
                f"{self.rollbacks} rollback(s), "
                f"{self.repartitions} repartition(s)"
            )
        if self.breakdown:
            parts = ", ".join(
                f"{k} {self.breakdown.get(k, 0.0) * 100:.1f}%"
                for k in BREAKDOWN_KINDS
            )
            lines.append(f"  breakdown: {parts}")
        return "\n".join(lines)
