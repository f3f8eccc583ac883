"""The shared, serializable sampler state of a training run.

:class:`RunState` is what a mid-run checkpoint stores and what resume
restores: the model replicas (φ), the per-shard topic assignments z and
θ counts, every shard's RNG state, the iteration counter, and the
per-iteration history so far. "Shard" is whatever unit the algorithm
parallelizes over — CuLDA chunks, LDA* workers, or a single shard for
the sequential baselines.

RNG state crosses the serialization boundary as a JSON string of
``Generator.bit_generator.state`` (:func:`freeze_rng_state` /
:func:`thaw_rng_state`), which restores the exact stream position —
the keystone of bit-identical resume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunState", "freeze_rng_state", "thaw_rng_state"]


def freeze_rng_state(rng: np.random.Generator) -> str:
    """Serialize a Generator's exact stream position to JSON."""
    return json.dumps(rng.bit_generator.state)


def thaw_rng_state(payload: str) -> np.random.Generator:
    """Rebuild a Generator from :func:`freeze_rng_state` output."""
    state = json.loads(payload)
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


@dataclass
class RunState:
    """Complete sampler state of one training run.

    Attributes
    ----------
    algo: engine strategy name (``culda``, ``warplda``, ...); resume
        refuses a checkpoint written by a different algorithm.
    iteration: iterations completed so far.
    sim_seconds: simulated seconds accumulated over those iterations.
    history: per-iteration stats, one entry per completed iteration.
    phi: the host model replica (hard counts, or expected counts for
        SCVB0) — also what makes a run-state checkpoint loadable as a
        plain model checkpoint.
    topics: per-shard topic assignments z (dtype preserved).
    thetas: per-shard ``SparseTheta`` document–topic counts, or None
        for algorithms that keep no CSR θ.
    rngs: per-shard RNG generators, stream position intact.
    extras: algorithm-specific arrays (pending parameter-server deltas,
        SCVB0 expected counts, counters) keyed by name.
    sim_mark: where this run's simulated timeline stood when the state
        was captured. Restoring the state rewinds the trainer's charge
        mark to it, so the iterations it discards are charged to the
        rerun. Not serialized: a resumed run's clock restarts at 0, so
        it equals ``sim_seconds`` only in a run that did not resume.
    """

    algo: str
    iteration: int = 0
    sim_seconds: float = 0.0
    history: list = field(default_factory=list)
    phi: np.ndarray | None = None
    topics: list[np.ndarray] = field(default_factory=list)
    thetas: list | None = None
    rngs: list[np.random.Generator] = field(default_factory=list)
    extras: dict[str, np.ndarray] = field(default_factory=dict)
    sim_mark: float = 0.0

    @property
    def num_shards(self) -> int:
        return len(self.topics)
