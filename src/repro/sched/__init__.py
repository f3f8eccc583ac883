"""Parallelization scheme: partitioning, scheduling, synchronization.

Implements §4–5 of the paper:

- :mod:`repro.sched.partition` — partition-by-document with even token
  counts (Fig 3a), the partition-policy sync-volume analysis, and the
  memory-driven choice of the chunk multiplier M (§5.1).
- :mod:`repro.sched.schedule` — WorkSchedule1 (M = 1, data resident) and
  WorkSchedule2 (M > 1, per-iteration double-buffered transfers) from
  Algorithm 1.

The φ synchronization of §5.2 (the reduce tree + broadcast of Fig 4,
the ring/CPU-gather alternatives, the hierarchical composite) lives in
the collective layer, :mod:`repro.comm`, behind the ``--sync auto``
planner.
"""

from repro.sched.partition import (
    PartitionPlan,
    choose_chunking,
    estimate_chunk_device_bytes,
    partition_by_tokens,
    sync_volume_by_policy,
)
from repro.sched.byword import partition_words_by_tokens, train_by_word

__all__ = [
    "PartitionPlan",
    "partition_by_tokens",
    "choose_chunking",
    "estimate_chunk_device_bytes",
    "sync_volume_by_policy",
    "partition_words_by_tokens",
    "train_by_word",
]
