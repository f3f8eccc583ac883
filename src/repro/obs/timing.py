"""Repeated-median wall-clock timing for the benchmark suite.

The simulated-clock metrics in this repo are bit-stable, but the NumPy
hot paths (the vectorized sampling kernel, φ accumulation, alias-table
construction) are real wall-clock measurements and therefore noisy.
:func:`repeated_median` runs the payload ``rounds`` times, keeps every
per-round duration, and reports the **median** with the inter-quartile
range as the dispersion estimate — a robust summary the registry
computes without any test runner.

The comparator (:mod:`repro.obs.compare`) derives its wall-clock
tolerance from the larger of the two snapshots' IQRs, so a noisy
machine widens its own gate instead of tripping it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["WallTiming", "repeated_median"]


@dataclass(frozen=True)
class WallTiming:
    """Robust summary of repeated wall-clock measurements (seconds)."""

    median: float
    iqr: float
    min: float
    max: float
    rounds: int

    def as_dict(self) -> dict:
        return {
            "median": self.median,
            "iqr": self.iqr,
            "min": self.min,
            "max": self.max,
            "rounds": self.rounds,
        }


def repeated_median(
    fn: Callable[[], object],
    rounds: int = 5,
    warmup: int = 1,
) -> WallTiming:
    """Time ``fn()`` *rounds* times; return the median ± IQR.

    ``warmup`` extra calls run first and are discarded (first-call
    effects: allocator growth, icache, numpy's lazy kernels).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    for _ in range(warmup):
        fn()
    durations = np.empty(rounds, dtype=np.float64)
    for i in range(rounds):
        t0 = time.perf_counter()
        fn()
        durations[i] = time.perf_counter() - t0
    q1, med, q3 = np.percentile(durations, [25.0, 50.0, 75.0])
    return WallTiming(
        median=float(med),
        iqr=float(q3 - q1),
        min=float(durations.min()),
        max=float(durations.max()),
        rounds=rounds,
    )
