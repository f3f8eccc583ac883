"""Pieces both workload kinds share: the outcome record, the host-
calibrated timing loop, and summaries of simulated-trace intervals and
wall-clock spans."""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Outcome:
    """Everything one workload run measured and checked.

    ``attempted`` counts units of work (training iterations or served
    requests); a run that fails any check counts all of its units as
    ``failed``.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: End-to-end metric values, plus the IQR of each wall metric.
    e2e: dict[str, float] = field(default_factory=dict)
    iqr: dict[str, float] = field(default_factory=dict)
    #: Metrics recorded only in ``--out`` snapshots.
    extra: dict[str, float] = field(default_factory=dict)
    #: Per-layer values read from the program's outputs (every run).
    layers: dict[str, float] = field(default_factory=dict)
    #: Per-layer values from the traced run's spans, keyed by every
    #: name they could feed; callers keep the declared ones.
    wall_layers: dict[str, float] = field(default_factory=dict)
    #: The traced run's spans and its wall seconds (``--trace 1``).
    tracer: object | None = None
    traced_wall: float = 0.0

    def record(self, units: int, problems: list[str]) -> None:
        """Account one checked run of *units* units of work."""
        self.attempted += units
        if problems:
            self.failed += units
            self.problems.extend(problems)


#: Seconds the calibration kernel takes on the reference host, a quiet
#: 2-core x86 VM. Every wall metric is reported as seconds on that host.
REFERENCE_SECONDS = 0.0030

_CAL_RNG = np.random.default_rng(12345)
_CAL_KEYS = _CAL_RNG.integers(0, 1 << 20, 15_000)
_CAL_WORDS = _CAL_RNG.integers(0, 4096, 15_000)


def calibration_kernel() -> float:
    """Wall seconds of fixed work shaped like the simulator's: about
    half interpreted Python, half NumPy sorting and scattering."""
    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(9000):
        acc[i % 97] = acc.get(i % 97, 0) + i * i
    counts = np.zeros(4096)
    np.add.at(counts, _CAL_WORDS[np.argsort(_CAL_KEYS, kind="stable")], 1.0)
    np.bincount(_CAL_WORDS, minlength=4096).cumsum()
    return time.perf_counter() - t0


def host_factor(repeats: int = 21) -> float:
    """What turns a wall time measured now into seconds on the reference
    host: ``REFERENCE_SECONDS`` over the calibration kernel's median time.

    A shared 2-core host changed speed by up to 60% within minutes,
    which no run length averages out; the program and the fixed kernel
    slow down together, so their ratio held to a few percent. One
    kernel call varied by up to 20%; the median of 21 (~60 ms) did not."""
    return REFERENCE_SECONDS / statistics.median(
        calibration_kernel() for _ in range(repeats)
    )


def calibrated(walls: list[float], kernel: list[float], half: int = 2) -> list[float]:
    """*walls* in reference-host seconds, where ``kernel[i]`` is a
    calibration kernel time taken just before ``walls[i]``: each wall
    is scaled by the median kernel time over the ``2 * half + 1``
    samples around it, which follows the host's speed from one unit of
    work (a training iteration, a serving slice) to the next."""
    return [
        wall * REFERENCE_SECONDS
        / statistics.median(kernel[max(0, i - half):i + half + 1])
        for i, wall in enumerate(walls)
    ]


def timed(run: Callable[[], object]) -> tuple[object, float, float]:
    """``(result, seconds, factor)`` of one ``run()`` call bracketed by
    calibrations: *seconds* is its wall time times *factor*, the mean
    ``host_factor()`` before and after."""
    before = host_factor()
    t0 = time.perf_counter()
    result = run()
    wall = time.perf_counter() - t0
    factor = (before + host_factor()) / 2
    return result, wall * factor, factor


def repeat_for(seconds: float, run: Callable[[], object]) -> list:
    """Results of ``run()`` calls: at least one, then more while another
    call as long as the last still fits in *seconds*."""
    start = time.perf_counter()
    out = []
    while True:
        t0 = time.perf_counter()
        out.append(run())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return out


def setup_times(trial: Callable[[], float], trials: int, warmup: int) -> list[float]:
    """*trials* wall times from ``trial()``, each started from a
    collected heap and in reference-host seconds by the calibration
    kernel's median over 3 calls before and 3 after it, after *warmup*
    discarded ones. Called after the measured runs: in a fresh process
    the first ~10 set-ups ran ~30% slower while the allocator settled."""
    times = []
    for i in range(warmup + trials):
        gc.collect()
        kernel = [calibration_kernel() for _ in range(3)]
        wall = trial()
        kernel += [calibration_kernel() for _ in range(3)]
        if i >= warmup:
            times.append(wall * REFERENCE_SECONDS / statistics.median(kernel))
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value stands for all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def rate_with_iqr(work: float, seconds: list[float]) -> tuple[float, float]:
    """*work* per median second, and the IQR of that rate."""
    q1, med, q3 = quartiles(seconds)
    return work / med, work / q1 - work / q3


def interval_totals(intervals) -> tuple[dict[str, float], dict[str, float]]:
    """Summed ``(seconds, bytes)`` per interval kind."""
    seconds: dict[str, float] = defaultdict(float)
    nbytes: dict[str, float] = defaultdict(float)
    for iv in intervals:
        seconds[iv.kind] += iv.duration
        nbytes[iv.kind] += iv.bytes_moved
    return seconds, nbytes


def transfer_layers(seconds: dict, nbytes: dict, units: int) -> dict[str, float]:
    """Host-transfer and GPU-to-GPU layer metrics per unit of work."""
    return {
        "sched.h2d.sim_s": seconds["h2d"] / units,
        "sched.h2d.bytes": nbytes["h2d"] / units,
        "sched.d2h.sim_s": seconds["d2h"] / units,
        "sched.d2h.bytes": nbytes["d2h"] / units,
        "comm.sync.sim_s": seconds["sync"] / units,
        "comm.p2p.sim_s": seconds["p2p"] / units,
        "comm.p2p.bytes": nbytes["p2p"] / units,
    }


def wall_layers(totals: dict, units: int) -> dict[str, float]:
    """Span totals as per-unit layer metrics (every suffix of every span)."""
    out = {}
    for name, row in totals.items():
        out[f"{name}.wall_s"] = row["wall_s"] / units
        out[f"{name}.self_wall_s"] = row["self_wall_s"] / units
        out[f"{name}.calls"] = row["calls"] / units
        out[f"{name}.tokens"] = row["items"] / units
    return out
