"""Machine-readable profile reports (``repro-lda profile --format json``).

One profile run emits one JSON document with schema ``repro-profile/1``::

    {
      "schema": "repro-profile/1",
      "corpus": "…", "machine": "…",
      "num_topics": K, "iterations": n,
      "simulated_seconds": …, "wall_seconds": …,
      "tokens_per_sec": …,                  # simulated-clock throughput
      "breakdown": {"kernel": 0.71, …},     # fraction of simulated time
      "device_busy": {"gpu0": 0.93, …},     # busy fraction per device
      "counters": [{"name": …, "labels": {…}, "value": …}, …],
      "faults": {"events": […], "rollbacks": n, "repartitions": n},
      "elasticity": {"node_recovery_stall_seconds_total": s,
                     "workers_migrated_total": n,
                     "shards_adopted_total": n},
      "sync_planner": [{"algorithm": …, "topology": …, "forced": bool,
                        "count": n, "predicted_seconds": …}, …]
    }

The schema is append-only: new keys may appear in later versions, but
existing keys keep their meaning, so downstream tooling can pin on
``schema == "repro-profile/1"`` and read what it knows.
"""

from __future__ import annotations

__all__ = [
    "ELASTICITY_COUNTERS",
    "PROFILE_SCHEMA",
    "counter_total",
    "profile_json",
]

PROFILE_SCHEMA = "repro-profile/1"

#: Elastic node-recovery counters surfaced explicitly in every profile
#: (zero-valued when the run had no faults) so dashboards can chart
#: recovery cost without scraping the open-ended counter list.
ELASTICITY_COUNTERS = (
    "node_recovery_stall_seconds_total",
    "workers_migrated_total",
    "shards_adopted_total",
)


def counter_total(registry, name: str) -> float:
    """Sum a counter family across all label sets (0.0 when absent)."""
    metric = registry.get(name)
    if metric is None:
        return 0.0
    return sum(s.value for s in metric.samples())


def profile_json(
    result,
    machine,
    registry,
    corpus_name: str,
    num_topics: int,
    top: int = 12,
) -> dict:
    """The ``--format json`` document for one instrumented training run."""
    from repro.comm import decisions_from_registry
    from repro.core.culda import BREAKDOWN_KINDS
    from repro.sched.schedule import busy_fractions

    breakdown = machine.trace.breakdown_fractions(BREAKDOWN_KINDS)
    busy = busy_fractions(
        machine.trace.intervals,
        [g.device_id for g in machine.gpus],
        0.0,
        machine.trace.makespan(),
    )
    return {
        "schema": PROFILE_SCHEMA,
        "corpus": corpus_name,
        "machine": machine.name,
        "num_topics": num_topics,
        "iterations": len(result.iterations),
        "simulated_seconds": result.total_sim_seconds,
        "wall_seconds": result.wall_seconds,
        "tokens_per_sec": result.avg_tokens_per_sec,
        "breakdown": {
            kind: breakdown.get(kind, 0.0) for kind in BREAKDOWN_KINDS
        },
        "device_busy": {f"gpu{dev}": busy[dev] for dev in sorted(busy)},
        "counters": [
            {"name": s.name, "labels": dict(s.labels), "value": s.value}
            for s in registry.top_counters(top)
        ],
        "faults": {
            "events": [dict(e) for e in result.fault_events],
            "rollbacks": result.rollbacks,
            "repartitions": result.repartitions,
        },
        "elasticity": {
            name: counter_total(registry, name)
            for name in ELASTICITY_COUNTERS
        },
        "sync_planner": decisions_from_registry(registry),
    }
