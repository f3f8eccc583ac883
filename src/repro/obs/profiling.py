"""Profile reports (``repro-lda profile``).

One profile run is one JSON document with schema ``repro-profile/1``.
``--format json`` prints it; the text view (:func:`format_profile`)
renders the same document::

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
                        "count": n, "lanes": L,
                        "predicted_seconds": …}, …]
    }

``machine`` and ``breakdown`` are the run's own
:class:`~repro.engine.results.TrainResult` values, so a multi-node run
reports the cluster (``"2x …"``) and a breakdown over every node's
trace. ``device_busy`` covers every node's GPUs: ``gpu{d}`` on one
machine, ``gpu{n}.{d}`` (node *n*, device *d*) on a cluster.

The schema is append-only: new keys may appear in later versions, but
existing keys keep their meaning, so downstream tooling can pin on
``schema == "repro-profile/1"`` and read what it knows.
"""

from __future__ import annotations

__all__ = [
    "ELASTICITY_COUNTERS",
    "PROFILE_SCHEMA",
    "counter_total",
    "format_profile",
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
    machines,
    registry,
    corpus_name: str,
    num_topics: int,
    top: int = 12,
) -> dict:
    """The profile document of one instrumented training run on
    *machines* (one per node)."""
    from repro.comm import decisions_from_registry
    from repro.core.culda import BREAKDOWN_KINDS
    from repro.sched.schedule import busy_fractions

    device_busy = {}
    for n, machine in enumerate(machines):
        busy = busy_fractions(
            machine.trace.intervals,
            [g.device_id for g in machine.gpus],
            0.0,
            machine.trace.makespan(),
        )
        prefix = f"gpu{n}." if len(machines) > 1 else "gpu"
        for dev in sorted(busy):
            device_busy[f"{prefix}{dev}"] = busy[dev]
    return {
        "schema": PROFILE_SCHEMA,
        "corpus": corpus_name,
        "machine": result.machine_name,
        "num_topics": num_topics,
        "iterations": len(result.iterations),
        "simulated_seconds": result.total_sim_seconds,
        "wall_seconds": result.wall_seconds,
        "tokens_per_sec": result.avg_tokens_per_sec,
        "breakdown": {
            kind: result.breakdown.get(kind, 0.0) for kind in BREAKDOWN_KINDS
        },
        "device_busy": device_busy,
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


def format_profile(report: dict, gantt: str, families: int) -> str:
    """The text view of a :func:`profile_json` *report*. Only the text
    Gantt of every node's timeline (*gantt*) and the registry's
    metric-family count (*families*) are not in the document."""
    lines = [
        f"profile: {report['corpus']} on {report['machine']}, "
        f"K={report['num_topics']}, {report['iterations']} iteration(s)",
        f"simulated time {report['simulated_seconds'] * 1e3:.3f} ms, "
        f"throughput {report['tokens_per_sec'] / 1e6:.1f} M tokens/s, "
        f"wall {report['wall_seconds']:.2f} s",
        "",
        "time breakdown (simulated clock):",
    ]
    lines += [
        f"  {kind:<14s} {share * 100:5.1f}%"
        for kind, share in report["breakdown"].items() if share > 0
    ]
    lines += ["", "device busy fractions:"]
    lines += [
        f"  {dev}  {frac:.1%}" for dev, frac in report["device_busy"].items()
    ]
    lines += ["", f"top counters (of {families} metric families):"]
    for c in report["counters"]:
        label_s = ",".join(f"{k}={v}" for k, v in sorted(c["labels"].items()))
        name = f"{c['name']}{{{label_s}}}" if label_s else c["name"]
        lines.append(f"  {name:<56s} {c['value']:>14,.0f}")
    lines.append("")

    if report["sync_planner"]:
        lines.append("sync planner decisions:")
        for d in report["sync_planner"]:
            mode = "forced" if d["forced"] else "auto"
            line = (f"  {d['algorithm']:<14s} on {d['topology']:<18s} "
                    f"x{d['count']:<4d} ({mode}, lanes={d['lanes']}")
            if "predicted_seconds" in d:
                line += f", predicted {d['predicted_seconds'] * 1e6:.1f} us"
            lines.append(line + ")")
        lines.append("")

    faults = report["faults"]
    if faults["events"]:
        lines.append(
            f"fault events ({len(faults['events'])} injected, "
            f"{faults['rollbacks']} rollback(s), "
            f"{faults['repartitions']} repartition(s)):"
        )
        for event in faults["events"]:
            detail = " ".join(
                f"{k}={v}" for k, v in event.items() if k != "kind"
            )
            lines.append(f"  {event['kind']:<24s} {detail}")
        lines.append("")

    elasticity = report["elasticity"]
    if any(elasticity.values()):
        lines.append("node recovery:")
        lines += [
            f"  {name:<40s} {value:>14,.3f}"
            for name, value in elasticity.items()
        ]
        lines.append("")

    lines += ["timeline (text Gantt):", gantt]
    return "\n".join(lines)
