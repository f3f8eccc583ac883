"""Benchmark snapshots: run the suite, serialize, load, pretty-print.

One snapshot is one JSON document (``BENCH_<n>.json`` at the repo
root, one per PR) with schema ``repro-bench/1``::

    {
      "schema": "repro-bench/1",
      "git_sha": "…",             # HEAD at measurement time
      "tier": "quick" | "full",
      "machine": {                # fingerprinted host description
        "fingerprint": "…",       # sha256 of the fields below
        "platform": "…", "python": "…", "numpy": "…", "cpu_count": n
      },
      "scenarios": {
        "<name>": {
          "group": "…", "tier": "quick" | "full",
          "description": "…", "digest": "…",
          "params": {…},          # the exact workload spec
          "metrics": {
            "<metric>": {"value": …, "unit": "…", "kind": "exact"|"wall",
                         "direction": "higher"|"lower"|"info", "iqr": …}
          }
        }
      }
    }

Exact (simulated-clock) metrics are comparable across machines; wall
metrics are only gated when both snapshots carry the same machine
fingerprint (see :mod:`repro.obs.compare`).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform as _platform
import subprocess
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs.registry import REGISTRY

__all__ = [
    "SNAPSHOT_SCHEMA",
    "machine_fingerprint",
    "git_sha",
    "run_suite",
    "write_snapshot",
    "load_snapshot",
    "format_snapshot",
]

SNAPSHOT_SCHEMA = "repro-bench/1"


def git_sha() -> str:
    """HEAD's commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_fingerprint() -> dict:
    """The host description stored in a snapshot.

    The fingerprint hashes everything that plausibly moves wall-clock
    numbers: OS/arch, interpreter, numpy build, and core count.
    """
    fields = {
        "platform": _platform.platform(),
        "python": _platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }
    blob = json.dumps(fields, sort_keys=True)
    return {
        "fingerprint": hashlib.sha256(blob.encode()).hexdigest()[:16],
        **fields,
    }


def run_suite(
    tier: str = "quick",
    only: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run the selected scenarios and return a snapshot dict."""
    # Populate the registry.
    import repro.obs.scenarios  # noqa: F401

    scenarios = REGISTRY.select(tier, only)
    if not scenarios:
        raise ValueError(
            f"no scenarios match tier={tier!r}"
            + (f", only={only!r}" if only else "")
        )
    snapshot: dict = {
        "schema": SNAPSHOT_SCHEMA,
        "git_sha": git_sha(),
        "tier": tier,
        "machine": machine_fingerprint(),
        "scenarios": {},
    }
    for scenario in scenarios:
        if progress is not None:
            progress(f"running {scenario.name} …")
        metrics = scenario.run()
        snapshot["scenarios"][scenario.name] = {
            "group": scenario.group,
            "tier": scenario.tier,
            "description": scenario.description,
            "digest": scenario.digest,
            "params": dict(scenario.params),
            "metrics": {k: m.as_dict() for k, m in sorted(metrics.items())},
        }
    return snapshot


def write_snapshot(snapshot: dict, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_snapshot(path: str | Path) -> dict:
    with open(path) as fh:
        snapshot = json.load(fh)
    schema = snapshot.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r} is not {SNAPSHOT_SCHEMA!r} "
            "(snapshot from an incompatible version?)"
        )
    if not isinstance(snapshot.get("scenarios"), dict):
        raise ValueError(f"{path}: snapshot carries no scenarios")
    return snapshot


def _fmt_value(value: float, unit: str) -> str:
    if unit in ("tokens/s", "bytes") and abs(value) >= 1e6:
        return f"{value / 1e6:,.2f} M{unit.replace('bytes', 'B')}"
    if unit == "s" and abs(value) < 1.0:
        return f"{value * 1e3:.4g} ms"
    return f"{value:,.6g} {unit}".rstrip()


def format_snapshot(snapshot: dict) -> str:
    """Human-readable per-scenario metric table."""
    lines = [
        f"benchmark snapshot — tier {snapshot['tier']}, "
        f"git {snapshot['git_sha'][:12]}, "
        f"machine {snapshot['machine']['fingerprint']}"
    ]
    for name, entry in sorted(snapshot["scenarios"].items()):
        lines.append("")
        lines.append(f"{name}  [{entry['digest']}]")
        lines.append(f"  {entry['description']}")
        for metric, m in sorted(entry["metrics"].items()):
            kind = m["kind"]
            tail = ""
            if kind == "wall" and m.get("iqr"):
                tail = f"  (±IQR {m['iqr'] * 1e3:.3g} ms)"
            lines.append(
                f"    {metric:<28s} {_fmt_value(m['value'], m['unit']):>18s}"
                f"  [{kind}/{m['direction']}]{tail}"
            )
    return "\n".join(lines)
