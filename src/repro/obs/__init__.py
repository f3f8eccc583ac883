"""Performance observatory: benchmark snapshots and the regression gate.

``repro.obs`` turns the repo's performance surface into a curated,
versioned artifact:

- :mod:`repro.obs.registry` — scenario registry and the
  :class:`Measurement` gate semantics (exact vs wall, direction).
- :mod:`repro.obs.scenarios` — the curated suite (train / sync / serve /
  kernel groups); importing it populates :data:`REGISTRY`.
- :mod:`repro.obs.snapshot` — run the suite, write/load ``BENCH_<n>.json``.
- :mod:`repro.obs.compare` — noise-aware snapshot comparison; the
  ``bench --compare`` CI gate.
- :mod:`repro.obs.workloads` — seeded workload builders shared with
  the tests and ``bench/``.
- :mod:`repro.obs.timing` — repeated-median wall-clock measurement.
- :mod:`repro.obs.profiling` — the ``repro-lda profile --format json``
  schema.

See ``docs/BENCHMARKS.md`` for the workflow.
"""

from repro.obs.compare import Delta, compare_snapshots, format_deltas, gate
from repro.obs.profiling import PROFILE_SCHEMA, profile_json
from repro.obs.registry import (
    REGISTRY,
    BenchRegistry,
    Measurement,
    Scenario,
    params_digest,
)
from repro.obs.snapshot import (
    SNAPSHOT_SCHEMA,
    format_snapshot,
    load_snapshot,
    machine_fingerprint,
    run_suite,
    write_snapshot,
)
from repro.obs.timing import WallTiming, repeated_median

__all__ = [
    "Measurement",
    "Scenario",
    "BenchRegistry",
    "REGISTRY",
    "params_digest",
    "SNAPSHOT_SCHEMA",
    "run_suite",
    "write_snapshot",
    "load_snapshot",
    "format_snapshot",
    "machine_fingerprint",
    "Delta",
    "compare_snapshots",
    "format_deltas",
    "gate",
    "WallTiming",
    "repeated_median",
    "PROFILE_SCHEMA",
    "profile_json",
]
