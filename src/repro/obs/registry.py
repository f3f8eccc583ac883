"""The benchmark scenario registry.

A *scenario* is one named, seeded, self-contained measurement: it
builds its own workload, runs it, and returns a dict of
:class:`Measurement` values. Scenarios declare themselves with the
:meth:`BenchRegistry.scenario` decorator (see
:mod:`repro.obs.scenarios` for the curated suite) and carry:

- a ``group`` (``train`` / ``sync`` / ``serve`` / ``kernel``) for
  display,
- a ``tier`` — ``quick`` scenarios run in both tiers (the CI gate),
  ``full`` scenarios only in the full suite. Tiers select *which*
  scenarios run; they never shrink a scenario's workload, so a quick
  run's numbers are directly comparable against a committed full-suite
  snapshot.
- ``params``, the exact workload spec. Its digest is stored in the
  snapshot and the comparator refuses to compare scenarios whose
  digests differ — a changed workload is a new baseline, not a
  regression.

Measurements carry their own gate semantics:

- ``kind="exact"`` — simulated-clock / deterministic values. Bit-stable
  run to run; any change is a gate event.
- ``kind="wall"`` — real wall-clock. Gated with a noise-aware tolerance
  derived from the measured IQR.
- ``direction`` — ``"higher"`` / ``"lower"`` is better, or ``"info"``
  (tracked and reported, never gated).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "Measurement",
    "Scenario",
    "BenchRegistry",
    "REGISTRY",
    "in_selection",
    "params_digest",
]

TIERS = ("quick", "full")
KINDS = ("exact", "wall")
DIRECTIONS = ("higher", "lower", "info")


@dataclass(frozen=True)
class Measurement:
    """One metric value with its gate semantics."""

    value: float
    unit: str = ""
    kind: str = "exact"
    direction: str = "lower"
    #: Inter-quartile range of the repeated measurements (wall only).
    iqr: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )

    def as_dict(self) -> dict:
        record = {
            "value": self.value,
            "unit": self.unit,
            "kind": self.kind,
            "direction": self.direction,
        }
        if self.kind == "wall":
            record["iqr"] = self.iqr
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Measurement":
        return cls(
            value=float(record["value"]),
            unit=str(record.get("unit", "")),
            kind=str(record.get("kind", "exact")),
            direction=str(record.get("direction", "lower")),
            iqr=float(record.get("iqr", 0.0)),
        )


def params_digest(params: dict) -> str:
    """Stable short digest of a scenario's workload spec."""
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Scenario:
    """One registered benchmark scenario."""

    name: str
    group: str
    tier: str
    description: str
    params: dict
    fn: Callable[[], dict] = field(compare=False)

    @property
    def digest(self) -> str:
        return params_digest(self.params)

    def run(self) -> dict:
        metrics = self.fn()
        for key, m in metrics.items():
            if not isinstance(m, Measurement):
                raise TypeError(
                    f"scenario {self.name!r} metric {key!r} is "
                    f"{type(m).__name__}, expected Measurement"
                )
        return metrics


class BenchRegistry:
    """Name → scenario map with decorator-based registration."""

    def __init__(self) -> None:
        self._scenarios: dict[str, Scenario] = {}

    def scenario(
        self,
        name: str,
        group: str,
        description: str,
        tier: str = "quick",
        **params,
    ):
        """Register the decorated zero-arg callable as a scenario."""
        if tier not in TIERS:
            raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
        if name in self._scenarios:
            raise ValueError(f"scenario {name!r} already registered")

        def decorate(fn: Callable[[], dict]) -> Callable[[], dict]:
            self._scenarios[name] = Scenario(
                name=name, group=group, tier=tier,
                description=description, params=dict(params), fn=fn,
            )
            return fn

        return decorate

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(f"no scenario named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._scenarios)

    def __len__(self) -> int:
        return len(self._scenarios)

    def select(self, tier: str = "quick", only: str | None = None) -> list[Scenario]:
        """Scenarios for *tier* (quick ⊂ full), name-sorted, optionally
        filtered to names containing *only*."""
        if tier not in TIERS:
            raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
        return [
            self._scenarios[name]
            for name in self.names()
            if in_selection(name, self._scenarios[name].tier, tier, only)
        ]


def in_selection(
    name: str, scenario_tier: str, tier: str, only: str | None = None
) -> bool:
    """Whether scenario *name* of *scenario_tier* falls in a run's
    ``--tier``/``--only`` selection: quick ⊂ full, and *only* is a name
    substring."""
    if tier == "quick" and scenario_tier != "quick":
        return False
    return not only or only in name


#: The process-wide registry; importing :mod:`repro.obs.scenarios`
#: populates it with the curated suite.
REGISTRY = BenchRegistry()
