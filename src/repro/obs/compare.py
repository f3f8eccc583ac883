"""Snapshot comparison and the CI regression gate.

:func:`compare_snapshots` walks every scenario/metric pair of the
baseline that the new run selected and classifies each into a verdict:

- ``ok`` — unchanged (exact) or within tolerance (wall).
- ``regressed`` — worse than the baseline beyond tolerance. **Gates.**
- ``improved`` — better beyond tolerance. Not a failure, but the delta
  table flags it: refresh the committed snapshot so the new level
  becomes the baseline.
- ``drift`` — an ``info``-direction exact metric changed (e.g. a
  likelihood value after a numerics change). Reported, not gated.
- ``skipped`` — wall metric with mismatched machine fingerprints.
- ``missing`` — a baseline scenario inside the run's selection, or a
  baseline metric of a compared scenario, is absent from the new
  snapshot. **Gates**: dropping or renaming one is a deliberate
  re-baseline, not something to pass unseen.
- ``changed`` — a scenario's params digest changed: a different
  workload, so nothing is comparable. **Gates**, for the same reason.

Noise model
-----------
Exact (simulated-clock / deterministic) metrics must be **bit-stable**:
they are compared with a relative epsilon of 1e-9 — just enough to
absorb JSON round-tripping — and anything beyond that is a real change.
Wall-clock metrics get ``tolerance = max(rel_floor · baseline,
iqr_mult · max(old.iqr, new.iqr))``: a machine with noisy timings
widens its own gate rather than tripping it, while a genuinely large
regression still fails even on a noisy box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.registry import TIERS, Measurement, in_selection

__all__ = ["Delta", "compare_snapshots", "format_deltas", "gate"]

#: Relative slack for "bit-stable" metrics: absorbs float → JSON →
#: float round-tripping, nothing more.
EXACT_REL_EPS = 1e-9

#: Wall-clock gate: relative floor and IQR multiplier.
WALL_REL_FLOOR = 0.25
WALL_IQR_MULT = 3.0

VERDICTS = ("ok", "regressed", "improved", "drift", "skipped", "missing",
            "changed")
#: Verdicts that fail the merge gate.
FAILING = ("regressed", "missing", "changed")


@dataclass(frozen=True)
class Delta:
    """One compared metric."""

    scenario: str
    metric: str
    old: float
    new: float
    verdict: str
    note: str = ""

    @property
    def rel_change(self) -> float:
        if self.old == 0:
            return math.inf if self.new != 0 else 0.0
        return (self.new - self.old) / abs(self.old)


def _same_exact(old: float, new: float) -> bool:
    if math.isnan(old) and math.isnan(new):
        return True
    if old == new:
        return True
    scale = max(abs(old), abs(new))
    return abs(new - old) <= EXACT_REL_EPS * scale


def _compare_metric(
    scenario: str,
    metric: str,
    old: Measurement,
    new: Measurement,
    machines_match: bool,
    wall_rel_floor: float,
) -> Delta:
    if old.kind == "wall" or new.kind == "wall":
        if not machines_match:
            return Delta(
                scenario, metric, old.value, new.value, "skipped",
                "wall metric, machine fingerprints differ",
            )
        tolerance = max(
            wall_rel_floor * abs(old.value),
            WALL_IQR_MULT * max(old.iqr, new.iqr),
        )
        diff = new.value - old.value
        if abs(diff) <= tolerance:
            return Delta(scenario, metric, old.value, new.value, "ok")
        worse = diff > 0 if old.direction == "lower" else diff < 0
        if old.direction == "info":
            return Delta(
                scenario, metric, old.value, new.value, "drift",
                "wall info metric moved beyond tolerance",
            )
        if worse:
            return Delta(
                scenario, metric, old.value, new.value, "regressed",
                f"beyond tolerance {tolerance:.4g}",
            )
        return Delta(
            scenario, metric, old.value, new.value, "improved",
            "refresh the snapshot to adopt the new baseline",
        )

    # exact: bit-stable expectation
    if _same_exact(old.value, new.value):
        return Delta(scenario, metric, old.value, new.value, "ok")
    if old.direction == "info":
        return Delta(
            scenario, metric, old.value, new.value, "drift",
            "deterministic info metric changed",
        )
    worse = (
        new.value > old.value
        if old.direction == "lower"
        else new.value < old.value
    )
    if worse:
        return Delta(
            scenario, metric, old.value, new.value, "regressed",
            "simulated-clock metric is bit-stable; this is a real change",
        )
    return Delta(
        scenario, metric, old.value, new.value, "improved",
        "refresh the snapshot to adopt the new baseline",
    )


def compare_snapshots(
    old: dict,
    new: dict,
    wall_rel_floor: float = WALL_REL_FLOOR,
    selection: tuple[str, str | None] | None = None,
) -> list[Delta]:
    """Classify every baseline scenario/metric pair; see module docs.

    *selection* is the ``(tier, only)`` the new snapshot was run with.
    Baseline scenarios outside it are not compared; ``None`` expects
    every baseline scenario. A baseline scenario without a recorded
    tier takes the baseline snapshot's tier.
    """
    machines_match = (
        old.get("machine", {}).get("fingerprint")
        == new.get("machine", {}).get("fingerprint")
    )
    old_tier = old.get("tier") if old.get("tier") in TIERS else "full"
    deltas: list[Delta] = []
    new_scenarios = new["scenarios"]
    for name, o in sorted(old["scenarios"].items()):
        if selection is not None and not in_selection(
            name, o.get("tier", old_tier), *selection
        ):
            continue
        n = new_scenarios.get(name)
        if n is None:
            deltas.append(
                Delta(
                    name, "*", float("nan"), float("nan"), "missing",
                    "baseline scenario absent from the new snapshot",
                )
            )
            continue
        if o.get("digest") != n.get("digest"):
            deltas.append(
                Delta(
                    name, "*", float("nan"), float("nan"), "changed",
                    "workload params changed — not comparable; refresh "
                    "the baseline deliberately",
                )
            )
            continue
        n_metrics = n["metrics"]
        for metric, record in sorted(o["metrics"].items()):
            before = Measurement.from_dict(record)
            if metric not in n_metrics:
                deltas.append(
                    Delta(
                        name, metric, before.value, float("nan"), "missing",
                        "baseline metric absent from the new snapshot",
                    )
                )
                continue
            deltas.append(
                _compare_metric(
                    name, metric, before,
                    Measurement.from_dict(n_metrics[metric]),
                    machines_match, wall_rel_floor,
                )
            )
    return deltas


def gate(deltas: list[Delta]) -> list[Delta]:
    """The deltas that fail the merge gate (see :data:`FAILING`)."""
    return [d for d in deltas if d.verdict in FAILING]


def format_deltas(deltas: list[Delta], verbose: bool = False) -> str:
    """The per-scenario delta table ``bench --compare`` prints.

    Non-``ok`` rows always print; ``ok`` rows only with *verbose*.
    """
    shown = [d for d in deltas if verbose or d.verdict != "ok"]
    lines = [
        f"compared {len(deltas)} metric(s): "
        + ", ".join(
            f"{v}={sum(1 for d in deltas if d.verdict == v)}"
            for v in VERDICTS
            if any(d.verdict == v for d in deltas)
        )
    ]
    if shown:
        lines.append("")
        lines.append(
            f"  {'scenario':<34s} {'metric':<28s} {'old':>14s} "
            f"{'new':>14s} {'Δ%':>8s}  verdict"
        )
        for d in shown:
            rel = d.rel_change
            rel_s = "n/a" if not math.isfinite(rel) else f"{rel:+.2%}"
            lines.append(
                f"  {d.scenario:<34s} {d.metric:<28s} {d.old:>14.6g} "
                f"{d.new:>14.6g} {rel_s:>8s}  {d.verdict}"
                + (f" ({d.note})" if d.note else "")
            )
    failures = gate(deltas)
    lines.append("")
    if failures:
        names = ", ".join(sorted({d.scenario for d in failures}))
        counts = {v: sum(d.verdict == v for d in failures) for v in FAILING}
        what = ", ".join(
            f"{n} regression(s)" if v == "regressed" else f"{n} {v}"
            for v, n in counts.items()
            if n
        )
        lines.append(f"GATE: {what} in: {names}")
    else:
        lines.append("GATE: clean — no regressions")
    return "\n".join(lines)
