"""The benchmark's own test: tiny ``--smoke`` runs of every workload.

Run from the repository root::

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import spec  # noqa: E402
from repro.obs.compare import compare_snapshots  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(tmp: Path, label: str, *args: str) -> tuple[dict, dict]:
    out = tmp / f"{label}.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all",
         "--smoke", "--seconds", "1", "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return {
        "a": _run(tmp, "a"),
        "b": _run(tmp, "b"),
        "traced": _run(tmp, "traced", "--trace", "1", "--trace-dir", str(tmp / "spans")),
        "seed1": _run(tmp, "seed1", "--seed", "1"),
        "spans": tmp / "spans",
    }


def _exact(snapshot: dict) -> dict:
    return {
        (workload, name): m["value"]
        for workload, scenario in snapshot["scenarios"].items()
        for name, m in scenario["metrics"].items()
        if m["kind"] == "exact"
    }


def test_every_declared_metric_is_emitted_with_its_unit(runs):
    assert WORKLOADS == list(spec.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(spec.E2E_KIND)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(spec.LAYERS)
    for label, declared in (("a", "end_to_end"), ("traced", "per_layer")):
        line = runs[label][0]
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        for workload in WORKLOADS:
            for metric in BENCHMARK[declared]:
                got = line["metrics"][f"{workload}.{metric['name']}"]
                assert got["unit"] == metric["unit"]
                if declared == "end_to_end":
                    assert got["value"] > 0, (workload, metric["name"])
    traced = runs["traced"][0]["metrics"]
    for metric in BENCHMARK["per_layer"]:
        assert any(
            traced[f"{w}.{metric['name']}"]["value"] != 0 for w in WORKLOADS
        ), f"no workload measures {metric['name']}"
    for workload in WORKLOADS:
        for name in ("spans.jsonl", "trace.json"):
            assert (runs["spans"] / f"{workload}-seed0" / name).stat().st_size > 0


def test_exact_metrics_repeat_bit_for_bit(runs):
    a = _exact(runs["a"][1])
    assert len(a) >= len(WORKLOADS) * 2
    assert _exact(runs["b"][1]) == a
    assert _exact(runs["traced"][1]) == a


def test_another_seed_changes_every_exact_metric(runs):
    a, seed1 = _exact(runs["a"][1]), _exact(runs["seed1"][1])
    assert a.keys() == seed1.keys()
    assert all(a[k] != seed1[k] for k in a), [k for k in a if a[k] == seed1[k]]


def test_two_runs_compare_without_regressions(runs):
    deltas = compare_snapshots(runs["a"][1], runs["b"][1], wall_rel_floor=0.10)
    assert deltas
    assert [d for d in deltas if d.verdict == "regressed"] == []
