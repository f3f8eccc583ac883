"""Tests for the performance observatory: scenario registry,
measurement semantics, snapshots, the comparator/regression gate, and
the `repro-lda bench` CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import (
    REGISTRY,
    BenchRegistry,
    Measurement,
    compare_snapshots,
    format_deltas,
    format_snapshot,
    gate,
    load_snapshot,
    machine_fingerprint,
    params_digest,
    repeated_median,
    write_snapshot,
)
from repro.obs.snapshot import SNAPSHOT_SCHEMA


# ----------------------------------------------------------------------
# Measurement + digest
# ----------------------------------------------------------------------
class TestMeasurement:
    def test_validates_kind_and_direction(self):
        with pytest.raises(ValueError, match="kind"):
            Measurement(1.0, kind="approximate")
        with pytest.raises(ValueError, match="direction"):
            Measurement(1.0, direction="sideways")

    def test_iqr_only_serialized_for_wall(self):
        exact = Measurement(1.0, unit="s", kind="exact")
        wall = Measurement(1.0, unit="s", kind="wall", iqr=0.1)
        assert "iqr" not in exact.as_dict()
        assert wall.as_dict()["iqr"] == 0.1

    def test_round_trip(self):
        m = Measurement(3.5, unit="tokens/s", kind="wall",
                        direction="higher", iqr=0.2)
        assert Measurement.from_dict(m.as_dict()) == m


class TestParamsDigest:
    def test_key_order_does_not_matter(self):
        assert params_digest({"a": 1, "b": 2}) == params_digest(
            {"b": 2, "a": 1}
        )

    def test_value_changes_the_digest(self):
        assert params_digest({"tokens": 20_000}) != params_digest(
            {"tokens": 20_001}
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestBenchRegistry:
    def make(self):
        reg = BenchRegistry()

        @reg.scenario("g/quick_one", group="g", description="d",
                      tier="quick", tokens=10)
        def _q():
            return {"x": Measurement(1.0)}

        @reg.scenario("g/full_one", group="g", description="d",
                      tier="full", tokens=20)
        def _f():
            return {"x": Measurement(1.0)}

        return reg

    def test_quick_tier_subsets_full(self):
        reg = self.make()
        assert [s.name for s in reg.select("quick")] == ["g/quick_one"]
        assert [s.name for s in reg.select("full")] == [
            "g/full_one", "g/quick_one",
        ]

    def test_only_substring_filter(self):
        reg = self.make()
        assert [s.name for s in reg.select("full", "full")] == ["g/full_one"]

    def test_duplicate_name_rejected(self):
        reg = self.make()
        with pytest.raises(ValueError, match="already registered"):
            reg.scenario("g/quick_one", group="g", description="d")(
                lambda: {}
            )

    def test_run_type_checks_measurements(self):
        reg = BenchRegistry()

        @reg.scenario("g/bad", group="g", description="d")
        def _bad():
            return {"x": 1.0}

        with pytest.raises(TypeError, match="Measurement"):
            reg.get("g/bad").run()

    def test_curated_suite_registers(self):
        import repro.obs.scenarios  # noqa: F401

        names = REGISTRY.names()
        assert "train/culda_pascal_1gpu" in names
        assert "serve/chaos_hedge_pascal_4gpu" in names
        assert "kernel/gibbs_sample_chunk" in names
        assert "sync/culda_pascal_4gpu_tree" in names
        # The CI tier is a strict subset.
        quick = {s.name for s in REGISTRY.select("quick")}
        full = {s.name for s in REGISTRY.select("full")}
        assert quick < full


class TestRepeatedMedian:
    def test_orders_and_counts(self):
        t = repeated_median(lambda: sum(range(500)), rounds=5)
        assert t.rounds == 5
        assert t.min <= t.median <= t.max
        assert t.iqr >= 0.0


# ----------------------------------------------------------------------
# Comparator / gate
# ----------------------------------------------------------------------
def snap(metrics, digest="abc", fingerprint="m1", name="train/x"):
    return {
        "schema": SNAPSHOT_SCHEMA,
        "git_sha": "deadbeef",
        "tier": "quick",
        "machine": {"fingerprint": fingerprint},
        "scenarios": {
            name: {
                "group": "train", "description": "d", "digest": digest,
                "params": {}, "metrics": metrics,
            }
        },
    }


def exact(value, direction="higher"):
    return Measurement(value, kind="exact", direction=direction).as_dict()


def wall(value, iqr=0.0):
    return Measurement(value, kind="wall", direction="lower",
                       iqr=iqr).as_dict()


class TestCompare:
    def test_identical_snapshots_are_clean(self):
        a = snap({"tps": exact(100.0), "t": wall(0.5)})
        deltas = compare_snapshots(a, a)
        assert {d.verdict for d in deltas} == {"ok"}
        assert gate(deltas) == []

    def test_exact_change_in_gated_direction_regresses(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(90.0)})
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "regressed"
        assert gate([d]) == [d]

    def test_exact_improvement_is_flagged_not_gated(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(110.0)})
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "improved"
        assert gate([d]) == []

    def test_info_direction_drifts_instead_of_gating(self):
        old = snap({"ll": exact(-7.5, direction="info")})
        new = snap({"ll": exact(-7.6, direction="info")})
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "drift"
        assert gate([d]) == []

    def test_tiny_float_noise_is_ok(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(100.0 * (1 + 1e-12))})
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "ok"

    def test_wall_within_iqr_tolerance_is_ok(self):
        old = snap({"t": wall(0.100, iqr=0.020)})
        new = snap({"t": wall(0.150, iqr=0.020)})
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "ok"  # 0.05 < 3 * 0.02

    def test_wall_beyond_tolerance_regresses(self):
        old = snap({"t": wall(0.100, iqr=0.001)})
        new = snap({"t": wall(0.200, iqr=0.001)})
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "regressed"

    def test_wall_skipped_across_machines(self):
        old = snap({"t": wall(0.1)}, fingerprint="m1")
        new = snap({"t": wall(10.0)}, fingerprint="m2")
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "skipped"
        assert gate([d]) == []

    def test_exact_still_gated_across_machines(self):
        old = snap({"tps": exact(100.0)}, fingerprint="m1")
        new = snap({"tps": exact(90.0)}, fingerprint="m2")
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "regressed"

    def test_digest_mismatch_fails_the_gate(self):
        old = snap({"tps": exact(100.0)}, digest="abc")
        new = snap({"tps": exact(50.0)}, digest="xyz")
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "changed"
        assert "workload" in d.note
        assert gate([d]) == [d]

    def test_missing_selected_scenario_fails_the_gate(self):
        old = snap({"tps": exact(100.0)})
        old["scenarios"].update(
            snap({"tps": exact(1.0)}, name="train/y")["scenarios"]
        )
        new = snap({"tps": exact(100.0)})
        deltas = compare_snapshots(old, new, selection=("quick", None))
        (d,) = gate(deltas)
        assert (d.scenario, d.verdict) == ("train/y", "missing")
        assert "GATE: 1 missing in: train/y" in format_deltas(deltas)

    def test_scenarios_outside_the_selection_are_not_compared(self):
        """``--only X --compare <full baseline>`` stays clean."""
        old = snap({"tps": exact(100.0)})
        old["scenarios"].update(
            snap({"t": wall(0.1)}, name="kernel/z")["scenarios"]
        )
        big = snap({"tps": exact(1.0)}, name="train/big")["scenarios"]
        big["train/big"]["tier"] = "full"
        old["scenarios"].update(big)
        new = snap({"tps": exact(100.0)})
        # kernel/z falls outside --only, train/big outside the quick tier.
        deltas = compare_snapshots(old, new, selection=("quick", "train/"))
        assert {d.scenario for d in deltas} == {"train/x"}
        assert gate(deltas) == []
        # The full tier selects train/big, which the new run lacks.
        deltas = compare_snapshots(old, new, selection=("full", "train/"))
        assert {d.scenario for d in gate(deltas)} == {"train/big"}

    def test_missing_metric_fails_the_gate(self):
        old = snap({"tps": exact(100.0), "t": wall(0.5)})
        new = snap({"tps": exact(100.0)})
        deltas = compare_snapshots(old, new)
        (d,) = gate(deltas)
        assert (d.metric, d.verdict) == ("t", "missing")
        assert [x.verdict for x in deltas if x.metric == "tps"] == ["ok"]

    def test_new_metrics_and_scenarios_do_not_gate(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(100.0), "extra": exact(1.0)})
        new["scenarios"].update(
            snap({"tps": exact(1.0)}, name="train/new")["scenarios"]
        )
        assert gate(compare_snapshots(old, new)) == []

    def test_format_names_the_regressed_scenario(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(90.0)})
        text = format_deltas(compare_snapshots(old, new))
        assert "train/x" in text
        assert "GATE: 1 regression(s)" in text

    def test_clean_gate_message(self):
        a = snap({"tps": exact(100.0)})
        text = format_deltas(compare_snapshots(a, a))
        assert "no regressions" in text


# ----------------------------------------------------------------------
# Snapshot IO
# ----------------------------------------------------------------------
class TestSnapshotIO:
    def test_write_load_round_trip(self, tmp_path):
        doc = snap({"tps": exact(100.0)})
        path = tmp_path / "BENCH_t.json"
        write_snapshot(doc, path)
        assert load_snapshot(path) == doc

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/1", "scenarios": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(path)

    def test_fingerprint_is_stable_within_a_process(self):
        assert machine_fingerprint() == machine_fingerprint()

    def test_format_snapshot_lists_metrics(self):
        text = format_snapshot(snap({"tps": exact(100.0)}))
        assert "train/x" in text
        assert "tps" in text


# ----------------------------------------------------------------------
# CLI (`repro-lda bench`)
# ----------------------------------------------------------------------
class TestBenchCLI:
    def test_list_names_scenarios(self, capsys):
        assert main(["bench", "--list", "--tier", "full"]) == 0
        out = capsys.readouterr().out
        assert "train/culda_pascal_1gpu" in out
        assert "kernel/alias_build" in out

    def test_empty_selection_fails(self, capsys):
        assert main(["bench", "--only", "no-such-scenario"]) == 2

    @pytest.fixture(scope="class")
    def snapshot_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / "BENCH_t.json"
        assert main([
            "bench", "--only", "kernel/accumulate_phi", "--out", str(path),
        ]) == 0
        return path

    def test_out_writes_a_valid_snapshot(self, snapshot_file):
        doc = load_snapshot(snapshot_file)
        assert doc["tier"] == "quick"
        entry = doc["scenarios"]["kernel/accumulate_phi"]
        assert entry["metrics"]["wall_seconds"]["kind"] == "wall"

    # The gate tests compare a scenario whose metrics are all exact
    # (simulated clock), so their verdicts cannot move with host noise;
    # TestCompare covers the wall-clock tolerance on built snapshots.
    EXACT_SCENARIO = "train/culda_pascal_1gpu"

    @pytest.fixture(scope="class")
    def exact_snapshot_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / "BENCH_exact.json"
        assert main([
            "bench", "--only", self.EXACT_SCENARIO, "--out", str(path),
        ]) == 0
        return path

    def test_compare_clean_against_self_like_baseline(
        self, exact_snapshot_file, capsys
    ):
        assert main([
            "bench", "--only", self.EXACT_SCENARIO,
            "--compare", str(exact_snapshot_file),
        ]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_gates_on_perturbed_baseline(
        self, exact_snapshot_file, tmp_path, capsys
    ):
        doc = load_snapshot(exact_snapshot_file)
        metric = doc["scenarios"][self.EXACT_SCENARIO]["metrics"][
            "sim_seconds"
        ]
        assert metric["kind"] == "exact"
        metric["value"] /= 2.0  # baseline "was" 2x faster
        perturbed = tmp_path / "BENCH_perturbed.json"
        write_snapshot(doc, perturbed)
        assert main([
            "bench", "--only", self.EXACT_SCENARIO,
            "--compare", str(perturbed),
        ]) == 1
        out = capsys.readouterr().out
        assert self.EXACT_SCENARIO in out
        assert "regressed" in out

    def test_compare_gates_on_a_missing_selected_scenario(
        self, exact_snapshot_file, tmp_path, capsys
    ):
        """A baseline scenario the run selects but does not produce (a
        renamed one, say) fails the gate; one outside ``--only`` does
        not."""
        doc = load_snapshot(exact_snapshot_file)
        entry = doc["scenarios"][self.EXACT_SCENARIO]
        doc["scenarios"]["kernel/elsewhere"] = entry
        baseline = tmp_path / "BENCH_extra.json"
        write_snapshot(doc, baseline)
        assert main([
            "bench", "--only", self.EXACT_SCENARIO,
            "--compare", str(baseline),
        ]) == 0
        doc["scenarios"][self.EXACT_SCENARIO + "_renamed"] = entry
        write_snapshot(doc, baseline)
        assert main([
            "bench", "--only", self.EXACT_SCENARIO,
            "--compare", str(baseline),
        ]) == 1
        out = capsys.readouterr().out
        assert "1 missing in: " + self.EXACT_SCENARIO + "_renamed" in out
