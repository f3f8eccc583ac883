"""Chaos tests: fault injection and elastic fault-tolerant training.

Covers the fault plan DSL, the gpusim fault hooks, the injector, the
engine recovery layer, and end-to-end survival scenarios (GPU loss,
flaky/dead/corrupting links, kernel faults, truncated checkpoints).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import CuLDA, TrainConfig
from repro.corpus.synthetic import SyntheticSpec, generate_lda_corpus
from repro.engine import RecoveryPolicy, TrainingFailure, validate_state
from repro.engine.loop import LoopConfig
from repro.faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultSpec
from repro.gpusim import DeviceLost, KernelFault, LinkDown
from repro.gpusim.platform import pascal_platform
from repro.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def corpus():
    return generate_lda_corpus(
        SyntheticSpec(num_docs=80, num_words=300, avg_doc_length=100,
                      num_topics=6, name="chaos"),
        seed=17,
    )


def _train(corpus, gpus=4, iterations=6, *, plan=None, recovery=None,
           registry=None, sync="gpu_tree", **train_kwargs):
    # Forced gpu_tree: these tests exercise the retry/fallback machinery
    # on specific links, so the sync planner must not re-route around
    # the very faults being injected (planner behaviour under fault
    # plans is covered in test_comm.py).
    trainer = CuLDA(
        corpus, pascal_platform(gpus),
        TrainConfig(num_topics=8, iterations=iterations, seed=0,
                    sync_algorithm=sync),
        registry=registry,
    )
    return trainer.train(fault_plan=plan, recovery=recovery, **train_kwargs)


def _counter(registry, name, **labels):
    metric = registry.get(name)
    assert metric is not None, f"counter {name!r} was never emitted"
    return metric.value(**labels)


# ----------------------------------------------------------------------
# Fault plan DSL
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=3, device=1),
            FaultSpec(kind="link_flaky", iteration=2, link="p2p[0-1]",
                      count=2),
            FaultSpec(kind="link_degraded", iteration=1, link="pcie[0]",
                      scale=0.25, until=4),
            FaultSpec(kind="checkpoint_truncation", at_save=1),
        ))
        p = tmp_path / "plan.json"
        plan.to_json(p)
        loaded = FaultPlan.from_json(p)
        assert loaded == plan
        assert len(loaded) == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike", iteration=0)

    @pytest.mark.parametrize("kind,kwargs", [
        ("device_failure", {"iteration": 1}),           # missing device
        ("link_down", {"iteration": 1}),                # missing link
        ("link_degraded", {"iteration": 1, "link": "pcie[0]"}),  # no scale
        ("kernel_fault", {"iteration": 1}),             # missing device
        ("checkpoint_truncation", {}),                  # missing at_save
        ("device_failure", {"device": 0}),              # missing iteration
    ])
    def test_missing_required_field_rejected(self, kind, kwargs):
        with pytest.raises(ValueError, match="requires"):
            FaultSpec(kind=kind, **kwargs)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(kind="device_failure", iteration=-1, device=0), "iteration"),
        (dict(kind="link_flaky", iteration=0, link="x", count=0), "count"),
        (dict(kind="link_down", iteration=3, link="x", until=2), "until"),
        (dict(kind="link_degraded", iteration=0, link="x", scale=0.0),
         "scale"),
        (dict(kind="checkpoint_truncation", at_save=0), "at_save"),
    ])
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FaultSpec(**kwargs)

    def test_plan_error_names_fault_index(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"faults": [
            {"kind": "device_failure", "iteration": 0, "device": 0},
            {"kind": "link_down", "iteration": 1},
        ]}))
        with pytest.raises(ValueError, match="fault #1"):
            FaultPlan.from_json(p)

    def test_unknown_field_rejected_naming_field(self):
        with pytest.raises(ValueError,
                           match=r"fault #0 \(device_failure\): unknown "
                                 r"field\(s\) 'sevrity'"):
            FaultPlan.from_dict({"faults": [
                {"kind": "device_failure", "iteration": 0, "device": 0,
                 "sevrity": 9},
            ]})

    def test_unknown_kind_rejected_naming_entry(self):
        with pytest.raises(ValueError,
                           match="fault #1: unknown fault kind "
                                 "'meteor_strike'"):
            FaultPlan.from_dict({"faults": [
                {"kind": "device_failure", "iteration": 0, "device": 0},
                {"kind": "meteor_strike", "iteration": 1},
            ]})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="fault #0 is missing the "
                                             "'kind' field"):
            FaultPlan.from_dict({"faults": [{"iteration": 0}]})

    def test_missing_required_field_named_in_from_dict(self):
        with pytest.raises(ValueError,
                           match=r"fault #0 \(link_down\): missing "
                                 r"required field\(s\) 'link'"):
            FaultPlan.from_dict({"faults": [
                {"kind": "link_down", "iteration": 1},
            ]})

    def test_faults_must_be_a_list(self):
        with pytest.raises(ValueError, match="'faults' must be a list"):
            FaultPlan.from_dict({"faults": {"kind": "device_failure"}})

    def test_entry_must_be_an_object(self):
        with pytest.raises(ValueError, match="fault #1 must be an object"):
            FaultPlan.from_dict({"faults": [
                {"kind": "device_failure", "iteration": 0, "device": 0},
                "device_failure",
            ]})

    def test_needs_machine(self):
        hw = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=0, device=0),))
        sw = FaultPlan(faults=(
            FaultSpec(kind="checkpoint_truncation", at_save=1),))
        assert hw.needs_machine
        assert not sw.needs_machine
        assert set(FAULT_KINDS) >= {f.kind for f in hw} | {f.kind for f in sw}


# ----------------------------------------------------------------------
# gpusim fault hooks
# ----------------------------------------------------------------------
class TestGpusimHooks:
    def test_link_down_raises_on_reserve(self):
        m = pascal_platform(2)
        link = m.find_link("p2p[0-1]")
        link.set_down(True)
        with pytest.raises(LinkDown):
            link.reserve(1024, 0.0)
        link.set_down(False)
        start, end = link.reserve(1024, 0.0)
        assert end > start

    def test_fail_next_is_transient(self):
        link = pascal_platform(2).find_link("p2p[0-1]")
        link.fail_next(2)
        for _ in range(2):
            with pytest.raises(LinkDown) as err:
                link.reserve(1024, 0.0)
            assert err.value.transient
        link.reserve(1024, 0.0)  # third attempt succeeds

    def test_degrade_stretches_transfers(self):
        a = pascal_platform(2).find_link("p2p[0-1]")
        b = pascal_platform(2).find_link("p2p[0-1]")
        b.degrade(0.25)
        ta = a.reserve(1 << 20, 0.0)
        tb = b.reserve(1 << 20, 0.0)
        assert (tb[1] - tb[0]) > (ta[1] - ta[0])
        with pytest.raises(ValueError):
            b.degrade(0.0)

    def test_corrupt_next_consumed_once(self):
        link = pascal_platform(2).find_link("p2p[0-1]")
        link.corrupt_next(1)
        assert link.take_corruption()
        assert not link.take_corruption()

    def test_dead_device_rejects_kernels(self):
        m = pascal_platform(2)
        m.gpus[0].fail()
        assert not m.gpus[0].alive
        assert [g.device_id for g in m.alive_gpus] == [1]
        with pytest.raises(DeviceLost):
            m.gpus[0].default_stream.enqueue(
                duration=1e-6, kind="kernel", label="nop")

    def test_kernel_fault_one_shot(self):
        m = pascal_platform(1)
        gpu = m.gpus[0]
        gpu.inject_kernel_fault("sampling")
        # A non-matching kind passes through untouched.
        gpu.default_stream.enqueue(
            duration=1e-6, kind="update_phi", label="update_phi:chunk0")
        with pytest.raises(KernelFault):
            gpu.default_stream.enqueue(
                duration=1e-6, kind="sampling", label="sampling:chunk0")
        # Consumed: the same kernel runs afterwards.
        gpu.default_stream.enqueue(
            duration=1e-6, kind="sampling", label="sampling:chunk0")


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_machine_required_for_hardware_faults(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=0, device=0),))
        with pytest.raises(ValueError, match="no machine"):
            FaultInjector(plan, machine=None)

    def test_specs_fire_once_despite_reentry(self):
        m = pascal_platform(2)
        plan = FaultPlan(faults=(
            FaultSpec(kind="link_flaky", iteration=1, link="p2p[0-1]",
                      count=1),))
        inj = FaultInjector(plan, machine=m)
        inj.on_iteration_start(1)
        inj.on_iteration_start(1)  # recovery re-enters the iteration
        assert len(inj.events) == 1

    def test_until_bounded_outage_restored(self):
        m = pascal_platform(2)
        plan = FaultPlan(faults=(
            FaultSpec(kind="link_down", iteration=1, link="p2p[0-1]",
                      until=3),))
        inj = FaultInjector(plan, machine=m)
        inj.on_iteration_start(1)
        assert not m.find_link("p2p[0-1]").up
        inj.on_iteration_start(2)
        assert not m.find_link("p2p[0-1]").up
        inj.on_iteration_start(3)
        assert m.find_link("p2p[0-1]").up
        kinds = [e["kind"] for e in inj.events]
        assert kinds == ["link_down", "link_down_restored"]

    def test_unknown_device_rejected(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=0, device=7),))
        inj = FaultInjector(plan, machine=pascal_platform(2))
        with pytest.raises(ValueError, match="device 7"):
            inj.on_iteration_start(0)

    def test_checkpoint_truncation(self, tmp_path):
        plan = FaultPlan(faults=(
            FaultSpec(kind="checkpoint_truncation", at_save=2),))
        inj = FaultInjector(plan)  # software-only plan: no machine needed
        f = tmp_path / "ck.npz"
        f.write_bytes(b"x" * 100)
        inj.on_checkpoint_saved(f)       # save 1: untouched
        assert f.stat().st_size == 100
        inj.on_checkpoint_saved(f)       # save 2: truncated to half
        assert f.stat().st_size == 50
        assert inj.events[0]["kind"] == "checkpoint_truncation"


# ----------------------------------------------------------------------
# Engine recovery layer
# ----------------------------------------------------------------------
class TestRecoveryPolicy:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="recovery mode"):
            RecoveryPolicy(mode="hope")

    def test_transfer_retry_none_when_inactive(self):
        assert RecoveryPolicy().transfer_retry() is None
        retry = RecoveryPolicy(mode="retry", max_transfer_retries=5,
                               host_fallback=False).transfer_retry()
        assert retry.max_retries == 5
        assert not retry.host_fallback

    @pytest.mark.parametrize("kwargs", [
        dict(mode="retry", max_transfer_retries=-1),
        dict(mode="retry", backoff_seconds=0.0),
        dict(mode="retry", max_rollbacks=-1),
        dict(mode="retry", validate_every=-1),
    ])
    def test_bad_budgets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kwargs)


class TestLoopConfigValidation:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(iterations=-1), "iterations"),
        (dict(iterations=2, likelihood_every=-1), "likelihood_every"),
        (dict(iterations=2, save_every=-1), "save_every"),
        (dict(iterations=2, stop_rel_tolerance=0.0), "stop_rel_tolerance"),
        (dict(iterations=2, stop_rel_tolerance=1e-3), "likelihood_every"),
        (dict(iterations=2, save_every=1), "checkpoint_path"),
    ])
    def test_invalid_configs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LoopConfig(**kwargs)


class TestValidateState:
    @staticmethod
    def _state(phi, lls=()):
        from types import SimpleNamespace

        history = [SimpleNamespace(iteration=i, log_likelihood_per_token=ll)
                   for i, ll in enumerate(lls)]
        return SimpleNamespace(phi=phi, history=history)

    def test_clean_state_passes(self):
        s = self._state(np.full((4, 5), 5, dtype=np.int64), lls=[-7.0])
        assert validate_state(s, num_tokens=100) == []

    def test_violations_reported(self):
        phi = np.full((4, 5), 5, dtype=np.int64)
        phi[0, 0] = -3
        s = self._state(phi, lls=[float("nan")])
        violations = validate_state(s, num_tokens=123)
        text = "\n".join(violations)
        assert "negative" in text
        assert "123" in text          # conservation names expected count
        assert any("likelihood" in v for v in violations)


# ----------------------------------------------------------------------
# End-to-end chaos scenarios
# ----------------------------------------------------------------------
class TestElasticRecovery:
    def test_survives_gpu_loss_on_three_gpus(self, corpus):
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=3, device=1),))
        registry = MetricsRegistry()
        result = _train(corpus, gpus=4, plan=plan, recovery="elastic",
                        registry=registry)
        assert result.num_gpus == 3
        assert result.repartitions == 1
        assert result.rollbacks == 0
        assert [e["kind"] for e in result.fault_events] == ["device_failure"]
        assert np.isfinite(result.final_log_likelihood)
        # Model stays well-formed after migration: token conservation.
        assert result.phi.sum() == corpus.num_tokens
        assert (result.phi >= 0).all()
        assert _counter(registry, "elastic_repartitions_total") == 1
        assert _counter(registry, "faults_injected_total",
                        kind="device_failure") == 1

    def test_gpu_loss_bit_identical_to_fault_free(self, corpus):
        """The dead GPU's chunks move intact (z, θ, RNG stream) to the
        survivors — no re-chunk — so the recovered model equals the
        fault-free 4-GPU run bit for bit."""
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=3, device=1),))
        elastic = _train(corpus, gpus=4, iterations=8, plan=plan,
                         recovery="elastic")
        clean = _train(corpus, gpus=4, iterations=8)
        assert elastic.repartitions == 1
        assert np.array_equal(elastic.phi, clean.phi)
        assert np.array_equal(elastic.topics, clean.topics)
        assert elastic.theta == clean.theta

    def test_recovery_none_fails_fast(self, corpus):
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=3, device=1),))
        with pytest.raises(TrainingFailure) as err:
            _train(corpus, gpus=4, plan=plan, recovery="none")
        exc = err.value
        assert exc.iteration == 3
        assert exc.phase == "iteration"
        assert isinstance(exc.cause, DeviceLost)
        assert exc.fault_events[0]["kind"] == "device_failure"
        assert "--recovery" in str(exc)

    def test_retry_mode_cannot_survive_device_loss(self, corpus):
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=2, device=0),))
        with pytest.raises(TrainingFailure, match="elastic"):
            _train(corpus, gpus=2, plan=plan, recovery="retry")

    def test_losing_every_gpu_is_fatal(self, corpus):
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=1, device=0),
            FaultSpec(kind="device_failure", iteration=1, device=1),))
        with pytest.raises(TrainingFailure):
            _train(corpus, gpus=2, plan=plan, recovery="elastic")


class TestTransientLinkFaults:
    def test_flaky_link_retried_bit_identical(self, corpus):
        plan = FaultPlan(faults=(
            FaultSpec(kind="link_flaky", iteration=2, link="p2p[0-1]",
                      count=2),))
        registry = MetricsRegistry()
        faulty = _train(corpus, gpus=4, plan=plan, recovery="retry",
                        registry=registry)
        clean = _train(corpus, gpus=4)
        assert np.array_equal(faulty.phi, clean.phi)
        assert faulty.rollbacks == 0
        assert _counter(registry, "transfer_retries_total",
                        link="p2p[0-1]", op="phi_reduce_copy") == 2

    def test_retry_budget_exhaustion_falls_back_to_host(self, corpus):
        # A permanently-down link outlives any retry budget; with
        # host_fallback the copy re-routes through CPU memory and the
        # model is still bit-identical to the failure-free run.
        plan = FaultPlan(faults=(
            FaultSpec(kind="link_down", iteration=2, link="p2p[0-1]"),))
        registry = MetricsRegistry()
        degraded = _train(corpus, gpus=2, plan=plan, recovery="retry",
                          registry=registry)
        clean = _train(corpus, gpus=2)
        assert np.array_equal(degraded.phi, clean.phi)
        assert _counter(registry, "degraded_sync_total",
                        link="p2p[0-1]", op="phi_reduce_copy") > 0

    def test_degraded_link_slows_but_completes(self, corpus):
        plan = FaultPlan(faults=(
            FaultSpec(kind="link_degraded", iteration=1, link="p2p[0-1]",
                      scale=0.1),))
        slow = _train(corpus, gpus=2, plan=plan, recovery="retry")
        clean = _train(corpus, gpus=2)
        assert np.array_equal(slow.phi, clean.phi)
        assert slow.total_sim_seconds > clean.total_sim_seconds


class TestRollbackRecovery:
    def test_corrupted_transfer_rolled_back(self, corpus):
        plan = FaultPlan(faults=(
            FaultSpec(kind="transfer_corruption", iteration=3,
                      link="p2p[0-1]"),))
        registry = MetricsRegistry()
        result = _train(corpus, gpus=2, plan=plan, recovery="retry",
                        registry=registry)
        clean = _train(corpus, gpus=2)
        assert result.rollbacks == 1
        assert np.array_equal(result.phi, clean.phi)
        assert _counter(registry, "rollbacks_total") == 1
        assert _counter(registry, "validation_failures_total") >= 1

    def test_kernel_fault_rolled_back(self, corpus):
        plan = FaultPlan(faults=(
            FaultSpec(kind="kernel_fault", iteration=2, device=1,
                      op="sampling"),))
        result = _train(corpus, gpus=2, plan=plan, recovery="retry")
        clean = _train(corpus, gpus=2)
        assert result.rollbacks == 1
        assert np.array_equal(result.phi, clean.phi)

    def test_exhausted_rollback_budget_fails_structured(self, corpus):
        # A zero rollback budget turns the first detected corruption
        # into a structured failure that names the violated invariants.
        plan = FaultPlan(faults=(
            FaultSpec(kind="transfer_corruption", iteration=2,
                      link="p2p[0-1]"),))
        policy = RecoveryPolicy(mode="retry", max_rollbacks=0)
        with pytest.raises(TrainingFailure) as err:
            _train(corpus, gpus=2, plan=plan, recovery=policy)
        assert err.value.phase == "recovery"
        assert err.value.violations
        assert "budget" in str(err.value)

    def test_retry_exhaustion_carries_cause_and_fault_events(self, corpus):
        # A permanently-down link with host fallback disabled escapes
        # every transfer retry; each iteration's failure burns one
        # rollback until the budget runs out. The resulting failure
        # must carry the final underlying fault and the injector's
        # event log — a bare "training failed" helps nobody triage.
        plan = FaultPlan(faults=(
            FaultSpec(kind="link_down", iteration=1, link="p2p[0-1]"),))
        policy = RecoveryPolicy(mode="retry", host_fallback=False,
                                max_transfer_retries=1, max_rollbacks=2)
        with pytest.raises(TrainingFailure) as err:
            _train(corpus, gpus=2, plan=plan, recovery=policy)
        failure = err.value
        assert failure.phase == "recovery"
        assert isinstance(failure.cause, LinkDown)
        assert failure.cause is failure.__cause__
        assert failure.fault_events
        assert any(e["kind"] == "link_down" for e in failure.fault_events)
        assert "budget" in str(failure) or "rollback" in str(failure)


class TestCheckpointTruncationScenario:
    def test_truncated_checkpoint_rejected_on_load(self, corpus, tmp_path):
        from repro.core.serialization import load_run_state

        ck = tmp_path / "run.npz"
        # Save 1 fires on the save_every cadence; save 2 is the final
        # checkpoint the loop writes after training. Truncate that one
        # so the damaged file is what a later --resume would read.
        plan = FaultPlan(faults=(
            FaultSpec(kind="checkpoint_truncation", at_save=2),))
        _train(corpus, gpus=2, iterations=4, plan=plan, recovery="retry",
               save_every=4, checkpoint_path=ck)
        with pytest.raises(ValueError, match="truncated|integrity"):
            load_run_state(ck)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestFaultsCli:
    CORPUS = ["--synthetic", "nytimes", "--tokens", "6000", "--topics", "8",
              "--iterations", "5", "--platform", "pascal"]

    def _plan(self, tmp_path, faults):
        p = tmp_path / "plan.json"
        p.write_text(json.dumps({"faults": faults}))
        return str(p)

    def test_train_elastic_survives(self, tmp_path, capsys):
        from repro.cli import main

        plan = self._plan(tmp_path, [
            {"kind": "device_failure", "iteration": 2, "device": 1}])
        rc = main(["train", *self.CORPUS, "--gpus", "4",
                   "--faults", plan, "--recovery", "elastic"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 GPU(s)" in out
        assert "1 repartition(s)" in out

    def test_train_without_recovery_fails_with_hint(self, tmp_path, capsys):
        from repro.cli import main

        plan = self._plan(tmp_path, [
            {"kind": "device_failure", "iteration": 2, "device": 1}])
        rc = main(["train", *self.CORPUS, "--gpus", "4", "--faults", plan])
        err = capsys.readouterr().err
        assert rc == 1
        assert "--recovery" in err
        assert "fault event" in err

    def test_faults_gated_to_culda(self, tmp_path, capsys):
        from repro.cli import main

        plan = self._plan(tmp_path, [
            {"kind": "device_failure", "iteration": 0, "device": 0}])
        rc = main(["train", "--algo", "warplda", *self.CORPUS,
                   "--faults", plan])
        assert rc == 2
        assert "culda" in capsys.readouterr().err

    def test_invalid_plan_actionable_error(self, tmp_path, capsys):
        from repro.cli import main

        plan = self._plan(tmp_path, [{"kind": "bogus"}])
        rc = main(["train", *self.CORPUS, "--faults", plan])
        assert rc == 2
        assert "unknown fault kind" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--iterations", "0"),
        ("--iterations", "-3"),
        ("--gpus", "0"),
        ("--topics", "zero"),
        ("--likelihood-every", "-1"),
        ("--save-every", "-2"),
    ])
    def test_bad_numeric_args_rejected(self, flag, value, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["train", "--synthetic", "nytimes", flag, value])
        assert err.value.code == 2
        assert "integer" in capsys.readouterr().err

    def test_profile_reports_fault_counters(self, tmp_path, capsys):
        from repro.cli import main

        plan = self._plan(tmp_path, [
            {"kind": "link_flaky", "iteration": 2, "link": "p2p[0-1]",
             "count": 2}])
        rc = main(["profile", "--tokens", "6000", "--topics", "8",
                   "--iterations", "5", "--platform", "pascal",
                   "--gpus", "2", "--sync", "gpu_tree", "--top", "20",
                   "--faults", plan, "--recovery", "retry"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "transfer_retries_total" in out
        assert "fault events" in out
