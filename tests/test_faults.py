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
from repro.corpus.synthetic import SyntheticSpec, generate_lda_corpus, nytimes_like
from repro.engine import RecoveryPolicy, TrainingFailure, validate_state
from repro.engine.loop import LoopConfig
from repro.faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultSpec
from repro.gpusim import DeviceLost, KernelFault, LinkDown
from repro.gpusim.errors import SyncPathError
from repro.gpusim.platform import pascal_platform
from repro.telemetry import MetricsRegistry, telemetry_session


@pytest.fixture(scope="module")
def corpus():
    return generate_lda_corpus(
        SyntheticSpec(num_docs=80, num_words=300, avg_doc_length=100,
                      num_topics=6, name="chaos"),
        seed=17,
    )


@pytest.fixture(scope="module")
def nytimes():
    return nytimes_like(num_tokens=6000, seed=0)


def _train(corpus, gpus=4, iterations=6, *, plan=None, recovery=None,
           registry=None, sync="gpu_tree", chunks_per_gpu=None,
           **train_kwargs):
    # Forced gpu_tree: these tests exercise the retry/fallback machinery
    # on specific links, so the sync planner must not re-route around
    # the very faults being injected (planner behaviour under fault
    # plans is covered in test_comm.py).
    trainer = CuLDA(
        corpus, pascal_platform(gpus),
        TrainConfig(num_topics=8, iterations=iterations, seed=0,
                    sync_algorithm=sync, chunks_per_gpu=chunks_per_gpu),
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
                               backoff_seconds=2e-4).transfer_retry()
        assert retry.max_retries == 5
        assert retry.backoff_seconds == 2e-4

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
        # A permanently-down link is not retried: the copy re-routes
        # through CPU memory at once and the model is still
        # bit-identical to the failure-free run.
        plan = FaultPlan(faults=(
            FaultSpec(kind="link_down", iteration=2, link="p2p[0-1]"),))
        registry = MetricsRegistry()
        degraded = _train(corpus, gpus=2, plan=plan, recovery="retry",
                          registry=registry)
        clean = _train(corpus, gpus=2)
        assert np.array_equal(degraded.phi, clean.phi)
        assert _counter(registry, "degraded_sync_total",
                        link="p2p[0-1]", op="phi_reduce_copy") > 0

    @pytest.mark.parametrize("gpus", [2, 4])
    def test_relayed_copy_waits_for_its_staging(self, nytimes, gpus):
        """A copy re-routed through host memory lands on the receiver in
        an h2d that starts no earlier than the sender's d2h ends, the
        copy's ``not_before``; nothing about the receiving buffer orders
        it. On this corpus the order binds: each broadcast's h2d starts
        exactly then."""
        machine = pascal_platform(gpus)
        CuLDA(
            nytimes, machine,
            TrainConfig(num_topics=8, iterations=3, seed=0,
                        sync_algorithm="gpu_tree"),
        ).train(
            fault_plan=FaultPlan(faults=(
                FaultSpec(kind="link_down", iteration=1, link="p2p[0-1]"),)),
            recovery="retry",
        )
        staged, gaps = {}, []
        for iv in machine.trace.intervals:
            op, _, leg = iv.label.rpartition("_via_host_")
            if leg == "d2h":
                staged[op] = iv.end
            elif leg == "h2d":
                gaps.append(iv.start - staged.pop(op))
        assert gaps and min(gaps) == 0.0

    @pytest.mark.parametrize("gpus,rerouted,clean", [
        (2, 57.91e-6, 44.35e-6), (4, 75.53e-6, 59.70e-6),
    ])
    def test_down_link_is_never_retried(self, nytimes, gpus, rerouted, clean):
        """A link that is down for good fails its copy on the first
        attempt, whatever the retry budget: from iteration 1 the tree's
        copies over p2p[0-1] go straight to the host re-route, with no
        backoff and no retry counted. While each such copy spent the
        whole budget first, those iterations took 736.22 µs on 2 GPUs
        and 755.62 µs on 4."""
        plan = FaultPlan(faults=(
            FaultSpec(kind="link_down", iteration=1, link="p2p[0-1]"),))
        registry = MetricsRegistry()
        faulty = _train(nytimes, gpus, 5, plan=plan, recovery="retry",
                        registry=registry)
        healthy = _train(nytimes, gpus, 5)
        assert [it.sim_seconds for it in faulty.iterations] == pytest.approx(
            [clean] + [rerouted] * 4, abs=5e-9
        )
        assert [it.sim_seconds for it in healthy.iterations] == pytest.approx(
            [clean] * 5, abs=5e-9
        )
        assert registry.get("transfer_retries_total") is None
        assert _counter(registry, "degraded_sync_total",
                        link="p2p[0-1]", op="phi_reduce_copy") == 4
        assert np.array_equal(faulty.phi, healthy.phi)

    def test_cluster_send_never_retries_a_downed_nic(self):
        """``ClusterNetwork.send`` keeps the copies' rule: a NIC that is
        down for good fails the message on its first attempt, under a
        retry policy too."""
        from repro.cluster.network import ClusterNetwork
        from repro.comm import TransferRetry

        net = ClusterNetwork(2)
        net.links[0].set_down()
        registry = MetricsRegistry()
        with telemetry_session(registry=registry):
            with pytest.raises(SyncPathError) as err:
                net.send(0, 1, 1e3, 0.0, op="probe", retry=TransferRetry())
        assert (err.value.op, err.value.devices) == ("probe", (0, 1))
        assert not err.value.transient
        assert net.links[0].num_failed_transfers == 1
        assert registry.get("cluster_transfer_retries_total") is None

    @staticmethod
    def _flaky_chunk_upload():
        # GPU 1's host link drops its next transfer from iteration 1 on:
        # at M = 2 that is the upload of chunk 1, the GPU's second chunk.
        return FaultPlan(faults=(
            FaultSpec(kind="link_flaky", iteration=1, link="pcie[1]",
                      count=1),))

    def test_streamed_chunk_copy_retries_in_place(self, nytimes):
        """A streamed chunk's upload carries the run's retry, as staging
        does: a dropped transfer costs one backoff, not a rollback."""
        registry = MetricsRegistry()
        result = _train(nytimes, 2, 5, plan=self._flaky_chunk_upload(),
                        recovery="retry", registry=registry,
                        chunks_per_gpu=2)
        clean = _train(nytimes, 2, 5, chunks_per_gpu=2)
        assert result.rollbacks == 0
        retries = registry.get("transfer_retries_total").samples()
        assert [(s.labels, s.value) for s in retries] == [
            ({"link": "pcie[1]", "op": "h2d:chunk1"}, 1.0)
        ]
        assert result.iterations[1].sim_seconds == pytest.approx(
            149.73e-6, abs=5e-9
        )
        assert np.array_equal(result.phi, clean.phi)

    def test_failed_chunk_copy_is_structured(self, nytimes):
        """With no recovery policy the same dropped upload ends the run
        in a failure whose cause names the copy and its device."""
        with pytest.raises(TrainingFailure) as err:
            _train(nytimes, 2, 5, plan=self._flaky_chunk_upload(),
                   chunks_per_gpu=2)
        cause = err.value.cause
        assert isinstance(cause, SyncPathError)
        assert (cause.op, cause.devices, cause.link_name) == (
            "h2d:chunk1", (1,), "pcie[1]"
        )
        assert cause.transient

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

    @pytest.mark.parametrize("gpus,fault,recovery,rerun", [
        (2, FaultSpec(kind="kernel_fault", iteration=2, device=1,
                      op="sampling"), "retry", 93.60e-6),
        (4, FaultSpec(kind="device_failure", iteration=2, device=1),
         "elastic", 114.94e-6),
        (2, FaultSpec(kind="transfer_corruption", iteration=3,
                      link="p2p[0-1]"), "retry", 128.38e-6),
        (4, FaultSpec(kind="transfer_corruption", iteration=3,
                      link="p2p[0-1]"), "retry", 166.41e-6),
    ])
    def test_recovery_is_charged_to_the_rerun(
        self, nytimes, gpus, fault, recovery, rerun
    ):
        """One machine charges an iteration from the end of the last
        completed one, as the cluster does, so the aborted attempt and
        the recovery land on the rerun and the iterations sum to the
        run's total. They used to be in no iteration: the iterations
        summed to 275.17 µs of 313.74 after the rollback and to 384.88
        of 418.78 after the GPU loss. An iteration that completes and
        then fails validation is discarded with the rollback, so the
        rollback rewinds the charge to the snapshot's mark: on 2 GPUs
        the iterations used to sum to 293.48 µs of 348.52, the rerun
        reading 73.35 µs."""
        result = _train(nytimes, gpus, 5, plan=FaultPlan(faults=(fault,)),
                        recovery=recovery, chunks_per_gpu=2)
        assert result.rollbacks + result.repartitions == 1
        assert sum(it.sim_seconds for it in result.iterations) == (
            pytest.approx(result.total_sim_seconds, rel=1e-12)
        )
        assert result.iterations[fault.iteration].sim_seconds == (
            pytest.approx(rerun, abs=5e-9)
        )

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
        # GPU 1's host link drops two transfers in a row at each of
        # iterations 1-3, outlasting a one-retry budget; each failure
        # burns one rollback until the budget runs out. The resulting
        # failure must carry the final underlying fault and the
        # injector's event log — a bare "training failed" helps nobody
        # triage.
        plan = FaultPlan(faults=tuple(
            FaultSpec(kind="link_flaky", iteration=it, link="pcie[1]",
                      count=2)
            for it in (1, 2, 3)
        ))
        policy = RecoveryPolicy(mode="retry", max_transfer_retries=1,
                                max_rollbacks=2)
        with pytest.raises(TrainingFailure) as err:
            _train(corpus, gpus=2, plan=plan, recovery=policy,
                   sync="cpu_gather")
        failure = err.value
        assert failure.phase == "recovery"
        assert isinstance(failure.cause, SyncPathError)
        assert failure.cause is failure.__cause__
        assert failure.fault_events
        assert {e["kind"] for e in failure.fault_events} == {"link_flaky"}
        assert "budget" in str(failure)

    def test_fault_during_rollback_fails_structured(self, corpus):
        # The sync finds no path (the peer link and GPU 0's host link
        # are down), and the rollback's φ upload over the dead host
        # link faults too: the run must still end in a structured
        # failure carrying that fault and the event log.
        plan = FaultPlan(faults=(
            FaultSpec(kind="link_down", iteration=1, link="p2p[0-1]"),
            FaultSpec(kind="link_down", iteration=1, link="pcie[0]"),
        ))
        with pytest.raises(TrainingFailure) as err:
            _train(corpus, gpus=2, plan=plan, recovery="retry")
        failure = err.value
        assert failure.phase == "recovery"
        assert isinstance(failure.cause, LinkDown)
        assert failure.cause is failure.__cause__
        assert {e["kind"] for e in failure.fault_events} == {"link_down"}
        assert "rollback" in str(failure)


    @staticmethod
    def _flaky_host_link(count):
        # GPU 1's host link drops *count* transfers from iteration 1 on.
        # The gather's d2h spends two of them (one try and one retry)
        # and fails the sync; the rollback's uploads meet the rest.
        return FaultPlan(faults=(
            FaultSpec(kind="link_flaky", iteration=1, link="pcie[1]",
                      count=count),))

    def test_rollback_upload_retries_a_dropped_transfer(self, corpus):
        result = _train(
            corpus, gpus=2, plan=self._flaky_host_link(3), sync="cpu_gather",
            recovery=RecoveryPolicy(mode="retry", max_transfer_retries=1),
        )
        clean = _train(corpus, gpus=2, sync="cpu_gather")
        assert result.rollbacks == 1
        assert np.array_equal(result.phi, clean.phi)

    def test_rollback_upload_past_its_retries_fails_structured(self, corpus):
        with pytest.raises(TrainingFailure) as err:
            _train(
                corpus, gpus=2, plan=self._flaky_host_link(4),
                sync="cpu_gather",
                recovery=RecoveryPolicy(mode="retry", max_transfer_retries=1),
            )
        failure = err.value
        assert failure.phase == "recovery"
        assert isinstance(failure.cause, SyncPathError)
        assert failure.cause.op == "h2d:phi_rollback"
        assert failure.cause.link_name == "pcie[1]"
        assert "rollback" in str(failure)
        # The link is up and only dropped transfers: the error must not
        # read as a dead link.
        assert failure.cause.transient
        assert "pcie[1] kept failing" in str(failure.cause)
        assert "is down" not in str(failure.cause)


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
