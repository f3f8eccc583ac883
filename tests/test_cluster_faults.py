"""Chaos suite for the cluster fault substrate (docs/ROBUSTNESS.md §8).

Covers the heartbeat membership FSM, fault-aware Ethernet sends,
parameter-server replication/failover/repair, token-lightest placement,
the canonical 4-node chaos plan on multi-node CuLDA (one GPU per node),
fault-plan validation and the CLI's fault-domain checks. The per-kind
trainer cases live in the chaos section of ``tests/test_distributed.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.cluster.membership import HeartbeatConfig, MembershipMonitor
from repro.cluster.network import ClusterNetwork
from repro.cluster.paramserver import ShardedParameterServer
from repro.cluster.placement import place_token_lightest
from repro.comm import WireDelta, plan_cluster_sync
from repro.core import DistributedCuLDA, TrainConfig
from repro.engine.recovery import RecoveryPolicy, TrainingFailure
from repro.faults.plan import FaultPlan, FaultSpec, cluster_chaos_plan
from repro.gpusim.errors import DeviceLost, NodeLost, SyncPathError
from repro.gpusim.platform import make_machine


def make_server(num_nodes=4, K=6, V=40, seed=0):
    rng = np.random.default_rng(seed)
    phi = rng.integers(0, 50, size=(K, V)).astype(np.int64)
    net = ClusterNetwork(num_nodes)
    return ShardedParameterServer(phi.copy(), num_nodes, net), net, phi


class TestHeartbeatConfig:
    def test_defaults_valid(self):
        cfg = HeartbeatConfig()
        assert cfg.dead_after > cfg.suspect_after >= cfg.interval

    @pytest.mark.parametrize("kwargs", [
        {"interval": 0.0},
        {"suspect_after": 0.01, "interval": 0.05},
        {"dead_after": 0.5, "suspect_after": 0.5},
    ])
    def test_rejects_bad_thresholds(self, kwargs):
        with pytest.raises(ValueError):
            HeartbeatConfig(**kwargs)


class TestMembershipFSM:
    def test_all_join_alive(self):
        net = ClusterNetwork(3)
        mon = MembershipMonitor(net)
        assert mon.states() == {0: "alive", 1: "alive", 2: "alive"}
        assert mon.timeline == [(0.0, n, "join", "alive") for n in range(3)]

    def test_silence_escalates_at_exact_thresholds(self):
        net = ClusterNetwork(2)
        cfg = HeartbeatConfig(interval=0.1, suspect_after=0.5, dead_after=2.0)
        mon = MembershipMonitor(net, cfg)
        mon.observe(0.3)          # both heartbeating
        net.fail_node(1)          # silent from its last lease (t=0.3)
        mon.observe(0.6)
        assert mon.state(1) == "alive"   # within suspect_after of t=0.3
        mon.observe(0.9)
        assert mon.state(1) == "suspect"
        mon.observe(5.0)
        assert mon.state(1) == "dead"
        # Transition stamps are the exact threshold expiries, not the
        # observation times.
        events = [(t, frm, to) for t, n, frm, to in mon.timeline if n == 1
                  if frm != "join"]
        assert [(frm, to) for _, frm, to in events] == [
            ("alive", "suspect"), ("suspect", "dead")
        ]
        assert [t for t, _, _ in events] == pytest.approx([0.8, 2.3])
        assert mon.dead_nodes == [1]

    def test_suspect_node_is_readmitted(self):
        net = ClusterNetwork(2)
        cfg = HeartbeatConfig(interval=0.1, suspect_after=0.5, dead_after=2.0)
        mon = MembershipMonitor(net, cfg)
        net.links[1].set_down(True)
        mon.observe(1.0)
        assert mon.state(1) == "suspect"
        net.links[1].set_down(False)   # NIC flap, not death
        mon.observe(1.2)
        assert mon.state(1) == "alive"
        assert (1.2, 1, "suspect", "alive") in mon.timeline

    def test_dead_is_permanent(self):
        net = ClusterNetwork(2)
        mon = MembershipMonitor(net)
        net.fail_node(1)
        mon.observe(100.0)
        assert mon.is_dead(1)
        # Even if reachability somehow returned, dead stays dead.
        net._alive[1] = True
        net.links[1].set_down(False)
        mon.observe(200.0)
        assert mon.is_dead(1)

    def test_await_verdict_stalls_until_lease_expiry(self):
        net = ClusterNetwork(2)
        cfg = HeartbeatConfig(interval=0.1, suspect_after=0.5, dead_after=2.0)
        mon = MembershipMonitor(net, cfg)
        mon.observe(0.5)
        net.fail_node(1)
        verdict_at = mon.await_verdict(1, 0.7)
        assert verdict_at == pytest.approx(2.5)   # last lease 0.5 + 2.0
        assert mon.is_dead(1)
        # Already-dead verdicts are immediate.
        assert mon.await_verdict(1, 3.0) == 3.0

    def test_node_lost_is_a_device_lost(self):
        exc = NodeLost(3)
        assert isinstance(exc, DeviceLost)
        assert exc.unit == "node"
        assert exc.node_id == 3
        assert "node 3" in str(exc)


class TestClusterNetworkFaults:
    def test_send_over_dead_link_raises_structured_error(self):
        net = ClusterNetwork(3)
        net.links[2].set_down(True)
        with pytest.raises(SyncPathError) as err:
            net.send(0, 2, 1000.0, 0.0, op="ps_push")
        assert err.value.op == "ps_push"
        assert err.value.devices == (0, 2)
        assert err.value.link_name == "eth[2]"
        assert not err.value.transient

    def test_retry_absorbs_flaky_link(self):
        net = ClusterNetwork(2)
        net.links[1].fail_next(2)
        retry = RecoveryPolicy(mode="retry").transfer_retry()
        start, end = net.send(0, 1, 1000.0, 0.0, retry=retry)
        assert end > start >= 0.0

    def test_retry_exhaustion_surfaces_transient_error(self):
        net = ClusterNetwork(2)
        net.links[1].fail_next(10)
        retry = RecoveryPolicy(
            mode="retry", max_transfer_retries=2
        ).transfer_retry()
        with pytest.raises(SyncPathError) as err:
            net.send(0, 1, 1000.0, 0.0, op="ps_pull", retry=retry)
        assert err.value.transient
        # The receiver refused every attempt: none held the sender's
        # NIC or counted its bytes.
        assert net.links[0].busy_until(0) == 0.0
        assert net.total_bytes() == 0

    def test_fail_node_removes_from_topology(self):
        """A failed node takes part in no cluster plan, asked for or
        not."""
        net = ClusterNetwork(3)
        payload = [WireDelta.encode(np.ones((4, 16), dtype=np.int64))] * 3
        assert plan_cluster_sync(net, payload).participants == (0, 1, 2)
        net.fail_node(1)
        assert plan_cluster_sync(net, payload).participants == (0, 2)
        assert plan_cluster_sync(
            net, payload, nodes=[0, 1, 2]
        ).participants == (0, 2)


class TestParameterServerReplication:
    def test_push_with_duplicate_words_conserves_counts(self):
        # Regression: fancy-index += silently dropped duplicate word
        # columns; np.add.at must apply every occurrence.
        server, _, phi = make_server()
        words = np.array([4, 4, 9, 4], dtype=np.int64)
        delta = np.ones((phi.shape[0], words.size), dtype=np.int64)
        before = server.phi.sum()
        server.push(0, words, delta, 0.0)
        assert server.phi.sum() == before + delta.sum()
        assert np.array_equal(
            server.phi[:, 4], phi[:, 4] + 3
        )

    def test_replication_keeps_copies_identical(self):
        server, _, _ = make_server()
        words = np.arange(10, dtype=np.int64)
        delta = np.full((6, 10), 2, dtype=np.int64)
        server.push(1, words, delta, 0.0)
        for s in range(server.num_shards):
            assert np.array_equal(server._primary[s], server._replica[s])

    def test_failover_read_is_bit_exact(self):
        server, net, _ = make_server()
        words = np.arange(server.num_words, dtype=np.int64)
        healthy, _ = server.pull(1, words, 0.0)
        net.fail_node(0)   # primary of shard 0 gone
        failover, _ = server.pull(1, words, 0.0)
        assert np.array_equal(healthy, failover)
        assert any(e["kind"] == "failover_read" for e in server.events)

    def test_failover_push_applies_to_replica(self):
        server, net, _ = make_server()
        net.fail_node(0)
        words = np.arange(server.num_words, dtype=np.int64)
        delta = np.ones((6, words.size), dtype=np.int64)
        before = server.phi.sum()
        server.push(1, words, delta, 0.0)
        assert server.phi.sum() == before + delta.sum()
        assert any(e["kind"] == "failover_push" for e in server.events)

    def test_corruption_detected_and_repaired(self):
        server, _, phi = make_server()
        server.corrupt_shard(0)
        assert server.phi.sum() != phi.sum()   # corruption visible
        server.verify()
        assert np.array_equal(server.phi, phi)
        repairs = [e for e in server.events if e["kind"] == "shard_repair"]
        assert repairs and repairs[0]["from"] == "replica"

    def test_corrupt_shard_rejects_node_without_primaries(self):
        server, net, _ = make_server(num_nodes=4)
        with pytest.raises(ValueError, match="primaries"):
            server.corrupt_shard(17)

    def test_reshard_conserves_and_relocates(self):
        server, net, phi = make_server()
        net.fail_node(1)
        bytes_moved, done = server.reshard(phi, 0.0)
        assert bytes_moved > 0
        assert done > 0.0
        assert np.array_equal(server.phi, phi)
        assert 1 not in server._primary_node
        assert 1 not in server._replica_node
        assert server.bytes_resharded == bytes_moved


class TestPlacement:
    def test_ties_go_to_lower_node_id(self):
        # Nodes 0 and 2 carry equal load; node 1 is dead. Each orphan
        # goes to the lightest survivor, the lower id on a tie: worker 1
        # to node 0, then worker 3 to node 2 (node 0 is heavier now).
        placed = place_token_lightest(
            [0, 1, 2, 1], [5, 3, 5, 3], survivors=[2, 0]
        )
        assert placed == [0, 0, 2, 2]


def small_cluster(corpus, hyper, nodes=4, **config_kwargs):
    """Multi-node CuLDA, one Pascal GPU per node, 6 iterations."""
    cfg = TrainConfig(
        **{"num_topics": hyper.num_topics, "iterations": 6, "seed": 0,
           **config_kwargs}
    )
    return DistributedCuLDA(
        corpus, [make_machine("pascal", 1) for _ in range(nodes)],
        config=cfg,
    )


class TestElasticNodeLoss:
    """``cluster_chaos_plan(4)`` (node 2 dies at iteration 2, node 0's
    NIC flaps at iteration 4) on a 4-node run."""

    def test_recovery_none_fails_with_timeline(self, small_corpus, hyper8):
        with pytest.raises(TrainingFailure) as err:
            small_cluster(small_corpus, hyper8).train(
                fault_plan=cluster_chaos_plan(4),
            )
        exc = err.value
        assert "node 2" in str(exc)
        assert isinstance(exc.cause, NodeLost)
        assert (2.0, 2, "suspect", "dead") in [
            tuple(e) for e in exc.membership_events
        ]
        assert any(e["kind"] == "node_failure" for e in exc.fault_events)

    def test_shard_corruption_heals_in_flight(self, small_corpus, hyper8):
        # The parameter-server backend reads φ through the corrupted
        # shard itself, not only through the sync leg's replicas.
        clean = small_cluster(
            small_corpus, hyper8, inter_sync="param_server"
        ).train()
        plan = FaultPlan(faults=(
            FaultSpec(kind="ps_shard_corruption", iteration=2, node=1),
        ))
        algo = small_cluster(small_corpus, hyper8, inter_sync="param_server")
        res = algo.train(recovery="retry", fault_plan=plan)
        assert np.array_equal(res.phi, clean.phi)
        assert res.phi.sum() == small_corpus.num_tokens
        assert res.rollbacks == 0   # repaired by checksums, not rollback
        assert any(
            e["kind"] == "shard_repair" for e in algo.server.events
        )

    def test_elastic_run_charges_recovery_time(self, small_corpus, hyper8):
        clean = small_cluster(small_corpus, hyper8).train()
        faulted = small_cluster(small_corpus, hyper8).train(
            recovery="elastic", fault_plan=cluster_chaos_plan(4),
        )
        assert np.array_equal(faulted.phi, clean.phi)
        # The failure-detector lease (dead_after = 2 simulated seconds)
        # dominates; a recovered run must be visibly slower.
        assert faulted.total_sim_seconds > clean.total_sim_seconds + 1.0


class TestClusterPlanValidation:
    def test_cluster_kinds_roundtrip(self):
        plan = cluster_chaos_plan(4)
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert plan.needs_cluster and not plan.needs_machine

    def test_chaos_plan_needs_three_nodes(self):
        # Below 3 nodes the plan would kill node 0, whose NIC it flaps.
        with pytest.raises(ValueError, match="at least 3 nodes"):
            cluster_chaos_plan(2)

    def test_missing_node_names_the_entry(self):
        with pytest.raises(ValueError, match=r"fault #0 \(node_failure\)"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "node_failure", "iteration": 2}]}
            )

    def test_eth_degraded_requires_scale(self):
        with pytest.raises(ValueError, match="scale"):
            FaultPlan.from_dict({"faults": [
                {"kind": "eth_link_degraded", "iteration": 1,
                 "link": "eth[0]"}
            ]})

    def test_injector_requires_cluster_for_cluster_kinds(self):
        from repro.faults.injector import FaultInjector

        with pytest.raises(ValueError, match="cluster"):
            FaultInjector(cluster_chaos_plan(4))

    def test_injector_requires_server_for_corruption(self):
        from repro.faults.injector import FaultInjector

        plan = FaultPlan(faults=(
            FaultSpec(kind="ps_shard_corruption", iteration=1, node=0),
        ))
        with pytest.raises(ValueError, match="parameter server"):
            FaultInjector(plan, cluster=ClusterNetwork(2))


class TestClusterChaosCLI:
    def _write_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(cluster_chaos_plan(4).to_dict()))
        return str(path)

    CLUSTER = [
        "train", "--algo", "culda", "--synthetic", "nytimes",
        "--tokens", "3000", "--topics", "8", "--iterations", "6",
        "--platform", "pascal", "--nodes", "4", "--gpus-per-node", "1",
    ]

    def test_elastic_run_completes(self, capsys, tmp_path):
        rc = main(self.CLUSTER + [
            "--faults", self._write_plan(tmp_path), "--recovery", "elastic",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 repartition(s)" in out

    def test_none_mode_names_the_dead_node(self, capsys, tmp_path):
        rc = main(self.CLUSTER + ["--faults", self._write_plan(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "node 2" in err
        assert "membership timeline" in err
        assert "suspect -> dead" in err

    def test_cluster_kinds_rejected_for_culda(self, capsys, tmp_path):
        rc = main([
            "train", "--algo", "culda", "--synthetic", "nytimes",
            "--tokens", "3000", "--iterations", "3",
            "--faults", self._write_plan(tmp_path),
            "--recovery", "elastic",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fault #0 (node_failure)" in err
        assert "--nodes > 1" in err

    def test_gpu_kinds_rejected_for_ldastar(self, capsys, tmp_path):
        path = tmp_path / "gpu.json"
        path.write_text(json.dumps({"faults": [
            {"kind": "device_failure", "iteration": 1, "device": 0}
        ]}))
        rc = main([
            "train", "--algo", "ldastar", "--synthetic", "nytimes",
            "--tokens", "3000", "--topics", "8", "--iterations", "3",
            "--workers", "4", "--faults", str(path),
        ])
        assert rc == 2
        assert "--algo culda" in capsys.readouterr().err
