"""Tests for the collective-communication layer (repro.comm).

Covers what the planner reads of the fabric (its telemetry labels, the
link states its replays copy), the collectives' fixed order, the
hierarchical all-reduce, the cost-model planner's per-fabric decisions
(including replanning around dead links), the structured no-path error
every collective now raises, and the ``--sync auto`` bit-identity
guarantee.

The Hypothesis section drives the planner over randomized intra-node
fabrics (platforms, GPU counts, failed GPUs, degraded and downed
links, retry policies, payloads) and checks that every estimate is the
simulated time of actually running the collective, that infeasible
means the run raises ``SyncPathError``, and that ``auto`` picks the
measured-cheapest collective.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    AUTO,
    SyncContext,
    TransferRetry,
    WireDelta,
    collective_names,
    collectives,
    decisions_from_registry,
    get_collective,
    plan_cluster_sync,
    plan_sync,
    reduce_phi_tree,
    sync_choices,
)
from repro.core.kernels import KernelConfig
from repro.gpusim.errors import LinkDown, SyncPathError
from repro.gpusim.memory import DeviceArray
from repro.gpusim.platform import (
    dgx_platform,
    make_machine,
    pascal_platform,
    volta_platform,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry.context import telemetry_session


def _setup(machine, K=8, V=20, dtype=np.int32, seed=0, devices=None):
    """Partial/scratch/full buffers + streams on *devices* (default all)."""
    rng = np.random.default_rng(seed)
    gpus = (
        machine.gpus if devices is None
        else [machine.gpus[d] for d in devices]
    )
    partial_data = [
        rng.integers(0, 50, size=(K, V)).astype(dtype) for _ in gpus
    ]
    partials = [
        DeviceArray(gpu, (K, V), dtype, fill=partial_data[i],
                    label=f"partial{i}")
        for i, gpu in enumerate(gpus)
    ]
    scratch = [
        DeviceArray(gpu, (K, V), dtype, label=f"scratch{i}")
        for i, gpu in enumerate(gpus)
    ]
    fulls = [
        DeviceArray(gpu, (K, V), dtype, label=f"full{i}")
        for i, gpu in enumerate(gpus)
    ]
    streams = [gpu.create_stream("sync") for gpu in gpus]
    expected = np.sum(partial_data, axis=0)
    return partials, scratch, fulls, streams, expected


# ----------------------------------------------------------------------
# What the planner reads of the fabric
# ----------------------------------------------------------------------
def _labels(plan) -> list[str]:
    """The telemetry labels one planner call records."""
    registry = MetricsRegistry()
    with telemetry_session(registry=registry):
        plan()
    return [d["topology"] for d in decisions_from_registry(registry)]


class TestPlannerFabric:
    def test_pascal_dual_socket_layout(self):
        """Two sockets of two GPUs on a PCIe box, the pairs under one
        switch faster than the pairs across the bridge."""
        m = pascal_platform(4)
        assert _labels(
            lambda: plan_sync(m, PAYLOAD, KernelConfig())
        ) == ["4gpu-2sock-pcie"]
        assert [m.socket_of(d) for d in range(4)] == [0, 0, 1, 1]
        assert (m.p2p_link(0, 1).bandwidth_gbps
                > m.p2p_link(0, 2).bandwidth_gbps)

    def test_dgx_links_classified_nvlink(self):
        assert _labels(
            lambda: plan_sync(dgx_platform(4), PAYLOAD, KernelConfig())
        ) == ["4gpu-2sock-nvlink"]

    def test_single_gpu_rides_the_host_link(self):
        assert _labels(
            lambda: plan_sync(pascal_platform(1), PAYLOAD, KernelConfig())
        ) == ["1gpu-1sock-host"]

    def test_down_and_degraded_links_change_the_estimate(self):
        """The replay copies each link's effective bandwidth and up
        state: a degraded peer link slows the plan's own estimate, and
        a downed one makes the collective that needs it infeasible."""
        cfg = KernelConfig()

        def seconds(m, name="ring"):
            return plan_sync(m, PAYLOAD, cfg, algorithm=name).estimate.seconds

        healthy = seconds(pascal_platform(2))
        m = pascal_platform(2)
        m.p2p_link(0, 1).degrade(0.5)
        assert seconds(m) > healthy
        m.p2p_link(0, 1).set_down()
        assert seconds(m) == np.inf
        m = pascal_platform(2)
        m.pcie[0].degrade(0.5)
        assert seconds(m, "cpu_gather") > seconds(pascal_platform(2), "cpu_gather")

    def test_transient_faults_invisible(self):
        """A pending ``fail_next`` is the run's retry concern: every
        estimate is the healthy box's."""
        cfg, healthy = KernelConfig(), pascal_platform(2)
        m = pascal_platform(2)
        m.p2p_link(0, 1).fail_next(3)
        m.pcie[0].fail_next(3)
        for name in collective_names():
            assert (
                plan_sync(m, PAYLOAD, cfg, algorithm=name).estimate
                == plan_sync(healthy, PAYLOAD, cfg, algorithm=name).estimate
            )

    def test_device_subset_is_the_elastic_view(self):
        m = pascal_platform(4)
        m.gpus[1].fail()
        plans = []
        assert _labels(
            lambda: plans.append(plan_sync(m, PAYLOAD, KernelConfig()))
        ) == ["3gpu-2sock-pcie"]
        assert plans[0].participants == (0, 2, 3)

    def test_cluster_is_all_eth(self):
        from repro.cluster.network import ClusterNetwork

        payload = [WireDelta.encode(np.ones((4, 16), dtype=np.int64))] * 3
        plans = []
        assert _labels(lambda: plans.append(
            plan_cluster_sync(ClusterNetwork(num_nodes=3), payload)
        )) == ["3node-eth"]
        assert plans[0].participants == (0, 1, 2)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registration_order_and_choices(self):
        assert collective_names() == (
            "gpu_tree", "ring", "cpu_gather", "hierarchical"
        )
        assert sync_choices() == (AUTO, *collective_names())
        assert [c.name for c in collectives()] == list(collective_names())

    def test_unknown_name_rejected_with_choices(self):
        with pytest.raises(ValueError, match="unknown sync algorithm"):
            get_collective("bogus")
        with pytest.raises(ValueError, match="auto"):
            get_collective("bogus")

    def test_trainer_still_rejects_unknown_algorithm(self):
        from repro.core import CuLDA, TrainConfig
        from repro.corpus.synthetic import pubmed_like

        corpus = pubmed_like(num_tokens=2_000, num_topics=4, seed=0)
        with pytest.raises(ValueError, match="unknown sync algorithm"):
            CuLDA(
                corpus, pascal_platform(2),
                TrainConfig(num_topics=8, iterations=1, seed=0,
                            sync_algorithm="bogus"),
            ).train()


# ----------------------------------------------------------------------
# Hierarchical collective
# ----------------------------------------------------------------------
class TestHierarchical:
    @pytest.mark.parametrize("num_gpus", [1, 2, 3, 4])
    def test_allreduce_sums_all_replicas(self, num_gpus):
        m = pascal_platform(num_gpus)
        partials, scratch, fulls, streams, expected = _setup(m)
        get_collective("hierarchical").allreduce(SyncContext(
            m, partials, fulls, scratch, streams, KernelConfig()
        ))
        m.synchronize()
        for f in fulls:
            assert np.array_equal(f.data, expected.astype(f.dtype))

    def test_elastic_subset_skipping_a_socket_member(self):
        """Surviving set {0, 2, 3}: the sockets hold one GPU and two, so
        the grid is one row and the run is the flat ring's, interval for
        interval."""
        runs = {}
        for name in ("hierarchical", "ring"):
            m = pascal_platform(4)
            partials, scratch, fulls, streams, expected = _setup(
                m, devices=[0, 2, 3]
            )
            get_collective(name).allreduce(SyncContext(
                m, partials, fulls, scratch, streams, KernelConfig()
            ))
            m.synchronize()
            for f in fulls:
                assert np.array_equal(f.data, expected.astype(f.dtype))
            runs[name] = [
                (iv.label, iv.device_id, iv.start, iv.end)
                for iv in m.trace.intervals
            ]
        assert runs["hierarchical"] == runs["ring"]
        assert [iv[0] for iv in runs["ring"]].count("ring_transfer") == 12

    def test_every_gpu_crosses_the_bridge_with_its_slice(self, monkeypatch):
        """The benchmark's payload on 4 Pascal GPUs, a 2×2 socket grid:
        in each of L lanes each GPU sends its socket peer two copies of
        K/2L rows and its cross-socket peer two of K/4L, so the bridge
        carries 2/3 of the flat ring's bytes in 4 steps per lane instead
        of 6. Two lanes cost no byte more, and one lane's socket steps
        overlap the other's bridge steps."""
        from repro.gpusim.platform import Machine

        memcpy_p2p = Machine.memcpy_p2p
        K, V = BENCH_PAYLOAD
        sent = {}  # (collective, lanes) -> [(src device, dst device, rows)]

        def recording(self, dst, src, stream=None, label="p2p", retry=None):
            sent[run].append(
                (src.device.device_id, dst.device.device_id, src.shape[0])
            )
            return memcpy_p2p(self, dst, src, stream, label, retry)

        monkeypatch.setattr(Machine, "memcpy_p2p", recording)
        for run in (("ring", 1), ("hierarchical", 1), ("hierarchical", 2)):
            sent[run] = []
            m = pascal_platform(4)
            partials, scratch, fulls, streams, expected = _setup(
                m, *BENCH_PAYLOAD, dtype=np.uint16
            )
            get_collective(run[0]).allreduce(SyncContext(
                m, partials, fulls, scratch, streams, KernelConfig(),
                lane_streams=_lane_streams(m, run[1]),
            ))
            assert all(np.array_equal(f.data, expected) for f in fulls)
            # No tree copy, broadcast copy or local copy of φ.
            labels = {iv.label for iv in m.trace.intervals}
            assert labels == {"ring_transfer", "ring_combine"}
        monkeypatch.undo()

        for lanes in (1, 2):
            for d, (peer, cross) in enumerate(((1, 2), (0, 3), (3, 0), (2, 1))):
                assert sorted(
                    (dst, rows) for src, dst, rows in sent["hierarchical", lanes]
                    if src == d
                ) == sorted(
                    [(peer, K // (2 * lanes))] * 2 * lanes
                    + [(cross, K // (4 * lanes))] * 2 * lanes
                )

        def bridge_bytes(run, src_socket):
            return sum(
                rows * V * 2 for src, dst, rows in sent[run]
                if src // 2 == src_socket and dst // 2 != src_socket
            )

        for socket in (0, 1):
            assert bridge_bytes(("hierarchical", 1), socket) == 420_096
            assert bridge_bytes(("hierarchical", 2), socket) == 420_096
            assert bridge_bytes(("ring", 1), socket) == 630_144

        fresh = pascal_platform(4)
        estimates = [
            get_collective("hierarchical").estimate(
                fresh, BENCH_PAYLOAD, KernelConfig(), lanes=lanes
            ).seconds * 1e6
            for lanes in (1, 2)
        ]
        assert estimates == pytest.approx([102.15, 87.78], abs=0.005)

    def test_eight_gpus_ring_a_two_by_four_grid(self):
        """Two sockets of four GPUs: 2·(3 + 1) steps of 8 copies, where
        the flat ring takes 2·7, and twice as many copies in two lanes;
        both sum exactly at a K that no grid divides."""
        copies = {}
        for name in ("hierarchical", "ring"):
            for lanes in (1, 2):
                m = make_machine("pascal", 8)
                partials, scratch, fulls, streams, expected = _setup(m, K=37)
                get_collective(name).allreduce(SyncContext(
                    m, partials, fulls, scratch, streams, KernelConfig(),
                    lane_streams=_lane_streams(m, lanes),
                ))
                for f in fulls:
                    assert np.array_equal(f.data, expected.astype(f.dtype))
                copies[name, lanes] = [
                    iv.label for iv in m.trace.intervals
                ].count("ring_transfer")
        assert copies == {
            ("hierarchical", 1): 64, ("ring", 1): 112,
            ("hierarchical", 2): 128, ("ring", 2): 224,
        }

    def test_bridge_traffic_below_tree(self):
        # The point of the composition: fewer full replicas cross the
        # inter-socket bridge than under the flat tree.
        def bridge_bytes(run):
            m = pascal_platform(4)
            registry = MetricsRegistry()
            with telemetry_session(registry=registry):
                run(m)
            m.synchronize()
            counter = registry.get("sync_bytes_total")
            cross = 0.0
            for s in counter.samples():
                a, b = s.labels["link"].split("->")
                if {a, b} & {"0", "1"} and {a, b} & {"2", "3"}:
                    cross += s.value
            return cross

        cfg = KernelConfig()

        def tree(m):
            p, s, f, st, _ = _setup(m, K=64, V=500)
            root = reduce_phi_tree(m, p, s, st, cfg)
            from repro.comm import broadcast_phi

            broadcast_phi(m, root, f, st, cfg)

        def hier(m):
            p, s, f, st, _ = _setup(m, K=64, V=500)
            get_collective("hierarchical").allreduce(
                SyncContext(m, p, f, s, st, cfg)
            )

        assert bridge_bytes(hier) < bridge_bytes(tree)


# ----------------------------------------------------------------------
# Planner decisions
# ----------------------------------------------------------------------
PAYLOAD = (64, 2048)


class TestPlanner:
    def test_picks_ring_on_dual_socket_pcie(self):
        """Two sockets of two GPUs make a 2×2 grid, so the 2-D ring
        wins; three GPUs split 2 + 1, where the grid is the flat ring
        and the tie goes to ``ring``."""
        for gpus, pick in ((4, "hierarchical"), (3, "ring")):
            plan = plan_sync(pascal_platform(gpus), PAYLOAD, KernelConfig())
            assert plan.algorithm == pick
            assert not plan.forced
            assert plan.estimate.feasible

    def test_picks_hierarchical_on_nvlink(self):
        plan = plan_sync(dgx_platform(4), PAYLOAD, KernelConfig())
        assert plan.algorithm == "hierarchical"

    def test_replays_on_four_pascal_gpus(self):
        """The benchmark's payload on 4 Pascal GPUs: the 2-D ring makes
        4 copies per GPU in 4 steps and 2 adds, where the flat ring
        makes 6 copies in 6 steps and 3 adds, and wins. In two lanes
        one lane's socket steps overlap the other's bridge steps, so
        the 2-D ring gains; the flat ring's lanes share every link, and
        it loses."""
        m, cfg = pascal_platform(4), KernelConfig()
        replays = {
            (c.name, lanes): round(
                c.estimate(m, BENCH_PAYLOAD, cfg, lanes=lanes).seconds
                * 1e6, 2,
            )
            for c in collectives() for lanes in c.lane_counts
        }
        assert replays == {
            ("gpu_tree", 1): 256.75, ("ring", 1): 154.86, ("ring", 2): 188.26,
            ("cpu_gather", 1): 323.65,
            ("hierarchical", 1): 102.15, ("hierarchical", 2): 87.78,
        }
        plan = plan_sync(m, BENCH_PAYLOAD, cfg)
        assert (plan.algorithm, plan.lanes) == ("hierarchical", 2)

    def test_lanes_gain_only_where_phases_use_different_links(self):
        """Two lanes pay off only when one lane's steps can use links the
        other's leave idle. A flat ring's lanes share every link (2
        Pascal GPUs: 88.23 against 90.02 µs), and on NVLink the bridge
        is no slower than a socket link (4 DGX GPUs: 36.43 against
        39.57 µs), so both keep one lane."""
        cfg = KernelConfig()
        for machine, pick, one, two in (
            (pascal_platform(2), "ring", 88.23, 90.02),
            (dgx_platform(4), "hierarchical", 36.43, 39.57),
        ):
            assert [
                round(get_collective(pick).estimate(
                    machine, BENCH_PAYLOAD, cfg, lanes=lanes
                ).seconds * 1e6, 2)
                for lanes in (1, 2)
            ] == [one, two]
            plan = plan_sync(machine, BENCH_PAYLOAD, cfg)
            assert (plan.algorithm, plan.lanes) == (pick, 1)

    def test_forced_plan_keeps_its_cheapest_lanes(self):
        """``--sync`` names the collective; the lane count is still the
        replay's pick, so a forced ``hierarchical`` runs as auto does."""
        m = pascal_platform(4)
        auto = plan_sync(m, BENCH_PAYLOAD, KernelConfig())
        forced = plan_sync(
            m, BENCH_PAYLOAD, KernelConfig(), algorithm="hierarchical"
        )
        assert forced.forced and not auto.forced
        assert (forced.lanes, forced.estimate) == (auto.lanes, auto.estimate)
        assert plan_sync(
            m, BENCH_PAYLOAD, KernelConfig(), algorithm="gpu_tree"
        ).lanes == 1

    def test_distinct_choices_across_topologies(self):
        chosen = {
            (platform, gpus): plan_sync(
                make_machine(platform, gpus), PAYLOAD, KernelConfig()
            ).algorithm
            for platform, gpus in (("pascal", 1), ("pascal", 3), ("dgx", 4))
        }
        assert chosen == {
            ("pascal", 1): "gpu_tree", ("pascal", 3): "ring",
            ("dgx", 4): "hierarchical",
        }

    def test_single_gpu_keeps_seed_default(self):
        assert plan_sync(
            pascal_platform(1), PAYLOAD, KernelConfig()
        ).algorithm == "gpu_tree"

    def test_forced_plan_respected_and_marked(self):
        plan = plan_sync(
            pascal_platform(4), PAYLOAD, KernelConfig(), algorithm="ring"
        )
        assert plan.algorithm == "ring" and plan.forced

    def test_dead_p2p_link_replans_to_host_path(self):
        # The host fallback would carry a collective over a dead peer
        # link, but its detours cost more than the gather: on 4 GPUs the
        # cheapest, the ring's, by 4%.
        for gpus, dead in ((4, ((0, 1), (0, 2), (2, 3))), (2, ((0, 1),))):
            m = pascal_platform(gpus)
            baseline = plan_sync(m, PAYLOAD, KernelConfig(),
                                 retry=TransferRetry())
            assert baseline.algorithm != "cpu_gather"
            for (a, b) in dead:
                m.p2p_link(a, b).set_down()
            replanned = plan_sync(m, PAYLOAD, KernelConfig(),
                                  retry=TransferRetry())
            assert replanned.algorithm == "cpu_gather"

    def test_dead_p2p_without_fallback_still_replans(self):
        # With no retry policy nothing re-routes a copy through the host,
        # so the dead peer link leaves only the gather.
        m = pascal_platform(2)
        m.p2p_link(0, 1).set_down()
        plan = plan_sync(m, PAYLOAD, KernelConfig(), retry=None)
        assert plan.algorithm == "cpu_gather"

    def test_no_path_at_all_raises_structured_error(self):
        m = pascal_platform(2)
        m.p2p_link(0, 1).set_down()
        for link in m.pcie:
            link.set_down()
        with pytest.raises(SyncPathError):
            plan_sync(m, PAYLOAD, KernelConfig())

    def test_auto_never_slower_than_tree_estimate(self):
        cfg = KernelConfig()
        for platform in ("maxwell", "pascal", "volta", "dgx"):
            for gpus in (1, 2, 4):
                m = make_machine(platform, gpus)
                auto = plan_sync(m, PAYLOAD, cfg)
                tree = get_collective("gpu_tree").estimate(m, PAYLOAD, cfg)
                assert auto.estimate.seconds <= tree.seconds + 1e-12

    def test_decisions_recorded_in_registry(self):
        registry = MetricsRegistry()
        with telemetry_session(registry=registry):
            plan_sync(pascal_platform(4), PAYLOAD, KernelConfig())
            plan_sync(dgx_platform(4), PAYLOAD, KernelConfig(),
                      algorithm="gpu_tree")
        decisions = decisions_from_registry(registry)
        assert {d["algorithm"] for d in decisions} == {
            "hierarchical", "gpu_tree",
        }
        forced = {d["algorithm"]: d["forced"] for d in decisions}
        assert forced == {"hierarchical": False, "gpu_tree": True}
        lanes = {d["algorithm"]: d["lanes"] for d in decisions}
        assert lanes == {"hierarchical": 2, "gpu_tree": 1}
        assert all("predicted_seconds" in d for d in decisions)
        gauge = registry.get("sync_planner_predicted_seconds")
        assert {s.labels["lanes"] for s in gauge.samples()} == {"1", "2"}

    def test_zero_prediction_kept_in_decisions(self):
        # A one-node inter-node plan predicts exactly 0 s; the profile
        # must still show it rather than drop it as a missing series.
        from repro.cluster.network import ClusterNetwork

        registry = MetricsRegistry()
        with telemetry_session(registry=registry):
            plan = plan_cluster_sync(
                ClusterNetwork(num_nodes=1),
                [WireDelta.encode(np.zeros((4, 16), dtype=np.int64))],
            )
        assert plan.estimate.seconds == 0.0
        [decision] = decisions_from_registry(registry)
        assert decision["algorithm"] == plan.algorithm
        assert decision["predicted_seconds"] == 0.0

    def test_replay_leaves_only_planner_series_in_the_registry(self):
        from repro.cluster.network import ClusterNetwork
        from repro.cluster.paramserver import ShardedParameterServer
        from repro.comm import (
            ClusterSyncContext,
            cluster_collective_names,
            get_cluster_collective,
        )
        from repro.comm.cluster import _replay as _cluster_replay
        from repro.comm.collectives import _replay

        cfg, retry = KernelConfig(), TransferRetry()

        def fabric():
            # p2p[0-1] down: the tree and hierarchical runs detour
            # through host memory. p2p[2-3] drops its next transfer,
            # which the run retries; a replay copies no pending fault.
            m = pascal_platform(4)
            m.p2p_link(0, 1).set_down()
            m.p2p_link(2, 3).fail_next(1)
            return m

        real = MetricsRegistry()
        with telemetry_session(registry=real):
            _run(fabric(), "gpu_tree", PAYLOAD, cfg, retry)
        assert real.get("transfer_retries_total") is not None
        assert real.get("degraded_sync_total") is not None

        _replay.cache_clear()  # the replays must run inside this session
        registry = MetricsRegistry()
        with telemetry_session(registry=registry):
            plan_sync(fabric(), PAYLOAD, cfg, retry=retry)
            for name in collective_names():
                plan_sync(fabric(), PAYLOAD, cfg, retry=retry, algorithm=name)
        assert {m.name for m in registry} == {
            "sync_planner_decisions_total", "sync_planner_predicted_seconds",
        }

        # The inter-node leg: node 3's NIC is down, so the parameter
        # server fails node 3's shard over to its replica.
        shape, nodes = (8, 64), [0, 1, 2]

        def cluster():
            net = ClusterNetwork(num_nodes=4)
            net.links[3].set_down(True)
            zeros = np.zeros(shape, dtype=np.int64)
            return net, ShardedParameterServer(zeros, 4, net)

        net, server = cluster()
        payload = [WireDelta.encode(np.ones(shape, dtype=np.int64))] * 4
        real = MetricsRegistry()
        with telemetry_session(registry=real):
            get_cluster_collective("param_server").allreduce(
                ClusterSyncContext(
                    network=net, nodes=tuple(nodes),
                    base=np.zeros(shape, dtype=np.int64),
                    pending=payload[:3], ready=[0.0] * len(nodes),
                    server=server,
                )
            )
        assert {m.name for m in real} >= {
            "ps_failover_pushes_total", "ps_failover_reads_total",
            "cluster_bytes_total", "internode_sync_bytes_total",
        }

        _cluster_replay.cache_clear()
        registry = MetricsRegistry()
        with telemetry_session(registry=registry):
            for name in (AUTO, *cluster_collective_names()):
                net, server = cluster()
                plan_cluster_sync(
                    net, payload, algorithm=name, nodes=nodes, server=server
                )
        assert {m.name for m in registry} == {
            "sync_planner_decisions_total", "sync_planner_predicted_seconds",
        }


# ----------------------------------------------------------------------
# SyncContext: one alignment check for every collective
# ----------------------------------------------------------------------
class TestSyncContext:
    @pytest.mark.parametrize("short", ["partials", "fulls", "scratch", "streams"])
    @pytest.mark.parametrize("name", collective_names())
    def test_mismatched_lists_rejected(self, name, short):
        m = pascal_platform(2)
        partials, scratch, fulls, streams, _ = _setup(m)
        lists = dict(
            partials=partials, fulls=fulls, scratch=scratch, streams=streams
        )
        lists[short] = lists[short][:1]
        with pytest.raises(ValueError, match="must align"):
            get_collective(name).allreduce(
                SyncContext(m, config=KernelConfig(), **lists)
            )


# ----------------------------------------------------------------------
# Structured no-path errors (satellite: same error from every collective)
# ----------------------------------------------------------------------
class TestSyncPathError:
    def _dead_machine(self, gpus=2):
        m = pascal_platform(gpus)
        for a in range(gpus):
            for b in range(a + 1, gpus):
                m.p2p_link(a, b).set_down()
        return m

    def test_tree_names_link_and_devices(self):
        m = self._dead_machine()
        p, s, f, st, _ = _setup(m)
        with pytest.raises(SyncPathError) as err:
            reduce_phi_tree(m, p, s, st, KernelConfig())
        assert err.value.link_name == m.p2p_link(0, 1).name
        assert err.value.devices == (1, 0)
        assert err.value.op == "phi_reduce_copy"

    def test_ring_raises_same_structured_error(self):
        m = self._dead_machine()
        p, s, f, st, _ = _setup(m)
        with pytest.raises(SyncPathError) as err:
            get_collective("ring").allreduce(
                SyncContext(m, p, f, s, st, KernelConfig())
            )
        assert err.value.link_name == m.p2p_link(0, 1).name
        assert len(err.value.devices) == 2
        assert err.value.op == "ring_transfer"

    def test_cpu_gather_raises_same_structured_error(self):
        m = pascal_platform(2)
        m.pcie[1].set_down()
        p, s, f, st, _ = _setup(m)
        with pytest.raises(SyncPathError) as err:
            get_collective("cpu_gather").allreduce(
                SyncContext(m, p, f, s, st, KernelConfig())
            )
        assert err.value.link_name == m.pcie[1].name
        assert err.value.devices == (1,)
        assert err.value.op == "phi_gather"

    def test_ring_frees_staging_buffers_on_failure(self):
        m = self._dead_machine()
        p, s, f, st, _ = _setup(m)
        before = [(g.allocator.bytes_in_use, g.allocator.num_live)
                  for g in m.gpus]
        with pytest.raises(SyncPathError):
            get_collective("ring").allreduce(
                SyncContext(m, p, f, s, st, KernelConfig())
            )
        assert [(g.allocator.bytes_in_use, g.allocator.num_live)
                for g in m.gpus] == before

    def test_subclasses_linkdown_for_existing_handlers(self):
        assert issubclass(SyncPathError, LinkDown)
        err = SyncPathError("p2p[0-1]", "phi_reduce_copy", devices=(1, 0))
        assert "p2p[0-1]" in str(err)
        assert "1->0" in str(err)
        assert "is down" in str(err)
        assert not err.transient

    def test_transient_cause_named(self):
        err = SyncPathError(
            "pcie[1]", "h2d:phi_rollback", devices=(1,), transient=True
        )
        assert err.transient
        assert str(err) == (
            "no usable path for h2d:phi_rollback on device 1: link pcie[1] "
            "kept failing (transient faults, simulated)"
        )


# ----------------------------------------------------------------------
# Estimates are replays: predicted == measured (Hypothesis)
# ----------------------------------------------------------------------
def _lane_streams(machine, lanes, devices=None):
    """One more sync stream per GPU (default all) for each lane after
    the first, as :class:`SyncContext` takes them."""
    gpus = machine.gpus if devices is None else [machine.gpus[d] for d in devices]
    return [
        [gpu.create_stream(f"sync{lane}") for gpu in gpus]
        for lane in range(1, lanes)
    ]


def _run(machine, name, shape, config, retry, lanes=1):
    """Run collective *name* over *lanes* lanes on *machine*'s alive GPUs
    from idle.

    Returns the simulated completion time (the latest operation on any
    stream, or the host clock), or None when the run raises
    ``SyncPathError``; on success also checks every full replica holds
    the sum.
    """
    devices = [g.device_id for g in machine.alive_gpus]
    dtype = np.uint16 if config.compressed else np.int32
    partials, scratch, fulls, streams, expected = _setup(
        machine, *shape, dtype=dtype, devices=devices
    )
    try:
        get_collective(name).allreduce(SyncContext(
            machine, partials, fulls, scratch, streams, config, retry,
            lane_streams=_lane_streams(machine, lanes, devices),
        ))
    except SyncPathError:
        return None
    for full in fulls:
        assert np.array_equal(full.data, expected.astype(dtype))
    return machine.synchronize()


def _fabric(platform, num_gpus, failed, states):
    """A fresh idle machine with *failed* GPUs and per-link states
    (1.0 healthy, a bandwidth scale, or None for down)."""
    m = make_machine(platform, num_gpus)
    for d in failed:
        m.gpus[d].fail()
    for link in m.iter_links():
        state = states[link.name]
        if state is None:
            link.set_down()
        else:
            link.degrade(state)
    return m


@st.composite
def fabric_cases(draw):
    """(fabric args, retry, payload shape, compressed). At least one
    GPU survives; any link may be healthy, degraded or down."""
    platform = draw(st.sampled_from(["pascal", "volta", "dgx"]))
    num_gpus = draw(st.integers(min_value=1, max_value=4))
    failed = draw(st.sets(
        st.integers(min_value=0, max_value=num_gpus - 1),
        max_size=num_gpus - 1,
    ))
    states = {
        link.name: draw(st.one_of(
            st.just(1.0), st.none(),
            st.floats(min_value=0.25, max_value=1.0),
        ))
        for link in make_machine(platform, num_gpus).iter_links()
    }
    retry = draw(st.sampled_from([None, TransferRetry()]))
    shape = (
        draw(st.integers(min_value=1, max_value=8)),
        draw(st.integers(min_value=1, max_value=24)),
    )
    return (platform, num_gpus, failed, states), retry, shape, draw(st.booleans())


#: The benchmark's payload: K×V = 128×1641, 16-bit compressed φ.
BENCH_PAYLOAD = (128, 1641)


class TestPlannerReplayProperties:
    @given(fabric_cases())
    @settings(max_examples=60, deadline=None)
    def test_estimates_equal_measured_runs(self, case):
        fabric, retry, shape, compressed = case
        cfg = KernelConfig(compressed=compressed)
        measured = {}
        for collective in collectives():
            for lanes in collective.lane_counts:
                key = (collective.name, lanes)
                m = _fabric(*fabric)
                est = collective.estimate(
                    m, shape, cfg, retry=retry, lanes=lanes
                )
                seconds = _run(
                    _fabric(*fabric), collective.name, shape, cfg, retry, lanes
                )
                assert est.feasible == (seconds is not None), key
                if seconds is not None:
                    assert est.seconds == pytest.approx(
                        seconds, rel=1e-9, abs=1e-15
                    ), key
                    measured[key] = seconds
        if not measured:
            with pytest.raises(SyncPathError):
                plan_sync(_fabric(*fabric), shape, cfg, retry=retry)
            return
        plan = plan_sync(_fabric(*fabric), shape, cfg, retry=retry)
        fastest = measured[plan.algorithm, plan.lanes]
        assert fastest <= min(measured.values()) * (1 + 1e-9)

    def test_memo_tells_apart_boxes_with_equal_snapshots(self):
        # Pascal and Volta 4-GPU boxes have the same links but not the
        # same GPUs: each plan must return its own box's measured time.
        cfg = KernelConfig()

        def links(m):
            return [
                (l.name, l.bandwidth_gbps, l.bandwidth_scale,
                 l.latency_seconds, l.up)
                for l in m.iter_links()
            ]

        assert (links(make_machine("pascal", 4))
                == links(make_machine("volta", 4)))
        predicted = {}
        for platform in ("pascal", "volta"):
            plan = plan_sync(make_machine(platform, 4), BENCH_PAYLOAD, cfg)
            predicted[platform] = plan.estimate.seconds
            assert plan.estimate.seconds == pytest.approx(
                _run(make_machine(platform, 4), plan.algorithm,
                     BENCH_PAYLOAD, cfg, None, plan.lanes),
                rel=1e-9,
            )
        assert predicted["pascal"] != predicted["volta"]


class _RowClock:
    """When each row of some φ buffers was last written and read during
    one collective. Writes are found by content: the rows an operation
    changed are the rows it wrote. A peer copy reads its source's rows,
    and a ring add its two inputs' rows."""

    def __init__(self, buffers):
        self.buffers = buffers
        self.seen = [b.data.copy() for b in buffers]
        self.written: dict[tuple[int, int], float] = {}
        self.read: dict[tuple[int, int], float] = {}
        self.early_writes: list[str] = []

    def rows(self, arr):
        """The (buffer, row) pairs *arr* covers."""
        def address(a):
            return a.__array_interface__["data"][0]

        for i, buf in enumerate(self.buffers):
            if np.shares_memory(arr.data, buf.data):
                row = buf.nbytes // buf.shape[0]
                lo = (address(arr.data) - address(buf.data)) // row
                yield from ((i, r) for r in range(lo, lo + arr.nbytes // row))

    def operation(self, start, end, label):
        for i, buf in enumerate(self.buffers):
            for r in np.flatnonzero((buf.data != self.seen[i]).any(axis=1)):
                if start < self.read.get((i, r), 0.0):
                    self.early_writes.append(f"{label} rewrote {buf.label}[{r}]")
                self.written[i, r] = end
            self.seen[i] = buf.data.copy()


def _reduce_steps(name, machine):
    """g + S − 2, the reduce steps of *name*'s 2-D ring over all of
    *machine*'s GPUs: S sockets of g GPUs for ``hierarchical`` on equal
    sockets, else one row of G (the flat ring, G − 1 steps). Each GPU
    makes two copies per reduce step and one add."""
    sizes = Counter(machine.socket_of(g.device_id) for g in machine.gpus)
    if name == "hierarchical" and len(set(sizes.values())) == 1:
        return sizes[0] + len(sizes) - 2
    return len(machine.gpus) - 1


class TestRingOrder:
    """A ring copy reads rows straight out of its sender's φ, so it may
    start only after the sender's last write to those rows ends, however
    late each GPU's φ becomes ready; so may a ring add, which reads its
    own φ rows and the rows it received. No write to rows may start
    before a copy or an add that reads them ends. Both hold across lanes
    too, at 2 lanes."""

    @pytest.mark.parametrize("gpus", [3, 4])
    def test_copy_waits_for_the_last_write_to_its_rows(self, gpus, monkeypatch):
        import sys

        from repro.gpusim.platform import Machine
        from repro.gpusim.stream import Stream

        # The module, not the registry function repro.comm re-exports.
        collectives = sys.modules["repro.comm.collectives"]
        enqueue, memcpy_p2p = Stream.enqueue, Machine.memcpy_p2p
        add_rows = collectives._add_rows
        for sync, lanes in (
            ("ring", 1), ("hierarchical", 1), ("ring", 2), ("hierarchical", 2),
        ):
            m = pascal_platform(gpus)
            partials, scratch, fulls, streams, expected = _setup(
                m, K=12, V=40, dtype=np.uint16
            )
            clock = _RowClock(partials + fulls + scratch)
            reads = []  # (label, start, end of the last write to its rows)

            def tracking_enqueue(self, *args, **kwargs):
                start, end, result = enqueue(self, *args, **kwargs)
                clock.operation(start, end, kwargs["label"])
                return start, end, result

            def checked_p2p(self, dst, src, stream=None, label="p2p",
                            retry=None):
                rows = list(clock.rows(src))
                ready = max(clock.written.get(k, 0.0) for k in rows)
                start, end = memcpy_p2p(self, dst, src, stream, label, retry)
                for k in rows:
                    clock.read[k] = max(clock.read.get(k, 0.0), end)
                reads.append((label, start, ready))
                return start, end

            def checked_add(out, a, b, config, stream):
                rows = [*clock.rows(a), *clock.rows(b)]
                ready = max(clock.written.get(k, 0.0) for k in rows)
                start, end, result = add_rows(out, a, b, config, stream)
                for k in rows:
                    clock.read[k] = max(clock.read.get(k, 0.0), end)
                reads.append(("ring_combine", start, ready))
                return start, end, result

            # Staggered φ-ready times: each GPU's update φ writes its
            # whole partial, GPU 0's last.
            monkeypatch.setattr(Stream, "enqueue", tracking_enqueue)
            for g, p in enumerate(partials):
                def update_phi(p=p, counts=p.data.copy()):
                    p.data[...] = counts

                p.data[...] = 0
                clock.seen[g] = p.data.copy()
                streams[g].enqueue(
                    duration=(40e-6, 10e-6, 30e-6, 20e-6)[g],
                    kind="update_phi", label="update_phi", fn=update_phi,
                    writes=(p,),
                )
            monkeypatch.setattr(Machine, "memcpy_p2p", checked_p2p)
            monkeypatch.setattr(collectives, "_add_rows", checked_add)
            get_collective(sync).allreduce(SyncContext(
                m, partials, fulls, scratch, streams, KernelConfig(),
                lane_streams=_lane_streams(m, lanes),
            ))
            monkeypatch.undo()
            assert all(np.array_equal(f.data, expected) for f in fulls)
            ring = [c for c in reads if c[0] == "ring_transfer"]
            assert len(ring) == 2 * gpus * _reduce_steps(sync, m) * lanes
            for label, start, ready in reads:
                assert 0.0 < ready <= start, (sync, lanes, label, start, ready)
            assert not clock.early_writes, (sync, lanes, clock.early_writes)


class TestReduceOrder:
    """A reduce copy carries its sender's partial, so it starts only
    after the sender's update φ ends, however late that GPU's chunks
    finish: on 4 Pascal GPUs at M = 2, GPUs 1 and 3 share their host
    uplinks with GPUs 0 and 2. The tree's reduce copies carry partials;
    so do the rings' reduce-scatter copies (the 2-D ring's within each
    socket and then across the bridge), in every lane."""

    @pytest.mark.parametrize("sync", ["gpu_tree", "hierarchical", "ring"])
    def test_copy_waits_for_its_senders_update_phi(self, sync, monkeypatch):
        from dataclasses import replace

        import repro.sched.schedule as schedule
        from repro.core import CuLDA, TrainConfig
        from repro.corpus.synthetic import pubmed_like
        from repro.gpusim.platform import Machine

        memcpy_p2p, plan = Machine.memcpy_p2p, schedule.plan_sync
        # Reduce copies per lane and iteration: the tree's 3; each GPU's
        # copy to its socket peer and one to its cross-socket peer; or
        # each GPU's 3 around the flat ring.
        per_lane = {"gpu_tree": 3, "hierarchical": 8, "ring": 12}[sync]
        for lanes in get_collective(sync).lane_counts:
            machine = pascal_platform(4)
            copies = []  # (trace index, sender device) of each reduce copy

            def recording(self, dst, src, stream=None, label="p2p",
                          retry=None):
                out = memcpy_p2p(self, dst, src, stream, label, retry)
                if self is machine and (
                    label == "phi_reduce_copy"
                    or src.label.startswith("phi_partial[")
                ):
                    copies.append(
                        (len(self.trace.intervals) - 1, src.device.device_id)
                    )
                return out

            monkeypatch.setattr(Machine, "memcpy_p2p", recording)
            monkeypatch.setattr(
                schedule, "plan_sync",
                lambda *a, **k: replace(plan(*a, **k), lanes=lanes),
            )
            CuLDA(
                pubmed_like(12_000, 8, seed=3), machine,
                TrainConfig(num_topics=16, iterations=3, seed=0,
                            chunks_per_gpu=2, sync_algorithm=sync),
            ).train()
            monkeypatch.undo()
            ivs = machine.trace.intervals
            assert len(copies) == 3 * per_lane * lanes
            for index, sender in copies:
                # The sender's last update φ issued before the copy is
                # its last chunk's, this iteration.
                phi = max(
                    iv.end for iv in ivs[:index]
                    if iv.kind == "update_phi" and iv.device_id == sender
                )
                assert ivs[index].start >= phi, (lanes, sender, ivs[index])


# ----------------------------------------------------------------------
# Bit-identity of --sync auto (the planner's core invariant)
# ----------------------------------------------------------------------
class TestAutoBitIdentity:
    """φ is summed in exact integer arithmetic, so whatever the planner
    picks must be bit-identical to every forced algorithm — on PCIe,
    NVLink, and mixed fabrics, and under fault plans."""

    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.corpus.synthetic import pubmed_like

        return pubmed_like(num_tokens=12_000, num_topics=8, seed=3)

    def _train(self, corpus, platform, gpus, sync, iterations=3):
        from repro.core import CuLDA, TrainConfig

        trainer = CuLDA(
            corpus, make_machine(platform, gpus),
            TrainConfig(num_topics=16, iterations=iterations, seed=0,
                        sync_algorithm=sync),
        )
        return trainer.train()

    @pytest.mark.parametrize("platform", ["pascal", "volta", "dgx"])
    @pytest.mark.parametrize("num_gpus", [2, 3, 4])
    def test_auto_matches_every_forced_algorithm(
        self, corpus, platform, num_gpus
    ):
        auto = self._train(corpus, platform, num_gpus, AUTO).phi
        for sync in collective_names():
            forced = self._train(corpus, platform, num_gpus, sync).phi
            assert np.array_equal(auto, forced), (platform, num_gpus, sync)

    def test_auto_bit_identical_under_dead_p2p_fault(self, corpus):
        # A link_down fault mid-run forces the planner onto a host path
        # for later iterations; the model must not notice.
        from repro.faults import FaultPlan, FaultSpec
        from repro.telemetry import MetricsRegistry
        from repro.core import CuLDA, TrainConfig

        plan = FaultPlan(faults=(
            FaultSpec(kind="link_down", iteration=2, link="p2p[0-1]"),
        ))
        registry = MetricsRegistry()
        trainer = CuLDA(
            corpus, pascal_platform(2),
            TrainConfig(num_topics=16, iterations=4, seed=0,
                        sync_algorithm=AUTO),
            registry=registry,
        )
        faulty = trainer.train(fault_plan=plan, recovery="retry")
        clean = self._train(corpus, "pascal", 2, AUTO, iterations=4).phi
        assert np.array_equal(faulty.phi, clean)
        decisions = registry.get("sync_planner_decisions_total")
        chosen = {s.labels["algorithm"] for s in decisions.samples()}
        assert "cpu_gather" in chosen  # replanned onto the host path

    def test_nvlink_box_faster_same_bits(self, corpus):
        """§3's NVLink fabric, end to end: two V100s over NVLink finish
        the run sooner than over PCIe, with the same φ."""
        from repro.core import CuLDA, TrainConfig

        cfg = TrainConfig(num_topics=32, iterations=2, seed=0,
                          chunks_per_gpu=1)
        nvlink = CuLDA(corpus, dgx_platform(2), cfg).train()
        pcie = CuLDA(corpus, volta_platform(2), cfg).train()
        assert nvlink.total_sim_seconds < pcie.total_sim_seconds
        assert np.array_equal(nvlink.phi, pcie.phi)

    def test_auto_not_slower_than_tree_in_simulated_time(self, corpus):
        for platform in ("pascal", "dgx"):
            auto = self._train(corpus, platform, 4, AUTO)
            tree = self._train(corpus, platform, 4, "gpu_tree")
            assert (auto.total_sim_seconds
                    <= tree.total_sim_seconds * (1 + 1e-9)), platform
