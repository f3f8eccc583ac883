"""Distributed-equivalence suite for multi-node CuLDA.

The central claim of the hierarchical N×G trainer is that distribution
is *invisible to the numerics*: the corpus is chunked once over all
``W = N × G`` workers (so chunk ids and RNG streams are
layout-invariant) and φ is combined in exact integer arithmetic, so
synchronous training is **bit-identical** across

- worker layouts with the same total worker count (1×4 ≡ 2×2 ≡ 4×1),
- inter-node backends (``eth_ring`` ≡ ``param_server`` ≡ ``auto``),
- checkpoint/resume splits, including resuming a single-machine
  checkpoint on a multi-node cluster and vice versa.

Bounded staleness (``staleness > 0``) relaxes the schedule but must
conserve tokens every iteration (read-your-writes) and converge to a
likelihood within tolerance of the synchronous run; a mid-window
checkpoint must resume bit-identically from its extras.

``--nodes 1`` must degenerate *exactly* to the single-machine trainer:
same plan, same simulated measurements, same checkpoint bytes.

The Hypothesis section drives the cluster sync planner over randomized
topologies (node counts, dead nodes, degraded links, participant
subsets, payload shapes) and per-node Δφ payloads (empty, sparse,
full, 32-bit) and checks the planner's contract: ``auto``
picks the measured-cheapest feasible backend, predictions equal
measurements (each estimate runs the backend), and no plan or message
ever touches a detector-dead node.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster.network import ClusterNetwork
from repro.cluster.paramserver import ShardedParameterServer
from repro.comm import (
    ClusterSyncContext,
    WireDelta,
    cluster_collective_names,
    cluster_sync_choices,
    get_cluster_collective,
    plan_cluster_sync,
)
from repro.core import CuLDA, DistributedCuLDA, TrainConfig
from repro.corpus.synthetic import pubmed_like
from repro.engine.recovery import RecoveryPolicy, TrainingFailure
from repro.faults.plan import FaultPlan, FaultSpec, cluster_chaos_plan
from repro.gpusim.errors import NodeLost, SyncPathError
from repro.gpusim.platform import make_machine
from repro.telemetry import MetricsRegistry, TrainerCallback

pytestmark = pytest.mark.distributed


@pytest.fixture(scope="module")
def corpus():
    return pubmed_like(12_000, 8, seed=3)


def _trainer(corpus, nodes, gpus, registry=None, **config_kwargs):
    cfg = TrainConfig(
        **{"num_topics": 16, "iterations": 4, "seed": 0, **config_kwargs}
    )
    return DistributedCuLDA(
        corpus,
        [make_machine("pascal", gpus) for _ in range(nodes)],
        config=cfg, registry=registry,
    )


def _assert_same_model(a, b):
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.topics, b.topics)
    assert a.theta.indptr.tolist() == b.theta.indptr.tolist()
    assert np.array_equal(a.theta.data, b.theta.data)


# ----------------------------------------------------------------------
# Synchronous bit-identity
# ----------------------------------------------------------------------

class TestLayoutEquivalence:
    """Same total worker count ⇒ bit-identical model, any layout."""

    def test_bit_identical_across_layouts(self, corpus):
        r14 = CuLDA(
            corpus, make_machine("pascal", 4),
            TrainConfig(num_topics=16, iterations=4, seed=0),
        ).train()
        r22 = _trainer(corpus, 2, 2).train()
        r41 = _trainer(corpus, 4, 1).train()
        _assert_same_model(r14, r22)
        _assert_same_model(r14, r41)

    @pytest.mark.parametrize("backend", cluster_collective_names())
    def test_bit_identical_across_backends(self, corpus, backend):
        reference = _trainer(corpus, 2, 2).train()  # inter_sync=auto
        forced = _trainer(corpus, 2, 2, inter_sync=backend).train()
        _assert_same_model(reference, forced)

    def test_backends_conserve_tokens(self, corpus):
        for backend in cluster_collective_names():
            result = _trainer(corpus, 2, 2, inter_sync=backend).train()
            assert result.phi.sum() == corpus.num_tokens

    def test_same_iteration_events_across_layouts(self, corpus):
        """One and N nodes send one iteration-event shape: a 2x2 and a
        1x4 run report the same per-iteration sampler draws."""
        class Draws:
            def __init__(self):
                self.rows = []

            def on_iteration_end(self, event):
                self.rows.append(tuple(
                    event[k] for k in ("p1_draws", "p2_draws",
                                       "tree_probe_levels")
                ))

        one, two = Draws(), Draws()
        CuLDA(
            corpus, make_machine("pascal", 4),
            TrainConfig(num_topics=16, iterations=4, seed=0,
                        chunks_per_gpu=2),
        ).train(callbacks=[one])
        _trainer(corpus, 2, 2, chunks_per_gpu=2).train(callbacks=[two])
        assert len(one.rows) == 4
        assert one.rows == two.rows

    def test_result_shape_metadata(self, corpus):
        result = _trainer(corpus, 2, 2).train()
        assert result.num_gpus == 4
        assert result.num_workers == 2
        assert result.machine_name.startswith("2x ")
        assert result.network_bytes > 0
        assert result.phi.sum() == corpus.num_tokens


class TestCheckpointResume:
    """Resume is bit-identical — within a layout, across layouts, and
    across the single-machine/multi-node boundary."""

    def test_resume_mid_training(self, corpus, tmp_path):
        ck = tmp_path / "ck.npz"
        full = _trainer(corpus, 2, 2).train(
            save_every=2, checkpoint_path=str(ck)
        )
        resumed = _trainer(corpus, 2, 2).train(resume=str(ck))
        _assert_same_model(full, resumed)

    @pytest.mark.parametrize("backend", cluster_collective_names())
    def test_resume_across_backends(self, corpus, tmp_path, backend):
        """A checkpoint written under one backend resumes under another:
        the backends are exact, so the run-state is backend-free."""
        ck = tmp_path / "ck.npz"
        full = _trainer(corpus, 2, 2, inter_sync="eth_ring").train(
            save_every=2, checkpoint_path=str(ck)
        )
        resumed = _trainer(corpus, 2, 2, inter_sync=backend).train(
            resume=str(ck)
        )
        _assert_same_model(full, resumed)

    def test_resume_across_layouts(self, corpus, tmp_path):
        """A 1×4 checkpoint finishes identically on a 2×2 cluster and
        a 4×1 cluster (same W ⇒ same chunk plan and RNG streams)."""
        ck = tmp_path / "ck.npz"
        full = CuLDA(
            corpus, make_machine("pascal", 4),
            TrainConfig(num_topics=16, iterations=4, seed=0),
        ).train(save_every=2, checkpoint_path=str(ck))
        r22 = _trainer(corpus, 2, 2).train(resume=str(ck))
        r41 = _trainer(corpus, 4, 1).train(resume=str(ck))
        _assert_same_model(full, r22)
        _assert_same_model(full, r41)

    def test_multinode_checkpoint_resumes_on_single_machine(
        self, corpus, tmp_path
    ):
        ck = tmp_path / "ck.npz"
        full = _trainer(corpus, 2, 2).train(
            save_every=2, checkpoint_path=str(ck)
        )
        resumed = CuLDA(
            corpus, make_machine("pascal", 4),
            TrainConfig(num_topics=16, iterations=4, seed=0),
        ).train(resume=str(ck))
        _assert_same_model(full, resumed)


# ----------------------------------------------------------------------
# Bounded staleness
# ----------------------------------------------------------------------

class TestStaleness:
    def test_conserves_tokens_every_iteration(self, corpus):
        algo = _trainer(corpus, 2, 2, staleness=2)
        state = algo.init_state()
        for _ in range(4):
            algo.run_iteration(state)
            state.iteration += 1  # as the TrainingLoop does
            algo.capture_state(state)
            # Read-your-writes: the global count (Σ per-node counts)
            # always accounts for every token, sync round or not.
            assert state.phi.sum() == corpus.num_tokens

    def test_async_faster_than_sync(self, corpus):
        sync = _trainer(corpus, 2, 2, staleness=0).train()
        lax = _trainer(corpus, 2, 2, staleness=3).train()
        assert lax.total_sim_seconds < sync.total_sim_seconds

    def test_async_converges_near_sync(self, corpus):
        """Bounded staleness costs bounded progress: the async run's
        final likelihood beats the synchronous trajectory at half the
        iteration count, and lands within a modest band of the
        synchronous endpoint (it samples against φ at most s rounds
        old, not against a frozen model)."""
        iters = 12
        cfg = dict(num_topics=16, seed=0, likelihood_every=1)
        sync = DistributedCuLDA(
            corpus, [make_machine("pascal", 2) for _ in range(2)],
            config=TrainConfig(staleness=0, iterations=iters, **cfg),
        ).train()
        lax = DistributedCuLDA(
            corpus, [make_machine("pascal", 2) for _ in range(2)],
            config=TrainConfig(staleness=2, iterations=iters, **cfg),
        ).train()
        sync_traj = [s.log_likelihood_per_token for s in sync.iterations]
        lax_final = lax.iterations[-1].log_likelihood_per_token
        assert lax_final > sync_traj[iters // 2 - 1]
        assert abs(lax_final - sync_traj[-1]) / abs(sync_traj[-1]) < 0.12

    def test_zero_staleness_matches_single_machine(self, corpus):
        single = CuLDA(
            corpus, make_machine("pascal", 4),
            TrainConfig(num_topics=16, iterations=4, seed=0),
        ).train()
        dist = _trainer(corpus, 2, 2, staleness=0).train()
        _assert_same_model(single, dist)

    def test_mid_window_resume_bit_identical(self, corpus, tmp_path):
        """A checkpoint taken between syncs carries the stale φ cache
        and per-node bases in its extras; resuming replays the exact
        remaining schedule."""
        ck = tmp_path / "ck.npz"
        kw = dict(num_topics=16, iterations=6, seed=0, staleness=2)
        full = DistributedCuLDA(
            corpus, [make_machine("pascal", 2) for _ in range(2)],
            config=TrainConfig(**kw),
        ).train(save_every=2, checkpoint_path=str(ck))
        resumed = DistributedCuLDA(
            corpus, [make_machine("pascal", 2) for _ in range(2)],
            config=TrainConfig(**kw),
        ).train(resume=str(ck))
        _assert_same_model(full, resumed)

    def test_negative_staleness_rejected(self, corpus):
        with pytest.raises(ValueError, match="staleness"):
            _trainer(corpus, 2, 2, staleness=-1)


# ----------------------------------------------------------------------
# --nodes 1 exact degeneration (regression: single-machine path)
# ----------------------------------------------------------------------

class TestSingleNodeDegeneration:
    """One node IS the single-machine trainer — plan, clock, bytes."""

    def test_same_model_and_measurements(self, corpus):
        cfg = TrainConfig(num_topics=16, iterations=3, seed=0)
        single = CuLDA(corpus, make_machine("pascal", 4), cfg).train()
        one_node = DistributedCuLDA(
            corpus, [make_machine("pascal", 4)], config=cfg
        ).train()
        _assert_same_model(single, one_node)
        assert one_node.total_sim_seconds == single.total_sim_seconds
        assert one_node.avg_tokens_per_sec == single.avg_tokens_per_sec
        assert one_node.plan_chunks == single.plan_chunks
        assert one_node.chunks_per_gpu == single.chunks_per_gpu
        assert one_node.breakdown == single.breakdown
        assert [s.sim_seconds for s in one_node.iterations] == [
            s.sim_seconds for s in single.iterations
        ]

    def test_same_checkpoint_bytes(self, corpus, tmp_path):
        cfg = TrainConfig(num_topics=16, iterations=2, seed=0)
        p_single = tmp_path / "single.npz"
        p_dist = tmp_path / "dist.npz"
        CuLDA(corpus, make_machine("pascal", 2), cfg).train(
            save_every=2, checkpoint_path=str(p_single)
        )
        DistributedCuLDA(
            corpus, [make_machine("pascal", 2)], config=cfg
        ).train(save_every=2, checkpoint_path=str(p_dist))
        assert p_single.read_bytes() == p_dist.read_bytes()

    def test_constructor_validation(self, corpus):
        with pytest.raises(ValueError, match="at least one machine"):
            DistributedCuLDA(corpus, [])
        with pytest.raises(ValueError, match="same GPU count"):
            DistributedCuLDA(
                corpus,
                [make_machine("pascal", 1), make_machine("pascal", 2)],
            )
        with pytest.raises(ValueError, match="unknown inter-node sync"):
            DistributedCuLDA(
                corpus, [make_machine("pascal", 1)] * 2,
                config=TrainConfig(num_topics=8, inter_sync="bogus"),
            )
        with pytest.raises(ValueError, match="network has"):
            DistributedCuLDA(
                corpus, [make_machine("pascal", 1)] * 2,
                network=ClusterNetwork(3),
            )


# ----------------------------------------------------------------------
# Hypothesis: the cluster sync planner over randomized topologies
# ----------------------------------------------------------------------

def _delta(kind, shape, rng):
    """One node's Δφ of *kind*: ``empty``; ``sparse`` (a third of the
    entries changed); ``full`` (every entry changed); ``wide`` (one
    |Δ| ≥ 2¹⁵, so values go 32-bit)."""
    size = shape[0] * shape[1]
    delta = np.zeros(size, dtype=np.int64)
    if kind != "empty":
        nnz = size if kind == "full" else max(1, (size - 1) // 3)
        at = rng.choice(size, nnz, replace=False)
        signs = rng.choice([-1, 1], nnz)
        delta[at] = signs * rng.integers(1, 2**15, nnz)
        if kind == "wide":
            delta[at[0]] = signs[0] * rng.integers(2**15, 2**20)
    return delta.reshape(shape)


@st.composite
def cluster_cases(draw):
    """(num_nodes, dead nodes, per-node degrade scales, payload shape,
    participants, payload).

    Dead nodes are killed via ``fail_node`` (detector-visible, so the
    planner must exclude them); degraded links stay up but slow, which
    shifts the cost comparison without making anything infeasible. At
    least two nodes always survive. The participants are a non-empty
    subset of the survivors: an alive node left out hosts no workers
    but still holds shards, the state after it loses its GPUs. The
    payload holds one Δφ per node (see :func:`_delta`).
    """
    num_nodes = draw(st.integers(min_value=2, max_value=5))
    dead = draw(
        st.sets(
            st.integers(min_value=0, max_value=num_nodes - 1),
            max_size=num_nodes - 2,
        )
    )
    scales = draw(
        st.lists(
            st.floats(min_value=0.25, max_value=1.0, allow_nan=False),
            min_size=num_nodes, max_size=num_nodes,
        )
    )
    shape = (
        draw(st.integers(min_value=1, max_value=8)),
        draw(st.integers(min_value=1, max_value=48)),
    )
    alive = [n for n in range(num_nodes) if n not in dead]
    participants = tuple(sorted(
        draw(st.sets(st.sampled_from(alive), min_size=1))
    ))
    kinds = draw(
        st.lists(
            st.sampled_from(("empty", "sparse", "full", "wide")),
            min_size=num_nodes, max_size=num_nodes,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    payload = [_delta(kind, shape, rng) for kind in kinds]
    return num_nodes, frozenset(dead), scales, shape, participants, payload


def _base(shape):
    """The last synced φ the payload's deltas are added to."""
    return np.arange(shape[0] * shape[1], dtype=np.int64).reshape(shape)


def _wire(deltas):
    return [WireDelta.encode(d) for d in deltas]


def _build_network(num_nodes, dead, scales):
    net = ClusterNetwork(num_nodes)
    for n, scale in enumerate(scales):
        net.links[n].degrade(scale)
    for n in dead:
        net.fail_node(n)
    return net


def _measure(backend_name, num_nodes, dead, scales, payload, num_shards,
             participants=None):
    """Force-execute one backend over *participants* (default: every
    alive node) on a fresh identical network with all of them ready at
    t=0, each sending its *payload* entry; returns (completion time, φ,
    network) or (None, None, network) when the backend has no usable
    path."""
    net = _build_network(num_nodes, dead, scales)
    base = _base(payload[0].shape)
    server = ShardedParameterServer(base, num_shards, net)
    live = tuple(net.alive_nodes) if participants is None else participants
    ctx = ClusterSyncContext(
        network=net, nodes=live, base=base,
        pending=_wire(payload[n] for n in live), ready=[0.0] * len(live),
        server=server,
    )
    try:
        result = get_cluster_collective(backend_name).allreduce(ctx)
    except SyncPathError:
        return None, None, net
    return max(result.done), result.phi, net


class TestClusterPlannerProperties:
    @given(cluster_cases())
    @settings(max_examples=40, deadline=None)
    def test_auto_matches_measured_cheapest(self, case):
        num_nodes, dead, scales, shape, participants, payload = case
        measured = {}
        for name in cluster_collective_names():
            seconds, phi, _ = _measure(
                name, num_nodes, dead, scales, payload, num_nodes,
                participants,
            )
            if seconds is not None:
                measured[name] = seconds
                # Exactness holds on every topology, not just healthy ones.
                expect = _base(shape) + sum(payload[n] for n in participants)
                assert np.array_equal(phi, expect)
        assert measured, "a healthy majority must always have a path"

        net = _build_network(num_nodes, dead, scales)
        server = ShardedParameterServer(_base(shape), num_nodes, net)
        plan = plan_cluster_sync(
            net, _wire(payload), nodes=list(participants), server=server
        )
        assert plan.participants == participants
        best = min(measured.values())
        # auto's pick must be measured-cheapest (ulp tolerance: the
        # estimate runs the backend on a shadow whose links carry the
        # snapshot's effective bandwidth, so ties can only come from
        # float associativity, never from model error).
        assert measured[plan.algorithm] <= best * (1 + 1e-9)
        # ... and the replayed prediction equals the measurement.
        assert measured[plan.algorithm] == pytest.approx(
            plan.estimate.seconds, rel=1e-9, abs=1e-15
        )

    @given(cluster_cases())
    @settings(max_examples=40, deadline=None)
    def test_plans_and_traffic_avoid_dead_nodes(self, case):
        num_nodes, dead, scales, shape, _, payload = case
        net = _build_network(num_nodes, dead, scales)
        server = ShardedParameterServer(_base(shape), num_nodes, net)
        plan = plan_cluster_sync(net, _wire(payload), server=server)
        assert not set(plan.participants) & dead
        assert set(plan.participants) == set(net.alive_nodes)

        for name in cluster_collective_names():
            _, _, used_net = _measure(
                name, num_nodes, dead, scales, payload, num_nodes
            )
            for op, src, dst, *_ in used_net.messages:
                assert src not in dead, f"{name}/{op} sent from dead {src}"
                assert dst not in dead, f"{name}/{op} sent to dead {dst}"

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_unreachable_alive_node_is_infeasible(self, num_nodes, which):
        """A NIC-down (but alive) node can neither be excluded nor
        reached — every backend is infeasible and the planner says so."""
        which %= num_nodes
        net = ClusterNetwork(num_nodes)
        net.links[which].set_down(True)
        payload = _wire([np.zeros((4, 16), dtype=np.int64)]) * num_nodes
        with pytest.raises(SyncPathError):
            plan_cluster_sync(net, payload)

    def test_forced_backend_is_forced(self):
        net = ClusterNetwork(3)
        payload = _wire([np.zeros((4, 16), dtype=np.int64)]) * 3
        plan = plan_cluster_sync(net, payload, algorithm="param_server")
        assert plan.forced and plan.algorithm == "param_server"
        auto = plan_cluster_sync(net, payload)
        assert not auto.forced

    def test_choices_list_registry(self):
        assert cluster_sync_choices() == ("auto", "eth_ring", "param_server")

    def test_memo_tells_apart_server_placements(self):
        # Same network, payload and shard count, but the second server
        # is rehomed onto {0, 1, 2}: each plan must return its own
        # placement's measured time, so placement is part of the key.
        shape = (8, 64)

        def server(net, rehome):
            s = ShardedParameterServer(
                np.zeros(shape, dtype=np.int64), 4, net
            )
            if rehome is not None:
                s.rehome(rehome)
            return s

        predicted = []
        counts = _wire(np.full(shape, i + 1, dtype=np.int64) for i in range(4))
        for rehome in (None, [0, 1, 2]):
            net = ClusterNetwork(4)
            plan = plan_cluster_sync(
                net, counts, algorithm="param_server",
                server=server(net, rehome),
            )
            run_net = ClusterNetwork(4)
            result = get_cluster_collective("param_server").allreduce(
                ClusterSyncContext(
                    network=run_net, nodes=(0, 1, 2, 3),
                    base=np.zeros(shape, dtype=np.int64),
                    pending=counts, ready=[0.0] * 4,
                    server=server(run_net, rehome),
                )
            )
            assert plan.estimate.seconds == pytest.approx(
                max(result.done), rel=1e-9
            )
            predicted.append(plan.estimate.seconds)
        assert predicted == pytest.approx([1.1597e-3, 1.3615e-3], rel=1e-4)

    def test_memo_tells_apart_eth_ring_payloads(self):
        # Same network and participants, but 16 vs 1024 changed entries
        # per node: each plan must return its own payload's measured
        # time, so the wire sizes are part of the key.
        shape = (16, 256)
        predicted = []
        for nnz in (16, 1024):
            payload = []
            for n in range(4):
                delta = np.zeros(shape[0] * shape[1], dtype=np.int64)
                delta[n:n + 3 * nnz:3] = n + 1
                payload.append(WireDelta.encode(delta.reshape(shape)))
            plan = plan_cluster_sync(
                ClusterNetwork(4), payload, algorithm="eth_ring"
            )
            result = get_cluster_collective("eth_ring").allreduce(
                ClusterSyncContext(
                    network=ClusterNetwork(4), nodes=(0, 1, 2, 3),
                    base=np.zeros(shape, dtype=np.int64),
                    pending=payload, ready=[0.0] * 4,
                )
            )
            assert plan.estimate.seconds == pytest.approx(
                max(result.done), rel=1e-9
            )
            predicted.append(plan.estimate.seconds)
        assert predicted[0] < predicted[1]


class TestEthRingWire:
    """``eth_ring`` allgathers each node's Δφ: N(N−1) messages, each one
    node's Δ as int32-index/int16-value pairs, with 32-bit values once
    some |Δ| ≥ 2¹⁵."""

    SHAPE = (4, 8)

    def _payload(self):
        deltas = [np.zeros(32, dtype=np.int64) for _ in range(4)]
        # node 0: nothing changed, 0 B
        # node 1: 3 pairs x 6 B = 18 B (2**15 - 1 still fits 16 bits)
        deltas[1][[3, 17, 30]] = [1, -2, 2**15 - 1]
        # node 2: half the entries changed, 16 pairs x 6 B = 96 B
        deltas[2][::2] = 5
        # node 3: |-2**15| widens to 32 bits, 2 pairs x 8 B = 16 B
        deltas[3][[0, 31]] = [7, -2**15]
        return [d.reshape(self.SHAPE) for d in deltas]

    def test_allgather_sends_each_delta_by_the_rule(self):
        payload = self._payload()
        sizes = [0, 18, 96, 16]
        base = np.arange(32, dtype=np.int64).reshape(self.SHAPE) * 100
        net = ClusterNetwork(4)
        result = get_cluster_collective("eth_ring").allreduce(
            ClusterSyncContext(
                network=net, nodes=(0, 1, 2, 3), base=base,
                pending=_wire(payload), ready=[0.0] * 4,
            )
        )
        # Step t: node i forwards the Δ that started at node i - t.
        expect = [
            (i, (i + 1) % 4, sizes[(i - t) % 4])
            for t in range(3) for i in range(4)
        ]
        sent = [(src, dst, nbytes) for _, src, dst, nbytes, *_ in net.messages]
        assert sent == expect
        assert result.bytes_on_wire == 3 * sum(sizes)
        assert np.array_equal(result.phi, base + sum(payload))

    def test_pack_is_one_buffer_of_the_wire_bytes(self):
        for delta in map(WireDelta.encode, self._payload()):
            payload = delta.pack()
            assert payload.dtype == np.uint8
            assert payload.nbytes == delta.nbytes
            got = delta.unpack(payload)
            assert got.values.dtype == delta.values.dtype
            assert np.array_equal(got.values, delta.values)
            assert np.array_equal(got.index, delta.index)

    def test_full_delta_travels_as_pairs(self):
        # Every entry changed: 32 pairs x 6 B = 192 B, three times the
        # 64 B all 32 values would take at 16 bits.
        full = np.arange(1, 33, dtype=np.int64).reshape(self.SHAPE)
        delta = WireDelta.encode(full)
        assert delta.nbytes == 192
        got = WireDelta.read(self.SHAPE, delta.layout(), delta.pack())
        assert np.array_equal(got.index, np.arange(32))
        assert np.array_equal(got.values, full.reshape(-1))
        base = np.arange(32, dtype=np.int64).reshape(self.SHAPE) * 100
        result = get_cluster_collective("eth_ring").allreduce(
            ClusterSyncContext(
                network=ClusterNetwork(2), nodes=(0, 1), base=base,
                pending=_wire([full, -2 * full]), ready=[0.0] * 2,
            )
        )
        assert result.bytes_on_wire == 2 * 192
        assert np.array_equal(result.phi, base - full)

    def test_flat_index_past_int32_raises(self, monkeypatch):
        import repro.comm.cluster as cluster

        monkeypatch.setattr(cluster, "_INDEX_LIMIT", 16)
        delta = np.zeros(self.SHAPE, dtype=np.int64)
        delta.flat[15] = 1
        assert WireDelta.encode(delta).nbytes == 6
        delta.flat[16] = 1
        with pytest.raises(OverflowError, match="int32"):
            WireDelta.encode(delta)


# ----------------------------------------------------------------------
# Chaos: node loss, elastic recovery, migration properties
# ----------------------------------------------------------------------

def _node_plan(iteration, node):
    return FaultPlan(faults=(
        FaultSpec(kind="node_failure", iteration=iteration, node=node),
    ))


def _reference(corpus, **config_kwargs):
    cfg = TrainConfig(num_topics=16, iterations=4, seed=0, **config_kwargs)
    return CuLDA(corpus, make_machine("pascal", 4), cfg)


class TestNodeLossRecovery:
    """Elastic recovery keeps synchronous runs bit-identical to the
    fault-free run across CuLDA's two-leg sync, and async runs
    token-conserving. Every cluster fault kind is exercised here."""

    def test_node_death_mid_sync_bit_identical(self, corpus):
        clean = _trainer(corpus, 2, 2).train()
        chaos = _trainer(corpus, 2, 2).train(
            recovery="elastic", fault_plan=_node_plan(2, 1)
        )
        _assert_same_model(clean, chaos)
        assert chaos.repartitions == 1
        assert chaos.rollbacks == 0

    @pytest.mark.parametrize("backend", cluster_collective_names())
    def test_chaos_plan_bit_identical(self, corpus, backend):
        """The canonical cluster chaos plan kills node 2 at iteration 2
        and flaps node 0's NIC at iteration 4. The model is untouched,
        and the flap's three dropped attempts are retried on eth[0]."""
        clean = _trainer(corpus, 4, 1, iterations=6, inter_sync=backend).train()
        registry = MetricsRegistry()
        algo = _trainer(
            corpus, 4, 1, registry, iterations=6, inter_sync=backend
        )
        chaos = algo.train(
            recovery="elastic", fault_plan=cluster_chaos_plan(4)
        )
        _assert_same_model(clean, chaos)
        assert chaos.repartitions == 1
        assert algo.membership.dead_nodes == [2]
        assert "reshard" in {e["kind"] for e in algo.server.events}
        retries = registry.get("cluster_transfer_retries_total").samples()
        assert {s.labels["link"] for s in retries} == {"eth[0]"}
        assert sum(s.value for s in retries) == 3

    def test_faulted_runs_are_deterministic(self, corpus):
        runs = []
        for _ in range(2):
            algo = _trainer(corpus, 4, 1, iterations=6)
            result = algo.train(
                recovery="elastic", fault_plan=cluster_chaos_plan(4)
            )
            runs.append((result.phi, list(algo.membership.timeline)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_retry_mode_cannot_replace_a_node(self, corpus):
        with pytest.raises(TrainingFailure, match="node 1 was lost"):
            _trainer(corpus, 2, 2).train(
                recovery="retry", fault_plan=_node_plan(2, 1)
            )

    def test_eth_retry_exhaustion_is_structured(self, corpus):
        # More consecutive transient failures than the retry budget can
        # absorb, with rollback disabled: the transient error surfaces
        # as a TrainingFailure carrying the membership timeline.
        plan = FaultPlan(faults=(
            FaultSpec(kind="eth_link_flaky", iteration=2, link="eth[1]",
                      count=64),
        ))
        policy = RecoveryPolicy(
            mode="retry", max_transfer_retries=1, max_rollbacks=0
        )
        with pytest.raises(TrainingFailure) as err:
            _trainer(corpus, 2, 2).train(recovery=policy, fault_plan=plan)
        exc = err.value
        assert isinstance(exc.cause, SyncPathError)
        assert exc.cause.transient
        assert len(exc.membership_events) == 2  # the two join entries

    @pytest.mark.parametrize("backend", cluster_collective_names())
    def test_degraded_nic_only_slows_the_run(self, corpus, backend):
        plan = FaultPlan(faults=(
            FaultSpec(kind="eth_link_degraded", iteration=2,
                      link="eth[1]", scale=0.25),
        ))
        clean = _trainer(corpus, 2, 2, inter_sync=backend).train()
        slow = _trainer(corpus, 2, 2, inter_sync=backend).train(
            recovery="elastic", fault_plan=plan
        )
        _assert_same_model(clean, slow)
        assert slow.repartitions == 0
        assert slow.total_sim_seconds > clean.total_sim_seconds

    @pytest.mark.parametrize("backend", cluster_collective_names())
    @pytest.mark.parametrize("until", [None, 3])
    def test_hosting_nic_down_migrates_like_a_dead_node(
        self, corpus, backend, until
    ):
        """A hosting node whose NIC goes down is silent: the barrier
        stalls to the lease verdict and the node is migrated off. An
        ``until`` restore does not save it, because the injector
        restores links only at iteration boundaries and the stall runs
        on to the verdict."""
        plan = FaultPlan(faults=(
            FaultSpec(kind="eth_link_down", iteration=2, link="eth[1]",
                      until=until),
        ))
        clean = _trainer(corpus, 2, 2, inter_sync=backend).train()
        algo = _trainer(corpus, 2, 2, inter_sync=backend)
        chaos = algo.train(recovery="elastic", fault_plan=plan)
        _assert_same_model(clean, chaos)
        assert chaos.repartitions == 1
        assert algo.membership.dead_nodes == [1]

    def test_gpu_death_inside_node_bit_identical(self, corpus):
        """A single GPU dying inside a node reuses the intra-node
        elastic re-partition; global device ids span machines."""
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=2, device=3),
        ))
        clean = _trainer(corpus, 2, 2).train()
        chaos = _trainer(corpus, 2, 2).train(
            recovery="elastic", fault_plan=plan
        )
        _assert_same_model(clean, chaos)

    def test_shard_corruption_healed_bit_identical(self, corpus):
        plan = FaultPlan(faults=(
            FaultSpec(kind="ps_shard_corruption", iteration=2, node=1),
        ))
        clean = _trainer(corpus, 2, 2).train()
        algo = _trainer(corpus, 2, 2)
        chaos = algo.train(recovery="retry", fault_plan=plan)
        _assert_same_model(clean, chaos)
        assert chaos.rollbacks == 0  # repaired by checksums, not rollback
        assert any(e["kind"] == "shard_repair" for e in algo.server.events)

    def test_detect_stall_is_the_detectors(self, corpus):
        """Node 1 dies at iteration 2's barrier. It was last heard at
        the heartbeat tick at t = 0, so the verdict lands at the lease's
        2.0 s, and the stall runs from the barrier to it: faster
        iterations before the failure lengthen it by the time they
        save."""
        registry = MetricsRegistry()
        result = _trainer(corpus, 2, 2, registry).train(
            recovery="elastic", fault_plan=_node_plan(2, 1)
        )
        [detect] = [
            s.value
            for s in registry.get("node_recovery_stall_seconds_total").samples()
            if s.labels["phase"] == "detect"
        ]
        before = sum(it.sim_seconds for it in result.iterations[:2])
        assert detect == pytest.approx(2.0 - before, rel=0, abs=1e-12)

    def test_stall_charged_to_simulated_clock(self, corpus):
        clean = _trainer(corpus, 2, 2).train()
        chaos = _trainer(corpus, 2, 2).train(
            recovery="elastic", fault_plan=_node_plan(2, 1)
        )
        # Detection waits out the heartbeat lease (dead ≥ 2 s after the
        # node was last heard from), dwarfing the fault-free runtime.
        assert chaos.total_sim_seconds >= 2.0
        assert chaos.total_sim_seconds > clean.total_sim_seconds

    def test_node_death_mid_staleness_window(self, corpus):
        """Async mode: the dead node's staleness window drains
        deterministically and every token survives the migration."""
        chaos = _trainer(corpus, 2, 2, staleness=2).train(
            recovery="elastic", fault_plan=_node_plan(2, 0)
        )
        assert chaos.phi.sum() == corpus.num_tokens
        assert chaos.repartitions == 1
        assert np.isfinite(chaos.iterations[-1].log_likelihood_per_token)

    def test_recovery_none_fails_with_timeline(self, corpus):
        with pytest.raises(TrainingFailure) as err:
            _trainer(corpus, 2, 2).train(
                recovery="none", fault_plan=_node_plan(2, 1)
            )
        assert "node 1" in str(err.value)
        assert isinstance(err.value.cause, NodeLost)
        events = err.value.membership_events
        assert (0.5, 1, "alive", "suspect") in events
        assert (2.0, 1, "suspect", "dead") in events
        assert err.value.fault_events

    def test_checkpoint_across_recovery_resumes_cross_layout(
        self, corpus, tmp_path
    ):
        """A checkpoint written *after* a recovery (non-identity worker
        hosting in its extras) resumes bit-identically on the same
        layout, a different layout, and a single machine."""
        clean = _reference(corpus).train()
        ck = tmp_path / "ck.npz"
        chaos = _trainer(corpus, 2, 2).train(
            recovery="elastic", fault_plan=_node_plan(1, 1),
            save_every=2, checkpoint_path=str(ck),
        )
        _assert_same_model(clean, chaos)
        _assert_same_model(clean, _trainer(corpus, 2, 2).train(resume=str(ck)))
        _assert_same_model(clean, _trainer(corpus, 4, 1).train(resume=str(ck)))
        _assert_same_model(clean, _reference(corpus).train(resume=str(ck)))


@pytest.fixture(scope="module")
def small_corpus():
    return pubmed_like(2_000, 8, seed=5)


class TestMigrationProperties:
    @given(
        nodes=st.integers(min_value=2, max_value=3),
        gpus=st.integers(min_value=1, max_value=2),
        dead=st.integers(min_value=0, max_value=2),
        iteration=st.integers(min_value=1, max_value=3),
        staleness=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=10, deadline=None)
    def test_migration_conserves_tokens_avoids_dead_nodes(
        self, small_corpus, nodes, gpus, dead, iteration, staleness
    ):
        """Any elastic migration plan conserves tokens and never hosts
        a logical worker on a detector-dead node."""
        dead %= nodes
        algo = DistributedCuLDA(
            small_corpus,
            [make_machine("pascal", gpus) for _ in range(nodes)],
            config=TrainConfig(
                num_topics=8, iterations=4, seed=0, staleness=staleness
            ),
        )
        result = algo.train(
            recovery="elastic", fault_plan=_node_plan(iteration, dead)
        )
        assert result.phi.sum() == small_corpus.num_tokens
        dead_nodes = algo.membership.dead_nodes
        assert dead in dead_nodes
        assert not set(algo._worker_node) & set(dead_nodes)
        hosting = algo.server.parked("chunk_hosting")
        assert hosting is not None
        assert not set(hosting.tolist()) & set(dead_nodes)


# ----------------------------------------------------------------------
# Each GPU sends its host only its own Δφ; each GPU receives only what
# changed
# ----------------------------------------------------------------------

class _Boundaries(TrainerCallback):
    """Per iteration boundary of a cluster run: each machine's trace
    length and the network's message count."""

    def __init__(self, trainer):
        self.trainer = trainer
        self.marks = []

    def _mark(self, event) -> None:
        t = self.trainer
        self.marks.append((
            [len(m.trace.intervals) for m in t.machines],
            len(t.network.messages),
        ))

    on_train_start = on_iteration_end = _mark

    def iterations(self):
        """Per completed iteration: each machine's trace slice and the
        network's messages over it."""
        t = self.trainer
        for (cuts, sent), (ends, sent_end) in zip(self.marks, self.marks[1:]):
            yield [
                m.trace.intervals[cut:end]
                for m, cut, end in zip(t.machines, cuts, ends)
            ], t.network.messages[sent:sent_end]


class TestOneTimeline:
    """Every node's machine runs on the cluster's timeline. Iteration
    *i*'s trace slices on every node lie within [Σ_{j<i} sim_j,
    Σ_{j≤i} sim_j] (a rerun's window also holds the aborted attempt and
    its rollback), and the latest slice ends at ``total_sim_seconds``."""

    @pytest.mark.parametrize("chunks_per_gpu,fault_device", [
        (1, None), (2, None), (1, 0), (1, 3),
    ])
    def test_slices_lie_in_their_iteration(
        self, corpus, chunks_per_gpu, fault_device
    ):
        plan = None
        if fault_device is not None:
            plan = FaultPlan(faults=(FaultSpec(
                kind="kernel_fault", iteration=2, device=fault_device),))
        trainer = _trainer(corpus, 2, 2, chunks_per_gpu=chunks_per_gpu)
        marks = _Boundaries(trainer)
        result = trainer.train(
            callbacks=[marks], recovery="retry", fault_plan=plan
        )
        assert result.rollbacks == (plan is not None)
        bounds = np.cumsum([0.0] + [it.sim_seconds for it in result.iterations])
        slices = [nodes for nodes, _ in marks.iterations()]
        cuts, _ = marks.marks[-1]
        slices.append([
            m.trace.intervals[cut:] for m, cut in zip(trainer.machines, cuts)
        ])  # the final collection
        bounds = [*bounds, result.total_sim_seconds]
        for i, nodes in enumerate(slices):
            for n, ivs in enumerate(nodes):
                assert ivs, (i, n)
                assert min(iv.start for iv in ivs) >= bounds[i] - 1e-12, (i, n)
                assert max(iv.end for iv in ivs) <= bounds[i + 1] + 1e-12, (i, n)
        last = max(iv.end for m in trainer.machines for iv in m.trace.intervals)
        assert last == pytest.approx(result.total_sim_seconds, rel=1e-12)

    def test_leg_starts_at_the_hosts_delta_sum(self, corpus):
        """A node is ready for the inter-node leg once its host has
        summed its GPUs' Δφ. At M = 2 each GPU downloads its penultimate
        chunk after its sync, and the leg does not wait for it: in each
        round the ring's first message starts as the last host add
        ends."""
        trainer = _trainer(
            corpus, 2, 2, num_topics=128, chunks_per_gpu=2,
            inter_sync="eth_ring",
        )
        marks = _Boundaries(trainer)
        trainer.train(callbacks=[marks])
        for nodes, messages in marks.iterations():
            adds = [
                iv.end for ivs in nodes for iv in ivs
                if iv.label == "phi_delta_host_add"
            ]
            ring = [m[4] for m in messages if m[0] == "internode_ring"]
            assert ring and min(ring) == max(adds)


class TestNodeSyncToHost:
    """A node runs no intra-node collective: each GPU sends its host the
    change of its partial since its last send, which the host checks
    and adds up. The host sends each GPU the Δ between the new view and
    the one it last sent, which one kernel applies."""

    @pytest.mark.parametrize("staleness,sync", [
        (0, "auto"), (1, "auto"), (0, "ring"),
    ])
    def test_copies_wait_for_their_data(self, corpus, staleness, sync):
        """No φ d2h starts before the φ work before it on its GPU (the
        update or the reduce) ends, and no φ upload starts before the
        inter-node leg has delivered to its node."""
        trainer = _trainer(
            corpus, 2, 2, staleness=staleness, sync_algorithm=sync
        )
        marks = _Boundaries(trainer)
        trainer.train(callbacks=[marks])
        checked = {"d2h": 0, "h2d": 0}
        for i, (nodes, messages) in enumerate(marks.iterations()):
            for n, ivs in enumerate(nodes):
                for k, iv in enumerate(ivs):
                    if iv.kind == "d2h" and "phi" in iv.label:
                        before = [
                            p.end for p in ivs[:k]
                            if p.kind in ("update_phi", "sync")
                            and p.device_id == iv.device_id
                        ]
                        assert before and iv.start >= max(before), iv
                        checked["d2h"] += 1
                delivered = [m[5] for m in messages if n in (m[1], m[2])]
                if not delivered:
                    continue  # no leg this round (inside a staleness window)
                arrives = max(delivered)
                for iv in ivs:
                    if iv.kind == "h2d" and iv.label.startswith("h2d:phi"):
                        assert iv.start >= arrives, (i, n, iv)
                        checked["h2d"] += 1
        assert checked["d2h"] and checked["h2d"]

    def test_lone_node_uploads_once_its_sum_ends(self):
        """After node 1 dies, node 0 hosts every chunk, two per GPU, and
        the leg has nothing to wait for. Its Δ upload reads only the
        host's sum, so each GPU's ``h2d:phi_delta`` starts as the last
        ``phi_delta_host_add`` ends, not once the penultimate chunk's
        download, which it does not read, ends."""
        from repro.obs.workloads import make_corpus, make_distributed_culda

        trainer = make_distributed_culda(
            make_corpus("nytimes", tokens=20_000, seed=0), nodes=2,
            gpus_per_node=2, platform="pascal", num_topics=64, iterations=5,
            seed=0,
        )
        result = trainer.train(recovery="elastic", fault_plan=FaultPlan(
            faults=(FaultSpec(kind="node_failure", iteration=2, node=1),)))
        assert result.repartitions == 1
        ivs = trainer.machines[0].trace.intervals
        lost = max(
            i for i, iv in enumerate(ivs) if iv.label == "h2d:phi_repartition"
        )
        summed, starts = 0.0, []
        for iv in ivs[lost:]:
            if iv.label == "phi_delta_host_add":
                summed = iv.end
            elif iv.label == "h2d:phi_delta":
                starts.append(iv.start - summed)
        assert starts == [0.0] * 6  # iterations 2-4, two GPUs each

    @pytest.mark.parametrize("sync", ["gpu_tree", "ring", "cpu_gather",
                                      "hierarchical"])
    def test_cluster_never_runs_the_intra_allreduce(
        self, corpus, sync, monkeypatch
    ):
        from repro.comm.collectives import collectives

        def refuse(self, ctx):
            raise AssertionError(f"{self.name} ran on a cluster")

        for collective in collectives():
            monkeypatch.setattr(type(collective), "allreduce", refuse)
        result = _trainer(corpus, 2, 2, sync_algorithm=sync).train()
        monkeypatch.undo()
        _assert_same_model(result, _reference(corpus).train())

    def test_faulted_delta_upload_frees_its_buffer(self, corpus):
        """A Δφ upload that faults still frees its device buffer: after
        the rolled-back run every allocator reads 0."""
        plan = FaultPlan(faults=(
            FaultSpec(kind="kernel_fault", iteration=2, device=1, op="h2d"),))
        trainer = _trainer(corpus, 2, 2)
        result = trainer.train(fault_plan=plan, recovery="retry")
        assert result.rollbacks == 1
        _assert_same_model(result, _trainer(corpus, 2, 2).train())
        assert [
            gpu.allocator.bytes_in_use
            for machine in trainer.machines for gpu in machine.gpus
        ] == [0] * 4

    def test_upload_carries_only_what_changed(self, corpus):
        """At s = 0 every GPU's one φ upload per iteration is the wire
        encoding of that iteration's change to the global φ."""
        phis = []

        class Phi(TrainerCallback):
            def on_iteration_end(self, event):
                phis.append(event["phi"]().astype(np.int64))

        trainer = _trainer(corpus, 2, 2)
        trainer.train(callbacks=[Phi()])
        for machine in trainer.machines:
            uploads = [
                iv.bytes_moved for iv in machine.trace.intervals
                if iv.kind == "h2d" and iv.label.startswith("h2d:phi")
            ]
            assert len(uploads) == 2 * len(phis)  # 2 GPUs, one each
            expected = [
                WireDelta.encode(new - old).nbytes
                for old, new in zip(phis, phis[1:])
            ]
            assert uploads[2::2] == uploads[3::2] == expected

    def test_each_gpu_sends_only_its_change(self, corpus):
        """At s = 0 every GPU makes one Δφ copy to its host per
        iteration, carrying exactly the wire encoding of its partial's
        change since its last send (its whole partial after the reset
        at init), preceded by the payload's 24-byte layout."""
        from repro.core.kernels import accumulate_phi

        trainer = _trainer(corpus, 2, 2)
        marks = _Boundaries(trainer)
        partials = []

        class Partials(TrainerCallback):
            def on_iteration_end(self, event):
                K = trainer.config.num_topics
                partials.append({
                    (n, w.device.device_id): sum(
                        accumulate_phi(r.chunk, r.topics, K)
                        for r in trainer._node_runtimes[n][g::len(workers)]
                    )
                    for n, workers in enumerate(trainer._node_workers)
                    for g, w in enumerate(workers)
                })

        trainer.train(callbacks=[marks, Partials()])
        before = {key: 0 for key in partials[0]}
        for now, (nodes, _) in zip(partials, marks.iterations()):
            for n, ivs in enumerate(nodes):
                copies = [iv for iv in ivs if iv.kind == "d2h"]
                for d in (0, 1):
                    mine = [iv for iv in copies if iv.device_id == d]
                    assert [iv.label for iv in mine] == [
                        "d2h:phi_delta_layout", "d2h:phi_delta"
                    ]
                    expected = WireDelta.encode(now[n, d] - before[n, d])
                    assert mine[0].bytes_moved == 24
                    assert mine[1].bytes_moved == expected.nbytes > 0
            before = now

    def test_corrupted_delta_copy_rolls_back(self, corpus, monkeypatch):
        """A Δ payload the host link corrupts (its first flat index
        shifted, which keeps Σφ) fails the host's column check on a
        2-GPU node: the iteration rolls back, and the rerun is
        bit-identical to a clean run."""
        from repro.gpusim.platform import Machine

        memcpy_d2h, armed = Machine.memcpy_d2h, []

        def d2h(self, src, stream=None, label="d2h", pinned=True, retry=None):
            if label == "d2h:phi_delta" and armed:
                armed.pop()
                self.pcie[src.device.device_id].corrupt_next()
            return memcpy_d2h(self, src, stream, label, pinned, retry)

        class Arm(TrainerCallback):
            def on_iteration_end(self, event):
                if event["iteration"] == 1:
                    armed.append(True)

        monkeypatch.setattr(Machine, "memcpy_d2h", d2h)
        faulted = _trainer(corpus, 2, 2).train(
            callbacks=[Arm()], recovery="retry"
        )
        assert not armed
        assert faulted.rollbacks == 1
        _assert_same_model(faulted, _trainer(corpus, 2, 2).train())

    def test_host_link_corruption_is_detected(self):
        """A corrupted copy on a one-GPU node's host link (here the
        copy of its Δφ payload's layout to the host) rolls the iteration
        back, and the rerun is bit-identical to a clean run."""
        corpus = pubmed_like(8_000, 8, seed=3)

        def run(**kwargs):
            return _trainer(
                corpus, 4, 1, chunks_per_gpu=1, iterations=5
            ).train(**kwargs)

        plan = FaultPlan(faults=(
            FaultSpec(kind="transfer_corruption", iteration=2, link="pcie[0]"),
        ))
        faulted = run(recovery="retry", fault_plan=plan)
        assert faulted.rollbacks == 1
        _assert_same_model(faulted, run())

    def test_invariants_name_a_diverged_one_gpu_node(self, corpus):
        trainer = _trainer(corpus, 4, 1, chunks_per_gpu=1)
        state = trainer.init_state()
        trainer.run_iteration(state)
        assert trainer.check_invariants(state) == []
        phi = trainer._node_workers[2][0].phi_full.data
        phi.reshape(-1)[5] += 1
        [violation] = trainer.check_invariants(state)
        assert "node 2" in violation

    def test_apply_rejects_an_out_of_range_index(self):
        from repro.core.kernels import KernelConfig
        from repro.gpusim.errors import FaultError
        from repro.gpusim.memory import DeviceArray
        from repro.sched.schedule import GpuWorker, launch_phi_delta

        K, V = 4, 6
        worker = GpuWorker(make_machine("pascal", 1).gpus[0], K, V,
                           KernelConfig())
        delta = WireDelta.encode(np.eye(K, V, dtype=np.int64))
        bad = WireDelta(delta.shape, delta.values, delta.index + K * V)
        payload = bad.pack()
        buf = DeviceArray(worker.device, payload.shape, payload.dtype,
                          fill=payload)
        with pytest.raises(FaultError, match="outside the 4x6"):
            launch_phi_delta(worker, buf, delta, worker.upload)
        assert not worker.phi_full.data.any()

    @pytest.mark.parametrize("full", [False, True])
    def test_apply_adds_into_phi_and_n_k(self, full):
        from repro.core.kernels import KernelConfig
        from repro.gpusim.memory import DeviceArray
        from repro.sched.schedule import GpuWorker, launch_phi_delta

        K, V = 4, 6
        rng = np.random.default_rng(0)
        old = rng.integers(0, 9, size=(K, V))
        new = old.copy()
        new[1, 2] += 7
        new[3, 0] -= old[3, 0]
        if full:
            new = old + rng.integers(1, 9, size=(K, V))
        worker = GpuWorker(make_machine("pascal", 1).gpus[0], K, V,
                           KernelConfig())
        worker.phi_full.data[...] = old
        worker.n_k.data[...] = old.sum(axis=1)
        delta = WireDelta.encode(new - old)
        assert delta.index.size == (K * V if full else 2)
        payload = delta.pack()
        assert payload.nbytes == delta.nbytes
        buf = DeviceArray(worker.device, payload.shape, payload.dtype,
                          fill=payload)
        launch_phi_delta(worker, buf, delta, worker.upload)
        assert np.array_equal(worker.phi_full.data, new)
        assert np.array_equal(worker.n_k.data, new.sum(axis=1))


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestCLIDistributed:
    ARGS = [
        "train", "--synthetic", "pubmed", "--tokens", "8000",
        "--topics", "8", "--iterations", "2", "--platform", "pascal",
    ]

    def test_multinode_train(self, capsys):
        rc = main(self.ARGS + ["--gpus", "2", "--nodes", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2x Pascal Platform" in out
        assert "(4 GPU(s))" in out

    def test_gpus_per_node_and_backend(self, capsys):
        rc = main(self.ARGS + [
            "--nodes", "2", "--gpus-per-node", "2",
            "--inter-sync", "param_server", "--staleness", "1",
        ])
        assert rc == 0
        assert "2x Pascal Platform" in capsys.readouterr().out

    def test_profile_trace_holds_every_node(self, capsys, tmp_path):
        """One Chrome trace for the cluster: a process per GPU by its
        global device id, one per node host, and the host spans at −1.
        The nodes share one clock, so the latest GPU slice ends at the
        run's simulated total."""
        trace = tmp_path / "trace.json"
        rc = main([
            "profile", "--synthetic", "pubmed", "--tokens", "8000",
            "--topics", "8", "--iterations", "3", "--platform", "pascal",
            "--nodes", "2", "--gpus-per-node", "2", "--format", "json",
            "--trace", str(trace),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        slices = [
            e for e in json.loads(trace.read_text())["traceEvents"]
            if e["ph"] == "X"
        ]
        assert {e["pid"] for e in slices} == {-3, -2, -1, 0, 1, 2, 3}
        hosts = {e["pid"] for e in slices if e["name"] == "phi_delta_host_add"}
        assert hosts == {-3, -2}
        end = max(e["ts"] + e["dur"] for e in slices if e["pid"] >= 0)
        assert end / 1e6 == pytest.approx(report["simulated_seconds"], rel=1e-12)

    def test_staleness_requires_multinode(self, capsys):
        rc = main(self.ARGS + ["--staleness", "1"])
        assert rc == 2
        assert "--nodes > 1" in capsys.readouterr().err

    def test_inter_sync_requires_multinode(self, capsys):
        rc = main(self.ARGS + ["--inter-sync", "eth_ring"])
        assert rc == 2

    def test_nodes_require_culda(self, capsys):
        rc = main(self.ARGS + ["--algo", "ldastar", "--nodes", "2"])
        assert rc == 2
        assert "--algo culda" in capsys.readouterr().err

    @staticmethod
    def _plan(tmp_path, faults):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": faults}))
        return str(plan)

    def test_cluster_faults_need_cluster_substrate(self, capsys, tmp_path):
        plan = self._plan(
            tmp_path, [{"kind": "node_failure", "iteration": 1, "node": 0}]
        )
        rc = main(self.ARGS + ["--gpus", "2", "--faults", plan])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fault #0 (node_failure)" in err
        assert "cluster substrate" in err

    def test_gpu_faults_need_gpu_substrate(self, capsys, tmp_path):
        """GPU fault kinds run on CuLDA's simulated GPUs; ldastar has
        none, so the plan is refused before any training starts."""
        plan = self._plan(
            tmp_path,
            [{"kind": "device_failure", "iteration": 1, "device": 0}],
        )
        rc = main(self.ARGS + ["--algo", "ldastar", "--faults", plan])
        assert rc == 2
        refused = capsys.readouterr()
        assert "--algo culda" in refused.err
        assert refused.out == ""
        rc = main(self.ARGS + [
            "--algo", "culda", "--gpus", "2", "--faults", plan,
            "--recovery", "elastic",
        ])
        assert rc == 0
        assert "1 fault event(s)" in capsys.readouterr().out

    def test_multinode_gpu_fault_allowed(self, capsys, tmp_path):
        """Global device ids span machines: device 3 is node 1 GPU 1."""
        plan = self._plan(
            tmp_path,
            [{"kind": "device_failure", "iteration": 1, "device": 3}],
        )
        rc = main(self.ARGS + [
            "--nodes", "2", "--gpus-per-node", "2",
            "--faults", plan, "--recovery", "elastic",
        ])
        assert rc == 0
        assert "1 repartition(s)" in capsys.readouterr().out

    def test_multinode_elastic_node_recovery(self, capsys, tmp_path):
        plan = self._plan(
            tmp_path, [{"kind": "node_failure", "iteration": 1, "node": 1}]
        )
        rc = main(self.ARGS + [
            "--nodes", "2", "--gpus-per-node", "2",
            "--faults", plan, "--recovery", "elastic",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 fault event(s)" in out
        assert "1 repartition(s)" in out

    def test_multinode_recovery_none_prints_timeline(self, capsys, tmp_path):
        plan = self._plan(
            tmp_path, [{"kind": "node_failure", "iteration": 1, "node": 1}]
        )
        rc = main(self.ARGS + [
            "--nodes", "2", "--gpus-per-node", "2",
            "--faults", plan, "--recovery", "none",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "node 1" in err
        assert "membership timeline" in err
        assert "suspect -> dead" in err
