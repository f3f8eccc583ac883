"""Tests for φ synchronization: reduce tree + broadcast (paper §5.2)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.comm import (
    SyncContext,
    broadcast_phi,
    collective_names,
    get_collective,
    reduce_phi_tree,
)
from repro.core.kernels import KernelConfig
from repro.gpusim.memory import DeviceArray
from repro.gpusim.platform import make_machine, pascal_platform


def _setup(machine, K=8, V=20, dtype=np.int32, seed=0):
    rng = np.random.default_rng(seed)
    G = len(machine.gpus)
    partial_data = [
        rng.integers(0, 50, size=(K, V)).astype(dtype) for _ in range(G)
    ]
    partials = [
        DeviceArray(machine.gpus[g], (K, V), dtype, fill=partial_data[g],
                    label=f"partial{g}")
        for g in range(G)
    ]
    scratch = [
        DeviceArray(machine.gpus[g], (K, V), dtype, label=f"scratch{g}")
        for g in range(G)
    ]
    fulls = [
        DeviceArray(machine.gpus[g], (K, V), dtype, label=f"full{g}")
        for g in range(G)
    ]
    streams = [machine.gpus[g].create_stream("sync") for g in range(G)]
    expected = np.sum(partial_data, axis=0)
    return partials, scratch, fulls, streams, expected


class TestReduceTree:
    @pytest.mark.parametrize("num_gpus", [1, 2, 3, 4])
    def test_reduce_sums_all_replicas(self, num_gpus):
        m = pascal_platform(num_gpus)
        partials, scratch, fulls, streams, expected = _setup(m)
        root = reduce_phi_tree(m, partials, scratch, streams, KernelConfig())
        m.synchronize()
        assert np.array_equal(root.data, expected.astype(root.dtype))

    def test_log_steps_timing(self):
        """Fig 4: reductions within a step run in parallel, so 4 GPUs
        need ~2 serial transfer steps, not 3."""
        m4 = pascal_platform(4)
        p4, s4, f4, st4, _ = _setup(m4, K=64, V=50_000)
        reduce_phi_tree(m4, p4, s4, st4, KernelConfig())
        t4 = m4.synchronize()

        m2 = pascal_platform(2)
        p2, s2, f2, st2, _ = _setup(m2, K=64, V=50_000)
        reduce_phi_tree(m2, p2, s2, st2, KernelConfig())
        t2 = m2.synchronize()
        # 4 GPUs (2 steps) must cost well under 3x a single step — and
        # strictly under the serial-sum bound of 3 transfers.
        assert t4 < 2.6 * t2

    def test_mismatched_lengths_rejected(self):
        m = pascal_platform(2)
        partials, scratch, fulls, streams, _ = _setup(m)
        with pytest.raises(ValueError):
            reduce_phi_tree(m, partials, scratch[:1], streams, KernelConfig())


class TestBroadcast:
    @pytest.mark.parametrize("num_gpus", [1, 2, 4])
    def test_all_gpus_receive_result(self, num_gpus):
        m = pascal_platform(num_gpus)
        partials, scratch, fulls, streams, expected = _setup(m)
        root = reduce_phi_tree(m, partials, scratch, streams, KernelConfig())
        broadcast_phi(m, root, fulls, streams, KernelConfig())
        m.synchronize()
        for f in fulls:
            assert np.array_equal(f.data, expected.astype(f.dtype))

    def test_destination_zero_must_share_device(self):
        m = pascal_platform(2)
        partials, scratch, fulls, streams, _ = _setup(m)
        with pytest.raises(ValueError, match="source device"):
            broadcast_phi(m, partials[0], fulls[::-1], streams, KernelConfig())


class TestCpuGather:
    @pytest.mark.parametrize("num_gpus", [1, 2, 4])
    def test_same_result_as_tree(self, num_gpus):
        m = pascal_platform(num_gpus)
        partials, scratch, fulls, streams, expected = _setup(m)
        get_collective("cpu_gather").allreduce(SyncContext(
            m, partials, fulls, scratch, streams, KernelConfig()
        ))
        m.synchronize()
        for f in fulls:
            assert np.array_equal(f.data, expected.astype(f.dtype))

    def test_tree_faster_than_cpu_gather(self):
        """The paper's §5.2 claim, measured: GPU tree beats routing the
        adds through the host."""
        cfg = KernelConfig()
        m1 = pascal_platform(4)
        p, s, f, st, _ = _setup(m1, K=256, V=100_000)
        root = reduce_phi_tree(m1, p, s, st, cfg)
        broadcast_phi(m1, root, f, st, cfg)
        t_tree = m1.synchronize()

        m2 = pascal_platform(4)
        p, s, f, st, _ = _setup(m2, K=256, V=100_000)
        get_collective("cpu_gather").allreduce(SyncContext(m2, p, f, s, st, cfg))
        t_cpu = m2.synchronize()
        assert t_tree < t_cpu

    def test_trainer_default_beats_cpu_gather_at_scale(self):
        """The same claim end to end: on 4 GPUs with a φ large enough for
        the fabric to matter, the default sync finishes the run sooner."""
        from repro.core import CuLDA, TrainConfig
        from repro.corpus.synthetic import pubmed_like

        corpus = pubmed_like(num_tokens=12_000, num_topics=8, seed=3)
        base = dict(num_topics=128, iterations=3, seed=0)
        auto = CuLDA(corpus, pascal_platform(4), TrainConfig(**base)).train()
        gather = CuLDA(corpus, pascal_platform(4),
                       TrainConfig(**base, sync_algorithm="cpu_gather")).train()
        assert auto.total_sim_seconds < gather.total_sim_seconds


class TestRingAllReduce:
    @pytest.mark.parametrize("num_gpus", [1, 2, 3, 4])
    def test_all_gpus_hold_full_sum(self, num_gpus):
        m = pascal_platform(num_gpus)
        partials, scratch, fulls, streams, expected = _setup(m)
        get_collective("ring").allreduce(SyncContext(
            m, partials, fulls, scratch, streams, KernelConfig()
        ))
        m.synchronize()
        for f in fulls:
            assert np.array_equal(f.data, expected.astype(f.dtype))

    @pytest.mark.parametrize("platform", ["pascal", "volta", "dgx"])
    def test_rows_move_in_place(self, platform):
        """From two GPUs on, a ring copies each row segment straight out
        of the sender's φ into the receiver's: no stage, no local copy
        of φ and no add-free combine, flat or over the socket grid. On
        S equal sockets of g GPUs the 2-D ring takes g + S − 2 reduce
        steps; on uneven sockets it is the flat ring (G − 1)."""
        for gpus in (2, 3, 4):
            for name in ("ring", "hierarchical"):
                m = make_machine(platform, gpus)
                sizes = Counter(m.socket_of(d) for d in range(gpus))
                steps = (
                    sizes[0] + len(sizes) - 2
                    if name == "hierarchical"
                    and len(set(sizes.values())) == 1
                    else gpus - 1
                )
                partials, scratch, fulls, streams, expected = _setup(m)
                get_collective(name).allreduce(SyncContext(
                    m, partials, fulls, scratch, streams, KernelConfig()
                ))
                assert all(np.array_equal(f.data, expected) for f in fulls)
                labels = [iv.label for iv in m.trace.intervals]
                assert "ring_stage" not in labels
                assert "phi_local_copy" not in labels
                assert labels.count("ring_transfer") == gpus * 2 * steps
                assert labels.count("ring_combine") == gpus * steps

    def test_frees_staging_buffers(self):
        m = pascal_platform(4)
        partials, scratch, fulls, streams, _ = _setup(m)
        before = [g.allocator.bytes_in_use for g in m.gpus]
        get_collective("ring").allreduce(SyncContext(
            m, partials, fulls, scratch, streams, KernelConfig()
        ))
        m.synchronize()
        after = [g.allocator.bytes_in_use for g in m.gpus]
        assert before == after

    def test_mismatched_lengths_rejected(self):
        m = pascal_platform(2)
        partials, scratch, fulls, streams, _ = _setup(m)
        with pytest.raises(ValueError):
            get_collective("ring").allreduce(SyncContext(
                m, partials, fulls[:1], scratch, streams, KernelConfig()
            ))

    def test_trainer_ring_same_model_as_tree(self):
        from repro.core import CuLDA, TrainConfig
        from repro.corpus.synthetic import pubmed_like

        corpus = pubmed_like(num_tokens=15_000, num_topics=8, seed=3)
        base = dict(num_topics=16, iterations=3, seed=0)
        tree = CuLDA(corpus, pascal_platform(4),
                     TrainConfig(**base, sync_algorithm="gpu_tree")).train()
        ring = CuLDA(corpus, pascal_platform(4),
                     TrainConfig(**base, sync_algorithm="ring")).train()
        assert np.array_equal(tree.phi, ring.phi)


class TestSyncAlgorithmEquivalence:
    """Every sync algorithm is an implementation detail: at the trainer
    level the model must be bit-identical to the reduce-tree baseline
    for every GPU count (the chunk layout, not the sync path, decides
    the sampled z)."""

    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.corpus.synthetic import pubmed_like

        return pubmed_like(num_tokens=12_000, num_topics=8, seed=3)

    @pytest.fixture(scope="class")
    def trees(self):
        return {}

    def _phi(self, corpus, gpus, sync, compressed, chunks_per_gpu):
        from repro.core import CuLDA, TrainConfig

        return CuLDA(
            corpus, pascal_platform(gpus),
            TrainConfig(num_topics=16, iterations=3, seed=0,
                        sync_algorithm=sync, compressed=compressed,
                        chunks_per_gpu=chunks_per_gpu),
        ).train().phi

    @pytest.mark.parametrize("num_gpus", [2, 3, 4])
    @pytest.mark.parametrize(
        "sync", [n for n in collective_names() if n != "gpu_tree"]
    )
    def test_bit_identical_to_tree(self, corpus, trees, sync, num_gpus):
        """From three GPUs on, also with 32-bit φ (whose ring segments
        are 4-byte row views) and with two chunks per GPU."""
        layouts = (
            [(True, 1)] if num_gpus == 2
            else [(c, m) for c in (True, False) for m in (1, 2)]
        )
        for layout in layouts:
            key = (num_gpus, *layout)
            if key not in trees:
                trees[key] = self._phi(corpus, num_gpus, "gpu_tree", *layout)
            other = self._phi(corpus, num_gpus, sync, *layout)
            assert np.array_equal(trees[key], other), (sync, key)

    def test_ring_moves_less_data_per_link_at_scale(self):
        """At G=4 with a large φ, the ring's per-link volume
        (2·3/4 replicas) undercuts the tree's (log2(4)+log2(4) = 4 × a
        full replica through the busiest link is worse)."""
        cfg = KernelConfig()
        m1 = pascal_platform(4)
        p, s, f, st = _setup(m1, K=256, V=100_000)[:4]
        m1.reset_clock()
        root = reduce_phi_tree(m1, p, s, st, cfg)
        broadcast_phi(m1, root, f, st, cfg)
        t_tree = m1.synchronize()

        m2 = pascal_platform(4)
        p, s, f, st = _setup(m2, K=256, V=100_000)[:4]
        m2.reset_clock()
        get_collective("ring").allreduce(SyncContext(m2, p, f, s, st, cfg))
        t_ring = m2.synchronize()
        # The ring should be at least competitive at G=4, and the two
        # stay within the same order of magnitude.
        assert 0.2 * t_tree < t_ring < 1.5 * t_tree
