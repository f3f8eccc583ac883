"""Tests for WorkSchedule1/2 machinery (paper Alg 1, §5.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import KernelConfig
from repro.core.model import LDAHyperParams, SparseTheta
from repro.corpus.corpus import TokenChunk
from repro.gpusim.platform import pascal_platform
from repro.sched.schedule import (
    ChunkRuntime,
    GpuWorker,
    download_chunk,
    enqueue_chunk_compute,
    run_iteration_resident,
    run_iteration_streaming,
    upload_chunk,
)


def _make_runtime(corpus, chunk_id, lo, hi, K, seed=0):
    chunk = TokenChunk.from_corpus_range(corpus, lo, hi)
    rng = np.random.default_rng(seed)
    topics = rng.integers(0, K, chunk.num_tokens).astype(np.uint16)
    theta = SparseTheta.from_assignments(chunk, topics, K)
    return ChunkRuntime(chunk_id, chunk, topics, theta, rng)


def _init_phi(runtimes, K, V):
    from repro.core.kernels import accumulate_phi

    phi = np.zeros((K, V), dtype=np.int64)
    for r in runtimes:
        phi += accumulate_phi(r.chunk, r.topics, K)
    return phi


def _setup(machine, corpus, K=8, num_chunks=None):
    from repro.sched.partition import partition_by_tokens

    G = len(machine.gpus)
    C = num_chunks or G
    hyper = LDAHyperParams(num_topics=K)
    cfg = KernelConfig()
    ranges = partition_by_tokens(corpus, C)
    runtimes = [
        _make_runtime(corpus, i, lo, hi, K, seed=i) for i, (lo, hi) in enumerate(ranges)
    ]
    workers = [GpuWorker(d, K, corpus.num_words, cfg) for d in machine.gpus]
    phi = _init_phi(runtimes, K, corpus.num_words)
    for w in workers:
        w.phi_full.data[...] = phi.astype(w.phi_full.dtype)
        w.n_k.data[...] = phi.sum(axis=1)
    return hyper, cfg, runtimes, workers


class TestChunkMovement:
    def test_upload_roundtrip(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus)
        dc = upload_chunk(pascal1, workers[0], runtimes[0])
        assert np.array_equal(dc.token_doc.data, runtimes[0].chunk.token_doc)
        assert np.array_equal(dc.topics.data, runtimes[0].topics)
        download_chunk(pascal1, workers[0], runtimes[0], dc)
        assert dc.topics.freed

    def test_upload_charges_memory(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus)
        before = pascal1.gpus[0].allocator.bytes_in_use
        dc = upload_chunk(pascal1, workers[0], runtimes[0])
        assert pascal1.gpus[0].allocator.bytes_in_use > before
        dc.free_all()
        assert pascal1.gpus[0].allocator.bytes_in_use == before

    def test_upload_takes_simulated_time(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus)
        upload_chunk(pascal1, workers[0], runtimes[0])
        assert pascal1.synchronize() > 0


class TestChunkCompute:
    def test_updates_all_state(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus)
        cr = runtimes[0]
        dc = upload_chunk(pascal1, workers[0], cr)
        theta_before = cr.theta
        enqueue_chunk_compute(pascal1, workers[0], cr, dc, hyper, cfg)
        pascal1.synchronize()
        # φ partial recounted from the new assignments.
        assert workers[0].phi_partial.data.sum() == cr.chunk.num_tokens
        # θ replaced and consistent with the new topics.
        assert cr.theta is not theta_before
        recount = SparseTheta.from_assignments(
            cr.chunk, cr.topics, hyper.num_topics
        )
        assert recount == cr.theta
        # Device θ mirrors the host θ.
        assert np.array_equal(dc.theta_data.data, cr.theta.data)

    def test_stats_recorded(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus)
        cr = runtimes[0]
        dc = upload_chunk(pascal1, workers[0], cr)
        enqueue_chunk_compute(pascal1, workers[0], cr, dc, hyper, cfg)
        assert cr.last_stats is not None
        assert cr.last_stats.num_tokens == cr.chunk.num_tokens

    def test_phi_ready_event_precedes_theta_update(self, medium_corpus, pascal1):
        """§6.2 ordering: the sync can start before update-θ finishes."""
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus)
        cr = runtimes[0]
        dc = upload_chunk(pascal1, workers[0], cr)
        evt = enqueue_chunk_compute(pascal1, workers[0], cr, dc, hyper, cfg)
        assert evt.time < workers[0].compute.available_at

    def test_accumulate_mode_adds(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(
            pascal1, medium_corpus, num_chunks=2
        )
        w = workers[0]
        dc0 = upload_chunk(pascal1, w, runtimes[0])
        enqueue_chunk_compute(pascal1, w, runtimes[0], dc0, hyper, cfg)
        dc1 = upload_chunk(pascal1, w, runtimes[1])
        enqueue_chunk_compute(
            pascal1, w, runtimes[1], dc1, hyper, cfg, accumulate=True
        )
        pascal1.synchronize()
        assert w.phi_partial.data.sum() == medium_corpus.num_tokens


class TestIterations:
    def test_resident_iteration_preserves_totals(self, medium_corpus, pascal4):
        hyper, cfg, runtimes, workers = _setup(pascal4, medium_corpus)
        dev_chunks = [
            upload_chunk(pascal4, workers[g], runtimes[g]) for g in range(4)
        ]
        run_iteration_resident(
            pascal4, workers, runtimes, dev_chunks, hyper, cfg
        )
        pascal4.synchronize()
        # Every GPU's full φ equals the global recount.
        expected = _init_phi(runtimes, hyper.num_topics, medium_corpus.num_words)
        for w in workers:
            assert np.array_equal(w.phi_full.data.astype(np.int64), expected)
            assert np.array_equal(w.n_k.data, expected.sum(axis=1))

    def test_resident_requires_one_chunk_per_gpu(self, medium_corpus, pascal4):
        hyper, cfg, runtimes, workers = _setup(pascal4, medium_corpus, num_chunks=2)
        with pytest.raises(ValueError):
            run_iteration_resident(pascal4, workers, runtimes, [], hyper, cfg)

    def test_streaming_iteration_preserves_totals(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus, num_chunks=3)
        run_iteration_streaming(
            pascal1, workers, runtimes, hyper, cfg, chunks_per_gpu=3
        )
        pascal1.synchronize()
        expected = _init_phi(runtimes, hyper.num_topics, medium_corpus.num_words)
        assert np.array_equal(
            workers[0].phi_full.data.astype(np.int64), expected
        )

    def test_streaming_frees_chunks(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus, num_chunks=3)
        before = pascal1.gpus[0].allocator.bytes_in_use
        run_iteration_streaming(
            pascal1, workers, runtimes, hyper, cfg, chunks_per_gpu=3
        )
        pascal1.synchronize()
        assert pascal1.gpus[0].allocator.bytes_in_use == before

    def test_streaming_overlap_hides_transfers(self, medium_corpus):
        """WorkSchedule2's point: with overlap on, h2d transfers and
        sampling kernels coexist on the timeline; with overlap off, the
        iteration takes at least as long."""
        m_overlap = pascal_platform(1)
        hyper, cfg, runtimes, workers = _setup(m_overlap, medium_corpus, num_chunks=4)
        run_iteration_streaming(
            m_overlap, workers, runtimes, hyper, cfg, chunks_per_gpu=4,
            overlap=True,
        )
        t_overlap = m_overlap.synchronize()
        overlap_secs = m_overlap.trace.overlap_seconds("h2d", "sampling")

        m_serial = pascal_platform(1)
        hyper, cfg, runtimes, workers = _setup(m_serial, medium_corpus, num_chunks=4)
        run_iteration_streaming(
            m_serial, workers, runtimes, hyper, cfg, chunks_per_gpu=4,
            overlap=False,
        )
        t_serial = m_serial.synchronize()
        assert overlap_secs > 0, "pipelined transfers must overlap compute"
        assert t_overlap < t_serial

    def test_streaming_wrong_m_rejected(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus, num_chunks=3)
        with pytest.raises(ValueError):
            run_iteration_streaming(
                pascal1, workers, runtimes, hyper, cfg, chunks_per_gpu=2
            )

    def test_multi_gpu_iteration_faster(self, medium_corpus):
        """2 GPUs must beat 1 GPU on the same resident workload."""
        m1 = pascal_platform(1)
        hyper, cfg, rts1, w1 = _setup(m1, medium_corpus, num_chunks=2)
        run_iteration_streaming(m1, w1, rts1, hyper, cfg, chunks_per_gpu=2)
        t1 = m1.synchronize()

        m2 = pascal_platform(2)
        hyper, cfg, rts2, w2 = _setup(m2, medium_corpus, num_chunks=2)
        dcs = [upload_chunk(m2, w2[g], rts2[g]) for g in range(2)]
        m2.reset_clock()
        run_iteration_resident(m2, w2, rts2, dcs, hyper, cfg)
        t2 = m2.synchronize()
        assert t2 < t1


class TestSamplerTables:
    """The sampler's word tables are built once per machine and
    iteration, and shared only with a GPU whose φ and n_k equal the
    first GPU's byte for byte."""

    @staticmethod
    def _count_builds(monkeypatch) -> list[np.ndarray]:
        import repro.core.kernels as kernels
        import repro.sched.schedule as schedule

        built, build = [], kernels.word_tables

        def counting(phi, n_k, hyper):
            built.append(phi.copy())
            return build(phi, n_k, hyper)

        monkeypatch.setattr(kernels, "word_tables", counting)
        monkeypatch.setattr(schedule, "word_tables", counting)
        return built

    def test_built_once_per_node_and_iteration(self, monkeypatch):
        from repro.core import CuLDA, DistributedCuLDA, TrainConfig
        from repro.corpus.synthetic import pubmed_like

        corpus = pubmed_like(12_000, 8, seed=3)
        cfg = TrainConfig(num_topics=16, iterations=3, seed=0)
        built = self._count_builds(monkeypatch)
        DistributedCuLDA(
            corpus, [pascal_platform(2), pascal_platform(2)], config=cfg
        ).train()
        assert len(built) == 2 * 3
        built.clear()
        streaming = CuLDA(
            corpus, pascal_platform(4),
            TrainConfig(num_topics=16, iterations=3, seed=0, chunks_per_gpu=2),
        ).train()
        assert streaming.chunks_per_gpu == 2
        assert len(built) == 3

    def test_a_diverged_replica_builds_its_own(
        self, medium_corpus, pascal4, monkeypatch
    ):
        hyper, cfg, runtimes, workers = _setup(pascal4, medium_corpus)
        dev_chunks = [
            upload_chunk(pascal4, workers[g], runtimes[g]) for g in range(4)
        ]
        workers[2].phi_full.data[0, 0] += 1
        diverged = workers[2].phi_full.data.copy()
        built = self._count_builds(monkeypatch)
        run_iteration_resident(
            pascal4, workers, runtimes, dev_chunks, hyper, cfg
        )
        assert len(built) == 2
        assert not np.array_equal(built[0], diverged)
        assert np.array_equal(built[1], diverged)

    def test_unrecovered_fault_run_keeps_its_bits(self, monkeypatch):
        """A corrupted replica nothing rolls back is sampled against in
        the next iteration: the run trains the same model as one whose
        every chunk builds its own tables."""
        import repro.sched.schedule as schedule
        from repro.core import CuLDA, TrainConfig
        from repro.corpus.synthetic import pubmed_like
        from repro.faults import FaultPlan, FaultSpec

        corpus = pubmed_like(12_000, 8, seed=3)
        # The tree's reduce copy and then its broadcast copy over
        # p2p[0-1]: the replicas of GPUs 1 and 3 diverge from GPU 0's.
        plan = FaultPlan(faults=(
            FaultSpec(kind="transfer_corruption", iteration=1,
                      link="p2p[0-1]", count=2),))

        def run():
            return CuLDA(
                corpus, pascal_platform(4),
                TrainConfig(num_topics=16, iterations=4, seed=0,
                            sync_algorithm="gpu_tree"),
            ).train(fault_plan=plan)

        built = self._count_builds(monkeypatch)
        shared = run()
        assert len(built) == 4 + 2  # the diverged replicas built their own
        monkeypatch.setattr(
            schedule, "_sampler_tables", lambda workers, hyper: [None] * 4
        )
        per_chunk = run()
        assert np.array_equal(shared.phi, per_chunk.phi)
        assert np.array_equal(shared.topics, per_chunk.topics)
