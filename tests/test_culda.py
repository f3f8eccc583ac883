"""End-to-end tests of the CuLDA trainer (the paper's system, Alg 1)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import CuLDA, TrainConfig
from repro.corpus.synthetic import SyntheticSpec, generate_lda_corpus
from repro.gpusim.platform import pascal_platform, volta_platform


@pytest.fixture
def corpus():
    return generate_lda_corpus(
        SyntheticSpec(num_docs=80, num_words=300, avg_doc_length=80,
                      num_topics=6, name="e2e"),
        seed=21,
    )


class TestBasicTraining:
    def test_returns_consistent_result(self, corpus):
        r = CuLDA(
            corpus, pascal_platform(1),
            TrainConfig(num_topics=12, iterations=5, seed=0),
        ).train()
        assert len(r.iterations) == 5
        assert r.num_tokens == corpus.num_tokens
        assert r.phi.shape == (12, corpus.num_words)
        assert r.phi.sum() == corpus.num_tokens
        assert r.theta.num_docs == corpus.num_docs
        assert r.theta.data.sum() == corpus.num_tokens
        assert r.total_sim_seconds > 0
        assert r.avg_tokens_per_sec > 0

    def test_theta_rows_sum_to_doc_lengths(self, corpus):
        r = CuLDA(
            corpus, pascal_platform(2),
            TrainConfig(num_topics=8, iterations=3, seed=1),
        ).train()
        sums = np.zeros(corpus.num_docs, dtype=np.int64)
        np.add.at(
            sums,
            np.repeat(np.arange(corpus.num_docs), r.theta.row_lengths()),
            r.theta.data,
        )
        assert np.array_equal(sums, corpus.doc_lengths)

    def test_likelihood_improves_over_training(self, corpus):
        r_short = CuLDA(
            corpus, pascal_platform(1),
            TrainConfig(num_topics=12, iterations=1, seed=0),
        ).train()
        r_long = CuLDA(
            corpus, pascal_platform(1),
            TrainConfig(num_topics=12, iterations=15, seed=0),
        ).train()
        assert r_long.final_log_likelihood > r_short.final_log_likelihood

    def test_likelihood_every(self, corpus):
        r = CuLDA(
            corpus, pascal_platform(1),
            TrainConfig(num_topics=8, iterations=6, seed=0, likelihood_every=2),
        ).train()
        lls = [it.log_likelihood_per_token for it in r.iterations]
        assert lls[1] is not None and lls[3] is not None
        assert lls[0] is None
        assert lls[-1] is not None  # always recorded at the end

    def test_summary_and_top_words(self, corpus):
        r = CuLDA(
            corpus, pascal_platform(1),
            TrainConfig(num_topics=8, iterations=2, seed=0),
        ).train()
        text = r.summary()
        assert "tokens/sec" in text and "Pascal" in text
        top = r.top_words(0, n=5)
        assert len(top) == 5
        with pytest.raises(IndexError):
            r.top_words(99)

    def test_breakdown_kinds_present(self, corpus):
        r = CuLDA(
            corpus, pascal_platform(2),
            TrainConfig(num_topics=8, iterations=3, seed=0),
        ).train()
        for kind in ("sampling", "update_theta", "update_phi", "sync"):
            assert r.breakdown.get(kind, 0) > 0
        assert r.breakdown["sampling"] == max(
            r.breakdown[k] for k in ("sampling", "update_theta", "update_phi")
        )

    def test_sampling_dominates_measured_kernel_time(self):
        """Table 5's functional cross-check: on a NYTimes twin the
        measured trace spends most kernel time sampling."""
        from repro.corpus.synthetic import nytimes_like

        c = nytimes_like(num_tokens=30_000, num_topics=8, seed=2)
        r = CuLDA(c, pascal_platform(1),
                  TrainConfig(num_topics=32, iterations=2, seed=0)).train()
        kernels = ("sampling", "update_theta", "update_phi")
        total = sum(r.breakdown[k] for k in kernels)
        assert r.breakdown["sampling"] / total > 0.6


class TestDeterminism:
    def test_same_seed_same_model(self, corpus):
        cfg = TrainConfig(num_topics=8, iterations=4, seed=7)
        a = CuLDA(corpus, pascal_platform(2), cfg).train()
        b = CuLDA(corpus, pascal_platform(2), cfg).train()
        assert np.array_equal(a.phi, b.phi)
        assert a.theta == b.theta

    def test_different_seed_different_model(self, corpus):
        a = CuLDA(corpus, pascal_platform(1),
                  TrainConfig(num_topics=8, iterations=4, seed=1)).train()
        b = CuLDA(corpus, pascal_platform(1),
                  TrainConfig(num_topics=8, iterations=4, seed=2)).train()
        assert not np.array_equal(a.phi, b.phi)

    @pytest.mark.parametrize("gpus,m", [(1, 4), (2, 2), (4, 1)])
    def test_gpu_count_invariance(self, corpus, gpus, m):
        """The paper-level correctness property: at fixed C = M × G, the
        trained model is bit-identical for any GPU count."""
        cfg = TrainConfig(num_topics=8, iterations=3, seed=3, chunks_per_gpu=m)
        r = CuLDA(corpus, pascal_platform(gpus), cfg).train()
        ref_cfg = TrainConfig(num_topics=8, iterations=3, seed=3, chunks_per_gpu=4)
        ref = CuLDA(corpus, pascal_platform(1), ref_cfg).train()
        assert np.array_equal(r.phi, ref.phi)
        assert r.theta == ref.theta


class TestScheduleSelection:
    def test_small_corpus_picks_resident(self, corpus):
        r = CuLDA(corpus, pascal_platform(2),
                  TrainConfig(num_topics=8, iterations=2, seed=0)).train()
        assert r.chunks_per_gpu == 1
        assert r.plan_chunks == 2
        # Alg 1 prefers WorkSchedule1 because resident data beats
        # streaming the same data.
        streaming = CuLDA(corpus, pascal_platform(2),
                          TrainConfig(num_topics=8, iterations=2, seed=0,
                                      chunks_per_gpu=4)).train()
        assert r.total_sim_seconds < streaming.total_sim_seconds

    def test_forced_streaming_matches_resident_model(self, corpus):
        """WorkSchedule1 and WorkSchedule2 must be statistically
        identical — only the timing differs."""
        res = CuLDA(corpus, pascal_platform(2),
                    TrainConfig(num_topics=8, iterations=3, seed=5,
                                chunks_per_gpu=1)).train()
        # Same C=2 via 1 GPU x M=2 streaming.
        stream = CuLDA(corpus, pascal_platform(1),
                       TrainConfig(num_topics=8, iterations=3, seed=5,
                                   chunks_per_gpu=2)).train()
        assert np.array_equal(res.phi, stream.phi)

    def test_no_overlap_is_slower(self, corpus):
        base = TrainConfig(num_topics=8, iterations=3, seed=0, chunks_per_gpu=3)
        with_overlap = CuLDA(corpus, pascal_platform(1), base).train()
        no_overlap = CuLDA(
            corpus, pascal_platform(1), replace(base, overlap_transfers=False)
        ).train()
        assert with_overlap.total_sim_seconds < no_overlap.total_sim_seconds
        assert np.array_equal(with_overlap.phi, no_overlap.phi)

    def test_cpu_gather_sync_same_model(self, corpus):
        a = CuLDA(corpus, pascal_platform(2),
                  TrainConfig(num_topics=8, iterations=3, seed=5)).train()
        b = CuLDA(corpus, pascal_platform(2),
                  TrainConfig(num_topics=8, iterations=3, seed=5,
                              sync_algorithm="cpu_gather")).train()
        assert np.array_equal(a.phi, b.phi)

    def test_unknown_sync_rejected(self, corpus):
        with pytest.raises(ValueError):
            CuLDA(corpus, pascal_platform(2),
                  TrainConfig(num_topics=8, iterations=1, seed=0,
                              sync_algorithm="bogus")).train()


class TestScalingBehaviour:
    def test_more_gpus_faster_at_scale(self):
        """Multi-GPU wins once per-GPU work dwarfs the φ sync (the
        regime Fig 9 evaluates)."""
        from repro.corpus.synthetic import nytimes_like

        c = nytimes_like(num_tokens=120_000, num_topics=8, seed=4,
                         vocab_cap=2048)
        cfg = TrainConfig(num_topics=32, iterations=4, seed=0)
        t1 = CuLDA(c, pascal_platform(1), cfg).train().total_sim_seconds
        t2 = CuLDA(c, pascal_platform(2), cfg).train().total_sim_seconds
        t4 = CuLDA(c, pascal_platform(4), cfg).train().total_sim_seconds
        assert t4 < t2 < t1

    def test_tiny_problem_does_not_scale(self, corpus):
        """With ~6k tokens the K×V synchronization dominates and extra
        GPUs cannot help — the honest flip side of Fig 9."""
        cfg = dict(num_topics=16, iterations=4, seed=0)
        t1 = CuLDA(corpus, pascal_platform(1),
                   TrainConfig(**cfg)).train().total_sim_seconds
        t4 = CuLDA(corpus, pascal_platform(4),
                   TrainConfig(**cfg)).train().total_sim_seconds
        assert t4 > 0.5 * t1  # nowhere near a 4x win

    def test_volta_faster_than_pascal(self, corpus):
        cfg = TrainConfig(num_topics=16, iterations=4, seed=0)
        tp = CuLDA(corpus, pascal_platform(1), cfg).train().total_sim_seconds
        tv = CuLDA(corpus, volta_platform(1), cfg).train().total_sim_seconds
        assert tv < tp

    def test_throughput_rises_with_sparsification(self):
        """Fig 7's ramp on a twin corpus: θ sparsifies, and later
        iterations are at least as fast as the first."""
        from repro.corpus.synthetic import nytimes_like

        c = nytimes_like(num_tokens=30_000, num_topics=8, seed=2)
        r = CuLDA(c, pascal_platform(1),
                  TrainConfig(num_topics=32, iterations=12, seed=0)).train()
        first = r.iterations[0].tokens_per_sec
        last = r.iterations[-1].tokens_per_sec
        assert last >= first
        assert r.iterations[-1].mean_kd < r.iterations[0].mean_kd


class TestCompression:
    def test_compressed_and_wide_agree_statistically(self, corpus):
        base = TrainConfig(num_topics=8, iterations=3, seed=9)
        a = CuLDA(corpus, pascal_platform(1), base).train()
        b = CuLDA(corpus, pascal_platform(1),
                  replace(base, compressed=False)).train()
        # Identical draws (same RNG, same math) — compression is lossless
        # at this scale — in less simulated time.
        assert np.array_equal(a.phi, b.phi)
        assert a.total_sim_seconds < b.total_sim_seconds

    def test_compression_rejects_huge_k(self, corpus):
        with pytest.raises(ValueError, match="16-bit"):
            CuLDA(corpus, pascal_platform(1),
                  TrainConfig(num_topics=70_000, iterations=1))

    def test_machine_without_gpus_rejected(self, corpus):
        from repro.gpusim.platform import CPU_E5_2690V4, Machine

        with pytest.raises(ValueError):
            CuLDA(corpus, Machine(CPU_E5_2690V4, []), TrainConfig(num_topics=8))


class TestSamplerAblations:
    @pytest.mark.parametrize("switch", ["sparse_sampler", "share_p2_tree"])
    def test_switching_off_costs_time_not_bits(self, corpus, switch):
        """§6.1's sampler optimizations change the kernel's traffic, not
        its draws: switched off alone, the run is slower and φ is
        bit-identical. K exceeds the documents' length, the regime
        where sparsity pays."""
        base = TrainConfig(num_topics=128, iterations=3, seed=0)
        on = CuLDA(corpus, pascal_platform(1), base).train()
        off = CuLDA(corpus, pascal_platform(1),
                    replace(base, **{switch: False})).train()
        assert on.total_sim_seconds < off.total_sim_seconds
        assert np.array_equal(on.phi, off.phi)


class TestPeakMemory:
    def test_peak_recorded_and_bounded(self, corpus):
        m = pascal_platform(2)
        r = CuLDA(corpus, m,
                  TrainConfig(num_topics=8, iterations=2, seed=0)).train()
        assert 0 < r.peak_device_bytes <= m.gpus[0].spec.mem_capacity_bytes

    def test_streaming_peak_below_resident_total(self, corpus):
        """Streaming (M>1) holds at most ~2 chunk slots, so its peak is
        below loading the whole corpus resident in one chunk."""
        resident = CuLDA(corpus, pascal_platform(1),
                         TrainConfig(num_topics=8, iterations=1, seed=0,
                                     chunks_per_gpu=1)).train()
        streaming = CuLDA(corpus, pascal_platform(1),
                          TrainConfig(num_topics=8, iterations=1, seed=0,
                                      chunks_per_gpu=6)).train()
        assert streaming.peak_device_bytes < resident.peak_device_bytes


class TestWarmStart:
    def test_warm_start_speeds_convergence(self, corpus):
        """A warm start from a trained φ must begin at (much) higher
        likelihood than a cold start."""
        cfg = TrainConfig(num_topics=12, iterations=20, seed=0)
        first = CuLDA(corpus, pascal_platform(1), cfg).train()
        cold = CuLDA(
            corpus, pascal_platform(1),
            TrainConfig(num_topics=12, iterations=1, seed=1,
                        likelihood_every=1),
        ).train()
        warm = CuLDA(
            corpus, pascal_platform(1),
            TrainConfig(num_topics=12, iterations=1, seed=1,
                        likelihood_every=1),
            warm_start_phi=first.phi,
        ).train()
        assert warm.final_log_likelihood > cold.final_log_likelihood + 0.2

    def test_warm_start_shape_validated(self, corpus):
        with pytest.raises(ValueError, match="warm_start_phi"):
            CuLDA(corpus, pascal_platform(1),
                  TrainConfig(num_topics=12),
                  warm_start_phi=np.zeros((3, 3)))

    def test_warm_start_counts_still_consistent(self, corpus):
        base = CuLDA(corpus, pascal_platform(1),
                     TrainConfig(num_topics=8, iterations=3, seed=0)).train()
        warm = CuLDA(corpus, pascal_platform(2),
                     TrainConfig(num_topics=8, iterations=2, seed=5),
                     warm_start_phi=base.phi).train()
        assert warm.phi.sum() == corpus.num_tokens


class TestTopicsExport:
    def test_topics_in_corpus_order(self, corpus):
        """result.topics must align with the original token order: the
        per-document histograms of the exported topics match θ exactly,
        and φ recounted from (topics, words) matches the exported φ."""
        r = CuLDA(corpus, pascal_platform(2),
                  TrainConfig(num_topics=8, iterations=3, seed=0)).train()
        assert r.topics.shape == (corpus.num_tokens,)
        # φ recount from corpus-order pairs.
        phi = np.zeros_like(r.phi, dtype=np.int64)
        np.add.at(
            phi,
            (r.topics.astype(np.int64), corpus.token_word.astype(np.int64)),
            1,
        )
        assert np.array_equal(phi, r.phi.astype(np.int64))
        # θ recount per document.
        theta = np.zeros((corpus.num_docs, 8), dtype=np.int64)
        np.add.at(
            theta,
            (corpus.token_doc.astype(np.int64), r.topics.astype(np.int64)),
            1,
        )
        assert np.array_equal(theta, r.theta.to_dense())

    def test_topics_identical_across_gpu_counts(self, corpus):
        cfg = dict(num_topics=8, iterations=2, seed=3)
        a = CuLDA(corpus, pascal_platform(1),
                  TrainConfig(**cfg, chunks_per_gpu=2)).train()
        b = CuLDA(corpus, pascal_platform(2),
                  TrainConfig(**cfg, chunks_per_gpu=1)).train()
        assert np.array_equal(a.topics, b.topics)


class TestSimClockPinned:
    """The simulated clock, pinned bit for bit: the run's total and
    every iteration's duration, hashed. A refactor of the trainer bodies
    must leave these digests unchanged — on one machine, across nodes,
    and under rollback and node-loss recovery. The two multi-node
    digests price ``eth_ring`` as an allgather of sparse 16-bit Δφ,
    each GPU sending its host only its own Δφ (no intra-node
    collective), and each GPU receiving only Δφ. Every GPU keeps the
    chunk it sampled last and moves a chunk in one copy each way, and
    prices an accumulating update φ as the same atomics without the
    zeroing pass; a rollback stages each GPU's first chunk afresh; and
    the ring moves φ rows in place, straight between GPUs."""

    @pytest.fixture(scope="class")
    def pin_corpus(self):
        from repro.obs.workloads import make_corpus

        return make_corpus("nytimes", tokens=20_000, seed=0)

    @staticmethod
    def _digest(result) -> str:
        import hashlib

        clock = np.array(
            [result.total_sim_seconds,
             *(it.sim_seconds for it in result.iterations)],
            dtype=np.float64,
        )
        return hashlib.sha256(clock.tobytes()).hexdigest()[:16]

    CFG = dict(platform="pascal", num_topics=64, iterations=5, seed=0)

    @pytest.mark.parametrize("kwargs,digest", [
        (dict(gpus=1), "a558acbd31a6fc38"),
        (dict(gpus=4, chunks_per_gpu=2), "0f30e79fcdad198a"),
    ])
    def test_single_machine(self, pin_corpus, kwargs, digest):
        from repro.obs.workloads import make_culda

        result = make_culda(pin_corpus, **kwargs, **self.CFG).train()
        assert self._digest(result) == digest

    @pytest.mark.parametrize("kwargs,digest", [
        (dict(nodes=1, gpus_per_node=4, chunks_per_gpu=2),
         "0f30e79fcdad198a"),
        (dict(nodes=2, gpus_per_node=2), "cb5756dc6083717f"),
    ])
    def test_cluster(self, pin_corpus, kwargs, digest):
        from repro.obs.workloads import make_distributed_culda

        result = make_distributed_culda(
            pin_corpus, **kwargs, **self.CFG
        ).train()
        assert self._digest(result) == digest

    def test_rollback(self, pin_corpus):
        from repro.faults import FaultPlan, FaultSpec
        from repro.obs.workloads import make_culda

        plan = FaultPlan(faults=(
            FaultSpec(kind="kernel_fault", iteration=2, device=1),))
        result = make_culda(pin_corpus, gpus=4, **self.CFG).train(
            recovery="retry", fault_plan=plan
        )
        assert result.rollbacks == 1
        assert self._digest(result) == "43c3a180c3afe356"

    def test_node_loss(self, pin_corpus):
        from repro.faults import FaultPlan, FaultSpec
        from repro.obs.workloads import make_distributed_culda

        plan = FaultPlan(faults=(
            FaultSpec(kind="node_failure", iteration=2, node=1),))
        result = make_distributed_culda(
            pin_corpus, nodes=2, gpus_per_node=2, **self.CFG
        ).train(recovery="elastic", fault_plan=plan)
        assert result.repartitions == 1
        assert self._digest(result) == "ef5f377d53689ec8"
