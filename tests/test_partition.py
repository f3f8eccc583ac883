"""Tests for workload partitioning (paper §4, §5.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import KernelConfig
from repro.core.model import LDAHyperParams
from repro.corpus.corpus import Corpus
from repro.corpus.synthetic import SyntheticSpec, generate_lda_corpus
from repro.corpus.datasets import DatasetStats
from repro.gpusim.device import DeviceSpec
from repro.gpusim.platform import GPU_TITAN_XP, pascal_platform
from repro.perfmodel.capacity import plan_memory
from repro.sched.partition import (
    choose_chunking,
    estimate_chunk_device_bytes,
    model_device_bytes,
    partition_by_tokens,
    sync_volume_by_policy,
)
from repro.sched.schedule import GpuWorker


class TestPartitionByTokens:
    def test_covers_all_docs_disjointly(self, medium_corpus):
        ranges = partition_by_tokens(medium_corpus, 4)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == medium_corpus.num_docs
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c
        assert all(lo < hi for lo, hi in ranges)

    def test_token_balance(self, medium_corpus):
        """§4: chunks are even in tokens, not documents."""
        ranges = partition_by_tokens(medium_corpus, 4)
        tokens = [
            int(medium_corpus.doc_indptr[hi] - medium_corpus.doc_indptr[lo])
            for lo, hi in ranges
        ]
        mean = np.mean(tokens)
        assert max(tokens) < 1.3 * mean
        assert min(tokens) > 0.7 * mean

    def test_skewed_lengths_balanced_by_tokens_not_docs(self):
        # One giant doc + many tiny ones: doc-count partitioning would
        # be wildly unbalanced; token partitioning is not.
        docs = [[0] * 1000] + [[1]] * 100
        c = Corpus.from_documents(docs, num_words=2)
        ranges = partition_by_tokens(c, 2)
        tokens = [int(c.doc_indptr[hi] - c.doc_indptr[lo]) for lo, hi in ranges]
        # The giant doc forces its chunk to ~1000; the rest go together.
        assert ranges[0][1] - ranges[0][0] < 5
        assert tokens[0] >= 1000

    def test_single_chunk(self, tiny_corpus):
        assert partition_by_tokens(tiny_corpus, 1) == [(0, 5)]

    def test_max_chunks_one_doc_each(self, tiny_corpus):
        ranges = partition_by_tokens(tiny_corpus, 5)
        assert ranges == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_too_many_chunks_rejected(self, tiny_corpus):
        with pytest.raises(ValueError):
            partition_by_tokens(tiny_corpus, 6)
        with pytest.raises(ValueError):
            partition_by_tokens(tiny_corpus, 0)


class TestMemoryEstimates:
    HYPER = LDAHyperParams(num_topics=32)
    CFG = KernelConfig()

    def test_chunk_bytes_positive_and_monotone(self, medium_corpus):
        small = estimate_chunk_device_bytes(
            medium_corpus, (0, 10), self.HYPER, self.CFG
        )
        large = estimate_chunk_device_bytes(
            medium_corpus, (0, 100), self.HYPER, self.CFG
        )
        assert 0 < small < large

    def test_theta_capacity_bounded_by_k(self, medium_corpus):
        """θ capacity uses min(DocLen, K): a huge K must not blow up the
        estimate beyond the doc-length bound."""
        a = estimate_chunk_device_bytes(
            medium_corpus, (0, 50), LDAHyperParams(num_topics=8), self.CFG
        )
        b = estimate_chunk_device_bytes(
            medium_corpus, (0, 50), LDAHyperParams(num_topics=60000), KernelConfig(compressed=False)
        )
        # K=60000 >> doc lengths, so capacity is doclen-bound: the
        # difference should be far less than proportional to K.
        assert b < a * 20

    def test_model_bytes_compression(self):
        comp = model_device_bytes(1024, 10_000, KernelConfig(compressed=True))
        wide = model_device_bytes(1024, 10_000, KernelConfig(compressed=False))
        assert wide == pytest.approx(2 * comp, rel=0.01)

    @pytest.mark.parametrize(
        "compressed, expected", [(True, 1_261_312), (False, 2_521_600)]
    )
    def test_model_bytes_are_what_a_worker_allocates(self, compressed, expected):
        """§5.1's model charge is one GpuWorker's allocation, and the
        trainer's planner and the paper-scale projection both charge
        exactly that."""
        K, V = 128, 1641
        cfg = KernelConfig(compressed=compressed)
        gpu = pascal_platform(1).gpus[0]
        before = gpu.allocator.bytes_in_use
        GpuWorker(gpu, K, V, cfg)
        assert gpu.allocator.bytes_in_use - before == expected
        assert model_device_bytes(K, V, cfg) == expected

        def device(capacity):
            return DeviceSpec(
                name="exact", arch="t", num_sms=1, peak_bandwidth_gbps=1,
                peak_gflops=1, mem_capacity_bytes=capacity,
            )

        hyper = LDAHyperParams(num_topics=K)
        corpus = Corpus.from_documents(
            [[v % V for v in range(d, d + 40)] for d in range(6)], num_words=V
        )
        chunk = estimate_chunk_device_bytes(corpus, (0, 6), hyper, cfg)
        with pytest.raises(MemoryError, match="model alone"):
            choose_chunking(corpus, 1, hyper, cfg, device(expected - 1),
                            headroom=1.0)
        fits = choose_chunking(corpus, 1, hyper, cfg, device(expected + chunk),
                               headroom=1.0)
        assert fits.chunks_per_gpu == 1
        with pytest.raises(MemoryError, match="no chunks_per_gpu"):
            choose_chunking(corpus, 1, hyper, cfg, device(expected + chunk - 1),
                            chunks_per_gpu=1, headroom=1.0)

        stats = DatasetStats("twin", num_tokens=240, num_docs=6, num_words=V)
        assert plan_memory(stats, device(expected + chunk), K, 1, cfg,
                           headroom=1.0).model_bytes == expected
        with pytest.raises(MemoryError, match="model alone"):
            plan_memory(stats, device(expected - 1), K, 1, cfg, headroom=1.0)


class TestChooseChunking:
    HYPER = LDAHyperParams(num_topics=32)
    CFG = KernelConfig()

    def test_small_corpus_resident(self, medium_corpus):
        plan = choose_chunking(
            medium_corpus, 2, self.HYPER, self.CFG, GPU_TITAN_XP
        )
        assert plan.chunks_per_gpu == 1
        assert plan.num_chunks == 2

    def test_round_robin_assignment(self, medium_corpus):
        plan = choose_chunking(
            medium_corpus, 2, self.HYPER, self.CFG, GPU_TITAN_XP,
            chunks_per_gpu=3,
        )
        assert plan.num_chunks == 6
        assert [plan.gpu_of_chunk(i) for i in range(6)] == [0, 1, 0, 1, 0, 1]

    def test_explicit_m_validated(self, medium_corpus):
        with pytest.raises(ValueError):
            choose_chunking(
                medium_corpus, 1, self.HYPER, self.CFG, GPU_TITAN_XP,
                chunks_per_gpu=0,
            )

    def test_streaming_when_memory_tight(self):
        """A corpus bigger than the device must get M > 1 (paper §5.1)."""
        from repro.gpusim.device import DeviceSpec

        tiny_gpu = DeviceSpec(
            name="tiny", arch="t", num_sms=4, peak_bandwidth_gbps=100,
            peak_gflops=100,
            mem_capacity_bytes=40_000_000,
        )
        spec = SyntheticSpec(
            num_docs=3000, num_words=500, avg_doc_length=900, num_topics=4
        )
        big = generate_lda_corpus(spec, seed=0)  # ~2.7M tokens
        plan = choose_chunking(
            big, 1, LDAHyperParams(num_topics=64), self.CFG, tiny_gpu
        )
        assert plan.chunks_per_gpu > 1

    def test_model_too_big_raises(self, medium_corpus):
        from repro.gpusim.device import DeviceSpec

        nano = DeviceSpec(
            name="nano", arch="t", num_sms=1, peak_bandwidth_gbps=1,
            peak_gflops=1, mem_capacity_bytes=1000,
        )
        with pytest.raises(MemoryError, match="model alone"):
            choose_chunking(medium_corpus, 1, self.HYPER, self.CFG, nano)


class TestPolicyAnalysis:
    def test_by_document_cheaper_when_d_large(self):
        """§4's argument: D >> V makes partition-by-document the cheaper
        policy (φ sync << θ sync)."""
        vol = sync_volume_by_policy(
            num_docs=8_200_000, num_words=141_043, num_topics=1024,
            config=KernelConfig(),
        )
        assert vol["by_document"] < vol["by_word"]

    def test_by_word_cheaper_in_inverted_regime(self):
        vol = sync_volume_by_policy(
            num_docs=10, num_words=1_000_000, num_topics=64,
            config=KernelConfig(),
        )
        assert vol["by_word"] < vol["by_document"]
