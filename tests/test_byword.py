"""Tests for the rejected partition-by-word policy (§4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CuLDA, TrainConfig
from repro.gpusim.platform import pascal_platform
from repro.sched.byword import (
    _word_range_chunk,
    partition_words_by_tokens,
    train_by_word,
)


class TestWordPartitioner:
    def test_covers_vocabulary(self, medium_corpus):
        ranges = partition_words_by_tokens(medium_corpus, 4)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == medium_corpus.num_words
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c
        assert all(lo < hi for lo, hi in ranges)

    def test_token_balance(self, medium_corpus):
        ranges = partition_words_by_tokens(medium_corpus, 3)
        freq = medium_corpus.word_frequencies()
        masses = [int(freq[lo:hi].sum()) for lo, hi in ranges]
        assert max(masses) < 1.6 * np.mean(masses)

    def test_validation(self, medium_corpus):
        with pytest.raises(ValueError):
            partition_words_by_tokens(medium_corpus, 0)


class TestWordRangeChunk:
    def test_chunks_partition_tokens(self, medium_corpus):
        ranges = partition_words_by_tokens(medium_corpus, 3)
        chunks = [
            _word_range_chunk(medium_corpus, lo, hi) for lo, hi in ranges
        ]
        assert sum(c.num_tokens for c in chunks) == medium_corpus.num_tokens
        # Every chunk spans all documents (the θ-replication cost).
        for c in chunks:
            assert c.num_docs == medium_corpus.num_docs

    def test_chunk_words_within_range(self, medium_corpus):
        lo, hi = partition_words_by_tokens(medium_corpus, 2)[1]
        chunk = _word_range_chunk(medium_corpus, lo, hi)
        words = chunk.token_word
        present = words[np.isin(words, np.arange(lo, hi))]
        assert present.size == words.size


class TestTrainByWord:
    def test_converges(self, medium_corpus):
        m = pascal_platform(2)
        r = train_by_word(
            medium_corpus, m, TrainConfig(num_topics=8, iterations=8, seed=0)
        )
        assert r.phi.sum() == medium_corpus.num_tokens
        base = train_by_word(
            medium_corpus, pascal_platform(2),
            TrainConfig(num_topics=8, iterations=1, seed=0),
        )
        assert r.final_log_likelihood > base.final_log_likelihood

    def test_theta_sync_is_the_reduce_tree(self, medium_corpus):
        """The θ exchange is the §5.2 tree: G − 1 reduce copies, each
        added in, then G − 1 broadcast copies, each moving a whole
        D × K int32 replica."""
        G, K, iterations = 3, 8, 2
        m = pascal_platform(G)
        r = train_by_word(
            medium_corpus, m,
            TrainConfig(num_topics=K, iterations=iterations, seed=0),
        )
        labels = [iv.label for iv in m.trace.intervals]
        steps = (G - 1) * iterations
        assert labels.count("phi_reduce_copy") == steps
        assert labels.count("phi_add") == steps
        assert labels.count("phi_broadcast_copy") == steps
        D = medium_corpus.num_docs
        assert r.sync_bytes_per_iteration == 2 * (G - 1) * D * K * 4

    def test_reduce_copy_waits_for_its_senders_update_theta(
        self, medium_corpus
    ):
        """A θ reduce copy carries its sender's replica, so it starts
        only once that GPU's update θ has written it, however late: GPU
        1 here is a slower Maxwell board, so it finishes after GPU 0,
        which receives its replica."""
        from repro.gpusim.platform import (
            CPU_E5_2650V3, GPU_TITAN_X, GPU_TITAN_XP, Machine,
        )

        m = Machine(CPU_E5_2650V3, [GPU_TITAN_XP, GPU_TITAN_X])
        train_by_word(
            medium_corpus, m, TrainConfig(num_topics=8, iterations=2, seed=0)
        )
        updates = {
            d: [iv for iv in m.trace.intervals
                if iv.kind == "update_theta" and iv.device_id == d]
            for d in (0, 1)
        }
        copies = [
            iv for iv in m.trace.intervals if iv.label == "phi_reduce_copy"
        ]
        assert len(copies) == 2
        for it, copy in enumerate(copies):
            assert updates[1][it].end > updates[0][it].end
            assert copy.start >= updates[1][it].end

    def test_sync_volume_matches_policy_analysis(self, medium_corpus):
        """§4's inequality, measured end-to-end: the by-word policy's
        per-iteration sync bytes exceed the by-document policy's when
        D×K dwarfs K×V — and the analytic predictor agrees."""
        from repro.core.kernels import KernelConfig
        from repro.sched.partition import sync_volume_by_policy

        # Synthetic regime with D >> V (the paper's real-corpus regime).
        from repro.corpus.synthetic import SyntheticSpec, generate_lda_corpus

        corpus = generate_lda_corpus(
            SyntheticSpec(num_docs=800, num_words=120, avg_doc_length=20,
                          num_topics=4),
            seed=3,
        )
        cfg = TrainConfig(num_topics=16, iterations=2, seed=0,
                          compressed=False)
        m = pascal_platform(2)
        byword = train_by_word(corpus, m, cfg)

        culda_machine = pascal_platform(2)
        CuLDA(corpus, culda_machine, cfg).train()
        phi_sync_bytes = sum(
            iv.bytes_moved for iv in culda_machine.trace.intervals
            if iv.label in ("phi_reduce_copy", "phi_broadcast_copy")
        ) / cfg.iterations

        assert byword.sync_bytes_per_iteration > phi_sync_bytes
        vol = sync_volume_by_policy(
            corpus.num_docs, corpus.num_words, 16, KernelConfig(compressed=False)
        )
        assert vol["by_word"] > vol["by_document"]

    def test_slower_than_by_document_in_d_heavy_regime(self):
        """The paper's bottom line: at D >> V the chosen policy wins
        end-to-end."""
        from repro.corpus.synthetic import SyntheticSpec, generate_lda_corpus

        corpus = generate_lda_corpus(
            SyntheticSpec(num_docs=1500, num_words=100, avg_doc_length=25,
                          num_topics=4),
            seed=9,
        )
        cfg = TrainConfig(num_topics=16, iterations=3, seed=0)
        byword = train_by_word(corpus, pascal_platform(2), cfg)
        bydoc = CuLDA(corpus, pascal_platform(2), cfg).train()
        assert bydoc.total_sim_seconds < byword.total_sim_seconds
