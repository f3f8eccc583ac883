"""Property-based tests (hypothesis) on core data structures and
invariants: corpus/chunk round trips, partitioning, θ recounts, the
sampling kernel's count conservation, and cost-model monotonicity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    KernelConfig,
    SamplingStats,
    accumulate_phi,
    gibbs_sample_chunk,
    recount_theta,
    sampling_cost,
)
from repro.core.model import LDAHyperParams, SparseTheta
from repro.corpus.corpus import Corpus, TokenChunk
from repro.sched.partition import partition_by_tokens


@st.composite
def corpora(draw, max_docs=12, max_words=15, max_len=20):
    """Random small corpora (possibly with empty documents)."""
    V = draw(st.integers(min_value=2, max_value=max_words))
    docs = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=V - 1),
                min_size=0,
                max_size=max_len,
            ),
            min_size=1,
            max_size=max_docs,
        )
    )
    return Corpus.from_documents(docs, num_words=V)


@st.composite
def nonempty_corpora(draw):
    c = draw(corpora())
    if c.num_tokens == 0:
        c = Corpus.from_documents([[0, 1]], num_words=2)
    return c


class TestCorpusProperties:
    @given(corpus=corpora())
    @settings(max_examples=100, deadline=None)
    def test_chunk_preserves_token_multiset(self, corpus):
        chunk = corpus.to_chunk()
        assert chunk.num_tokens == corpus.num_tokens
        # Word multiset preserved.
        assert np.array_equal(
            np.sort(chunk.token_word), np.sort(corpus.token_word)
        )
        # Per-document token counts preserved.
        assert np.array_equal(chunk.doc_lengths, corpus.doc_lengths)

    @given(corpus=corpora())
    @settings(max_examples=100, deadline=None)
    def test_chunk_doc_map_is_permutation(self, corpus):
        chunk = corpus.to_chunk()
        assert np.array_equal(
            np.sort(chunk.doc_map_indices), np.arange(chunk.num_tokens)
        )

    @given(corpus=corpora())
    @settings(max_examples=100, deadline=None)
    def test_chunk_word_first_order(self, corpus):
        chunk = corpus.to_chunk()
        words = chunk.token_word
        assert np.all(np.diff(words) >= 0)

    @given(corpus=corpora(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_doc_range_chunks_compose(self, corpus, data):
        """Splitting at any document produces chunks whose token counts
        add up and whose doc maps stay valid."""
        cut = data.draw(st.integers(min_value=0, max_value=corpus.num_docs))
        left = TokenChunk.from_corpus_range(corpus, 0, cut)
        right = TokenChunk.from_corpus_range(corpus, cut, corpus.num_docs)
        assert left.num_tokens + right.num_tokens == corpus.num_tokens
        assert left.num_docs + right.num_docs == corpus.num_docs


class TestPartitionProperties:
    @given(corpus=nonempty_corpora(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_partition_disjoint_cover(self, corpus, data):
        c = data.draw(st.integers(min_value=1, max_value=corpus.num_docs))
        ranges = partition_by_tokens(corpus, c)
        assert len(ranges) == c
        assert ranges[0][0] == 0 and ranges[-1][1] == corpus.num_docs
        for (a, b), (x, y) in zip(ranges, ranges[1:]):
            assert b == x
        assert all(lo < hi for lo, hi in ranges)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_partition_balance_bound(self, data):
        """With equal-length documents the split is near-perfect."""
        D = data.draw(st.integers(min_value=4, max_value=60))
        L = data.draw(st.integers(min_value=1, max_value=9))
        c = data.draw(st.integers(min_value=1, max_value=D))
        corpus = Corpus.from_documents([[0] * L] * D, num_words=2)
        ranges = partition_by_tokens(corpus, c)
        sizes = [(hi - lo) * L for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 2 * L


class TestModelProperties:
    @given(corpus=nonempty_corpora(), seed=st.integers(0, 2**31), k=st.integers(2, 12))
    @settings(max_examples=80, deadline=None)
    def test_recount_conserves_tokens(self, corpus, seed, k):
        chunk = corpus.to_chunk()
        rng = np.random.default_rng(seed)
        topics = rng.integers(0, k, chunk.num_tokens).astype(np.int32)
        theta = recount_theta(chunk, topics, k, compressed=False)
        phi = accumulate_phi(chunk, topics, k)
        assert theta.data.sum() == chunk.num_tokens
        assert phi.sum() == chunk.num_tokens
        # Topic marginals agree between θ and φ.
        theta_marginal = np.zeros(k, dtype=np.int64)
        np.add.at(theta_marginal, theta.indices.astype(np.int64), theta.data)
        assert np.array_equal(theta_marginal, phi.sum(axis=1))

    @given(corpus=nonempty_corpora(), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_sampling_conserves_and_stays_in_range(self, corpus, seed):
        """One kernel invocation on arbitrary data: output topics valid,
        count conservation after the update kernels."""
        k = 6
        hyper = LDAHyperParams(num_topics=k)
        chunk = corpus.to_chunk()
        rng = np.random.default_rng(seed)
        topics = rng.integers(0, k, chunk.num_tokens).astype(np.int32)
        theta = recount_theta(chunk, topics, k, compressed=False)
        phi = accumulate_phi(chunk, topics, k)
        n_k = phi.sum(axis=1, dtype=np.int64)
        new_topics, stats = gibbs_sample_chunk(
            chunk, topics, theta, phi, n_k, hyper, rng,
            KernelConfig(compressed=False),
        )
        assert new_topics.shape == topics.shape
        if chunk.num_tokens:
            assert new_topics.min() >= 0 and new_topics.max() < k
        new_phi = accumulate_phi(chunk, new_topics, k)
        assert new_phi.sum() == chunk.num_tokens
        assert stats.p1_draws <= stats.num_tokens


class TestCostProperties:
    @given(
        t=st.integers(1, 10**7),
        kd=st.floats(1.0, 500.0),
        k=st.integers(2, 4096),
        v=st.integers(10, 200_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_sampling_cost_positive_and_scales(self, t, kd, k, v):
        hyper = LDAHyperParams(num_topics=k)
        stats = SamplingStats(
            num_tokens=t, kd_sum=int(t * min(kd, k)), p1_draws=0,
            num_word_segments=max(1, v // 10), num_blocks=max(1, t // 512),
        )
        cost = sampling_cost(stats, hyper, v, KernelConfig(compressed=False))
        assert cost.total_bytes > 0
        assert cost.flops > 0
        # Memory-bound everywhere (the paper's Table 1 conclusion).
        assert cost.flops_per_byte < 2.0

    @given(
        t=st.integers(1000, 10**6),
        scale=st.integers(2, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_cost_superadditive_in_tokens(self, t, scale):
        """More tokens never cost less (fixed everything else)."""
        hyper = LDAHyperParams(num_topics=64)

        def mk(tokens):
            return sampling_cost(
                SamplingStats(tokens, tokens * 30, 0, 50, 50),
                hyper, 1000, KernelConfig(),
            )

        small = mk(t)
        big = mk(t * scale)
        assert big.total_bytes > small.total_bytes


class TestSparseThetaProperties:
    @given(corpus=nonempty_corpora(), seed=st.integers(0, 2**31), k=st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_dense_round_trip(self, corpus, seed, k):
        chunk = corpus.to_chunk()
        rng = np.random.default_rng(seed)
        topics = rng.integers(0, k, chunk.num_tokens).astype(np.int32)
        theta = SparseTheta.from_assignments(chunk, topics, k, compressed=False)
        dense = theta.to_dense()
        # Rebuild CSR from dense and compare.
        rows, cols = np.nonzero(dense)
        indptr = np.zeros(chunk.num_docs + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        rebuilt = SparseTheta(
            indptr, cols.astype(np.int32),
            dense[rows, cols].astype(np.int32), k,
        )
        assert rebuilt == theta


class TestSyncEquivalence:
    @given(
        num_gpus=st.integers(1, 4),
        k=st.integers(2, 12),
        v=st.integers(2, 30),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_all_sync_algorithms_agree(self, num_gpus, k, v, seed):
        """Tree, ring, and CPU-gather must produce identical full φ on
        every GPU for arbitrary replicas."""
        from repro.core.kernels import KernelConfig
        from repro.gpusim.memory import DeviceArray
        from repro.gpusim.platform import pascal_platform
        from repro.comm import (
            SyncContext,
            broadcast_phi,
            get_collective,
            reduce_phi_tree,
        )

        rng = np.random.default_rng(seed)
        data = [
            rng.integers(0, 100, size=(k, v)).astype(np.int32)
            for _ in range(num_gpus)
        ]
        expected = np.sum(data, axis=0)
        cfg = KernelConfig(compressed=False)

        def setup():
            m = pascal_platform(num_gpus)
            partials = [
                DeviceArray(m.gpus[g], (k, v), np.int32, fill=data[g])
                for g in range(num_gpus)
            ]
            scratch = [
                DeviceArray(m.gpus[g], (k, v), np.int32)
                for g in range(num_gpus)
            ]
            fulls = [
                DeviceArray(m.gpus[g], (k, v), np.int32)
                for g in range(num_gpus)
            ]
            streams = [m.gpus[g].create_stream("s") for g in range(num_gpus)]
            return m, partials, scratch, fulls, streams

        m, p, s, f, st_ = setup()
        root = reduce_phi_tree(m, p, s, st_, cfg)
        broadcast_phi(m, root, f, st_, cfg)
        tree_out = [x.data.copy() for x in f]

        m, p, s, f, st_ = setup()
        get_collective("ring").allreduce(SyncContext(m, p, f, s, st_, cfg))
        ring_out = [x.data.copy() for x in f]

        m, p, s, f, st_ = setup()
        get_collective("cpu_gather").allreduce(
            SyncContext(m, p, f, s, st_, cfg)
        )
        cpu_out = [x.data.copy() for x in f]

        for g in range(num_gpus):
            assert np.array_equal(tree_out[g], expected)
            assert np.array_equal(ring_out[g], expected)
            assert np.array_equal(cpu_out[g], expected)


class TestBuilderProperties:
    @given(
        docs=st.lists(
            st.lists(st.integers(0, 20), min_size=0, max_size=15),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_builder_round_trip(self, docs):
        from repro.corpus.builder import CorpusBuilder

        b = CorpusBuilder()
        for d in docs:
            b.add_document_ids(d)
        corpus = b.build(num_words=21)
        assert corpus.num_docs == len(docs)
        for i, d in enumerate(docs):
            assert corpus.document(i).tolist() == d
