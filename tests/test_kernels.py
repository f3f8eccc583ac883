"""Tests for the kernel bodies and their cost accounting (paper §6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from repro.core.kernels import (
    BLOCK_TOKEN_CAPACITY,
    WARP_SIZE,
    KernelConfig,
    SamplingStats,
    _p2_search,
    _slab_edges,
    accumulate_phi,
    gibbs_sample_chunk,
    phi_reduce_cost,
    recount_theta,
    sampling_cost,
    sampling_launch_plan,
    tree_search_levels,
    update_phi_cost,
    update_theta_cost,
    word_tables,
)
from repro.core.model import LDAHyperParams, LDAState, SparseTheta, check_state_invariants
from repro.core.sampler import compute_pstar, dense_conditional
from repro.corpus.corpus import Corpus
from repro.sched.byword import _word_range_chunk


def _run_iterations(corpus, hyper, iterations, seed=0, config=None):
    chunk = corpus.to_chunk()
    state = LDAState.initialize(chunk, hyper, seed=seed)
    rng = np.random.default_rng(seed + 1)
    stats = None
    for _ in range(iterations):
        new_topics, stats = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper, rng, config,
        )
        state.topics = new_topics
        state.theta = recount_theta(chunk, new_topics, hyper.num_topics)
        state.phi = accumulate_phi(chunk, new_topics, hyper.num_topics)
        state.n_k = state.phi.sum(axis=1, dtype=np.int64)
    return chunk, state, stats


class TestGibbsSampleChunk:
    def test_preserves_inputs(self, small_corpus, hyper8, rng):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        phi_before = state.phi.copy()
        topics_before = state.topics.copy()
        gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, rng,
        )
        assert np.array_equal(state.phi, phi_before)
        assert np.array_equal(state.topics, topics_before)

    def test_output_shape_dtype_range(self, small_corpus, hyper8, rng):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        out, stats = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, rng,
        )
        assert out.shape == state.topics.shape
        assert out.dtype == state.topics.dtype
        assert out.min() >= 0 and out.max() < hyper8.num_topics
        assert stats.num_tokens == chunk.num_tokens

    def test_deterministic_given_rng_state(self, small_corpus, hyper8):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        a, _ = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, np.random.default_rng(7),
        )
        b, _ = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, np.random.default_rng(7),
        )
        assert np.array_equal(a, b)

    def test_slab_size_does_not_change_results(self, small_corpus, hyper8):
        """The token-slab memory bound is purely an implementation
        detail: any slab size must give identical samples."""
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        big = KernelConfig(token_slab=1 << 22)
        tiny = KernelConfig(token_slab=64)
        a, _ = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, np.random.default_rng(3), big,
        )
        b, _ = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, np.random.default_rng(3), tiny,
        )
        assert np.array_equal(a, b)

    def test_kd_sum_matches_theta(self, small_corpus, hyper8, rng):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        _, stats = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, rng,
        )
        row_len = np.diff(state.theta.indptr)
        expected = int(row_len[chunk.token_doc].sum())
        assert stats.kd_sum == expected

    def test_marginal_distribution_of_one_token(self, hyper8):
        """Single-token corpus: the kernel's draw must follow Eq 1 with
        the frozen counts (delayed-update semantics, no self-exclusion)."""
        from repro.corpus.corpus import Corpus

        corpus = Corpus.from_documents([[0, 1, 1, 2], [0, 0, 2]], num_words=3)
        chunk = corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=4)
        # Token 0 in word-sorted order: word = expanded[0], doc known.
        v = int(chunk.token_word[0])
        d = int(chunk.token_doc[0])
        ps = compute_pstar(
            state.phi[:, v].astype(np.float64), state.n_k, hyper8.beta, 3
        )
        t_topics, t_counts = state.theta.row(d)
        theta_dense = np.zeros(hyper8.num_topics)
        theta_dense[t_topics.astype(np.int64)] = t_counts
        p = dense_conditional(theta_dense, ps, hyper8.alpha)
        p /= p.sum()
        draws = []
        for s in range(4000):
            out, _ = gibbs_sample_chunk(
                chunk, state.topics, state.theta, state.phi, state.n_k,
                hyper8, np.random.default_rng(s),
            )
            draws.append(int(out[0]))
        observed = np.bincount(draws, minlength=hyper8.num_topics)
        mask = p * len(draws) >= 5
        _, pvalue = chisquare(
            observed[mask], p[mask] / p[mask].sum() * observed[mask].sum()
        )
        assert pvalue > 1e-4

    def test_likelihood_improves(self, medium_corpus):
        from repro.core.likelihood import log_likelihood_per_token

        hyper = LDAHyperParams(num_topics=16)
        chunk, state0, _ = _run_iterations(medium_corpus, hyper, 1, seed=0)
        ll0 = log_likelihood_per_token(
            state0.theta, state0.phi, state0.n_k, chunk.doc_lengths, hyper
        )
        chunk, state, _ = _run_iterations(medium_corpus, hyper, 12, seed=0)
        ll1 = log_likelihood_per_token(
            state.theta, state.phi, state.n_k, chunk.doc_lengths, hyper
        )
        assert ll1 > ll0 + 0.1

    def test_invariants_after_iterations(self, small_corpus, hyper8):
        _, state, _ = _run_iterations(small_corpus, hyper8, 5, seed=1)
        check_state_invariants(state)

    def test_theta_sparsifies(self, medium_corpus):
        """Fig 7's mechanism: mean K_d decreases as the model converges."""
        hyper = LDAHyperParams(num_topics=16)
        _, _, stats_early = _run_iterations(medium_corpus, hyper, 1, seed=0)
        _, _, stats_late = _run_iterations(medium_corpus, hyper, 15, seed=0)
        assert stats_late.mean_kd < stats_early.mean_kd

    def test_passed_tables_give_the_same_bits(self, small_corpus, hyper8):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        tables = word_tables(state.phi, state.n_k, hyper8)
        a, sa = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, np.random.default_rng(5),
        )
        b, sb = gibbs_sample_chunk(
            chunk, state.topics, state.theta, None, None,
            hyper8, np.random.default_rng(5), tables=tables,
        )
        assert np.array_equal(a, b)
        assert sa == sb

    def test_tables_for_another_vocabulary_rejected(self, small_corpus,
                                                    hyper8, rng):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        narrow = word_tables(state.phi[:, :-1], state.n_k, hyper8)
        with pytest.raises(ValueError, match="word tables"):
            gibbs_sample_chunk(
                chunk, state.topics, state.theta, state.phi, state.n_k,
                hyper8, rng, tables=narrow,
            )

    def test_word_tables_layout(self, small_corpus, hyper8):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        tables = word_tables(state.phi, state.n_k, hyper8)
        assert tables.pstar_vk.flags.c_contiguous
        assert np.array_equal(tables.pstar_vk, tables.pstar.T)
        assert np.array_equal(
            tables.q, hyper8.alpha * tables.pstar.sum(axis=0)
        )

    def test_outputs_pinned(self):
        """Absolute bits of the sampler, not one path against another.

        sha256 (first 16 hex digits) of training outputs and a fold-in,
        recorded before the sampler's tables were hoisted out of the
        kernel. Any change to the float operations the kernel performs,
        or their order, moves these digests.
        """
        import hashlib

        from repro.core.inference import infer_documents
        from repro.obs.workloads import make_corpus, make_culda

        def digest(*arrays):
            data = b"".join(a.tobytes() for a in arrays)
            return hashlib.sha256(data).hexdigest()[:16]

        corpus = make_corpus("nytimes", tokens=20_000, seed=0)
        one = make_culda(corpus, platform="pascal", gpus=1, num_topics=64,
                         iterations=5, seed=0).train()
        assert digest(
            one.topics.astype(np.int64), one.phi.astype(np.int64)
        ) == "4c565aee29b8d166"
        four = make_culda(corpus, platform="pascal", gpus=4,
                          chunks_per_gpu=2, num_topics=64, iterations=5,
                          seed=0).train()
        assert digest(
            four.topics.astype(np.int64), four.phi.astype(np.int64)
        ) == "140f5f8bb606841b"
        inferred = infer_documents(
            corpus.slice_docs(0, 20), one.phi, LDAHyperParams(64),
            iterations=5, seed=3,
        )
        assert digest(
            inferred.doc_topic,
            np.float64(inferred.log_likelihood_per_token),
        ) == "7beb3f1bb7e70b2b"

    def test_empty_chunk(self, hyper8, rng):
        from repro.corpus.corpus import Corpus

        corpus = Corpus.from_documents([[]], num_words=3)
        chunk = corpus.to_chunk()
        topics = np.zeros(0, dtype=np.uint16)
        theta = SparseTheta.from_assignments(chunk, topics, 8)
        phi = np.zeros((8, 3), dtype=np.int32)
        out, stats = gibbs_sample_chunk(
            chunk, topics, theta, phi, np.zeros(8, dtype=np.int64),
            hyper8, rng,
        )
        assert out.size == 0
        assert stats.num_tokens == 0


def _eq6_reference(chunk, theta, tables, hyper, u):
    """Eq 6 one token at a time, in the kernel's order, with no runs and
    no slabs: S and the p₁ prefix sums over the document's θ row in CSR
    order, then the p₂ prefix sums over k. Returns the draws and the
    per-token :class:`SamplingStats`."""
    K = hyper.num_topics
    p2_cum = hyper.alpha * np.cumsum(tables.pstar, axis=0)
    draws = np.empty(chunk.num_tokens, dtype=np.int64)
    kd_sum = p1_draws = levels = 0
    for t, (d, w) in enumerate(zip(chunk.token_doc, chunk.token_word)):
        ks, counts = theta.row(d)
        ks = ks.astype(np.int64)
        p1_cum = np.cumsum(counts * tables.pstar[ks, w])
        S = p1_cum[-1]
        x = u[t] * (S + tables.q[w])
        kd_sum += ks.size
        if x < S:
            j = np.searchsorted(p1_cum, x, side="right")
            draws[t] = ks[min(j, ks.size - 1)]
            p1_draws += 1
            levels += int(tree_search_levels(ks.size, WARP_SIZE)[0])
        else:
            above = np.flatnonzero(p2_cum[:, w] > x - S)
            draws[t] = above[0] if above.size else K - 1
            levels += int(tree_search_levels(K, WARP_SIZE)[0])
    blocks, segments = sampling_launch_plan(chunk.word_indptr)
    return draws, SamplingStats(
        chunk.num_tokens, kd_sum, p1_draws, segments, blocks, levels
    )


def _word_range_case():
    """A by-word chunk (all documents, a word range) against the whole
    corpus's θ and φ, as `train_by_word` samples it."""
    corpus = Corpus.from_documents(
        [[0, 3, 3, 5, 1, 3], [2, 2, 5, 4], [5, 0, 5, 5, 3, 1, 1]],
        num_words=6,
    )
    chunk = _word_range_chunk(corpus, 1, 5)
    state = LDAState.initialize(corpus.to_chunk(), LDAHyperParams(8), seed=2)
    topics = np.random.default_rng(0).integers(0, 8, chunk.num_tokens)
    return chunk, topics.astype(np.uint16), state


class TestRunOracle:
    """`gibbs_sample_chunk` shares S, Q and the p₁ prefix sums across
    each (doc, word) run; each token must still draw exactly what Eq 6
    gives it from its own u."""

    CORPORA = {
        # One run of 50 tokens.
        "one_word_50_times": ([[4] * 50], 6),
        # Every (doc, word) pair distinct: runs of one token.
        "distinct_pairs": ([[0, 1, 2, 3], [1, 2, 4, 5], [5, 0, 3], [2]], 6),
        "repeats": ([[0, 1, 1, 2, 1], [3, 3, 3, 0], [2, 1, 2, 2, 4, 4]], 5),
    }

    def _check(self, chunk, topics, theta, phi, n_k, hyper, config=None):
        tables = word_tables(phi, n_k, hyper)
        for seed in range(4):
            got, stats = gibbs_sample_chunk(
                chunk, topics, theta, phi, n_k, hyper,
                np.random.default_rng(seed), config,
            )
            u = np.random.default_rng(seed).random(chunk.num_tokens)
            want, want_stats = _eq6_reference(chunk, theta, tables, hyper, u)
            assert np.array_equal(got, want)
            assert stats == want_stats

    @pytest.mark.parametrize("name", sorted(CORPORA))
    @pytest.mark.parametrize("sweeps", [0, 3])
    def test_matches_per_token_reference(self, name, sweeps, hyper8):
        docs, V = self.CORPORA[name]
        corpus = Corpus.from_documents(docs, num_words=V)
        _, state, _ = _run_iterations(corpus, hyper8, sweeps, seed=1)
        self._check(corpus.to_chunk(), state.topics, state.theta,
                    state.phi, state.n_k, hyper8)

    def test_slab_smaller_than_one_run(self, small_corpus, hyper8):
        """Every run's expansion exceeds the slab, so each run gets a
        slab of its own and the running sum restarts at every run."""
        chunk, state, _ = _run_iterations(small_corpus, hyper8, 2, seed=0)
        assert np.diff(state.theta.indptr).min() > 1
        self._check(chunk, state.topics, state.theta, state.phi,
                    state.n_k, hyper8, KernelConfig(token_slab=1))
        self._check(chunk, state.topics, state.theta, state.phi,
                    state.n_k, hyper8, KernelConfig(token_slab=40))

    def test_word_range_chunk(self, hyper8):
        chunk, topics, state = _word_range_case()
        self._check(chunk, topics, state.theta, state.phi, state.n_k,
                    hyper8)

    def test_both_branches_are_exercised(self, small_corpus, hyper8):
        chunk, state, stats = _run_iterations(small_corpus, hyper8, 2)
        assert 0 < stats.p1_draws < stats.num_tokens
        self._check(chunk, state.topics, state.theta, state.phi,
                    state.n_k, hyper8)


class TestDocumentGroups:
    """A launch over document groups samples each group exactly as a
    call over its documents alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 25), min_size=1, max_size=12),
        cuts=st.lists(st.integers(0, 12), max_size=4),
        slab=st.sampled_from([1, 40, KernelConfig().token_slab]),
        seed=st.integers(0, 2**16),
    )
    def test_each_group_samples_as_its_own_call(
        self, lengths, cuts, slab, seed
    ):
        K, V = 8, 30
        hyper = LDAHyperParams(K)
        gen = np.random.default_rng(seed)
        corpus = Corpus.from_documents(
            [gen.integers(0, V, size=n) for n in lengths], num_words=V
        )
        D = corpus.num_docs
        groups = np.array([0, *sorted(min(c, D) for c in cuts), D])
        G = groups.size - 1
        phi = gen.integers(0, 20, size=(K, V)).astype(np.int32)
        n_k = phi.sum(axis=1, dtype=np.int64)
        chunk = corpus.to_chunk()
        topics = gen.integers(0, K, size=chunk.num_tokens).astype(np.uint16)
        config = KernelConfig(token_slab=slab)
        got, stats = gibbs_sample_chunk(
            chunk, topics, recount_theta(chunk, topics, K), phi, n_k, hyper,
            [np.random.default_rng(seed + g) for g in range(G)], config,
            groups=groups,
        )

        per_token = np.zeros(4, dtype=np.int64)
        for g in range(G):
            own = corpus.slice_docs(groups[g], groups[g + 1]).to_chunk()
            # The combined chunk's word sort is stable, so the group's
            # tokens sit in its own chunk's order.
            mine = (chunk.token_doc >= groups[g]) & (
                chunk.token_doc < groups[g + 1]
            )
            want, s = gibbs_sample_chunk(
                own, topics[mine], recount_theta(own, topics[mine], K),
                phi, n_k, hyper, np.random.default_rng(seed + g), config,
            )
            assert np.array_equal(got[mine], want)
            per_token += (s.num_tokens, s.kd_sum, s.p1_draws,
                          s.tree_probe_levels)
        assert got.dtype == topics.dtype
        assert tuple(per_token) == (
            stats.num_tokens, stats.kd_sum, stats.p1_draws,
            stats.tree_probe_levels,
        )
        if chunk.num_tokens:
            assert (stats.num_blocks, stats.num_word_segments) == (
                chunk.sampling_plan
            )

    def test_groups_must_cover_the_chunk(self, small_corpus, hyper8, rng):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        with pytest.raises(ValueError, match="groups must split"):
            gibbs_sample_chunk(
                chunk, state.topics, state.theta, state.phi, state.n_k,
                hyper8, [rng, rng], groups=np.array([0, 1]),
            )


class TestDocWordRuns:
    def _check_runs(self, chunk):
        runs = chunk.runs
        T = chunk.num_tokens
        starts = runs.starts
        # The runs partition [0, T) in order.
        assert starts[0] == 0 and starts[-1] == T
        assert np.all(np.diff(starts) > 0)
        sizes = np.diff(starts)
        assert np.array_equal(
            runs.token_run, np.repeat(np.arange(sizes.size), sizes)
        )
        # (doc, word) is constant inside each run...
        docs, words = chunk.token_doc, chunk.token_word
        assert np.array_equal(docs, runs.doc[runs.token_run])
        assert np.array_equal(words, runs.word[runs.token_run])
        # ...and adjacent runs differ, so every run is maximal.
        same = (runs.doc[1:] == runs.doc[:-1]) & (
            runs.word[1:] == runs.word[:-1]
        )
        assert not same.any()

    def test_invariants(self, small_corpus):
        self._check_runs(small_corpus.to_chunk())
        self._check_runs(small_corpus.slice_docs(10, 30).to_chunk())

    def test_word_range_chunk(self):
        chunk, _, _ = _word_range_case()
        self._check_runs(chunk)
        assert chunk.runs.starts.size - 1 < chunk.num_tokens

    def test_one_run_per_distinct_pair(self, small_corpus):
        chunk = small_corpus.to_chunk()
        pairs = {(int(d), int(w)) for d, w in zip(chunk.token_doc,
                                                  chunk.token_word)}
        assert chunk.runs.doc.size == len(pairs)

    def test_empty_chunk(self):
        chunk = Corpus.from_documents([[]], num_words=3).to_chunk()
        assert chunk.runs.starts.tolist() == [0]
        assert chunk.runs.token_run.size == 0

    def test_built_once_and_read_only(self, small_corpus):
        chunk = small_corpus.to_chunk()
        assert chunk.runs is chunk.runs
        assert chunk.token_word is chunk.token_word
        with pytest.raises(ValueError):
            chunk.runs.token_run[0] = 1


class TestP2Search:
    def test_matches_a_per_token_scan(self):
        """The dense-branch search equals a scan of each token's own
        full-column prefix sums, including draws that land exactly on a
        prefix sum and draws past the top (round-off guard)."""
        rng = np.random.default_rng(0)
        K, V, alpha = 13, 9, 0.7
        pstar = rng.random((K, V)) + 1e-3
        pstar_vk = np.ascontiguousarray(pstar.T)
        q_cum = alpha * np.cumsum(pstar, axis=0)
        words = rng.integers(0, V, size=400)
        resid = rng.random(400) * q_cum[-1, words]
        resid[:20] = q_cum[rng.integers(0, K, size=20), words[:20]]
        resid[20:25] = q_cum[-1, words[20:25]] * 1.5
        got = _p2_search(pstar_vk, words, resid, alpha)
        for t, (w, r) in enumerate(zip(words, resid)):
            above = np.nonzero(q_cum[:, w] > r)[0]
            assert got[t] == (above[0] if above.size else K - 1)


class TestUpdateKernels:
    def test_recount_theta_matches_assignments(self, small_corpus, hyper8, rng):
        chunk = small_corpus.to_chunk()
        topics = rng.integers(0, 8, chunk.num_tokens).astype(np.uint16)
        theta = recount_theta(chunk, topics, 8)
        brute = np.zeros((chunk.num_docs, 8), dtype=np.int64)
        np.add.at(brute, (chunk.token_doc.astype(np.int64), topics.astype(np.int64)), 1)
        assert np.array_equal(theta.to_dense(), brute)

    def test_accumulate_phi_matches_assignments(self, small_corpus, rng):
        chunk = small_corpus.to_chunk()
        topics = rng.integers(0, 8, chunk.num_tokens).astype(np.uint16)
        phi = accumulate_phi(chunk, topics, 8)
        words = chunk.token_word.astype(np.int64)
        brute = np.zeros((8, chunk.num_words), dtype=np.int64)
        np.add.at(brute, (topics.astype(np.int64), words), 1)
        assert np.array_equal(phi, brute)
        assert phi.sum() == chunk.num_tokens

    def test_accumulate_phi_into_out(self, small_corpus, rng):
        chunk = small_corpus.to_chunk()
        topics = rng.integers(0, 8, chunk.num_tokens).astype(np.uint16)
        out = np.full((8, chunk.num_words), 99, dtype=np.int32)
        result = accumulate_phi(chunk, topics, 8, out=out)
        assert result is out
        assert out.sum() == chunk.num_tokens  # zeroed first

    def test_accumulate_phi_shape_check(self, small_corpus, rng):
        chunk = small_corpus.to_chunk()
        topics = rng.integers(0, 8, chunk.num_tokens).astype(np.uint16)
        with pytest.raises(ValueError):
            accumulate_phi(chunk, topics, 8, out=np.zeros((4, 4), dtype=np.int32))


class TestLaunchPlan:
    def test_light_words_one_block_each(self):
        indptr = np.array([0, 3, 3, 10])  # words with 3, 0, 7 tokens
        blocks, segments = sampling_launch_plan(indptr)
        assert blocks == segments == 2  # zero-token word gets none

    def test_heavy_word_splits(self):
        heavy = 3 * BLOCK_TOKEN_CAPACITY + 1
        indptr = np.array([0, heavy])
        blocks, _ = sampling_launch_plan(indptr)
        assert blocks == 4

    def test_empty_chunk_plan(self):
        blocks, segments = sampling_launch_plan(np.array([0, 0, 0]))
        assert blocks == segments == 1


class TestCosts:
    HYPER = LDAHyperParams(num_topics=64)

    def _stats(self, T=10_000, kd=20.0):
        return SamplingStats(
            num_tokens=T, kd_sum=int(T * kd), p1_draws=0,
            num_word_segments=100, num_blocks=100,
        )

    def test_sampling_cost_positive_and_memory_bound(self):
        cost = sampling_cost(self._stats(), self.HYPER, 1000, KernelConfig())
        assert cost.total_bytes > 0
        assert cost.flops_per_byte < 1.0  # the paper's §3 conclusion

    def test_dense_sampler_costs_more(self):
        sparse = sampling_cost(self._stats(), self.HYPER, 1000, KernelConfig())
        dense = sampling_cost(
            self._stats(), self.HYPER, 1000, KernelConfig(sparse_sampler=False)
        )
        assert dense.total_bytes > 1.3 * sparse.total_bytes

    def test_dense_sampler_gap_grows_with_k(self):
        """At paper-scale K the O(K) sampler is catastrophically worse —
        the sparsity-aware design's whole point (§6.1.1)."""
        hyper = LDAHyperParams(num_topics=1024)
        sparse = sampling_cost(self._stats(kd=40), hyper, 1000, KernelConfig())
        dense = sampling_cost(
            self._stats(kd=40), hyper, 1000, KernelConfig(sparse_sampler=False)
        )
        assert dense.total_bytes > 8 * sparse.total_bytes

    def test_sharing_reduces_staging(self):
        shared = sampling_cost(self._stats(), self.HYPER, 1000, KernelConfig())
        private = sampling_cost(
            self._stats(), self.HYPER, 1000, KernelConfig(share_p2_tree=False)
        )
        assert private.bytes_read > shared.bytes_read

    def test_compression_reduces_traffic(self):
        comp = sampling_cost(self._stats(), self.HYPER, 1000, KernelConfig())
        wide = sampling_cost(
            self._stats(), self.HYPER, 1000, KernelConfig(compressed=False)
        )
        assert wide.total_bytes > comp.total_bytes

    def test_reuse_pstar_reduces_traffic(self):
        reuse = sampling_cost(self._stats(), self.HYPER, 1000, KernelConfig())
        no_reuse = sampling_cost(
            self._stats(), self.HYPER, 1000, KernelConfig(reuse_pstar=False)
        )
        assert no_reuse.bytes_read > reuse.bytes_read

    def test_cost_monotone_in_kd(self):
        a = sampling_cost(self._stats(kd=10), self.HYPER, 1000, KernelConfig())
        b = sampling_cost(self._stats(kd=100), self.HYPER, 1000, KernelConfig())
        assert b.total_bytes > a.total_bytes

    def test_update_costs_positive(self):
        t = update_theta_cost(10_000, 100, 2_000, self.HYPER, KernelConfig())
        p = update_phi_cost(10_000, 1000, self.HYPER, KernelConfig())
        r = phi_reduce_cost(64, 1000, KernelConfig())
        for c in (t, p, r):
            assert c.total_bytes > 0

    def test_update_phi_has_atomics(self):
        p = update_phi_cost(10_000, 1000, self.HYPER, KernelConfig())
        assert p.atomic_ops == 10_000
        assert p.atomic_locality > 0.9  # word-sorted locality (§6.2)


class TestSlabEdges:
    def test_covers_all_tokens(self):
        row_len = np.array([3, 5, 2, 8, 1])
        edges = _slab_edges(row_len, slab=6)
        assert edges[0][0] == 0 and edges[-1][1] == 5
        for (a, b), (c, d) in zip(edges, edges[1:]):
            assert b == c
        # No slab (except forced singletons) exceeds the bound.
        for a, b in edges:
            if b - a > 1:
                assert row_len[a:b].sum() <= 6

    def test_oversized_single_row(self):
        edges = _slab_edges(np.array([100]), slab=6)
        assert edges == [(0, 1)]

    def test_single_slab_when_large(self):
        edges = _slab_edges(np.array([1, 1, 1]), slab=1000)
        assert edges == [(0, 3)]
