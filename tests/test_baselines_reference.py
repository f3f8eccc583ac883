"""Tests for the exact sequential CGS oracle."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.baselines.gibbs_reference import ReferenceCGS
from repro.core.model import LDAHyperParams
from repro.corpus.synthetic import SyntheticSpec, generate_lda_corpus


@pytest.fixture
def tiny():
    return generate_lda_corpus(
        SyntheticSpec(num_docs=25, num_words=60, avg_doc_length=25,
                      num_topics=3, name="oracle"),
        seed=13,
    )


class TestReferenceCGS:
    def test_counts_consistent_after_init(self, tiny, hyper8):
        ref = ReferenceCGS(tiny, hyper8, seed=0)
        assert ref.theta.sum() == tiny.num_tokens
        assert ref.phi.sum() == tiny.num_tokens
        assert np.array_equal(ref.n_k, ref.phi.sum(axis=1))

    def test_counts_consistent_after_sweeps(self, tiny, hyper8):
        ref = ReferenceCGS(tiny, hyper8, seed=0)
        ref.iterate(3)
        assert ref.theta.sum() == tiny.num_tokens
        assert ref.phi.sum() == tiny.num_tokens
        assert np.array_equal(ref.n_k, ref.phi.sum(axis=1))
        assert np.all(ref.theta >= 0) and np.all(ref.phi >= 0)
        # Recount from assignments.
        brute_phi = np.zeros_like(ref.phi)
        np.add.at(brute_phi, (ref.topics, tiny.token_word.astype(np.int64)), 1)
        assert np.array_equal(brute_phi, ref.phi)

    def test_likelihood_improves(self, tiny, hyper8):
        ref = ReferenceCGS(tiny, hyper8, seed=0)
        ll0 = ref.log_likelihood_per_token()
        ref.iterate(15)
        assert ref.log_likelihood_per_token() > ll0

    def test_deterministic(self, tiny, hyper8):
        a = ReferenceCGS(tiny, hyper8, seed=5)
        a.iterate(2)
        b = ReferenceCGS(tiny, hyper8, seed=5)
        b.iterate(2)
        assert np.array_equal(a.topics, b.topics)

    def test_conditional_is_distribution(self, tiny, hyper8):
        ref = ReferenceCGS(tiny, hyper8, seed=0)
        p = ref.conditional(0)
        assert p.shape == (8,)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p > 0)

    def test_delayed_variant_also_converges(self, tiny, hyper8):
        """exclude_self=False mirrors the GPU kernels' delayed-update
        approximation; it must still converge."""
        ref = ReferenceCGS(tiny, hyper8, seed=0, exclude_self=False)
        ll0 = ref.log_likelihood_per_token()
        ref.iterate(15)
        assert ref.log_likelihood_per_token() > ll0

    def test_delayed_sweep_draws_from_sweep_start_counts(self, tiny, hyper8):
        """One delayed sweep: every token's draw is the inverse-CDF draw
        of Eq 1 on the sweep-start counts, its own count included, with
        the sweep's u; the counts are rebuilt from the new topics."""
        ref = ReferenceCGS(tiny, hyper8, seed=0, exclude_self=False)
        ref.iterate(2)
        theta, phi, n_k = ref.theta.copy(), ref.phi.copy(), ref.n_k.copy()
        u = copy.deepcopy(ref.rng).random(tiny.num_tokens)
        ref.iterate(1)
        docs = tiny.token_doc.astype(np.int64)
        words = tiny.token_word.astype(np.int64)
        alpha, beta = hyper8.alpha, hyper8.beta
        p = (theta[docs] + alpha) * (phi[:, words].T + beta) / (
            n_k + beta * tiny.num_words
        )
        cdf = np.cumsum(p, axis=1)
        want = [
            min(int(np.searchsorted(c, x * c[-1], side="right")), 7)
            for c, x in zip(cdf, u)
        ]
        assert ref.topics.tolist() == want
        assert np.array_equal(ref.n_k, np.bincount(ref.topics, minlength=8))
        assert np.array_equal(ref.phi.sum(axis=1), ref.n_k)
        assert np.array_equal(ref.theta.sum(axis=1), tiny.doc_lengths)

    def test_agrees_with_culda_convergence(self, tiny):
        """The oracle and the vectorized trainer must reach similar
        likelihood plateaus on the same data (statistical equivalence
        of exact CGS and delayed-update CGS)."""
        from repro.core import CuLDA, TrainConfig
        from repro.gpusim.platform import pascal_platform

        hyper = LDAHyperParams(num_topics=8)
        ref = ReferenceCGS(tiny, hyper, seed=0)
        ref.iterate(30)
        ll_ref = ref.log_likelihood_per_token()

        r = CuLDA(tiny, pascal_platform(1),
                  TrainConfig(num_topics=8, iterations=60, seed=0)).train()
        # Delayed-update CGS plateaus slightly below exact CGS on tiny
        # data; they must land in the same neighbourhood.
        assert r.final_log_likelihood == pytest.approx(ll_ref, abs=0.4)
