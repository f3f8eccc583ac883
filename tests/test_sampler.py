"""Tests for the sparsity-aware S/Q sampler math (paper Eq 1, 6-8)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chisquare

from repro.core.model import LDAHyperParams, LDAState
from repro.core.sampler import (
    compute_pstar,
    decomposed_masses,
    dense_conditional,
    sample_token_dense,
    sample_token_sq,
)


@pytest.fixture
def toy_state():
    """A small frozen model with known counts."""
    rng = np.random.default_rng(0)
    K, V = 12, 30
    phi = rng.integers(0, 20, size=(K, V)).astype(np.int64)
    n_k = phi.sum(axis=1)
    theta_topics = np.array([1, 4, 7])
    theta_counts = np.array([3, 1, 5])
    return K, V, phi, n_k, theta_topics, theta_counts


class TestPstar:
    def test_matches_eq8(self, toy_state):
        K, V, phi, n_k, _, _ = toy_state
        beta = 0.01
        v = 3
        ps = compute_pstar(phi[:, v], n_k, beta, V)
        expected = (phi[:, v] + beta) / (n_k + beta * V)
        assert np.allclose(ps, expected)

    def test_positive(self, toy_state):
        K, V, phi, n_k, _, _ = toy_state
        ps = compute_pstar(phi[:, 0], n_k, 0.01, V)
        assert np.all(ps > 0)


class TestDecomposition:
    def test_sq_decomposition_equals_dense(self, toy_state):
        """Eq 6: p1(k) + p2(k) must equal the Eq 1 conditional."""
        K, V, phi, n_k, t_topics, t_counts = toy_state
        alpha, beta = 0.5, 0.01
        v = 7
        ps = compute_pstar(phi[:, v], n_k, beta, V)
        theta_dense = np.zeros(K)
        theta_dense[t_topics] = t_counts
        dense = dense_conditional(theta_dense, ps, alpha)
        # Reconstruct from the decomposition.
        p1 = np.zeros(K)
        p1[t_topics] = t_counts * ps[t_topics]
        p2 = alpha * ps
        assert np.allclose(p1 + p2, dense)

    def test_masses(self, toy_state):
        K, V, phi, n_k, t_topics, t_counts = toy_state
        alpha, beta = 0.5, 0.01
        ps = compute_pstar(phi[:, 2], n_k, beta, V)
        S, Q, vals = decomposed_masses(t_topics, t_counts, ps, alpha)
        assert S == pytest.approx((t_counts * ps[t_topics]).sum())
        assert Q == pytest.approx(alpha * ps.sum())
        assert vals.shape == t_topics.shape

    def test_empty_row_gives_zero_s(self, toy_state):
        K, V, phi, n_k, _, _ = toy_state
        ps = compute_pstar(phi[:, 0], n_k, 0.01, V)
        S, Q, vals = decomposed_masses(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), ps, 0.5
        )
        assert S == 0.0 and Q > 0.0


class TestScalarSamplers:
    def test_sq_and_dense_same_distribution(self, toy_state):
        """The sparse S/Q draw and the dense O(K) draw target the same
        multinomial: chi-square over many draws."""
        K, V, phi, n_k, t_topics, t_counts = toy_state
        alpha, beta = 0.5, 0.01
        v = 5
        ps = compute_pstar(phi[:, v], n_k, beta, V)
        theta_dense = np.zeros(K)
        theta_dense[t_topics] = t_counts
        p = dense_conditional(theta_dense, ps, alpha)
        p = p / p.sum()
        rng = np.random.default_rng(99)
        n = 30_000
        us = rng.random(n)
        draws = np.fromiter(
            (sample_token_sq(t_topics, t_counts, ps, alpha, u) for u in us),
            dtype=np.int64,
            count=n,
        )
        observed = np.bincount(draws, minlength=K)
        _, pvalue = chisquare(observed, p * n)
        assert pvalue > 1e-4

    def test_dense_draws_match_exact_inversion(self, toy_state):
        K, V, phi, n_k, t_topics, t_counts = toy_state
        alpha, beta = 0.5, 0.01
        ps = compute_pstar(phi[:, 1], n_k, beta, V)
        theta_dense = np.zeros(K)
        theta_dense[t_topics] = t_counts
        p = dense_conditional(theta_dense, ps, alpha)
        cdf = np.cumsum(p)
        for u in (0.0, 0.1, 0.5, 0.9, 0.999):
            k = sample_token_dense(theta_dense, ps, alpha, u)
            expected = int(np.searchsorted(cdf, u * cdf[-1], side="right"))
            assert k == min(expected, K - 1)

    def test_sq_rejects_bad_u(self, toy_state):
        K, V, phi, n_k, t_topics, t_counts = toy_state
        ps = compute_pstar(phi[:, 0], n_k, 0.01, V)
        with pytest.raises(ValueError):
            sample_token_sq(t_topics, t_counts, ps, 0.5, 1.5)

    def test_sq_with_empty_theta_row_uses_p2(self, toy_state):
        """A document with no counts (hypothetical) must fall through to
        the dense branch."""
        K, V, phi, n_k, _, _ = toy_state
        ps = compute_pstar(phi[:, 0], n_k, 0.01, V)
        k = sample_token_sq(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            ps, 0.5, 0.3,
        )
        assert 0 <= k < K

    def test_sq_matches_reference_conditional(self, small_corpus, hyper8):
        """Against the live-state conditional: with frozen counts, the
        S/Q draw of a specific token follows Eq 1 of the paper."""
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=2)
        v = int(chunk.token_word[0])
        d = int(chunk.token_doc[0])
        ps = compute_pstar(
            state.phi[:, v].astype(np.float64), state.n_k, hyper8.beta,
            small_corpus.num_words,
        )
        t_topics, t_counts = state.theta.row(d)
        theta_dense = np.zeros(hyper8.num_topics)
        theta_dense[t_topics.astype(np.int64)] = t_counts
        p = dense_conditional(theta_dense, ps, hyper8.alpha)
        p /= p.sum()
        rng = np.random.default_rng(1)
        n = 20_000
        draws = np.fromiter(
            (
                sample_token_sq(
                    t_topics.astype(np.int64), t_counts, ps, hyper8.alpha, u
                )
                for u in rng.random(n)
            ),
            dtype=np.int64,
            count=n,
        )
        observed = np.bincount(draws, minlength=hyper8.num_topics)
        mask = p * n >= 5  # chi-square validity
        _, pvalue = chisquare(
            observed[mask], p[mask] / p[mask].sum() * observed[mask].sum()
        )
        assert pvalue > 1e-4
