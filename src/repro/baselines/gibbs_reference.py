"""Exact sequential collapsed Gibbs sampling — the correctness oracle.

This is textbook CGS (Griffiths & Steyvers): for each token in document
order, *remove* the token from the counts, sample its topic from the
exact conditional

.. math::

    p(k \\mid z_{-i}, w) \\propto
      (\\theta^{-i}_{d,k} + \\alpha)\\,
      \\frac{\\phi^{-i}_{k,v} + \\beta}{n^{-i}_k + \\beta V},

and add it back. It is O(K) per token and pure Python per token — use
it only on tiny corpora. Its roles:

1. statistical oracle: the vectorized delayed-update kernel must
   converge to the same likelihood plateau;
2. distribution oracle: with counts frozen, a single exact-CGS draw and
   the S/Q decomposed draw target the *same* multinomial (tested by
   chi-square in the test suite).

With ``exclude_self=False`` it runs the delayed-update chain the GPU
kernels implement instead: every token of a sweep draws from the
sweep-start counts, its own count included, and the counts are rebuilt
after the sweep.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.corpus import Corpus
from repro.core.likelihood import log_likelihood_per_token
from repro.core.model import LDAHyperParams, SparseTheta

__all__ = ["ReferenceCGS"]


class ReferenceCGS:
    """Sequential exact collapsed Gibbs sampler.

    Parameters
    ----------
    corpus: the input corpus (keep it tiny: this is O(T·K) per iteration
        in interpreted Python).
    hyper: LDA hyperparameters.
    seed: RNG seed.
    exclude_self: if True (default) the sampled token's own count is
        removed before computing the conditional — exact CGS. False
        runs the delayed-update chain the GPU kernels use: each sweep
        draws every token from the sweep-start counts (own count
        included) and rebuilds the counts afterwards.
    """

    def __init__(
        self,
        corpus: Corpus,
        hyper: LDAHyperParams,
        seed: int = 0,
        exclude_self: bool = True,
    ):
        self.corpus = corpus
        self.hyper = hyper
        self.exclude_self = exclude_self
        self.rng = np.random.default_rng(seed)
        self._docs = corpus.token_doc.astype(np.int64)
        self._words = corpus.token_word.astype(np.int64)
        self.topics = self.rng.integers(
            0, hyper.num_topics, size=corpus.num_tokens
        )
        self._recount()

    def _recount(self) -> None:
        """Rebuild θ, φ and n_k from the current assignments."""
        K, V, D = (
            self.hyper.num_topics, self.corpus.num_words,
            self.corpus.num_docs,
        )
        self.theta = np.zeros((D, K), dtype=np.int64)
        self.phi = np.zeros((K, V), dtype=np.int64)
        self.n_k = np.zeros(K, dtype=np.int64)
        np.add.at(self.theta, (self._docs, self.topics), 1)
        np.add.at(self.phi, (self.topics, self._words), 1)
        np.add.at(self.n_k, self.topics, 1)

    def iterate(self, num_iterations: int = 1) -> None:
        """Run full Gibbs sweeps over all tokens."""
        K = self.hyper.num_topics
        alpha, beta = self.hyper.alpha, self.hyper.beta
        V = self.corpus.num_words
        betaV = beta * V
        for _ in range(num_iterations):
            us = self.rng.random(self.corpus.num_tokens)
            drawn = np.empty_like(self.topics)
            for i in range(self.corpus.num_tokens):
                d, v, z = self._docs[i], self._words[i], self.topics[i]
                if self.exclude_self:
                    self.theta[d, z] -= 1
                    self.phi[z, v] -= 1
                    self.n_k[z] -= 1
                p = (self.theta[d] + alpha) * (self.phi[:, v] + beta) / (
                    self.n_k + betaV
                )
                cdf = np.cumsum(p)
                z_new = int(np.searchsorted(cdf, us[i] * cdf[-1], side="right"))
                z_new = min(z_new, K - 1)
                if self.exclude_self:
                    self.theta[d, z_new] += 1
                    self.phi[z_new, v] += 1
                    self.n_k[z_new] += 1
                    self.topics[i] = z_new
                else:
                    drawn[i] = z_new
            if not self.exclude_self:
                # Delayed update: the sweep read the sweep-start counts.
                self.topics = drawn
                self._recount()

    def conditional(self, token_index: int) -> np.ndarray:
        """The exact (normalized) conditional of one token, with the
        token's own count removed — the distribution oracle."""
        d, v, z = (
            self._docs[token_index],
            self._words[token_index],
            self.topics[token_index],
        )
        theta_row = self.theta[d].astype(np.float64).copy()
        phi_col = self.phi[:, v].astype(np.float64).copy()
        n_k = self.n_k.astype(np.float64).copy()
        if self.exclude_self:
            theta_row[z] -= 1
            phi_col[z] -= 1
            n_k[z] -= 1
        p = (theta_row + self.hyper.alpha) * (phi_col + self.hyper.beta) / (
            n_k + self.hyper.beta * self.corpus.num_words
        )
        return p / p.sum()

    def log_likelihood_per_token(self) -> float:
        theta_csr = self._theta_csr()
        return log_likelihood_per_token(
            theta_csr,
            self.phi,
            self.n_k,
            self.corpus.doc_lengths,
            self.hyper,
        )

    def _theta_csr(self) -> SparseTheta:
        """CSR view of the dense θ."""
        D, K = self.theta.shape
        rows, cols = np.nonzero(self.theta)
        indptr = np.zeros(D + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return SparseTheta(
            indptr, cols.astype(np.int32), self.theta[rows, cols].astype(np.int32), K
        )
