"""SCVB0 — stochastic collapsed variational Bayes (Foulds et al., KDD'13).

The paper cites SCVB as the other family of LDA training algorithms
("various training algorithms have been proposed [13, 32]", §1). Where
CGS draws hard topic assignments, SCVB0 keeps *expected* counts and
updates them with deterministic responsibilities

.. math::

    \\gamma_k \\propto (N^\\Theta_{d,k} + \\alpha)\\,
                      \\frac{N^\\Phi_{k,v} + \\beta}{N^Z_k + \\beta V}

followed by stochastic-approximation steps with Robbins–Monro step
sizes. It typically converges in fewer passes than CGS but does more
arithmetic per token — a useful statistical comparator for Fig 8-style
studies. This implementation uses one minibatch per document (the
formulation of the original paper's Algorithm 1), fully vectorized
within each document.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import LDAHyperParams
from repro.corpus.corpus import Corpus
from repro.engine.algorithm import Algorithm, IterationOutcome
from repro.engine.loop import LoopConfig, TrainingLoop
from repro.engine.results import TrainResult
from repro.engine.state import RunState

__all__ = ["SCVB0"]


class SCVB0(Algorithm):
    """Stochastic collapsed variational Bayes zero for LDA.

    Parameters
    ----------
    corpus: input corpus.
    hyper: hyperparameters (shared with the CGS trainers).
    seed: RNG seed (initialization and document order).
    tau / kappa: Robbins–Monro schedule ρ_t = (t + τ)^(−κ) for the
        global (φ) updates; the per-document schedule is fixed-length.
    doc_burn_in: clamped-θ passes over each document before its
        statistics are committed.
    """

    name = "scvb0"

    def __init__(
        self,
        corpus: Corpus,
        hyper: LDAHyperParams,
        seed: int = 0,
        tau: float = 10.0,
        kappa: float = 0.7,
        doc_burn_in: int = 2,
        callbacks=None,
        registry=None,
    ):
        self._telemetry_init(callbacks, registry)
        if not 0.5 < kappa <= 1.0:
            raise ValueError("kappa must lie in (0.5, 1] for convergence")
        if tau <= 0 or doc_burn_in < 0:
            raise ValueError("tau must be positive, doc_burn_in >= 0")
        self.corpus = corpus
        self.hyper = hyper
        self.tau = tau
        self.kappa = kappa
        self.doc_burn_in = doc_burn_in
        self.rng = np.random.default_rng(seed)
        K, V, D = hyper.num_topics, corpus.num_words, corpus.num_docs
        # Expected counts, randomly initialized to match the totals.
        init = self.rng.random((K, V))
        self.n_phi = init / init.sum() * corpus.num_tokens
        self.n_z = self.n_phi.sum(axis=1)
        init_d = self.rng.random((D, K))
        self.n_theta = (
            init_d / init_d.sum(axis=1, keepdims=True)
            * corpus.doc_lengths[:, None]
        )
        self._t = 0  # global update counter

    # ------------------------------------------------------------------
    def _responsibilities(self, d: int, words: np.ndarray) -> np.ndarray:
        """γ for every token of document *d* (tokens × K)."""
        alpha, beta = self.hyper.alpha, self.hyper.beta
        V = self.corpus.num_words
        gamma = (self.n_theta[d] + alpha) * (
            (self.n_phi[:, words].T + beta) / (self.n_z + beta * V)
        )
        gamma /= gamma.sum(axis=1, keepdims=True)
        return gamma

    def iterate(self, num_iterations: int = 1) -> None:
        """Full passes over the corpus (one minibatch per document)."""
        C = self.corpus
        T = C.num_tokens
        for _ in range(num_iterations):
            order = self.rng.permutation(C.num_docs)
            for d in order:
                words = C.document(d).astype(np.int64)
                L = words.size
                if L == 0:
                    continue
                # Clamped burn-in on the document's θ.
                for b in range(self.doc_burn_in):
                    gamma = self._responsibilities(d, words)
                    rho_d = 1.0 / (b + 2.0)
                    self.n_theta[d] = (1 - rho_d) * self.n_theta[d] + (
                        rho_d * L * gamma.mean(axis=0)
                    )
                gamma = self._responsibilities(d, words)
                self.n_theta[d] = L * gamma.mean(axis=0)

                # Global stochastic update.
                self._t += 1
                rho = (self._t + self.tau) ** (-self.kappa)
                hat_phi = np.zeros_like(self.n_phi)
                np.add.at(hat_phi.T, words, gamma)
                hat_phi *= T / L
                self.n_phi = (1 - rho) * self.n_phi + rho * hat_phi
                self.n_z = self.n_phi.sum(axis=1)

    def log_likelihood_per_token(self) -> float:
        """Predictive score Σ log Σ_k θ̂_dk φ̂_kv / T with the current
        expected counts (comparable across iterations)."""
        alpha, beta = self.hyper.alpha, self.hyper.beta
        K, V = self.hyper.num_topics, self.corpus.num_words
        theta_hat = (self.n_theta + alpha) / (
            self.n_theta.sum(axis=1, keepdims=True) + K * alpha
        )
        phi_hat = (self.n_phi + beta) / (self.n_z + beta * V)[:, None]
        docs = self.corpus.token_doc.astype(np.int64)
        words = self.corpus.token_word.astype(np.int64)
        total = 0.0
        step = 1 << 18
        for lo in range(0, self.corpus.num_tokens, step):
            d = docs[lo : lo + step]
            w = words[lo : lo + step]
            p = np.einsum("ik,ki->i", theta_hat[d], phi_hat[:, w])
            total += float(np.log(np.maximum(p, 1e-300)).sum())
        return total / self.corpus.num_tokens

    def train(
        self,
        iterations: int = 20,
        likelihood_every: int = 0,
        callbacks=None,
        *,
        save_every: int = 0,
        checkpoint_path=None,
        resume=None,
        vocabulary=None,
    ) -> TrainResult:
        loop = TrainingLoop(
            self,
            LoopConfig(
                iterations=iterations,
                likelihood_every=likelihood_every,
                save_every=save_every,
                checkpoint_path=checkpoint_path,
                vocabulary=vocabulary,
            ),
            callbacks=callbacks,
            resume=resume,
        )
        return loop.run()

    # ------------------------------------------------------------------
    # Algorithm strategy surface
    # ------------------------------------------------------------------
    def init_state(self, resume: RunState | None = None) -> RunState:
        if resume is not None:
            if resume.phi is None or resume.phi.shape != self.n_phi.shape:
                raise ValueError("checkpoint does not match this corpus")
            self.n_phi = resume.phi.astype(np.float64, copy=False)
            self.n_theta = resume.extras["n_theta"].astype(
                np.float64, copy=False
            )
            self.n_z = self.n_phi.sum(axis=1)
            self._t = int(resume.extras["t"][0])
            self.rng = resume.rngs[0]
        state = resume if resume is not None else RunState(algo=self.name)
        self.capture_state(state)
        return state

    def run_iteration(self, state: RunState) -> IterationOutcome:
        self.iterate(1)
        # Untimed: SCVB0 carries no CPU cost model, so the outcome omits
        # sim_seconds and the iteration event stays timing-free.
        return IterationOutcome()

    def log_likelihood(self, state: RunState) -> float:
        return self.log_likelihood_per_token()

    def capture_state(self, state: RunState) -> None:
        state.phi = self.n_phi
        state.topics = []
        state.thetas = None
        state.rngs = [self.rng]
        state.extras = {
            "n_theta": self.n_theta,
            "t": np.array([self._t], dtype=np.int64),
        }

    def finalize(self, state: RunState, wall_seconds: float) -> TrainResult:
        return TrainResult(
            corpus_name=self.corpus.name,
            num_tokens=self.corpus.num_tokens,
            iterations=list(state.history),
            wall_seconds=wall_seconds,
            phi=self.n_phi.copy(),
            hyper=self.hyper,
            n_phi=self.n_phi.copy(),
            n_theta=self.n_theta.copy(),
            algo=self.name,
        )
