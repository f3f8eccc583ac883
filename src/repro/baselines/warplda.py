"""WarpLDA — the paper's CPU comparator (Chen et al., VLDB 2016).

WarpLDA reformulates CGS as Monte-Carlo EM with Metropolis–Hastings
proposals, reducing per-token cost from O(K_d) to O(1): counts are
frozen for an iteration (delayed update), and each token's topic is
refreshed by two MH phases —

- **document phase**: propose from q_d(k) ∝ θ_{d,k} + α. Drawing from
  q_d is O(1): with probability αK/(L_d + αK) pick a uniform topic,
  otherwise copy the topic of a uniformly chosen token of the same
  document. The θ terms cancel in the acceptance ratio, leaving
  ``π = [(φ_{k',v}+β)(n_k+βV)] / [(φ_{k,v}+β)(n_{k'}+βV)]``.
- **word phase**: propose from q_w(k) ∝ φ_{k,v} + β the same way
  (uniform with probability βV/(F_v + βV), else copy a random token of
  the word); the φ terms cancel, leaving
  ``π = (θ_{d,k'}+α) / (θ_{d,k}+α)``.

Both phases vectorize over all tokens because the counts are frozen.
The implementation is a faithful working sampler — it converges on real
data — plus a CPU cost model calibrated to the throughput the paper
measured for WarpLDA on its Volta-platform host (Table 4: 108.0 M
tokens/s on NYTimes, 93.5 M on PubMed).

Iteration control lives in :mod:`repro.engine`; this module implements
the :class:`~repro.engine.algorithm.Algorithm` surface for the MCEM
sampler, which buys it likelihood cadences, callbacks, and
checkpoint/resume for free.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.corpus import Corpus
from repro.core.likelihood import log_likelihood_per_token
from repro.core.model import LDAHyperParams, SparseTheta
from repro.engine.algorithm import Algorithm, IterationOutcome
from repro.engine.results import TrainResult
from repro.engine.state import RunState
from repro.gpusim.costmodel import KernelCost
from repro.gpusim.device import DeviceSpec
from repro.gpusim.platform import CPU_E5_2690V4

__all__ = ["WarpLDA", "warplda_iteration_cost"]

#: MH proposal/acceptance rounds per phase per iteration.
MH_STEPS = 2


def warplda_iteration_cost(
    num_tokens: int, num_topics: int, num_words: int, avg_doc_len: float
) -> KernelCost:
    """Memory traffic of one WarpLDA iteration on a CPU.

    WarpLDA's design point is O(1) bytes per token, but the accesses are
    cache-unfriendly gathers: per MH step a token reads its own topic,
    one proposal topic (a random other token's), two φ entries, and two
    n_k entries, then writes its topic; the per-iteration count rebuild
    streams the token arrays. Calibrated against the paper's Table 4
    (WarpLDA on the Volta host: 108.0 M tokens/s on NYTimes, 93.5 M on
    PubMed), the effective traffic is ≈ 312 B/token plus a short-document
    penalty (the doc-phase loses cache reuse when documents are short):
    ``bytes/token = 312 + 6500 / avg_doc_len``.
    """
    bytes_per_token = 312.0 + 6500.0 / max(avg_doc_len, 1.0)
    bytes_total = num_tokens * bytes_per_token
    return KernelCost(
        bytes_read=0.8 * bytes_total,
        bytes_written=0.2 * bytes_total,
        flops=num_tokens * 2 * MH_STEPS * 12.0,
        num_blocks=1,
    )


class WarpLDA(Algorithm):
    """The MCEM/MH CPU trainer.

    Parameters
    ----------
    corpus: input corpus.
    hyper: hyperparameters.
    cpu_spec: host processor model (defaults to the paper's E5-2690 v4).
    seed: RNG seed.
    callbacks / registry: telemetry hooks and metrics sink (see
        ``docs/OBSERVABILITY.md``); the same protocol CuLDA speaks.
    """

    name = "warplda"
    default_iterations = 100

    def __init__(
        self,
        corpus: Corpus,
        hyper: LDAHyperParams,
        cpu_spec: DeviceSpec = CPU_E5_2690V4,
        seed: int = 0,
        callbacks=None,
        registry=None,
    ):
        self._telemetry_init(callbacks, registry)
        self.corpus = corpus
        self.hyper = hyper
        self.cpu_spec = cpu_spec
        self.rng = np.random.default_rng(seed)
        K = hyper.num_topics
        self.topics = self.rng.integers(0, K, size=corpus.num_tokens, dtype=np.int64)
        self._docs = corpus.token_doc.astype(np.int64)
        self._words = corpus.token_word.astype(np.int64)
        self._doc_indptr = corpus.doc_indptr
        # Word-grouped token positions (for the word-phase proposal).
        order = np.argsort(self._words, kind="stable")
        self._word_order = order
        wc = np.bincount(self._words, minlength=corpus.num_words)
        self._word_indptr = np.zeros(corpus.num_words + 1, dtype=np.int64)
        np.cumsum(wc, out=self._word_indptr[1:])
        self._rebuild_counts()

    # ------------------------------------------------------------------
    def _rebuild_counts(self) -> None:
        """MCEM delayed update: freeze counts for the next iteration."""
        K, V, D = self.hyper.num_topics, self.corpus.num_words, self.corpus.num_docs
        self.theta = np.zeros((D, K), dtype=np.int64)
        self.phi = np.zeros((K, V), dtype=np.int64)
        np.add.at(self.theta, (self._docs, self.topics), 1)
        np.add.at(self.phi, (self.topics, self._words), 1)
        self.n_k = self.phi.sum(axis=1)

    def _doc_phase(self) -> None:
        """MH with the document proposal (θ cancels in the ratio)."""
        T = self.corpus.num_tokens
        alpha, beta = self.hyper.alpha, self.hyper.beta
        K = self.hyper.num_topics
        betaV = beta * self.corpus.num_words
        L = self.corpus.doc_lengths[self._docs].astype(np.float64)
        p_uniform = alpha * K / (L + alpha * K)
        for _ in range(MH_STEPS):
            uniform = self.rng.random(T) < p_uniform
            # "Copy a random token of my document" — O(1) draw from q_d.
            pos = self._doc_indptr[self._docs] + (
                self.rng.random(T) * L
            ).astype(np.int64)
            proposal = np.where(
                uniform,
                self.rng.integers(0, K, size=T),
                self.topics[np.minimum(pos, self._doc_indptr[self._docs + 1] - 1)],
            )
            z = self.topics
            num = (self.phi[proposal, self._words] + beta) * (self.n_k[z] + betaV)
            den = (self.phi[z, self._words] + beta) * (self.n_k[proposal] + betaV)
            accept = self.rng.random(T) * den < num
            self.topics = np.where(accept, proposal, z)

    def _word_phase(self) -> None:
        """MH with the word proposal (φ cancels in the ratio)."""
        T = self.corpus.num_tokens
        alpha, beta = self.hyper.alpha, self.hyper.beta
        K = self.hyper.num_topics
        F = np.diff(self._word_indptr)[self._words].astype(np.float64)
        p_uniform = beta * self.corpus.num_words / (F + beta * self.corpus.num_words)
        for _ in range(MH_STEPS):
            uniform = self.rng.random(T) < p_uniform
            pos = self._word_indptr[self._words] + (
                self.rng.random(T) * F
            ).astype(np.int64)
            pos = np.minimum(pos, self._word_indptr[self._words + 1] - 1)
            proposal = np.where(
                uniform,
                self.rng.integers(0, K, size=T),
                self.topics[self._word_order[pos]],
            )
            z = self.topics
            num = self.theta[self._docs, proposal] + alpha
            den = self.theta[self._docs, z] + alpha
            accept = self.rng.random(T) * den < num
            self.topics = np.where(accept, proposal, z)

    # ------------------------------------------------------------------
    # Algorithm strategy surface
    # ------------------------------------------------------------------
    def init_state(self, resume: RunState | None = None) -> RunState:
        from repro.gpusim.costmodel import CostModel

        cost = warplda_iteration_cost(
            self.corpus.num_tokens,
            self.hyper.num_topics,
            self.corpus.num_words,
            self.corpus.num_tokens / max(1, self.corpus.num_docs),
        )
        self._dt = CostModel().kernel_seconds(self.cpu_spec, cost)
        if resume is not None:
            topics = resume.topics[0]
            if topics.size != self.corpus.num_tokens:
                raise ValueError("checkpoint does not match this corpus")
            self.topics = topics.astype(np.int64, copy=False)
            self.rng = resume.rngs[0]
            self._rebuild_counts()
        state = resume if resume is not None else RunState(algo=self.name)
        self.capture_state(state)
        return state

    def start_event(self, state: RunState) -> dict:
        return {"machine": self.cpu_spec.name}

    def run_iteration(self, state: RunState) -> IterationOutcome:
        self._doc_phase()
        self._word_phase()
        self._rebuild_counts()
        return IterationOutcome(
            sim_seconds=self._dt,
            tokens_per_sec=self.corpus.num_tokens / self._dt,
        )

    def log_likelihood(self, state: RunState) -> float:
        return self.log_likelihood_per_token()

    def capture_state(self, state: RunState) -> None:
        state.phi = self.phi
        state.topics = [self.topics]
        state.thetas = None
        state.rngs = [self.rng]

    def finalize(self, state: RunState, wall_seconds: float) -> TrainResult:
        return TrainResult(
            corpus_name=self.corpus.name,
            cpu_name=self.cpu_spec.name,
            num_tokens=self.corpus.num_tokens,
            iterations=list(state.history),
            total_sim_seconds=state.sim_seconds,
            wall_seconds=wall_seconds,
            phi=self.phi.astype(np.int32),
            theta=SparseTheta.from_dense(self.theta, self.hyper.num_topics),
            hyper=self.hyper,
            algo=self.name,
        )

    # ------------------------------------------------------------------
    def log_likelihood_per_token(self) -> float:
        theta_csr = SparseTheta.from_dense(self.theta, self.hyper.num_topics)
        return log_likelihood_per_token(
            theta_csr, self.phi, self.n_k, self.corpus.doc_lengths, self.hyper
        )
