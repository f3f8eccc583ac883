"""Fold-in inference: topic distributions for unseen documents.

The paper trains θ and φ; the standard downstream use of the model
(and the usual held-out evaluation) is *fold-in*: freeze φ from
training and Gibbs-sample only the new documents' topic assignments,

.. math::

    p(k) \\propto (\\theta^{new}_{d,k} + \\alpha)\\,
                  \\frac{\\phi_{k,v} + \\beta}{n_k + \\beta V},

then estimate each document's topic mixture and the held-out
likelihood. The sampler reuses the training kernel
(:func:`repro.core.kernels.gibbs_sample_chunk`) with φ frozen — the
same vectorized path, so inference inherits the kernels' tested
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels import (
    KernelConfig,
    WordTables,
    gibbs_sample_chunk,
    recount_theta,
    word_tables,
)
from repro.core.model import LDAHyperParams, SparseTheta
from repro.corpus.corpus import Corpus

__all__ = [
    "InferenceResult",
    "infer_documents",
    "foldin_tables",
    "held_out_log_likelihood",
]


@dataclass(frozen=True)
class InferenceResult:
    """Per-document topic mixtures for a folded-in corpus.

    Attributes
    ----------
    theta: CSR counts of the inferred assignments (num_docs × K).
    doc_topic: row-normalized smoothed mixtures, ``float64[num_docs, K]``:
        ``(θ_dk + α) / (L_d + K·α)``.
    log_likelihood_per_token: held-out predictive score (see
        :func:`held_out_log_likelihood`).
    iterations: fold-in sweeps performed.
    """

    theta: SparseTheta
    doc_topic: np.ndarray
    log_likelihood_per_token: float
    iterations: int


def infer_documents(
    corpus: Corpus,
    phi: np.ndarray,
    hyper: LDAHyperParams,
    iterations: int = 20,
    burn_in: int | None = None,
    seed: int = 0,
    config: KernelConfig | None = None,
    tables: WordTables | None = None,
) -> InferenceResult:
    """Fold *corpus* into a trained model.

    Parameters
    ----------
    corpus: unseen documents (word ids must index the training φ's
        columns).
    phi: trained ``int[K, V]`` topic–word counts (frozen).
    hyper: the training hyperparameters.
    iterations: Gibbs sweeps over the new documents.
    burn_in: sweeps before θ starts being averaged (default: half).
    seed: RNG seed.
    tables: :func:`foldin_tables` of *phi*. Built once per call when
        not given; a caller that folds many corpora into one φ builds
        them once and passes them here. The result is the same bits
        either way.

    Returns
    -------
    :class:`InferenceResult` with the averaged, smoothed θ estimate.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    phi = np.asarray(phi)
    if phi.ndim != 2:
        raise ValueError(
            f"phi must be a 2-D (num_topics, vocab) array, got shape "
            f"{phi.shape}"
        )
    K = hyper.num_topics
    if phi.shape[0] != K:
        raise ValueError(f"phi has {phi.shape[0]} topics, hyper says {K}")
    if corpus.num_words > phi.shape[1]:
        raise ValueError(
            f"corpus vocabulary ({corpus.num_words}) exceeds phi columns "
            f"({phi.shape[1]}); map unseen words before inference"
        )
    _check_word_ids(corpus, phi.shape[1])
    config = config or KernelConfig(compressed=False)
    burn_in = iterations // 2 if burn_in is None else burn_in
    if not 0 <= burn_in < iterations:
        raise ValueError("burn_in must lie in [0, iterations)")

    # Frozen statistics: p* and Q are built once and read by every sweep
    # and by the held-out likelihood.
    if tables is None:
        tables = foldin_tables(phi, hyper)
    elif tables.pstar.shape != phi.shape:
        raise ValueError(
            f"tables cover {tables.pstar.shape} (topics, words), phi is "
            f"{phi.shape}"
        )
    # Pad the corpus vocabulary to φ's columns if phi is wider.
    V = phi.shape[1]
    if corpus.num_words < V:
        corpus = Corpus(
            corpus.token_word, corpus.doc_indptr, V, name=corpus.name
        )

    chunk = corpus.to_chunk()
    rng = np.random.default_rng(seed)
    topics = rng.integers(0, K, size=chunk.num_tokens).astype(np.int32)
    theta = recount_theta(chunk, topics, K, compressed=False)

    D = chunk.num_docs
    theta_accum = np.zeros((D, K), dtype=np.float64)
    samples = 0
    for it in range(iterations):
        topics, _ = gibbs_sample_chunk(
            chunk, topics, theta, phi, None, hyper, rng, config, tables
        )
        theta = recount_theta(chunk, topics, K, compressed=False)
        if it >= burn_in:
            theta_accum += theta.to_dense()
            samples += 1

    mean_theta = theta_accum / max(samples, 1)
    lengths = chunk.doc_lengths.astype(np.float64)
    doc_topic = (mean_theta + hyper.alpha) / (
        lengths[:, None] + K * hyper.alpha
    )
    ll = _predictive_log_likelihood(corpus, doc_topic, tables.pstar)
    return InferenceResult(
        theta=theta,
        doc_topic=doc_topic,
        log_likelihood_per_token=ll,
        iterations=iterations,
    )


def foldin_tables(phi: np.ndarray, hyper: LDAHyperParams) -> WordTables:
    """The sampler tables :func:`infer_documents` reads for a frozen *phi*:
    :func:`~repro.core.kernels.word_tables` of φ (as int64 counts) and
    its row sums n_k."""
    phi64 = np.asarray(phi).astype(np.int64)
    return word_tables(phi64, phi64.sum(axis=1), hyper)


def _check_word_ids(corpus: Corpus, vocab: int) -> None:
    """Reject word ids that would index past φ's columns.

    ``corpus.num_words`` is caller-declared, so a corpus built with an
    understated vocabulary can still carry out-of-range ids; without
    this check they surface as an opaque ``IndexError`` deep inside the
    sampling kernel (or, worse, as silently wrong einsum gathers).
    """
    if corpus.num_tokens == 0:
        return
    widest = int(corpus.token_word.max())
    if widest >= vocab:
        raise ValueError(
            f"corpus contains word id {widest} but phi has only {vocab} "
            f"columns; map unseen words before inference"
        )


def held_out_log_likelihood(
    corpus: Corpus,
    doc_topic: np.ndarray,
    phi: np.ndarray,
    n_k: np.ndarray,
    hyper: LDAHyperParams,
) -> float:
    """Predictive log-likelihood per token of *corpus* under the model.

    Uses the standard fold-in estimate
    ``Σ_i log Σ_k p(k|d_i) p(w_i|k)`` with the smoothed word
    distribution ``(φ_kv + β)/(n_k + βV)``.
    """
    phi = np.asarray(phi)
    if phi.ndim != 2:
        raise ValueError(
            f"phi must be a 2-D (num_topics, vocab) array, got shape "
            f"{phi.shape}"
        )
    _check_word_ids(corpus, phi.shape[1])
    beta, V = hyper.beta, phi.shape[1]
    word_dist = (phi + beta) / (n_k + beta * V)[:, None]  # (K, V)
    return _predictive_log_likelihood(corpus, doc_topic, word_dist)


def _predictive_log_likelihood(
    corpus: Corpus, doc_topic: np.ndarray, word_dist: np.ndarray
) -> float:
    """``Σ_i log Σ_k doc_topic[d_i, k] · word_dist[k, w_i]`` per token.

    *word_dist* is the smoothed ``(K, V)`` word distribution, which is
    p* itself; word ids are checked by the callers.
    """
    if corpus.num_tokens == 0:
        raise ValueError("empty corpus")
    docs = corpus.token_doc.astype(np.int64)
    words = corpus.token_word.astype(np.int64)
    # p(w_i) = θ row · φ column, batched in slabs to bound memory.
    total = 0.0
    step = 1 << 18
    for lo in range(0, corpus.num_tokens, step):
        d = docs[lo : lo + step]
        w = words[lo : lo + step]
        p = np.einsum("ik,ki->i", doc_topic[d], word_dist[:, w])
        total += float(np.log(np.maximum(p, 1e-300)).sum())
    return total / corpus.num_tokens
