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
semantics. A batch of corpora (a serving batch) folds in with one
sampler call and one θ recount per sweep, each corpus a document group
of the call, so each gets exactly the bits of its own call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.kernels import (
    KernelConfig,
    WordTables,
    gibbs_sample_chunk,
    recount_theta,
    word_tables,
)
from repro.core.model import LDAHyperParams, SparseTheta
from repro.corpus.corpus import Corpus, TokenChunk

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
    corpus: Corpus | Sequence[Corpus],
    phi: np.ndarray,
    hyper: LDAHyperParams,
    iterations: int | Sequence[int] = 20,
    burn_in: int | None = None,
    seed: int | Sequence[int] = 0,
    config: KernelConfig | None = None,
    tables: WordTables | None = None,
) -> InferenceResult | list[InferenceResult]:
    """Fold *corpus* into a trained model.

    Parameters
    ----------
    corpus: unseen documents (word ids must index the training φ's
        columns), or a batch: a sequence of corpora, each folded in
        exactly as its own call would fold it. A batch returns one
        result per corpus, in order, and runs one sampler call and one
        θ recount per sweep over the corpora still sweeping.
    phi: trained ``int[K, V]`` topic–word counts (frozen).
    hyper: the training hyperparameters.
    iterations: Gibbs sweeps over the new documents; for a batch, one
        count per corpus or one for all.
    burn_in: sweeps before θ starts being averaged (default: half of
        each corpus's sweeps).
    seed: RNG seed; for a batch, one per corpus or one for all.
    tables: :func:`foldin_tables` of *phi*. Built once per call when
        not given; a caller that folds many corpora into one φ builds
        them once and passes them here. The result is the same bits
        either way.

    Returns
    -------
    :class:`InferenceResult` with the averaged, smoothed θ estimate
    (a list of them for a batch).
    """
    single = isinstance(corpus, Corpus)
    batch = [corpus] if single else list(corpus)
    G = len(batch)
    if not G:
        raise ValueError("no corpora to fold in")
    sweeps = _per_corpus(iterations, G, "iterations")
    seeds = _per_corpus(seed, G, "seed")
    if min(sweeps) < 1:
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
    for c in batch:
        if c.num_words > phi.shape[1]:
            raise ValueError(
                f"corpus vocabulary ({c.num_words}) exceeds phi columns "
                f"({phi.shape[1]}); map unseen words before inference"
            )
        _check_word_ids(c, phi.shape[1])
    config = config or KernelConfig(compressed=False)
    burn_ins = [n // 2 if burn_in is None else burn_in for n in sweeps]
    if any(not 0 <= b < n for b, n in zip(burn_ins, sweeps)):
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

    # The batch as document groups of one corpus over φ's columns, the
    # longest fold-ins first: the groups still sweeping are a prefix.
    order = sorted(range(G), key=lambda g: -sweeps[g])
    group = [batch[g] for g in order]
    sweeps, burn_ins = [sweeps[g] for g in order], [burn_ins[g] for g in order]
    rngs = [np.random.default_rng(seeds[g]) for g in order]
    docs = np.zeros(G + 1, dtype=np.int64)     # group g's documents
    np.cumsum([c.num_docs for c in group], out=docs[1:])
    indptr = np.zeros(docs[-1] + 1, dtype=np.int64)
    np.cumsum(np.concatenate([c.doc_lengths for c in group]), out=indptr[1:])
    combined = Corpus(
        np.concatenate([c.token_word for c in group]), indptr, phi.shape[1]
    )
    chunk = combined.to_chunk()
    # Each group's initial topics in its own chunk order, which is its
    # tokens' order in the combined chunk (the word sort is stable).
    token_group = np.searchsorted(docs, chunk.token_doc, side="right") - 1
    topics = np.empty(chunk.num_tokens, dtype=np.int32)
    topics[np.argsort(token_group, kind="stable")] = np.concatenate([
        rng.integers(0, K, size=c.num_tokens).astype(np.int32)
        for rng, c in zip(rngs, group)
    ])
    theta = recount_theta(chunk, topics, K, compressed=False)

    doc_burn_in = np.repeat(burn_ins, np.diff(docs))
    theta_accum = np.zeros((combined.num_docs, K), dtype=np.float64)
    final = [theta] * G                    # the θ each group ends on
    live = G
    for it in range(sweeps[0]):
        if sweeps[live - 1] == it:       # drop the groups that are done
            live = sum(n > it for n in sweeps)
            keep = chunk.token_doc < docs[live]
            chunk = TokenChunk.from_corpus_range(combined, 0, int(docs[live]))
            topics, theta = topics[keep], theta.rows(0, int(docs[live]))
        topics, _ = gibbs_sample_chunk(
            chunk, topics, theta, phi, None, hyper, rngs[:live], config,
            tables, docs[: live + 1],
        )
        theta = recount_theta(chunk, topics, K, compressed=False)
        final[:live] = [theta] * live
        averaged = doc_burn_in[: docs[live]] <= it
        theta_accum[: docs[live]][averaged] += theta.to_dense()[averaged]

    samples = np.repeat(np.subtract(sweeps, burn_ins), np.diff(docs))
    mean_theta = theta_accum / samples[:, None]
    doc_topic = (mean_theta + hyper.alpha) / (
        combined.doc_lengths.astype(np.float64)[:, None] + K * hyper.alpha
    )
    results: list[InferenceResult] = [None] * G  # type: ignore[list-item]
    for i, g in enumerate(order):
        rows = doc_topic[docs[i] : docs[i + 1]]
        results[g] = InferenceResult(
            theta=final[i].rows(int(docs[i]), int(docs[i + 1])),
            doc_topic=rows,
            log_likelihood_per_token=_predictive_log_likelihood(
                group[i], rows, tables.pstar
            ),
            iterations=sweeps[i],
        )
    return results[0] if single else results


def _per_corpus(value, count: int, name: str) -> list[int]:
    """*value* as one int per corpus of a batch of *count*."""
    if isinstance(value, (int, np.integer)):
        return [int(value)] * count
    values = [int(v) for v in value]
    if len(values) != count:
        raise ValueError(f"{name} has {len(values)} entries for {count} corpora")
    return values


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
