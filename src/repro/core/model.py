"""LDA model state: hyperparameters, θ (CSR), φ (dense), and invariants.

The paper's data layout (§6.1.3, §6.2):

- the document–topic matrix θ is sparse (DocLen_d ≪ K bounds its row
  population, Eq 5) and stored in CSR with 16-bit topic column indices
  when compression is on (K < 2¹⁶);
- the topic–word matrix φ is dense, K × V, also 16-bit-compressible;
- the topic totals n_k = Σ_v φ_kv complete the CGS statistics.

Everything here is host-side NumPy; the trainer mirrors these arrays
into :class:`~repro.gpusim.memory.DeviceArray` buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.corpus import TokenChunk

__all__ = ["LDAHyperParams", "SparseTheta", "LDAState", "check_state_invariants"]

#: Maximum topic count representable with 16-bit compression (§6.1.3).
MAX_COMPRESSED_TOPICS = 2**16


@dataclass(frozen=True)
class LDAHyperParams:
    """LDA hyperparameters.

    The paper (§2.1, §7) uses α = 50/K and β = 0.01; those are the
    defaults when only ``num_topics`` is given.
    """

    num_topics: int
    alpha: float = -1.0  # sentinel: 50/K
    beta: float = 0.01

    def __post_init__(self) -> None:
        if self.num_topics < 2:
            raise ValueError("num_topics must be >= 2")
        if self.alpha == -1.0:
            object.__setattr__(self, "alpha", 50.0 / self.num_topics)
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")

    def topic_dtype(self, compressed: bool = True) -> np.dtype:
        """The dtype of topic indices: ``uint16`` under compression.

        Raises if compression is requested but K ≥ 2¹⁶ (the paper's
        compression is only valid because "the topic K is smaller than
        2¹⁶", §6.1.3).
        """
        if compressed:
            if self.num_topics >= MAX_COMPRESSED_TOPICS:
                raise ValueError(
                    f"16-bit topic compression requires K < {MAX_COMPRESSED_TOPICS}"
                )
            return np.dtype(np.uint16)
        return np.dtype(np.int32)


class SparseTheta:
    """CSR document–topic counts for one chunk's documents.

    Rows are local document ids; columns are topics. ``indices`` holds
    topic ids (16-bit when compressed), ``data`` holds counts (int32).
    Rows are kept sorted by topic id, which makes equality checks and
    merging deterministic.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        num_topics: int,
    ):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices)
        self.data = np.ascontiguousarray(data, dtype=np.int32)
        self.num_topics = int(num_topics)
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ValueError("indptr must be 1-D, length >= 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr endpoints inconsistent with indices")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data must align")
        if self.indices.size and int(self.indices.max()) >= num_topics:
            raise ValueError("topic index out of range")
        if self.data.size and self.data.min() <= 0:
            raise ValueError("stored counts must be positive (CSR stores nonzeros)")

    @property
    def num_docs(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def row(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """``(topics, counts)`` views of document *d*'s row."""
        lo, hi = self.indptr[d], self.indptr[d + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_lengths(self) -> np.ndarray:
        """``K_d`` of every document — the paper's sparsity quantity."""
        return np.diff(self.indptr)

    def to_dense(self) -> np.ndarray:
        """Dense ``int32[num_docs, K]`` (tests / tiny problems only)."""
        dense = np.zeros((self.num_docs, self.num_topics), dtype=np.int32)
        docs = np.repeat(np.arange(self.num_docs), self.row_lengths())
        dense[docs, self.indices.astype(np.int64)] = self.data
        return dense

    @classmethod
    def from_assignments(
        cls,
        chunk: TokenChunk,
        topics: np.ndarray,
        num_topics: int,
        compressed: bool = True,
    ) -> "SparseTheta":
        """Recount θ from the chunk's per-token topic assignments.

        This is the functional content of the paper's θ-update kernel
        (§6.2): for each document, scatter its tokens' topics into a
        dense histogram, then compact nonzeros to CSR via a prefix sum.
        Here the scatter+compact is one vectorized ``bincount``-style
        pass over ``(doc, topic)`` keys.
        """
        if topics.size != chunk.num_tokens:
            raise ValueError("one topic per token required")
        K = int(num_topics)
        docs = chunk.token_doc.astype(np.int64)
        keys = docs * K + topics.astype(np.int64)
        uniq, counts = np.unique(keys, return_counts=True)
        row_ids = (uniq // K).astype(np.int64)
        col_ids = uniq % K
        indptr = np.zeros(chunk.num_docs + 1, dtype=np.int64)
        np.add.at(indptr, row_ids + 1, 1)
        np.cumsum(indptr, out=indptr)
        idx_dtype = np.uint16 if (compressed and K < MAX_COMPRESSED_TOPICS) else np.int32
        return cls(indptr, col_ids.astype(idx_dtype), counts.astype(np.int32), K)

    @classmethod
    def concatenate(
        cls, thetas: "list[SparseTheta]", num_topics: int
    ) -> "SparseTheta":
        """Stack per-chunk θs into one matrix (chunks partition the
        documents contiguously and in order)."""
        if not thetas:
            raise ValueError("need at least one SparseTheta to concatenate")
        indptrs = [thetas[0].indptr]
        offset = thetas[0].indptr[-1]
        for t in thetas[1:]:
            indptrs.append(t.indptr[1:] + offset)
            offset += t.indptr[-1]
        return cls(
            np.concatenate(indptrs),
            np.concatenate([t.indices for t in thetas]),
            np.concatenate([t.data for t in thetas]),
            num_topics,
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray, num_topics: int) -> "SparseTheta":
        """CSR-compact a dense ``[num_docs, K]`` count matrix (rows stay
        sorted by topic id, matching :meth:`from_assignments`)."""
        K = int(num_topics)
        docs, cols = np.nonzero(dense)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, docs + 1, 1)
        np.cumsum(indptr, out=indptr)
        idx_dtype = np.uint16 if K < MAX_COMPRESSED_TOPICS else np.int32
        return cls(
            indptr,
            cols.astype(idx_dtype),
            dense[docs, cols].astype(np.int32),
            K,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseTheta):
            return NotImplemented
        return (
            self.num_topics == other.num_topics
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(
                self.indices.astype(np.int64), other.indices.astype(np.int64)
            )
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SparseTheta(docs={self.num_docs}, K={self.num_topics}, "
            f"nnz={self.nnz})"
        )


@dataclass
class LDAState:
    """Complete host-side CGS state for one chunk (or a whole corpus).

    Attributes
    ----------
    chunk: the word-first token layout being sampled.
    topics: per-token topic assignment, aligned with the chunk order.
    theta: CSR document–topic counts for the chunk's documents.
    phi: dense ``int32[K, V]`` topic–word counts. For a single-chunk
        state this covers the whole corpus; in the multi-GPU trainer each
        replica alternates between "full" (after broadcast) and "partial"
        (after the local update) — see :mod:`repro.comm.collectives`.
    n_k: ``int64[K]`` topic totals, always ``phi.sum(axis=1)``.
    hyper: the hyperparameters.
    """

    chunk: TokenChunk
    topics: np.ndarray
    theta: SparseTheta
    phi: np.ndarray
    n_k: np.ndarray
    hyper: LDAHyperParams

    @classmethod
    def initialize(
        cls,
        chunk: TokenChunk,
        hyper: LDAHyperParams,
        seed: int | np.random.Generator = 0,
        compressed: bool = True,
    ) -> "LDAState":
        """Random-topic initialization (paper §2.1: "Initially, each
        token is randomly assigned with a topic")."""
        rng = np.random.default_rng(seed)
        K, V = hyper.num_topics, chunk.num_words
        dtype = hyper.topic_dtype(compressed)
        topics = rng.integers(0, K, size=chunk.num_tokens, dtype=np.int64).astype(dtype)
        theta = SparseTheta.from_assignments(chunk, topics, K, compressed)
        words = chunk.token_word_expanded().astype(np.int64)
        phi = np.zeros((K, V), dtype=np.int32)
        np.add.at(phi, (topics.astype(np.int64), words), 1)
        n_k = phi.sum(axis=1, dtype=np.int64)
        return cls(chunk, topics, theta, phi, n_k, hyper)


def check_state_invariants(state: LDAState, full_phi: bool = True) -> None:
    """Assert the CGS count invariants; raises AssertionError on breakage.

    - Σ_k θ_dk = DocLen_d for every document (Eq 5 of the paper);
    - n_k = Σ_v φ_kv;
    - Σ_k n_k = T (when φ covers exactly this chunk's tokens);
    - θ recounted from assignments matches the stored θ.
    """
    chunk, K = state.chunk, state.hyper.num_topics
    lengths = chunk.doc_lengths
    recount = SparseTheta.from_assignments(
        chunk, state.topics, K, compressed=state.theta.indices.dtype == np.uint16
    )
    assert recount == state.theta, "theta does not match token assignments"
    row_sums = np.zeros(chunk.num_docs, dtype=np.int64)
    np.add.at(
        row_sums,
        np.repeat(np.arange(chunk.num_docs), state.theta.row_lengths()),
        state.theta.data,
    )
    assert np.array_equal(row_sums, lengths), "theta row sums != document lengths"
    assert np.array_equal(
        state.n_k, state.phi.sum(axis=1, dtype=np.int64)
    ), "n_k != phi row sums"
    if full_phi:
        assert int(state.n_k.sum()) == chunk.num_tokens, "phi total != token count"
