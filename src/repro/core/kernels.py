"""GPU kernels: sampling, update-θ, update-φ (paper §6) — functional
bodies plus their roofline cost accounting.

Each kernel has two halves:

- a **functional body**: fully vectorized NumPy that computes exactly
  what the CUDA kernel computes (new topic assignments; recounted θ;
  the chunk's partial φ), and
- a **cost function**: the kernel's global-memory traffic, flops, atomic
  count and launch geometry, derived from the same per-step byte
  formulas as the paper's Table 1 and from the launch plan of §6.1.2
  (one warp = one sampler, 32 samplers per block, blocks own words,
  heavy words split across blocks).

The :class:`KernelConfig` flags turn the paper's individual
optimizations on and off, which is what the ablation tests flip:

``sparse_sampler``      Eq 6 S/Q decomposition vs dense O(K) sampling.
``share_p2_tree``       per-block shared p₂ tree (word-first sort) vs
                        per-sampler private p₂ data.
``reuse_pstar``         stage p*(k) once per word in shared memory vs
                        recomputing φ-column reads per token.
``compressed``          16-bit topic indices / φ entries vs 32-bit.

Sampling semantics
------------------
As in the paper, the sampling kernel reads the *iteration-start* model
(θ replica, broadcast φ) and writes new topics; the update kernels then
rebuild θ and the chunk-partial φ. This delayed-update CGS is the
standard GPU formulation (the paper's separate sampling/update kernels);
the sequential exact-CGS oracle and the same delayed-update chain one
token at a time live in :mod:`repro.baselines.gibbs_reference`.

Because every token reads the iteration-start counts, the tokens of one
(document, word) run share their conditional exactly: the functional
sampler builds S, Q and the p₁ prefix sums once per run
(:attr:`~repro.corpus.corpus.TokenChunk.runs`), and each token draws
its own uniform, branch and search. Statistics and costs stay per
token, as the CUDA kernel samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.corpus.corpus import TokenChunk
from repro.core.model import LDAHyperParams, SparseTheta
from repro.gpusim.costmodel import KernelCost
from repro.telemetry.context import emit_counter

__all__ = [
    "KernelConfig",
    "SamplingStats",
    "WordTables",
    "word_tables",
    "gibbs_sample_chunk",
    "tree_search_levels",
    "recount_theta",
    "accumulate_phi",
    "sampling_launch_plan",
    "sampling_cost",
    "update_theta_cost",
    "update_phi_cost",
    "phi_reduce_cost",
    "phi_delta_cost",
    "phi_compact_cost",
]

#: Threads per warp — one warp is one sampler (§6.1.1), and the index
#: trees' fanout: a warp inspects one node's children per SIMD step (§6.1).
WARP_SIZE = 32
#: Samplers (warps) per thread block — "the allowed maximal value" (§6.1.2).
SAMPLERS_PER_BLOCK = 32
#: Tokens a sampler processes per block assignment; beyond this a heavy
#: word spills into additional blocks (load-balance rule of §6.1.2).
TOKENS_PER_SAMPLER = 16
#: Token capacity of one block.
BLOCK_TOKEN_CAPACITY = SAMPLERS_PER_BLOCK * TOKENS_PER_SAMPLER
#: DRAM transaction granularity: a warp's θ-row read rounds up to this.
CACHELINE_BYTES = 128
#: Fixed per-token global traffic that is independent of K_d: RNG state,
#: p₂ leaf transactions (the Fig 5 "two elements of p[8]"), tree-path
#: spills, and transaction padding. Calibrated against Table 4 (see
#: EXPERIMENTS.md).
TOKEN_OVERHEAD_BYTES = 240.0


@dataclass(frozen=True)
class KernelConfig:
    """Optimization switches for the sampling/update kernels."""

    sparse_sampler: bool = True
    share_p2_tree: bool = True
    reuse_pstar: bool = True
    compressed: bool = True
    #: Max flat (run × K_d) expansion entries held at once by the
    #: functional sampler; bounds host memory, no effect on results.
    #: At 2¹⁸ a slab's temporaries (~10 MB) are reused from one slab
    #: and call to the next instead of being mapped afresh: 10–28%
    #: more `train_1gpu` tokens/s than 2²² on a 2-core x86 host.
    token_slab: int = 1 << 18

    @property
    def index_bytes(self) -> int:
        """Bytes of one topic index (§6.1.3 precision compression)."""
        return 2 if self.compressed else 4

    @property
    def phi_bytes(self) -> int:
        """Bytes of one φ entry."""
        return 2 if self.compressed else 4


@dataclass(frozen=True)
class SamplingStats:
    """Per-launch statistics the cost model and Fig 7 analysis need."""

    num_tokens: int
    kd_sum: int            # Σ_tokens K_d  (θ entries touched)
    p1_draws: int          # tokens resolved in the sparse branch
    num_word_segments: int # (block, word) assignments after splitting
    num_blocks: int
    #: Σ_tokens index-tree search levels (p₁ trees over K_d leaves for
    #: sparse draws, the shared p₂ tree over K leaves for dense draws).
    tree_probe_levels: int = 0

    @property
    def mean_kd(self) -> float:
        return self.kd_sum / self.num_tokens if self.num_tokens else 0.0

    @property
    def p1_fraction(self) -> float:
        return self.p1_draws / self.num_tokens if self.num_tokens else 0.0


# ----------------------------------------------------------------------
# Launch plan (§6.1.2)
# ----------------------------------------------------------------------

def tree_search_levels(num_leaves: np.ndarray | int, fanout: int) -> np.ndarray:
    """Search levels of an R-way index tree over ``num_leaves`` leaves.

    Equals ``IndexTree(w, fanout).depth - 1`` — i.e. ``ceil(log_R n)``
    for n > 1, zero for degenerate single-leaf trees — computed by
    integer repeated division so float log round-off near exact powers
    of R can never misreport a level.
    """
    n = np.atleast_1d(np.asarray(num_leaves, dtype=np.int64)).copy()
    levels = np.zeros(n.shape, dtype=np.int64)
    while True:
        live = n > 1
        if not live.any():
            return levels
        levels[live] += 1
        n[live] = -(-n[live] // fanout)


def sampling_launch_plan(word_indptr: np.ndarray) -> tuple[int, int]:
    """Blocks and word segments for a chunk.

    Each block samples tokens of a single word; a word with more than
    ``BLOCK_TOKEN_CAPACITY`` tokens is split across several blocks
    (assigned the smallest block ids so the GPU scheduler issues them
    first — the paper's long-tail avoidance). Returns
    ``(num_blocks, num_word_segments)``; with one word per block they
    coincide.
    """
    counts = np.diff(word_indptr)
    counts = counts[counts > 0]
    if counts.size == 0:
        return 1, 1
    segments = int(np.ceil(counts / BLOCK_TOKEN_CAPACITY).sum())
    return segments, segments


# ----------------------------------------------------------------------
# Functional kernel bodies
# ----------------------------------------------------------------------

class WordTables(NamedTuple):
    """The sampler's per-word tables for one frozen φ (§6.1 ``reuse_pstar``).

    Built by :func:`word_tables`; valid for as long as the φ and n_k
    they were built from stay unchanged.
    """

    #: p*(k, v) = (φ_kv + β) / (n_k + βV), ``float64[K, V]``.
    pstar: np.ndarray
    #: The same values as a C-contiguous ``float64[V, K]``, so one
    #: token's gather touches one contiguous row.
    pstar_vk: np.ndarray
    #: Dense-branch mass Q per word, α Σ_k p*(k, v), ``float64[V]``.
    q: np.ndarray


def word_tables(
    phi: np.ndarray, n_k: np.ndarray, hyper: LDAHyperParams
) -> WordTables:
    """p*, its word-major copy and Q for a ``[K, V]`` φ (see
    :class:`WordTables`).

    The real kernel stages p* once per word block and every sampler of
    the block reuses it; this is the functional counterpart, built once
    per φ and shared by every :func:`gibbs_sample_chunk` call that reads
    that φ.
    """
    beta, V = hyper.beta, phi.shape[1]
    pstar = (phi.astype(np.float64) + beta) / (
        n_k.astype(np.float64) + beta * V
    )[:, None]
    return WordTables(
        pstar=pstar,
        pstar_vk=np.ascontiguousarray(pstar.T),
        q=hyper.alpha * pstar.sum(axis=0),
    )


def gibbs_sample_chunk(
    chunk: TokenChunk,
    topics: np.ndarray,
    theta: SparseTheta,
    phi: np.ndarray,
    n_k: np.ndarray | None,
    hyper: LDAHyperParams,
    rng: np.random.Generator,
    config: KernelConfig | None = None,
    tables: WordTables | None = None,
) -> tuple[np.ndarray, SamplingStats]:
    """Sample a new topic for every token of *chunk* (Alg 2, vectorized).

    Reads the iteration-start model ``(theta, phi, n_k)`` and returns
    ``(new_topics, stats)``; does **not** mutate its inputs. The returned
    topics use the same dtype as the input ``topics``. *tables* are
    :func:`word_tables` of ``(phi, n_k)``, built here when not given
    (*phi* and *n_k* are read only for that); callers that sample
    against one frozen φ many times build them once and pass them in.

    The vectorization reproduces the S/Q control flow exactly:

    1. p*(k, v) for all words (the shared sub-expression, staged per
       word-block in the real kernel);
    2. per (doc, word) run (:attr:`TokenChunk.runs`), S by gathering
       the document's θ row against p*'s word column (the "compute S &
       build p₁ tree" step). Every token of a run reads the same
       iteration-start θ row and p* column, so they share S, Q and the
       p₁ prefix sums exactly;
    3. one uniform draw per token over mass S + Q;
    4. sparse-branch tokens search their run's θ-row prefix sums (p₁
       tree), dense-branch tokens search their word's p₂ prefix sums
       (the shared p₂ tree).

    :class:`SamplingStats` count per token, as the real kernel works.
    """
    config = config or KernelConfig()
    K, V = hyper.num_topics, chunk.num_words
    alpha = hyper.alpha
    T = chunk.num_tokens
    if T == 0:
        return topics.copy(), SamplingStats(0, 0, 0, 1, 1)

    # --- shared sub-expression p*(k, v) and dense-branch masses -------
    if tables is None:
        tables = word_tables(phi, n_k, hyper)
    if tables.pstar.shape != (K, V):
        raise ValueError(
            f"word tables cover {tables.pstar.shape} (topics, words); the "
            f"chunk needs {(K, V)}"
        )
    pstar_flat = tables.pstar_vk.ravel()       # index w·K + k

    runs = chunk.runs
    t_ip, t_idx, t_cnt = theta.indptr, theta.indices, theta.data
    run_kd = t_ip[runs.doc + 1] - t_ip[runs.doc]        # K_d of each run
    run_q = tables.q[runs.word]

    new_topics = np.empty(T, dtype=topics.dtype)
    u_all = rng.random(T)

    kd_sum = int(run_kd @ np.diff(runs.starts))
    p1_draws = 0
    probe_levels = 0
    # Every dense draw searches the word's shared p₂ tree over K leaves.
    dense_levels = int(tree_search_levels(K, WARP_SIZE)[0])

    # Slab over runs so the (run × K_d) expansion stays bounded.
    for rlo, rhi in _slab_edges(run_kd, config.token_slab):
        tlo, thi = int(runs.starts[rlo]), int(runs.starts[rhi])
        docs = runs.doc[rlo:rhi]
        words = runs.word[rlo:rhi]
        L = run_kd[rlo:rhi]

        # Flat expansion of each run's θ row: entry j of run r sits at
        # θ-CSR position t_ip[doc_r] + j, i.e. flat index minus the
        # run's row start plus its row's CSR offset.
        total = int(L.sum())
        row_start = np.concatenate(([0], np.cumsum(L)))  # per-run offsets
        flat_pos = np.repeat(t_ip[docs] - row_start[:-1], L)
        flat_pos += np.arange(total, dtype=np.int64)
        k_flat = t_idx[flat_pos]
        # p*(k, w) for every entry, gathered from the word-major table.
        gather = np.repeat(words * K, L)
        gather += k_flat
        vals = pstar_flat.take(gather)
        vals *= t_cnt[flat_pos]

        # Masses per run. The running cumsum fixes S's bits and is what
        # the p₁ search below reads.
        cs = np.cumsum(vals, out=vals)
        seg_end = row_start[1:] - 1
        seg_base = np.concatenate(([0.0], cs[seg_end[:-1]]))
        S = cs[seg_end] - seg_base

        # The branch draw, per token: its own u against its run's S + Q.
        run = runs.token_run[tlo:thi] - rlo
        S_tok = S[run]
        target = u_all[tlo:thi] * (S_tok + run_q[rlo:rhi][run])
        sparse_mask = target < S_tok
        p1_draws += int(sparse_mask.sum())

        # --- p₁ branch: search within the run's θ-row segment ---------
        if sparse_mask.any():
            t_local = np.flatnonzero(sparse_mask)
            r = run[t_local]
            # p₁ trees span each run's K_d leaves.
            probe_levels += int(tree_search_levels(L, WARP_SIZE)[r].sum())
            # Global-cumsum trick: vals > 0 strictly, so the hit stays
            # inside the run's own segment.
            j = np.searchsorted(
                cs, seg_base[r] + target[t_local], side="right"
            )
            j = np.minimum(j, seg_end[r])
            j = np.maximum(j, row_start[r])
            new_topics[tlo + t_local] = k_flat[j]

        # --- p₂ branch: search the word's dense prefix sums -----------
        dense_mask = ~sparse_mask
        if dense_mask.any():
            d_local = np.flatnonzero(dense_mask)
            probe_levels += dense_levels * d_local.size
            resid = target[d_local] - S_tok[d_local]
            new_topics[tlo + d_local] = _p2_search(
                tables.pstar_vk, words[run[d_local]], resid, alpha
            )

    num_blocks, num_segments = chunk.sampling_plan
    stats = SamplingStats(
        num_tokens=T,
        kd_sum=kd_sum,
        p1_draws=p1_draws,
        num_word_segments=num_segments,
        num_blocks=num_blocks,
        tree_probe_levels=probe_levels,
    )
    emit_counter(
        "sampler_tokens_total", T, help="tokens drawn by the sampling kernel"
    )
    emit_counter(
        "sampler_p1_draws_total", stats.p1_draws,
        help="tokens resolved in the sparse p1 branch (Eq 6)",
    )
    emit_counter(
        "sampler_p2_draws_total", T - stats.p1_draws,
        help="tokens resolved in the dense p2 branch",
    )
    emit_counter(
        "sampler_theta_entries_total", stats.kd_sum,
        help="theta CSR entries gathered (sum of K_d over tokens)",
    )
    emit_counter(
        "sampler_tree_probe_levels_total", stats.tree_probe_levels,
        help="index-tree search levels descended across all draws",
    )
    return new_topics, stats


def _p2_search(
    pstar_vk: np.ndarray, words: np.ndarray, resid: np.ndarray, alpha: float
) -> np.ndarray:
    """Dense-branch draw: per token, the first topic whose p₂ prefix sum
    α·Σ_{k'≤k} p*(k', w) exceeds *resid* (K−1 if none does).

    The prefix sums are built only for the distinct words present, each
    row summed in k order exactly as a full-table cumsum would, so they
    carry the same bits.
    """
    K = pstar_vk.shape[1]
    uniq, row = np.unique(words, return_inverse=True)
    q_cum = alpha * np.cumsum(pstar_vk[uniq], axis=1)    # (distinct words, K)
    hit = np.empty(words.size, dtype=np.int64)
    # Row-gather in sub-slabs: (m, K) blocks.
    step = max(1, (1 << 22) // K)
    for s in range(0, words.size, step):
        above = q_cum[row[s : s + step]] > resid[s : s + step, None]
        sel = hit[s : s + step]
        sel[:] = above.argmax(axis=1)
        sel[~above[:, -1]] = K - 1       # round-off guard: none exceeded
    return hit


def _slab_edges(row_len: np.ndarray, slab: int) -> list[tuple[int, int]]:
    """Ranges of rows (the sampler's runs) whose flat expansions each
    stay under *slab* entries (a single over-*slab* row still gets its
    own range)."""
    T = row_len.size
    csum = np.cumsum(row_len)
    edges: list[tuple[int, int]] = []
    lo = 0
    mass_before = 0
    while lo < T:
        hi = int(np.searchsorted(csum, mass_before + slab, side="right"))
        hi = max(hi, lo + 1)
        edges.append((lo, hi))
        mass_before = int(csum[hi - 1])
        lo = hi
    return edges


def recount_theta(
    chunk: TokenChunk,
    topics: np.ndarray,
    num_topics: int,
    compressed: bool = True,
) -> SparseTheta:
    """Functional body of the θ-update kernel (§6.2).

    Dense-scatter per document then CSR compaction — realized as one
    vectorized recount (bit-identical to the scatter+prefix-sum result).
    """
    return SparseTheta.from_assignments(chunk, topics, num_topics, compressed)


def accumulate_phi(
    chunk: TokenChunk,
    topics: np.ndarray,
    num_topics: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Functional body of the φ-update kernel (§6.2): the chunk's
    *partial* topic–word counts (atomic adds over word-sorted tokens),
    as ``int32[K, V]``.

    Overwrites every entry of *out* if given; else allocates.
    """
    K, V = num_topics, chunk.num_words
    if out is not None and out.shape != (K, V):
        raise ValueError("out has wrong shape")
    # One histogram over the flat (k, v) index k·V + v.
    flat = topics.astype(np.int64) * V
    flat += chunk.token_word
    counts = np.bincount(flat, minlength=K * V).reshape(K, V)
    if out is None:
        return counts.astype(np.int32)
    out[...] = counts
    return out


# ----------------------------------------------------------------------
# Cost accounting
# ----------------------------------------------------------------------

def sampling_cost(
    stats: SamplingStats,
    hyper: LDAHyperParams,
    num_words: int,
    config: KernelConfig,
) -> KernelCost:
    """Global traffic / flops of one sampling launch.

    Derived from the paper's Table 1 per-step formulas, with the §6
    optimizations expressed as traffic changes:

    - *reuse_pstar* + *share_p2_tree*: the φ column and n_k are staged
      once per (block, word) segment; the p₂ tree is built in shared
      memory from them — so their per-token cost is amortized by the
      segment's token count.
    - without sharing, every sampler (warp) stages privately: the
      staging term multiplies by ``SAMPLERS_PER_BLOCK``.
    - without reuse, each token additionally re-reads the φ entries for
      its θ-row topics (K_d values) from global/L1.
    - a dense (non-sparse) sampler reads the full K-length conditional
      per token instead of the K_d-length sparse part.
    """
    K = hyper.num_topics
    T, kd = stats.num_tokens, stats.kd_sum
    idx_b, phi_b = config.index_bytes, config.phi_bytes
    cnt_b = 4           # θ counts are int32
    nk_b = 4            # n_k staged as 32-bit on device

    read = 0.0
    written = 0.0
    flops = 0.0

    # p* staging: φ column + n_k per (block, word) segment.
    staging_factor = 1 if config.share_p2_tree else SAMPLERS_PER_BLOCK
    read += stats.num_word_segments * K * (phi_b + nk_b) * staging_factor
    flops += stats.num_word_segments * 3.0 * K   # p* div+add, ×α, tree sums

    if config.sparse_sampler:
        # Compute S + build p₁ tree: the warp reads the θ row (idx +
        # count) in CACHELINE-granular transactions.
        mean_kd = kd / T if T else 0.0
        row_bytes = np.ceil(mean_kd * (idx_b + cnt_b) / CACHELINE_BYTES)
        read += T * row_bytes * CACHELINE_BYTES
        flops += 2.0 * kd            # multiply-accumulate per entry
        flops += 2.0 * kd            # p₁ tree construction
        if not config.reuse_pstar:
            read += kd * phi_b       # re-read φ for the row's topics
            flops += 2.0 * kd
        # Tree search: log_R levels over shared data; negligible global.
        flops += T * 2.0 * WARP_SIZE
    else:
        # Dense O(K) conditional per token.
        read += T * K * (phi_b + cnt_b)
        flops += T * 4.0 * K

    # Per-token fixed traffic: doc id, old topic read, new topic write,
    # plus the K_d-independent overhead (RNG, p₂ leaves, padding).
    read += T * (4 + idx_b + TOKEN_OVERHEAD_BYTES)
    written += T * idx_b
    flops += T * 16.0                # RNG + branch arithmetic

    shared = K * 4                       # staged p* column (float32)
    shared += (K // WARP_SIZE + 2) * 4   # shared p₂ tree internals
    shared = min(shared, 96 * 1024)      # the kernel tiles K if larger

    return KernelCost(
        bytes_read=read,
        bytes_written=written,
        flops=flops,
        num_blocks=stats.num_blocks,
        shared_mem_per_block=int(shared),
    )


def update_theta_cost(
    num_tokens: int,
    num_docs: int,
    theta_nnz: int,
    hyper: LDAHyperParams,
    config: KernelConfig,
) -> KernelCost:
    """Traffic of the θ-update kernel (§6.2).

    The paper's two-step algorithm: (1) per document, scatter the
    document's tokens (found via the doc–word map) into a dense K-length
    row in global memory with atomic adds; (2) compact dense → CSR with
    a prefix sum. Step 1 costs a zeroing write + the per-token map/topic
    reads and atomics; step 2 re-reads the dense row and writes the CSR.
    """
    T = num_tokens
    D = num_docs
    K = hyper.num_topics
    idx_b = config.index_bytes
    dense = float(D) * K * 4          # the per-document dense rows
    # Topic reads go through the doc–word map — an uncoalesced gather
    # that costs a half-cacheline transaction per token.
    gather = CACHELINE_BYTES / 2
    read = T * (8 + idx_b + gather) + dense  # map+topic reads, scan
    written = dense + theta_nnz * (idx_b + 4) + (D + 1) * 8
    flops = T * 2.0 + dense / 4.0 + theta_nnz * 2.0
    return KernelCost(
        bytes_read=read,
        bytes_written=written,
        flops=flops,
        atomic_ops=T,
        atomic_locality=0.8,   # per-document grouping gives decent locality
        num_blocks=max(1, D // SAMPLERS_PER_BLOCK + 1),
    )


def update_phi_cost(
    num_tokens: int,
    num_words: int,
    hyper: LDAHyperParams,
    config: KernelConfig,
    accumulate: bool = False,
) -> KernelCost:
    """Traffic of the φ-update kernel (§6.2).

    Zero the partial replica, then one global atomic add per token; a
    later chunk of the same GPU (``accumulate``) adds into the replica
    as it is, so only its zeroing pass goes. Tokens are word-sorted, so
    the atomics hit consecutive φ entries — the high-locality case the
    paper measures as fast.
    """
    T = num_tokens
    K, V = hyper.num_topics, num_words
    phi_b = config.phi_bytes
    written = 0.0 if accumulate else float(K) * V * phi_b  # zero the replica
    read = T * (config.index_bytes + 4)  # topic + word stream
    # Atomic adds write transaction-granular lines; word-sorting keeps
    # them mostly within a line but each (k, v) hit still costs one.
    written += T * (CACHELINE_BYTES / 4)
    return KernelCost(
        bytes_read=read,
        bytes_written=written,
        flops=T * 1.0,
        atomic_ops=T,
        atomic_locality=0.95,
        num_blocks=max(1, T // BLOCK_TOKEN_CAPACITY + 1),
    )


def phi_reduce_cost(num_topics: int, num_words: int, config: KernelConfig) -> KernelCost:
    """Traffic of adding one φ replica into another (sync step, §5.2)."""
    n = float(num_topics) * num_words
    phi_b = config.phi_bytes
    return KernelCost(
        bytes_read=2 * n * phi_b,
        bytes_written=n * phi_b,
        flops=n,
        num_blocks=max(1, int(n) // (BLOCK_TOKEN_CAPACITY * 32) + 1),
    )


def phi_delta_cost(
    entries: int,
    payload_bytes: int,
    num_topics: int,
    num_words: int,
    dense: bool,
    config: KernelConfig,
) -> KernelCost:
    """Traffic of adding a redistributed Δφ into a GPU's φ and n_k
    (a cluster node's redistribution).

    The kernel reads the payload. A dense Δ read-modify-writes all of
    φ and row-sums it. A sparse one read-modify-writes each of its
    *entries* at sector granularity and adds it into n_k with one
    atomic; the entries come index-sorted, so a row's atomics are
    adjacent.
    """
    K, V = num_topics, num_words
    if dense:
        n = float(K) * V * config.phi_bytes
        read, written, atomics = payload_bytes + n, n + K * 8.0, 0
    else:
        sector = entries * (CACHELINE_BYTES / 4)
        read, written, atomics = payload_bytes + sector, sector, entries
    return KernelCost(
        bytes_read=read,
        bytes_written=written,
        flops=float(entries),
        atomic_ops=atomics,
        atomic_locality=0.95,
        num_blocks=max(1, entries // BLOCK_TOKEN_CAPACITY + 1),
    )


def phi_compact_cost(
    num_topics: int, num_words: int, payload_bytes: int, config: KernelConfig
) -> KernelCost:
    """Traffic of packing one GPU's φ change for its host (a cluster
    node's sync): read the partial and the base it last sent, compare
    them entry by entry, and write the changed entries as a payload of
    *payload_bytes*."""
    n = float(num_topics) * num_words
    return KernelCost(
        bytes_read=2 * n * config.phi_bytes,
        bytes_written=float(payload_bytes),
        flops=n,
        num_blocks=max(1, int(n) // (BLOCK_TOKEN_CAPACITY * 32) + 1),
    )
