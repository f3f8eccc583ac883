"""Core corpus containers.

The corpus layout mirrors what CuLDA_CGS uploads to each GPU (paper §4,
§6): a flat token store in *word-first* order, a CSR-style document index,
and the CPU-side *document–word map* that the θ-update kernel uses to find
all tokens of a document inside a word-sorted chunk (paper §6.2).

Design notes
------------
All hot data lives in flat, C-contiguous NumPy arrays (the HPC guides'
"views, not copies" rule): a :class:`Corpus` is three arrays plus
metadata, and every derived structure (:class:`TokenChunk`) is built with
vectorized primitives (``argsort``, ``bincount``, ``cumsum``) — never a
Python loop over tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = ["Vocabulary", "Corpus", "TokenChunk", "DocWordRuns"]


class Vocabulary:
    """A bidirectional word ↔ id mapping.

    Words are assigned dense integer ids in insertion order. The mapping
    is immutable once frozen (:meth:`freeze`), which the corpus builders
    use to guarantee that word ids match the φ matrix columns.
    """

    def __init__(self, words: Iterable[str] = ()):  # noqa: D107
        self._words: list[str] = []
        self._ids: dict[str, int] = {}
        self._frozen = False
        for w in words:
            self.add(w)

    def add(self, word: str) -> int:
        """Intern *word*, returning its id (existing or newly assigned)."""
        wid = self._ids.get(word)
        if wid is not None:
            return wid
        if self._frozen:
            raise ValueError(f"vocabulary is frozen; unknown word {word!r}")
        wid = len(self._words)
        self._words.append(word)
        self._ids[word] = wid
        return wid

    def freeze(self) -> "Vocabulary":
        """Disallow further additions. Returns ``self`` for chaining."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def id_of(self, word: str) -> int:
        return self._ids[word]

    def word_of(self, wid: int) -> str:
        return self._words[wid]

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._words)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Vocabulary(size={len(self)}, frozen={self._frozen})"


@dataclass(frozen=True)
class Corpus:
    """A tokenized corpus in flat-array form.

    Attributes
    ----------
    token_word:
        ``int32[T]`` — word id of every token, grouped by document
        (tokens of document *d* occupy ``doc_indptr[d]:doc_indptr[d+1]``).
    doc_indptr:
        ``int64[D+1]`` — CSR row pointer over documents.
    num_words:
        Vocabulary size ``V``. Word ids must lie in ``[0, V)``.
    vocabulary:
        Optional human-readable vocabulary (``len == num_words`` if given).
    name:
        Optional label used in benchmark output.
    """

    token_word: np.ndarray
    doc_indptr: np.ndarray
    num_words: int
    vocabulary: Vocabulary | None = None
    name: str = "corpus"
    # Lazily computed caches (object-level, not part of equality).
    _token_doc: np.ndarray | None = field(
        default=None, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        tw = np.ascontiguousarray(self.token_word, dtype=np.int32)
        ip = np.ascontiguousarray(self.doc_indptr, dtype=np.int64)
        object.__setattr__(self, "token_word", tw)
        object.__setattr__(self, "doc_indptr", ip)
        if ip.ndim != 1 or ip.size < 1:
            raise ValueError("doc_indptr must be a 1-D array of length D+1 >= 1")
        if ip[0] != 0 or ip[-1] != tw.size:
            raise ValueError(
                f"doc_indptr must start at 0 and end at T={tw.size}; got "
                f"[{ip[0]}, {ip[-1]}]"
            )
        if np.any(np.diff(ip) < 0):
            raise ValueError("doc_indptr must be non-decreasing")
        if tw.size and (tw.min() < 0 or tw.max() >= self.num_words):
            raise ValueError("token word ids out of range [0, V)")
        if self.vocabulary is not None and len(self.vocabulary) != self.num_words:
            raise ValueError("vocabulary size does not match num_words")

    # ------------------------------------------------------------------
    # Basic shape properties
    # ------------------------------------------------------------------
    @property
    def num_tokens(self) -> int:
        """Total token count *T*."""
        return int(self.token_word.size)

    @property
    def num_docs(self) -> int:
        """Document count *D*."""
        return int(self.doc_indptr.size - 1)

    @property
    def doc_lengths(self) -> np.ndarray:
        """``int64[D]`` — tokens per document."""
        return np.diff(self.doc_indptr)

    @property
    def token_doc(self) -> np.ndarray:
        """``int32[T]`` — document id of every token (computed lazily)."""
        cached = self._token_doc
        if cached is None:
            cached = np.repeat(
                np.arange(self.num_docs, dtype=np.int32), self.doc_lengths
            )
            object.__setattr__(self, "_token_doc", cached)
        return cached

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_documents(
        cls,
        documents: Sequence[Sequence[int]],
        num_words: int,
        vocabulary: Vocabulary | None = None,
        name: str = "corpus",
    ) -> "Corpus":
        """Build a corpus from per-document token-id lists."""
        lengths = np.fromiter(
            (len(d) for d in documents), count=len(documents), dtype=np.int64
        )
        indptr = np.zeros(len(documents) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        token_word = np.empty(int(indptr[-1]), dtype=np.int32)
        for d, doc in enumerate(documents):
            token_word[indptr[d] : indptr[d + 1]] = doc
        return cls(token_word, indptr, num_words, vocabulary, name)

    @classmethod
    def from_bow(
        cls,
        doc_ids: np.ndarray,
        word_ids: np.ndarray,
        counts: np.ndarray,
        num_docs: int | None = None,
        num_words: int | None = None,
        name: str = "corpus",
    ) -> "Corpus":
        """Build a corpus from bag-of-words triples ``(doc, word, count)``.

        Tokens are materialized by repeating each word ``count`` times
        (a word may appear multiple times in one document; paper §2.1).
        """
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        word_ids = np.asarray(word_ids, dtype=np.int32)
        counts = np.asarray(counts, dtype=np.int64)
        if not (doc_ids.shape == word_ids.shape == counts.shape):
            raise ValueError("doc_ids, word_ids, counts must have equal shape")
        if counts.size and counts.min() < 1:
            raise ValueError("counts must be >= 1")
        D = int(num_docs if num_docs is not None else (doc_ids.max() + 1 if doc_ids.size else 0))
        V = int(num_words if num_words is not None else (word_ids.max() + 1 if word_ids.size else 0))
        order = np.argsort(doc_ids, kind="stable")
        doc_ids, word_ids, counts = doc_ids[order], word_ids[order], counts[order]
        token_word = np.repeat(word_ids, counts)
        token_doc = np.repeat(doc_ids, counts)
        doc_len = np.bincount(token_doc, minlength=D)
        indptr = np.zeros(D + 1, dtype=np.int64)
        np.cumsum(doc_len, out=indptr[1:])
        return cls(token_word, indptr, V, name=name)

    # ------------------------------------------------------------------
    # Views and derived structures
    # ------------------------------------------------------------------
    def document(self, d: int) -> np.ndarray:
        """Word ids of document *d* (a view, not a copy)."""
        return self.token_word[self.doc_indptr[d] : self.doc_indptr[d + 1]]

    def word_frequencies(self) -> np.ndarray:
        """``int64[V]`` — corpus-wide occurrence count of each word."""
        return np.bincount(self.token_word, minlength=self.num_words).astype(np.int64)

    def slice_docs(self, start: int, stop: int, name: str | None = None) -> "Corpus":
        """A corpus containing documents ``[start, stop)``.

        Document ids are renumbered from 0; the vocabulary is shared.
        """
        if not (0 <= start <= stop <= self.num_docs):
            raise IndexError(f"invalid document range [{start}, {stop})")
        lo, hi = self.doc_indptr[start], self.doc_indptr[stop]
        indptr = self.doc_indptr[start : stop + 1] - lo
        return Corpus(
            self.token_word[lo:hi].copy(),
            indptr.copy(),
            self.num_words,
            self.vocabulary,
            name or f"{self.name}[{start}:{stop}]",
        )

    def to_chunk(self) -> "TokenChunk":
        """Preprocess the whole corpus into a word-first :class:`TokenChunk`."""
        return TokenChunk.from_corpus_range(self, 0, self.num_docs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Corpus(name={self.name!r}, T={self.num_tokens}, "
            f"D={self.num_docs}, V={self.num_words})"
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class DocWordRuns(NamedTuple):
    """The (document, word) runs of a word-first :class:`TokenChunk`.

    A run is a maximal stretch of adjacent tokens that share document
    and word. The chunk is sorted by word, stably, so a document's
    tokens of one word sit next to each other: there is one run per
    distinct (doc, word) pair, and its length is n_dw. Every token of a
    run reads the same θ row and the same p* column, so the sampler
    builds S and the p₁ prefix sums once per run.
    """

    #: ``int64[R+1]`` — run *r* is tokens ``starts[r]:starts[r+1]``.
    starts: np.ndarray
    #: ``int64[R]`` — local document of each run.
    doc: np.ndarray
    #: ``int64[R]`` — word of each run.
    word: np.ndarray
    #: ``int64[T]`` — run of each token.
    token_run: np.ndarray


@dataclass(frozen=True)
class TokenChunk:
    """A word-first sorted token chunk — the GPU-resident corpus layout.

    CuLDA_CGS sorts each chunk's tokens in *word-first* order so that all
    samplers in a thread block process tokens of the same word and can
    share the p2 index tree through shared memory (paper §6.1.2). The
    θ-update kernel then needs the inverse view — all tokens of one
    document — which is provided by the *document–word map* built on the
    CPU during preprocessing (paper §6.2).

    Attributes
    ----------
    token_doc:
        ``int32[T]`` — *local* document id of each token, in word-sorted
        order. Local ids run ``[0, num_docs)`` within the chunk.
    word_indptr:
        ``int64[V+1]`` — tokens of word *v* occupy
        ``word_indptr[v]:word_indptr[v+1]``.
    doc_map_indptr / doc_map_indices:
        CSR document–word map: ``doc_map_indices[doc_map_indptr[d]:
        doc_map_indptr[d+1]]`` are the positions (into ``token_doc`` /
        topic arrays) of document *d*'s tokens.
    source_pos:
        ``int64[T]`` — for each token in chunk (word-sorted) order, its
        original position within the chunk's corpus range. Lets results
        (per-token topics) be mapped back to corpus order.
    doc_offset:
        Global id of local document 0 (chunks partition by document).
    num_words:
        Vocabulary size V (shared across chunks; φ columns).
    """

    token_doc: np.ndarray
    word_indptr: np.ndarray
    doc_map_indptr: np.ndarray
    doc_map_indices: np.ndarray
    source_pos: np.ndarray
    doc_offset: int
    num_words: int

    def __post_init__(self) -> None:
        for attr, dtype in (
            ("token_doc", np.int32),
            ("word_indptr", np.int64),
            ("doc_map_indptr", np.int64),
            ("doc_map_indices", np.int64),
            ("source_pos", np.int64),
        ):
            arr = np.ascontiguousarray(getattr(self, attr), dtype=dtype)
            object.__setattr__(self, attr, arr)
        if self.word_indptr.size != self.num_words + 1:
            raise ValueError("word_indptr must have length V+1")
        if self.word_indptr[-1] != self.token_doc.size:
            raise ValueError("word_indptr must end at T")
        if self.doc_map_indices.size != self.token_doc.size:
            raise ValueError("doc map must cover every token exactly once")
        if self.source_pos.size != self.token_doc.size:
            raise ValueError("source_pos must cover every token")

    @property
    def num_tokens(self) -> int:
        return int(self.token_doc.size)

    @property
    def num_docs(self) -> int:
        return int(self.doc_map_indptr.size - 1)

    @property
    def doc_lengths(self) -> np.ndarray:
        """``int64[num_docs]`` — tokens per (local) document."""
        return np.diff(self.doc_map_indptr)

    @cached_property
    def token_word(self) -> np.ndarray:
        """``int32[T]`` — word id of each token (expands ``word_indptr``).

        Built once per chunk and read-only: every caller shares it.
        """
        counts = np.diff(self.word_indptr)
        return _read_only(
            np.repeat(np.arange(self.num_words, dtype=np.int32), counts)
        )

    @cached_property
    def runs(self) -> "DocWordRuns":
        """The chunk's (document, word) runs; see :class:`DocWordRuns`.

        Part of the CPU-side preprocessing, like the document–word map:
        built once per chunk, on first use, from the immutable layout.
        """
        doc, word = self.token_doc, self.token_word
        first = np.ones(doc.size, dtype=bool)
        first[1:] = (doc[1:] != doc[:-1]) | (word[1:] != word[:-1])
        heads = np.flatnonzero(first)
        return DocWordRuns(
            starts=_read_only(np.append(heads, doc.size)),
            doc=_read_only(doc[heads].astype(np.int64)),
            word=_read_only(word[heads].astype(np.int64)),
            token_run=_read_only(np.cumsum(first) - 1),
        )

    @cached_property
    def sampling_plan(self) -> tuple[int, int]:
        """``(num_blocks, num_word_segments)`` of the chunk's sampling
        launch (:func:`repro.core.kernels.sampling_launch_plan`), built
        once per chunk."""
        # Imported here: the kernels module imports this one.
        from repro.core.kernels import sampling_launch_plan

        return sampling_launch_plan(self.word_indptr)

    def words_present(self) -> np.ndarray:
        """Ids of words with at least one token in this chunk."""
        counts = np.diff(self.word_indptr)
        return np.nonzero(counts)[0].astype(np.int32)

    @classmethod
    def from_corpus_range(cls, corpus: Corpus, start_doc: int, stop_doc: int) -> "TokenChunk":
        """Build the word-first layout for documents ``[start_doc, stop_doc)``."""
        if not (0 <= start_doc <= stop_doc <= corpus.num_docs):
            raise IndexError("invalid document range")
        lo = corpus.doc_indptr[start_doc]
        hi = corpus.doc_indptr[stop_doc]
        return cls.word_first(
            corpus.token_word[lo:hi],
            corpus.token_doc[lo:hi] - start_doc,
            stop_doc - start_doc,
            corpus.num_words,
            doc_offset=start_doc,
        )

    @classmethod
    def word_first(
        cls,
        words: np.ndarray,
        docs: np.ndarray,
        num_docs: int,
        num_words: int,
        doc_offset: int = 0,
    ) -> "TokenChunk":
        """Build the word-first layout of the tokens *words*/*docs*
        (local doc ids in ``[0, num_docs)``).

        This is the CPU-side preprocessing stage of the paper (§4, §6.2):
        sort tokens by word (stable, so same-word tokens keep document
        order), build the per-word index, and build the document–word map
        that lets the θ-update kernel walk a document's tokens inside the
        word-sorted store. ``source_pos`` is each sorted token's index
        into the inputs.
        """
        order = np.argsort(words, kind="stable")
        sorted_words = words[order]
        token_doc = docs[order].astype(np.int32)

        word_counts = np.bincount(sorted_words, minlength=num_words)
        word_indptr = np.zeros(num_words + 1, dtype=np.int64)
        np.cumsum(word_counts, out=word_indptr[1:])

        # Document–word map: positions of each doc's tokens in the sorted
        # order. argsort of token_doc (stable) groups positions by doc.
        doc_order = np.argsort(token_doc, kind="stable").astype(np.int64)
        doc_counts = np.bincount(token_doc, minlength=num_docs)
        doc_map_indptr = np.zeros(num_docs + 1, dtype=np.int64)
        np.cumsum(doc_counts, out=doc_map_indptr[1:])

        return cls(
            token_doc=token_doc,
            word_indptr=word_indptr,
            doc_map_indptr=doc_map_indptr,
            doc_map_indices=doc_order,
            source_pos=order,
            doc_offset=doc_offset,
            num_words=num_words,
        )

    def nbytes(self, compressed: bool = True) -> int:
        """Device-memory footprint of the chunk's static arrays in bytes.

        With ``compressed=True`` topic columns use 16-bit ints (the
        paper's precision-compression optimization, §6.1.3); the static
        layout itself is int32 doc ids + two int64 index arrays + the
        topic assignment array (charged here as part of the chunk).
        """
        topic_bytes = 2 if compressed else 4
        return int(
            self.token_doc.nbytes
            + self.word_indptr.nbytes
            + self.doc_map_indptr.nbytes
            + self.doc_map_indices.nbytes
            + self.num_tokens * topic_bytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TokenChunk(T={self.num_tokens}, docs={self.num_docs}, "
            f"doc_offset={self.doc_offset}, V={self.num_words})"
        )
