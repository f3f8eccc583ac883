"""Tests for the corpus substrate: Corpus, Vocabulary, TokenChunk."""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus.corpus import Corpus, TokenChunk, Vocabulary


# ----------------------------------------------------------------------
# Vocabulary
# ----------------------------------------------------------------------

class TestVocabulary:
    def test_insertion_order_ids(self):
        v = Vocabulary(["apple", "banana", "cherry"])
        assert v.id_of("apple") == 0
        assert v.id_of("cherry") == 2
        assert v.word_of(1) == "banana"

    def test_add_is_idempotent(self):
        v = Vocabulary()
        a = v.add("word")
        b = v.add("word")
        assert a == b == 0
        assert len(v) == 1

    def test_freeze_blocks_new_words(self):
        v = Vocabulary(["a"]).freeze()
        assert v.add("a") == 0  # existing word still fine
        with pytest.raises(ValueError):
            v.add("b")

    def test_contains_and_iter(self):
        v = Vocabulary(["x", "y"])
        assert "x" in v and "z" not in v
        assert list(v) == ["x", "y"]


# ----------------------------------------------------------------------
# Corpus construction and validation
# ----------------------------------------------------------------------

class TestCorpusConstruction:
    def test_from_documents_shapes(self, tiny_corpus):
        assert tiny_corpus.num_docs == 5
        assert tiny_corpus.num_tokens == 16
        assert tiny_corpus.num_words == 6
        assert list(tiny_corpus.doc_lengths) == [4, 3, 5, 1, 3]

    def test_document_view(self, tiny_corpus):
        assert list(tiny_corpus.document(0)) == [0, 1, 2, 0]
        assert list(tiny_corpus.document(3)) == [2]

    def test_token_doc_expansion(self, tiny_corpus):
        td = tiny_corpus.token_doc
        assert td.shape == (16,)
        assert list(td[:4]) == [0, 0, 0, 0]
        assert td[-1] == 4

    def test_word_frequencies(self, tiny_corpus):
        freq = tiny_corpus.word_frequencies()
        # word 0 appears in docs 0 (twice), 2, 4 -> 4 times
        assert freq[0] == 4
        assert freq[5] == 3
        assert freq.sum() == tiny_corpus.num_tokens

    def test_rejects_bad_indptr_start(self):
        with pytest.raises(ValueError, match="start at 0"):
            Corpus(np.array([0, 1]), np.array([1, 2]), num_words=3)

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Corpus(np.array([0, 1, 2]), np.array([0, 2, 1, 3]), num_words=3)

    def test_rejects_out_of_range_word(self):
        with pytest.raises(ValueError, match="out of range"):
            Corpus(np.array([0, 7]), np.array([0, 2]), num_words=3)

    def test_rejects_mismatched_vocabulary(self):
        v = Vocabulary(["only-one"])
        with pytest.raises(ValueError, match="vocabulary"):
            Corpus(np.array([0, 1]), np.array([0, 2]), num_words=2, vocabulary=v)

    def test_empty_document_allowed(self):
        c = Corpus.from_documents([[0], [], [1]], num_words=2)
        assert c.num_docs == 3
        assert list(c.doc_lengths) == [1, 0, 1]

    def test_from_bow_expands_counts(self):
        c = Corpus.from_bow(
            doc_ids=np.array([0, 0, 1]),
            word_ids=np.array([2, 0, 1]),
            counts=np.array([3, 1, 2]),
            num_docs=2,
            num_words=3,
        )
        assert c.num_tokens == 6
        assert list(c.doc_lengths) == [4, 2]
        assert sorted(c.document(0).tolist()) == [0, 2, 2, 2]

    def test_from_bow_rejects_zero_count(self):
        with pytest.raises(ValueError, match="counts"):
            Corpus.from_bow(np.array([0]), np.array([0]), np.array([0]))

    def test_slice_docs(self, tiny_corpus):
        sub = tiny_corpus.slice_docs(1, 4)
        assert sub.num_docs == 3
        assert list(sub.document(0)) == [3, 3, 4]
        assert sub.num_words == tiny_corpus.num_words

    def test_slice_docs_bad_range(self, tiny_corpus):
        with pytest.raises(IndexError):
            tiny_corpus.slice_docs(3, 99)


# ----------------------------------------------------------------------
# TokenChunk (word-first layout + doc-word map, paper §6)
# ----------------------------------------------------------------------

class TestTokenChunk:
    def test_word_first_sorting(self, tiny_corpus):
        chunk = tiny_corpus.to_chunk()
        words = chunk.token_word
        assert np.all(np.diff(words) >= 0), "tokens must be word-sorted"
        assert chunk.num_tokens == tiny_corpus.num_tokens

    def test_word_indptr_counts(self, tiny_corpus):
        chunk = tiny_corpus.to_chunk()
        counts = np.diff(chunk.word_indptr)
        assert np.array_equal(counts, tiny_corpus.word_frequencies())

    def test_doc_map_covers_all_tokens(self, tiny_corpus):
        chunk = tiny_corpus.to_chunk()
        assert sorted(chunk.doc_map_indices.tolist()) == list(
            range(chunk.num_tokens)
        )

    def test_doc_map_points_to_own_tokens(self, tiny_corpus):
        chunk = tiny_corpus.to_chunk()
        for d in range(chunk.num_docs):
            lo, hi = chunk.doc_map_indptr[d], chunk.doc_map_indptr[d + 1]
            positions = chunk.doc_map_indices[lo:hi]
            assert np.all(chunk.token_doc[positions] == d)

    def test_doc_lengths_preserved(self, tiny_corpus):
        chunk = tiny_corpus.to_chunk()
        assert np.array_equal(chunk.doc_lengths, tiny_corpus.doc_lengths)

    def test_chunk_of_doc_range_uses_local_ids(self, tiny_corpus):
        chunk = TokenChunk.from_corpus_range(tiny_corpus, 2, 5)
        assert chunk.num_docs == 3
        assert chunk.doc_offset == 2
        assert chunk.token_doc.min() == 0
        assert chunk.token_doc.max() == 2
        assert chunk.num_tokens == 9

    def test_chunk_word_multiset_matches(self, small_corpus):
        chunk = TokenChunk.from_corpus_range(small_corpus, 10, 40)
        words_chunk = np.sort(chunk.token_word)
        lo = small_corpus.doc_indptr[10]
        hi = small_corpus.doc_indptr[40]
        words_direct = np.sort(small_corpus.token_word[lo:hi])
        assert np.array_equal(words_chunk, words_direct)

    def test_words_present(self, tiny_corpus):
        chunk = TokenChunk.from_corpus_range(tiny_corpus, 1, 2)  # doc [3,3,4]
        assert chunk.words_present().tolist() == [3, 4]

    def test_nbytes_compression_halves_topics(self, small_corpus):
        chunk = small_corpus.to_chunk()
        diff = chunk.nbytes(compressed=False) - chunk.nbytes(compressed=True)
        assert diff == 2 * chunk.num_tokens

    def test_invalid_range_rejected(self, tiny_corpus):
        with pytest.raises(IndexError):
            TokenChunk.from_corpus_range(tiny_corpus, 4, 2)

    def test_stable_doc_order_within_word(self, tiny_corpus):
        # Word 0 occurs at docs [0, 0, 2, 4] in corpus order; a stable
        # sort must preserve that order within the word's segment.
        chunk = tiny_corpus.to_chunk()
        lo, hi = chunk.word_indptr[0], chunk.word_indptr[1]
        assert chunk.token_doc[lo:hi].tolist() == [0, 0, 2, 4]
