"""Tests for synthetic corpus generators and dataset statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus.datasets import NYTIMES, PUBMED, DatasetStats
from repro.corpus.stats import expected_kd, fit_zipf_exponent, summarize
from repro.corpus.synthetic import (
    SyntheticSpec,
    generate_lda_corpus,
    generate_zipf_corpus,
    nytimes_like,
    pubmed_like,
)


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_docs=0, num_words=10, avg_doc_length=5)
        with pytest.raises(ValueError):
            SyntheticSpec(num_docs=1, num_words=1, avg_doc_length=5)
        with pytest.raises(ValueError):
            SyntheticSpec(num_docs=1, num_words=10, avg_doc_length=0.5)
        with pytest.raises(ValueError):
            SyntheticSpec(num_docs=1, num_words=10, avg_doc_length=5, num_topics=0)


class TestLDAGenerator:
    SPEC = SyntheticSpec(
        num_docs=100, num_words=300, avg_doc_length=40, num_topics=5
    )

    def test_shapes_and_ranges(self):
        c = generate_lda_corpus(self.SPEC, seed=0)
        assert c.num_docs == 100
        assert c.num_words == 300
        assert c.token_word.min() >= 0
        assert c.token_word.max() < 300
        assert all(l >= 1 for l in c.doc_lengths)

    def test_avg_length_close_to_spec(self):
        c = generate_lda_corpus(self.SPEC, seed=1)
        assert abs(c.num_tokens / c.num_docs - 40) < 5

    def test_deterministic_given_seed(self):
        a = generate_lda_corpus(self.SPEC, seed=42)
        b = generate_lda_corpus(self.SPEC, seed=42)
        assert np.array_equal(a.token_word, b.token_word)
        assert np.array_equal(a.doc_indptr, b.doc_indptr)

    def test_different_seeds_differ(self):
        a = generate_lda_corpus(self.SPEC, seed=1)
        b = generate_lda_corpus(self.SPEC, seed=2)
        assert not np.array_equal(a.token_word[: min(len(a.token_word), len(b.token_word))],
                                  b.token_word[: min(len(a.token_word), len(b.token_word))])

    def test_has_topic_structure(self):
        """Documents should be word-concentrated relative to the corpus:
        the LDA generative process makes same-document tokens share
        topics, hence share a biased word distribution."""
        c = generate_lda_corpus(
            SyntheticSpec(num_docs=200, num_words=500, avg_doc_length=80,
                          num_topics=4, alpha=0.05), seed=3)
        # Mean number of *distinct* words per document should be well
        # below the document length (repetition within topics).
        distinct = np.mean([
            np.unique(c.document(d)).size for d in range(50)
        ])
        mean_len = float(np.mean(c.doc_lengths[:50]))
        assert distinct < 0.9 * mean_len


class TestZipfGenerator:
    def test_skewed_frequencies(self):
        spec = SyntheticSpec(
            num_docs=300, num_words=1000, avg_doc_length=60, zipf_exponent=1.2
        )
        c = generate_zipf_corpus(spec, seed=0)
        freq = np.sort(c.word_frequencies())[::-1]
        # Top word should dominate the median word by a large factor.
        median = max(1, int(np.median(freq[freq > 0])))
        assert freq[0] > 20 * median

    def test_fitted_exponent_roughly_recovered(self):
        spec = SyntheticSpec(
            num_docs=500, num_words=2000, avg_doc_length=100, zipf_exponent=1.0
        )
        c = generate_zipf_corpus(spec, seed=1)
        fitted = fit_zipf_exponent(c.word_frequencies())
        assert 0.5 < fitted < 1.8


class TestTwins:
    def test_nytimes_like_shape(self):
        c = nytimes_like(num_tokens=30000, seed=0)
        assert abs(c.num_tokens - 30000) / 30000 < 0.15
        assert c.num_tokens / c.num_docs == pytest.approx(
            NYTIMES.avg_doc_length, rel=0.12
        )

    def test_pubmed_like_shape(self):
        c = pubmed_like(num_tokens=30000, seed=0)
        assert c.num_tokens / c.num_docs == pytest.approx(
            PUBMED.avg_doc_length, rel=0.12
        )

    def test_twins_differ_in_doc_length(self):
        nyt = nytimes_like(num_tokens=20000, seed=1)
        pm = pubmed_like(num_tokens=20000, seed=1)
        assert nyt.num_tokens / nyt.num_docs > 3 * pm.num_tokens / pm.num_docs


class TestDatasetStats:
    def test_table3_values(self):
        # Exactly the paper's Table 3.
        assert NYTIMES.num_tokens == 99_542_125
        assert NYTIMES.num_docs == 299_752
        assert NYTIMES.num_words == 101_636
        assert PUBMED.num_tokens == 737_869_083
        assert PUBMED.num_docs == 8_200_000
        assert PUBMED.num_words == 141_043

    def test_avg_doc_lengths_match_paper(self):
        # Paper §7.1: "92 vs. 332".
        assert round(NYTIMES.avg_doc_length) == 332
        assert round(PUBMED.avg_doc_length) == 90  # 737869083 / 8.2M

    def test_scaled_preserves_avg_length(self):
        s = NYTIMES.scaled(0.01)
        assert abs(s.avg_doc_length - NYTIMES.avg_doc_length) < 2
        assert s.num_words < NYTIMES.num_words

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            NYTIMES.scaled(0.0)
        with pytest.raises(ValueError):
            NYTIMES.scaled(1.5)

    def test_table_row_format(self):
        row = NYTIMES.table_row()
        assert "NYTimes" in row and "99,542,125" in row


class TestStatsHelpers:
    def test_expected_kd_bounds(self):
        # Bounded by both K and L.
        assert expected_kd(10, 1000) <= 10.0 + 1e-9
        assert expected_kd(10000, 16) <= 16.0 + 1e-9

    def test_expected_kd_monotone_in_length(self):
        ks = [expected_kd(l, 64) for l in (1, 10, 100, 1000)]
        assert ks == sorted(ks)

    def test_expected_kd_rejects_bad_k(self):
        with pytest.raises(ValueError):
            expected_kd(10, 0)

    def test_summarize_round_trip(self, small_corpus):
        s = summarize(small_corpus)
        assert s.num_tokens == small_corpus.num_tokens
        assert s.num_docs == small_corpus.num_docs
        ds = s.as_dataset_stats()
        assert isinstance(ds, DatasetStats)
        assert ds.num_tokens == s.num_tokens

    def test_fit_zipf_degenerate(self):
        assert fit_zipf_exponent(np.array([5])) == 1.0
        assert fit_zipf_exponent(np.array([0, 0, 3])) == 1.0
