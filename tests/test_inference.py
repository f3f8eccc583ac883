"""Tests for fold-in inference and held-out evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CuLDA, TrainConfig
from repro.core.inference import (
    foldin_tables,
    held_out_log_likelihood,
    infer_documents,
)
from repro.core.kernels import KernelConfig, word_tables
from repro.core.model import LDAHyperParams
from repro.corpus.corpus import Corpus
from repro.corpus.synthetic import SyntheticSpec, generate_lda_corpus
from repro.gpusim.platform import pascal_platform


@pytest.fixture(scope="module")
def trained():
    """A trained model plus a held-out slice of the same distribution."""
    spec = SyntheticSpec(num_docs=150, num_words=250, avg_doc_length=60,
                         num_topics=5, name="ho")
    full = generate_lda_corpus(spec, seed=31)
    train = full.slice_docs(0, 120, name="train")
    held = full.slice_docs(120, 150, name="held")
    result = CuLDA(
        train, pascal_platform(1),
        TrainConfig(num_topics=10, iterations=30, seed=0),
    ).train()
    return result, train, held


class TestInferDocuments:
    @pytest.mark.parametrize("config", [
        None, KernelConfig(compressed=False, token_slab=64),
    ])
    def test_single_corpus_bits_pinned(self, config):
        """Absolute bits of one corpus's fold-in (12 documents, 3,941
        tokens, V = 644), recorded before a batch of corpora shared one
        sampler call: sha256 of doc_topic, θ's three arrays and the
        log-likelihood. The small slab splits the call into many."""
        import hashlib

        from repro.corpus.synthetic import nytimes_like

        corpus = nytimes_like(num_tokens=4000, seed=1)
        phi = np.random.default_rng(5).integers(
            0, 40, size=(16, corpus.num_words)
        )
        inf = infer_documents(corpus, phi, LDAHyperParams(num_topics=16),
                              iterations=6, seed=3, config=config)
        digest = hashlib.sha256()
        for a in (inf.doc_topic, inf.theta.indptr, inf.theta.indices,
                  inf.theta.data, np.float64(inf.log_likelihood_per_token)):
            digest.update(a.tobytes())
        assert digest.hexdigest()[:16] == "270ff873699aff06"
        assert inf.log_likelihood_per_token == -6.395738699741405

    def test_batch_equals_separate_calls(self, trained):
        """Each corpus of a batch gets its own call's bits, whatever the
        others' sweep counts and seeds."""
        result, _, held = trained
        corpora = [held.slice_docs(a, b) for a, b in
                   ((0, 3), (3, 4), (4, 10), (10, 12))]
        sweeps, seeds = [4, 2, 5, 4], [7, 8, 9, 7]
        batch = infer_documents(corpora, result.phi, result.hyper,
                                iterations=sweeps, seed=seeds)
        for corpus, n, seed, got in zip(corpora, sweeps, seeds, batch):
            want = infer_documents(corpus, result.phi, result.hyper,
                                   iterations=n, seed=seed)
            assert np.array_equal(got.doc_topic, want.doc_topic)
            assert got.theta == want.theta
            assert got.log_likelihood_per_token == (
                want.log_likelihood_per_token
            )
            assert got.iterations == n

    def test_batch_arguments_checked(self, trained):
        result, _, held = trained
        with pytest.raises(ValueError, match="2 entries for 3 corpora"):
            infer_documents([held] * 3, result.phi, result.hyper,
                            iterations=[2, 3])
        with pytest.raises(ValueError, match="iterations"):
            infer_documents([held] * 2, result.phi, result.hyper,
                            iterations=[2, 0])

    def test_shapes_and_normalization(self, trained):
        result, _, held = trained
        inf = infer_documents(held, result.phi, result.hyper, iterations=10,
                              seed=1)
        assert inf.doc_topic.shape == (held.num_docs, 10)
        assert np.allclose(inf.doc_topic.sum(axis=1), 1.0)
        assert np.all(inf.doc_topic > 0)
        assert inf.theta.data.sum() == held.num_tokens

    def test_deterministic(self, trained):
        result, _, held = trained
        a = infer_documents(held, result.phi, result.hyper, iterations=6, seed=4)
        b = infer_documents(held, result.phi, result.hyper, iterations=6, seed=4)
        assert np.array_equal(a.doc_topic, b.doc_topic)

    def test_more_sweeps_beat_one(self, trained):
        """Held-out likelihood after proper fold-in exceeds a 1-sweep,
        no-burn-in estimate."""
        result, _, held = trained
        rough = infer_documents(held, result.phi, result.hyper,
                                iterations=1, burn_in=0, seed=2)
        good = infer_documents(held, result.phi, result.hyper,
                               iterations=20, seed=2)
        assert good.log_likelihood_per_token >= rough.log_likelihood_per_token - 0.05

    def test_trained_model_beats_random_phi(self, trained):
        """The trained φ must predict held-out data better than a random
        φ with the same totals — inference end-to-end sanity."""
        result, _, held = trained
        good = infer_documents(held, result.phi, result.hyper,
                               iterations=15, seed=3)
        rng = np.random.default_rng(0)
        fake_phi = rng.permutation(result.phi.ravel()).reshape(result.phi.shape)
        bad = infer_documents(held, fake_phi, result.hyper,
                              iterations=15, seed=3)
        assert good.log_likelihood_per_token > bad.log_likelihood_per_token

    def test_passed_tables_give_the_same_bits(self, trained):
        """Tables built once by the caller == tables built per call."""
        result, _, held = trained
        phi64 = result.phi.astype(np.int64)
        tables = word_tables(phi64, phi64.sum(axis=1), result.hyper)
        default = infer_documents(held, result.phi, result.hyper,
                                  iterations=6, seed=4)
        for given in (tables, foldin_tables(result.phi, result.hyper)):
            cached = infer_documents(held, result.phi, result.hyper,
                                     iterations=6, seed=4, tables=given)
            assert np.array_equal(cached.doc_topic, default.doc_topic)
            assert np.array_equal(cached.theta.to_dense(),
                                  default.theta.to_dense())
            assert (cached.log_likelihood_per_token
                    == default.log_likelihood_per_token)

    def test_tables_of_another_shape_rejected(self, trained):
        result, _, held = trained
        narrow = foldin_tables(result.phi[:, :-1], result.hyper)
        with pytest.raises(ValueError, match="tables"):
            infer_documents(held, result.phi, result.hyper, tables=narrow)

    def test_likelihood_matches_public_estimate(self, trained):
        """The fold-in's likelihood (read off p*) equals the public
        held-out estimate on the same mixtures, bit for bit."""
        result, _, held = trained
        inf = infer_documents(held, result.phi, result.hyper, iterations=4,
                              seed=2)
        phi64 = result.phi.astype(np.int64)
        assert inf.log_likelihood_per_token == held_out_log_likelihood(
            held, inf.doc_topic, phi64, phi64.sum(axis=1), result.hyper
        )

    def test_validation(self, trained):
        result, _, held = trained
        with pytest.raises(ValueError):
            infer_documents(held, result.phi, result.hyper, iterations=0)
        with pytest.raises(ValueError):
            infer_documents(held, result.phi, result.hyper, iterations=5,
                            burn_in=5)
        with pytest.raises(ValueError, match="topics"):
            infer_documents(held, result.phi, LDAHyperParams(num_topics=3))

    def test_vocabulary_too_large_rejected(self, trained):
        result, *_ = trained
        big = Corpus.from_documents([[result.phi.shape[1] + 3]],
                                    num_words=result.phi.shape[1] + 4)
        with pytest.raises(ValueError, match="vocabulary"):
            infer_documents(big, result.phi, result.hyper)

    def test_out_of_range_word_ids_rejected(self, trained):
        """A corpus whose *declared* vocabulary fits φ but whose actual
        ids spill past φ's columns gets a clear ValueError, not an
        IndexError from inside the sampling kernel."""
        result, *_ = trained
        V = result.phi.shape[1]
        wide = Corpus(
            np.array([0, V + 2], dtype=np.int32),
            np.array([0, 2], dtype=np.int64),
            V + 8,
        )
        with pytest.raises(ValueError, match="vocabulary|word id"):
            infer_documents(wide, result.phi, result.hyper)

    def test_one_dimensional_phi_rejected(self, trained):
        result, _, held = trained
        with pytest.raises(ValueError, match="2-D"):
            infer_documents(held, result.phi.ravel(), result.hyper)

    def test_narrower_corpus_accepted(self, trained):
        """A held-out corpus that only uses a prefix of the vocabulary
        still works (φ is wider)."""
        result, *_ = trained
        small = Corpus.from_documents([[0, 1, 2], [1, 1]], num_words=3)
        inf = infer_documents(small, result.phi, result.hyper, iterations=4)
        assert inf.doc_topic.shape[0] == 2


class TestHeldOutLikelihood:
    def test_rejects_empty(self, trained):
        result, *_ = trained
        empty = Corpus.from_documents([[]], num_words=2)
        with pytest.raises(ValueError):
            held_out_log_likelihood(
                empty, np.ones((1, 10)) / 10, result.phi,
                result.phi.sum(axis=1), result.hyper,
            )

    def test_out_of_range_word_ids_rejected(self, trained):
        """Regression: this used to raise a bare IndexError from the
        einsum gather (or return silently wrong wrapped-index scores)."""
        result, *_ = trained
        V = result.phi.shape[1]
        wide = Corpus(
            np.array([0, V + 2], dtype=np.int32),
            np.array([0, 2], dtype=np.int64),
            V + 8,
        )
        uniform = np.full((1, 10), 0.1)
        with pytest.raises(ValueError, match="word id"):
            held_out_log_likelihood(
                wide, uniform, result.phi, result.phi.sum(axis=1),
                result.hyper,
            )

    def test_one_dimensional_phi_rejected(self, trained):
        result, *_ = trained
        doc = Corpus.from_documents([[0, 1]], num_words=2)
        with pytest.raises(ValueError, match="2-D"):
            held_out_log_likelihood(
                doc, np.full((1, 10), 0.1), result.phi.ravel(),
                result.phi.sum(axis=1), result.hyper,
            )

    def test_peaked_mixture_beats_uniform_on_matching_doc(self, trained):
        result, train, _ = trained
        hyper = result.hyper
        phi = result.phi.astype(np.int64)
        n_k = phi.sum(axis=1)
        # A document of topic-0's favourite words.
        top = np.argsort(phi[0])[::-1][:20]
        doc = Corpus.from_bow(
            np.zeros(20, dtype=np.int64), top.astype(np.int32),
            np.ones(20, dtype=np.int64), num_docs=1,
            num_words=phi.shape[1],
        )
        peaked = np.full((1, hyper.num_topics), 1e-6)
        peaked[0, 0] = 1.0
        peaked /= peaked.sum()
        uniform = np.full((1, hyper.num_topics), 1.0 / hyper.num_topics)
        ll_peak = held_out_log_likelihood(doc, peaked, phi, n_k, hyper)
        ll_unif = held_out_log_likelihood(doc, uniform, phi, n_k, hyper)
        assert ll_peak > ll_unif
