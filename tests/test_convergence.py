"""Tests for convergence detection and trainer early stopping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.convergence import ConvergenceDetector


class TestDetector:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceDetector(rel_tolerance=0)
        with pytest.raises(ValueError):
            ConvergenceDetector(window=1)
        with pytest.raises(ValueError):
            ConvergenceDetector(window=5, min_observations=3)
        d = ConvergenceDetector()
        with pytest.raises(ValueError):
            d.update(float("nan"))

    def test_not_converged_while_improving(self):
        d = ConvergenceDetector(rel_tolerance=1e-3, window=3)
        for ll in (-9.0, -8.0, -7.0, -6.0, -5.0):
            assert not d.update(ll)

    def test_converges_on_plateau(self):
        d = ConvergenceDetector(rel_tolerance=1e-3, window=3)
        trace = [-9.0, -7.0, -6.0, -5.5, -5.5001, -5.5, -5.50005]
        results = [d.update(x) for x in trace]
        assert results[-1]
        assert not results[2]

    def test_min_observations_guard(self):
        d = ConvergenceDetector(rel_tolerance=1.0, window=2,
                                min_observations=5)
        for _ in range(4):
            assert not d.update(-5.0)
        assert d.update(-5.0)

    def test_reset(self):
        d = ConvergenceDetector()
        d.update(-5.0)
        d.reset()
        assert d.num_observations == 0


class TestFig8Ordering:
    def test_culda_reaches_its_final_likelihood_first(self, medium_corpus):
        """Fig 8 (log-likelihood per token against simulated time): every
        system converges upward, and CuLDA_CGS on one V100 reaches its
        final level before the SaberLDA-like GPU system, WarpLDA on the
        CPU and the 4-node LDA* cluster do, if they ever do."""
        from repro.analysis.metrics import time_to_likelihood
        from repro.baselines import LDAStar, SaberLDA, WarpLDA
        from repro.core import CuLDA, TrainConfig
        from repro.core.model import LDAHyperParams
        from repro.gpusim.platform import pascal_platform, volta_platform

        iters, every = 15, 5
        cfg = TrainConfig(num_topics=16, iterations=iters, seed=0,
                          likelihood_every=every)
        hyper = LDAHyperParams(num_topics=16)
        runs = {
            "culda": CuLDA(medium_corpus, volta_platform(1), cfg).train(),
            "saberlda": SaberLDA(medium_corpus, pascal_platform(1), cfg).train(),
            "warplda": WarpLDA(medium_corpus, hyper, seed=0).train(
                iterations=iters, likelihood_every=every),
            "ldastar": LDAStar(medium_corpus, hyper, num_workers=4, seed=0)
            .train(iterations=iters, likelihood_every=every),
        }
        curves = {}
        for name, r in runs.items():
            clock = np.cumsum([it.sim_seconds for it in r.iterations])
            curves[name] = np.array([
                (t, it.log_likelihood_per_token)
                for t, it in zip(clock, r.iterations)
                if it.log_likelihood_per_token is not None
            ])
            assert curves[name][-1, 1] > curves[name][0, 1] + 0.3, name
        times, lls = curves["culda"].T
        t_culda = time_to_likelihood(times, lls, lls[-1])
        for name in ("saberlda", "warplda", "ldastar"):
            t_other = time_to_likelihood(*curves[name].T, lls[-1])
            assert t_other is None or t_other > t_culda, name


class TestTrainerEarlyStop:
    def test_stops_before_max_iterations(self):
        from repro.core import CuLDA, TrainConfig
        from repro.corpus.synthetic import SyntheticSpec, generate_lda_corpus
        from repro.gpusim.platform import pascal_platform

        corpus = generate_lda_corpus(
            SyntheticSpec(num_docs=60, num_words=100, avg_doc_length=30,
                          num_topics=3),
            seed=8,
        )
        r = CuLDA(
            corpus, pascal_platform(1),
            TrainConfig(num_topics=6, iterations=200, seed=0,
                        likelihood_every=5, stop_rel_tolerance=1e-3),
        ).train()
        assert len(r.iterations) < 200
        assert r.final_log_likelihood is not None

    def test_requires_likelihood_schedule(self, small_corpus):
        from repro.core import CuLDA, TrainConfig
        from repro.gpusim.platform import pascal_platform

        with pytest.raises(ValueError, match="likelihood_every"):
            CuLDA(
                small_corpus, pascal_platform(1),
                TrainConfig(num_topics=4, iterations=5, seed=0,
                            stop_rel_tolerance=1e-3),
            ).train()
