"""Tests for the unified training engine: loop, run state, resume."""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.baselines.warplda import WarpLDA
from repro.core import CuLDA, TrainConfig
from repro.core.model import LDAHyperParams, SparseTheta
from repro.core.serialization import (
    load_model,
    load_run_state,
    save_model,
    save_run_state,
)
from repro.engine import (
    Algorithm,
    IterationStats,
    RunState,
    freeze_rng_state,
    thaw_rng_state,
)
from repro.gpusim.platform import pascal_platform


class _CopyCheckpointAt:
    """Callback that snapshots the checkpoint file mid-run.

    The loop writes the ``save_every`` checkpoint right after firing
    ``on_iteration_end`` for the saving iteration, so copying on the
    *next* iteration's event captures the mid-run state before the final
    save overwrites it.
    """

    def __init__(self, iteration: int, src, dst):
        self.iteration = iteration
        self.src, self.dst = src, dst

    def on_iteration_end(self, event: dict) -> None:
        if event["iteration"] == self.iteration:
            shutil.copy(self.src, self.dst)


class TestRngState:
    def test_freeze_thaw_resumes_stream(self):
        rng = np.random.default_rng(42)
        rng.random(100)
        payload = freeze_rng_state(rng)
        twin = thaw_rng_state(payload)
        assert np.array_equal(rng.random(50), twin.random(50))
        assert np.array_equal(rng.integers(0, 99, 50), twin.integers(0, 99, 50))


class TestLoopValidation:
    def test_stop_tolerance_requires_cadence(self, small_corpus):
        trainer = CuLDA(
            small_corpus, pascal_platform(1),
            TrainConfig(num_topics=8, iterations=2, stop_rel_tolerance=1e-3),
        )
        with pytest.raises(ValueError, match="likelihood_every"):
            trainer.train()

    def test_save_every_requires_path(self, small_corpus):
        trainer = CuLDA(
            small_corpus, pascal_platform(1),
            TrainConfig(num_topics=8, iterations=2),
        )
        with pytest.raises(ValueError, match="checkpoint_path"):
            trainer.train(save_every=1)

    def test_resume_refuses_other_algorithm(self, small_corpus, hyper8,
                                            tmp_path):
        ckpt = tmp_path / "culda.npz"
        CuLDA(
            small_corpus, pascal_platform(1),
            TrainConfig(num_topics=8, iterations=2, seed=0),
        ).train(save_every=1, checkpoint_path=ckpt)
        with pytest.raises(ValueError, match="warplda"):
            WarpLDA(small_corpus, hyper8, seed=0).train(
                iterations=4, resume=ckpt
            )

    def test_unimplemented_algorithm_surface(self):
        algo = Algorithm()
        with pytest.raises(NotImplementedError):
            algo.init_state()
        with pytest.raises(NotImplementedError):
            algo.run_iteration(RunState(algo="algorithm"))


class TestRunStateSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        rng.random(17)
        theta = SparseTheta(
            np.array([0, 2, 2, 3]),
            np.array([0, 3, 1], dtype=np.uint16),
            np.array([2, 1, 4], dtype=np.int32),
            8,
        )
        state = RunState(
            algo="culda",
            iteration=3,
            sim_seconds=1.25,
            history=[
                IterationStats(0, 0.5, 100.0, 2.0, 0.9, None),
                IterationStats(1, 0.75, 90.0, 1.5, 0.8, -7.5),
            ],
            phi=np.arange(24, dtype=np.int32).reshape(8, 3),
            topics=[np.array([1, 2, 3], dtype=np.uint16)],
            thetas=[theta],
            rngs=[rng],
            extras={"t": np.array([7], dtype=np.int64)},
        )
        p = tmp_path / "run.npz"
        save_run_state(
            state, p, hyper=LDAHyperParams(num_topics=8), corpus_name="c"
        )
        loaded = load_run_state(p)
        assert loaded.algo == "culda"
        assert loaded.iteration == 3
        assert loaded.sim_seconds == 1.25
        assert loaded.history == state.history
        assert np.array_equal(loaded.phi, state.phi)
        assert np.array_equal(loaded.topics[0], state.topics[0])
        assert loaded.thetas[0] == theta
        assert np.array_equal(loaded.extras["t"], state.extras["t"])
        # The restored RNG continues the original stream exactly.
        assert np.array_equal(loaded.rngs[0].random(9), rng.random(9))

    def test_run_state_loads_as_model(self, small_corpus, tmp_path):
        ckpt = tmp_path / "run.npz"
        CuLDA(
            small_corpus, pascal_platform(1),
            TrainConfig(num_topics=8, iterations=2, seed=0),
        ).train(
            save_every=1, checkpoint_path=ckpt,
            vocabulary=small_corpus.vocabulary,
        )
        model = load_model(ckpt)
        assert model.algo == "culda"
        assert model.corpus_name == small_corpus.name
        assert model.phi.shape == (8, small_corpus.num_words)
        assert model.theta is None  # run states carry per-shard θ instead

    def test_plain_model_refuses_resume(self, small_corpus, tmp_path):
        p = tmp_path / "model.npz"
        result = CuLDA(
            small_corpus, pascal_platform(1),
            TrainConfig(num_topics=8, iterations=2, seed=0),
        ).train()
        save_model(result, p)
        with pytest.raises(ValueError, match="run-state"):
            load_run_state(p)


class TestResumeDeterminism:
    """ISSUE acceptance: train N iterations vs train n, checkpoint,
    resume to N — φ, θ, z, and the likelihood trace are bit-identical."""

    def test_culda_bit_identical(self, small_corpus, tmp_path):
        cfg = TrainConfig(
            num_topics=8, iterations=6, seed=3, likelihood_every=2
        )
        ckpt = tmp_path / "run.npz"
        mid = tmp_path / "mid.npz"
        full = CuLDA(small_corpus, pascal_platform(2), cfg).train(
            callbacks=[_CopyCheckpointAt(3, ckpt, mid)],
            save_every=3,
            checkpoint_path=ckpt,
        )
        assert load_run_state(mid).iteration == 3

        resumed = CuLDA(small_corpus, pascal_platform(2), cfg).train(
            resume=mid
        )
        assert np.array_equal(full.phi, resumed.phi)
        assert full.theta == resumed.theta
        assert np.array_equal(full.topics, resumed.topics)
        assert len(resumed.iterations) == 6
        assert [s.log_likelihood_per_token for s in full.iterations] == [
            s.log_likelihood_per_token for s in resumed.iterations
        ]

    def test_warplda_bit_identical(self, small_corpus, hyper8, tmp_path):
        ckpt = tmp_path / "run.npz"
        mid = tmp_path / "mid.npz"
        full = WarpLDA(small_corpus, hyper8, seed=5).train(
            iterations=6,
            likelihood_every=2,
            callbacks=[_CopyCheckpointAt(3, ckpt, mid)],
            save_every=3,
            checkpoint_path=ckpt,
        )
        resumed_trainer = WarpLDA(small_corpus, hyper8, seed=5)
        resumed = resumed_trainer.train(
            iterations=6, likelihood_every=2, resume=mid
        )
        assert np.array_equal(full.phi, resumed.phi)
        assert full.theta == resumed.theta
        assert np.array_equal(resumed_trainer.topics,
                              resumed_trainer.topics)
        assert [s.log_likelihood_per_token for s in full.iterations] == [
            s.log_likelihood_per_token for s in resumed.iterations
        ]

    def test_ldastar_bit_identical(self, small_corpus, hyper8, tmp_path):
        from repro.baselines.ldastar import LDAStar

        ckpt = tmp_path / "run.npz"
        mid = tmp_path / "mid.npz"
        kwargs = dict(num_workers=3, staleness=1, seed=2)
        full = LDAStar(small_corpus, hyper8, **kwargs).train(
            iterations=6,
            likelihood_every=2,
            callbacks=[_CopyCheckpointAt(3, ckpt, mid)],
            save_every=3,
            checkpoint_path=ckpt,
        )
        resumed = LDAStar(small_corpus, hyper8, **kwargs).train(
            iterations=6, likelihood_every=2, resume=mid
        )
        assert np.array_equal(full.phi, resumed.phi)
        assert full.theta == resumed.theta
        assert full.network_bytes == pytest.approx(resumed.network_bytes)
        assert [s.log_likelihood_per_token for s in full.iterations] == [
            s.log_likelihood_per_token for s in resumed.iterations
        ]

    def test_scvb0_bit_identical(self, small_corpus, hyper8, tmp_path):
        from repro.baselines.scvb0 import SCVB0

        ckpt = tmp_path / "run.npz"
        mid = tmp_path / "mid.npz"
        full = SCVB0(small_corpus, hyper8, seed=4).train(
            iterations=4,
            likelihood_every=2,
            callbacks=[_CopyCheckpointAt(2, ckpt, mid)],
            save_every=2,
            checkpoint_path=ckpt,
        )
        resumed = SCVB0(small_corpus, hyper8, seed=4).train(
            iterations=4, likelihood_every=2, resume=mid
        )
        assert np.array_equal(full.n_phi, resumed.n_phi)
        assert np.array_equal(full.n_theta, resumed.n_theta)
        assert [s.log_likelihood_per_token for s in full.iterations] == [
            s.log_likelihood_per_token for s in resumed.iterations
        ]

    def test_resume_fires_resumed_marker(self, small_corpus, tmp_path):
        events = []

        class Recorder:
            def on_train_start(self, event):
                events.append(event)

        cfg = TrainConfig(num_topics=8, iterations=4, seed=0)
        ckpt = tmp_path / "run.npz"
        CuLDA(small_corpus, pascal_platform(1), cfg).train(
            save_every=2, checkpoint_path=ckpt
        )
        CuLDA(small_corpus, pascal_platform(1), cfg).train(
            callbacks=[Recorder()], resume=ckpt
        )
        # The checkpoint holds the completed run; resume starts at 4.
        assert events[-1]["resumed_from_iteration"] == 4
        assert events[-1]["algo"] == "culda"


class TestUnifiedResult:
    def test_every_trainer_reports_algo(self, small_corpus, hyper8):
        from repro.baselines import LDAStar, SCVB0, SaberLDA

        results = {
            "culda": CuLDA(
                small_corpus, pascal_platform(1),
                TrainConfig(num_topics=8, iterations=2, seed=0),
            ).train(),
            "saberlda": SaberLDA(
                small_corpus,
                config=TrainConfig(num_topics=8, iterations=2, seed=0),
            ).train(),
            "warplda": WarpLDA(small_corpus, hyper8, seed=0).train(
                iterations=2
            ),
            "scvb0": SCVB0(small_corpus, hyper8, seed=0).train(iterations=2),
            "ldastar": LDAStar(
                small_corpus, hyper8, num_workers=2, seed=0
            ).train(iterations=2),
        }
        for algo, result in results.items():
            assert result.algo == algo
            assert result.phi is not None
            assert result.hyper.num_topics == 8
            assert len(result.iterations) == 2
            assert result.final_log_likelihood is not None
            assert result.summary()  # renders for every trainer

    def test_summaries_name_the_algorithm(self, small_corpus, hyper8):
        r = WarpLDA(small_corpus, hyper8, seed=0).train(iterations=2)
        assert r.summary().startswith("WarpLDA on ")

    def test_no_trainer_keeps_a_private_loop(self):
        """The tentpole invariant: iteration control lives only in the
        engine — no trainer module retains a per-algorithm train loop."""
        import inspect

        import repro.baselines.ldastar as ldastar
        import repro.baselines.scvb0 as scvb0
        import repro.baselines.warplda as warplda
        import repro.core.culda as culda

        for mod in (culda, warplda, scvb0, ldastar):
            assert "_train_impl" not in inspect.getsource(mod)
        assert "TrainingLoop" in inspect.getsource(culda)
        # The baselines share the one engine-driven train().
        assert "TrainingLoop" in inspect.getsource(Algorithm.train)
        for cls in (warplda.WarpLDA, scvb0.SCVB0, ldastar.LDAStar):
            assert cls.train is Algorithm.train
