"""Tests for the analysis layer: roofline (Table 1), metrics, sparsity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import (
    speedup_table,
    steady_state_mean,
    time_to_likelihood,
    tokens_per_sec,
)
from repro.analysis.roofline import (
    average_flops_per_byte,
    format_table1,
    is_memory_bound,
    table1_rows,
)
from repro.analysis.sparsity import (
    SparsityModel,
    fit_sparsity_model,
    measure_kd_curve,
)
from repro.corpus.datasets import NYTIMES, PUBMED
from repro.gpusim.platform import CPU_E5_2690V4, GPU_TITAN_X, GPU_TITAN_XP, GPU_V100


class TestTable1:
    def test_exact_paper_values(self):
        """Table 1: 0.33 / 0.25 / 0.30 / 0.19."""
        rows = {r.name: r.flops_per_byte for r in table1_rows()}
        assert rows["Compute S"] == pytest.approx(0.33, abs=0.005)
        assert rows["Compute Q"] == pytest.approx(0.25, abs=0.005)
        assert rows["Sampling from p1(k)"] == pytest.approx(0.30, abs=0.005)
        assert rows["Sampling from p2(k)"] == pytest.approx(0.19, abs=0.005)

    def test_average_is_027(self):
        """The paper's headline: 0.27 Flops/Byte on average."""
        assert average_flops_per_byte() == pytest.approx(0.27, abs=0.005)

    def test_memory_bound_on_all_platforms(self):
        """§3's conclusion: LDA sits far below every ridge point."""
        for spec in (CPU_E5_2690V4, GPU_TITAN_X, GPU_TITAN_XP, GPU_V100):
            assert is_memory_bound(spec), spec.name

    def test_ridge_comparison_override(self):
        # A hypothetical compute-heavy workload would not be memory bound.
        assert not is_memory_bound(CPU_E5_2690V4, flops_per_byte=100.0)

    def test_format_table(self):
        text = format_table1()
        assert "Compute S" in text and "0.33" in text and "0.27" in text


class TestMetrics:
    def test_eq2(self):
        assert tokens_per_sec(1000, 10, 2.0) == 5000

    def test_eq2_rejects_zero_time(self):
        with pytest.raises(ValueError):
            tokens_per_sec(1000, 10, 0.0)

    def test_speedup_table(self):
        t = speedup_table(100.0, {"a": 730.0, "b": 50.0})
        assert t["a"] == pytest.approx(7.3)
        assert t["b"] == pytest.approx(0.5)

    def test_speedup_rejects_bad_baseline(self):
        with pytest.raises(ValueError):
            speedup_table(0.0, {})

    def test_steady_state_mean_skips_ramp(self):
        series = np.array([1.0, 1.0, 10.0, 10.0, 10.0])
        assert steady_state_mean(series, skip_fraction=0.4) == 10.0

    def test_time_to_likelihood(self):
        times = np.array([1.0, 2.0, 3.0])
        lls = np.array([-9.0, -7.0, -6.0])
        assert time_to_likelihood(times, lls, -7.0) == 2.0
        assert time_to_likelihood(times, lls, -1.0) is None


class TestSparsityModel:
    def test_kd_decays_to_floor(self):
        m = SparsityModel(kd0=100.0, kd_inf=20.0, tau=5.0)
        assert m.kd(0) == pytest.approx(100.0)
        assert m.kd(1000) == pytest.approx(20.0, abs=1e-6)
        ks = m.kd(np.arange(50))
        assert np.all(np.diff(ks) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SparsityModel(kd0=10, kd_inf=20, tau=5)  # floor above start
        with pytest.raises(ValueError):
            SparsityModel(kd0=10, kd_inf=5, tau=0)

    def test_from_stats_pubmed_starts_sparser(self):
        """§7.1's explanation of Fig 7: PubMed's short documents give a
        much sparser initial θ than NYTimes'."""
        nyt = SparsityModel.from_stats(NYTIMES, 1024)
        pm = SparsityModel.from_stats(PUBMED, 1024)
        assert pm.kd0 < 0.5 * nyt.kd0

    def test_from_stats_bounded_by_doc_length(self):
        m = SparsityModel.from_stats(PUBMED, 100_000)
        assert m.kd0 <= PUBMED.avg_doc_length

    def test_measure_kd_curve_decreases(self):
        from repro.corpus.synthetic import nytimes_like

        c = nytimes_like(num_tokens=20_000, num_topics=8, seed=1)
        curve = measure_kd_curve(c, num_topics=32, iterations=12, seed=0)
        assert curve.shape == (12,)
        assert curve[-1] < curve[0]

    def test_fit_recovers_exponential(self):
        true = SparsityModel(kd0=200.0, kd_inf=50.0, tau=8.0)
        curve = np.asarray(true.kd(np.arange(40)))
        fit = fit_sparsity_model(curve)
        assert fit.kd0 == pytest.approx(200.0, rel=0.05)
        assert fit.kd_inf == pytest.approx(50.0, rel=0.1)
        assert fit.tau == pytest.approx(8.0, rel=0.25)

    def test_fit_flat_curve(self):
        fit = fit_sparsity_model(np.full(10, 42.0))
        assert fit.kd0 == pytest.approx(42.0)
        assert fit.kd_inf <= fit.kd0

    def test_fit_needs_points(self):
        with pytest.raises(ValueError):
            fit_sparsity_model(np.array([1.0, 2.0]))
