"""Tests for the §5.1 memory-capacity planner and energy model."""

from __future__ import annotations

import pytest

from repro.corpus.datasets import NYTIMES, PUBMED
from repro.gpusim.platform import GPU_A100, GPU_TITAN_X, GPU_TITAN_XP, GPU_V100
from repro.perfmodel.capacity import MemoryPlan, max_topics_resident, plan_memory


class TestPlanMemory:
    def test_nytimes_resident_on_every_gpu(self):
        """NYTimes (2 GB of chunk data) fits every Table 2 GPU at K=1024."""
        for spec in (GPU_TITAN_X, GPU_TITAN_XP, GPU_V100):
            plan = plan_memory(NYTIMES, spec, num_topics=1024)
            assert plan.resident, spec.name
            assert plan.chunks_per_gpu == 1
            assert 0 < plan.headroom_fraction < 1

    def test_pubmed_streams_on_single_gpu(self):
        """PubMed (~15 GB) cannot reside in a 12-16 GB GPU — the memory
        mechanism behind its Table 4 behaviour (EXPERIMENTS.md)."""
        for spec in (GPU_TITAN_X, GPU_TITAN_XP, GPU_V100):
            plan = plan_memory(PUBMED, spec, num_topics=1024)
            assert not plan.resident, spec.name
            assert plan.chunks_per_gpu >= 2
            assert plan.slots == 2

    def test_pubmed_resident_at_four_gpus(self):
        plan = plan_memory(PUBMED, GPU_TITAN_XP, num_topics=1024, num_gpus=4)
        assert plan.resident

    def test_pubmed_resident_on_a100(self):
        """A post-paper 40 GB GPU holds PubMed on its own, so its
        projected A100 gain beats the bandwidth ratio (EXPERIMENTS.md)."""
        assert plan_memory(PUBMED, GPU_A100, num_topics=1024).resident

    def test_model_too_big_raises(self):
        with pytest.raises(MemoryError, match="model"):
            plan_memory(PUBMED, GPU_TITAN_X, num_topics=30_000)

    def test_describe_readable(self):
        plan = plan_memory(NYTIMES, GPU_V100, num_topics=1024)
        text = plan.describe()
        assert "NYTimes" in text and "GiB" in text and "resident" in text

    def test_used_within_budget(self):
        for stats in (NYTIMES, PUBMED):
            plan = plan_memory(stats, GPU_V100, num_topics=1024)
            assert plan.used_bytes <= plan.budget_bytes


class TestMaxTopicsResident:
    def test_nytimes_frontier(self):
        k = max_topics_resident(NYTIMES, GPU_V100)
        assert k >= 1024          # the paper-scale run fits
        assert k & (k - 1) == 0   # power of two

    def test_pubmed_frontier_tiny_on_one_gpu(self):
        """PubMed only stays resident on a 12 GB GPU at toy K (θ capacity
        shrinks with K when K < doc length); any useful K streams."""
        k = max_topics_resident(PUBMED, GPU_TITAN_X)
        assert k < 64

    def test_more_gpus_raise_frontier(self):
        k1 = max_topics_resident(PUBMED, GPU_TITAN_XP, num_gpus=1)
        k4 = max_topics_resident(PUBMED, GPU_TITAN_XP, num_gpus=4)
        assert k4 > k1


class TestEnergyModel:
    def test_busy_device_burns_more(self):
        from repro.gpusim.costmodel import KernelCost
        from repro.gpusim.kernel import KernelLaunch
        from repro.gpusim.platform import pascal_platform

        idle = pascal_platform(1)
        KernelLaunch(lambda: None, KernelCost(bytes_read=1e6), "k").launch(
            idle.gpus[0].default_stream
        )
        busy = pascal_platform(1)
        KernelLaunch(lambda: None, KernelCost(bytes_read=1e9), "k").launch(
            busy.gpus[0].default_stream
        )
        assert busy.energy_joules() > idle.energy_joules() > 0

    def test_idle_gpu_draws_idle_power(self):
        from repro.gpusim.costmodel import KernelCost
        from repro.gpusim.kernel import KernelLaunch
        from repro.gpusim.platform import pascal_platform

        m = pascal_platform(2)
        # Only GPU 0 works; GPU 1 idles for the makespan.
        KernelLaunch(lambda: None, KernelCost(bytes_read=1e9), "k").launch(
            m.gpus[0].default_stream
        )
        wall = m.trace.makespan()
        spec = m.gpus[1].spec
        expected_idle = spec.tdp_watts * spec.idle_power_fraction * wall
        # Total = host + gpu0 busy + gpu1 idle; removing gpu1's idle
        # share must reduce the estimate by exactly that amount.
        with_idle = m.energy_joules()
        single = pascal_platform(1)
        KernelLaunch(lambda: None, KernelCost(bytes_read=1e9), "k").launch(
            single.gpus[0].default_stream
        )
        # Same host spec -> difference is gpu1's idle draw.
        assert with_idle - single.energy_joules() == pytest.approx(
            expected_idle, rel=1e-6
        )


    def test_volta_most_tokens_per_joule(self):
        """Tokens per joule of a training run: Volta beats Pascal and
        Maxwell, and every GPU beats the WarpLDA CPU baseline. The run
        is a 30k-token twin at K = 64; much smaller runs are dominated
        by fixed per-launch costs."""
        from repro.baselines.warplda import warplda_iteration_cost
        from repro.core import CuLDA, TrainConfig
        from repro.corpus.synthetic import nytimes_like
        from repro.gpusim.costmodel import CostModel
        from repro.gpusim.platform import (
            CPU_E5_2690V4,
            maxwell_platform,
            pascal_platform,
            volta_platform,
        )

        corpus = nytimes_like(num_tokens=30_000, num_topics=8, seed=2)
        cfg = TrainConfig(num_topics=64, iterations=4, seed=0)
        per_joule = {}
        for name, factory in (("Maxwell", maxwell_platform),
                              ("Pascal", pascal_platform),
                              ("Volta", volta_platform)):
            machine = factory(1)
            r = CuLDA(corpus, machine, cfg).train()
            tokens = corpus.num_tokens * len(r.iterations)
            per_joule[name] = tokens / machine.energy_joules()
        cost = warplda_iteration_cost(
            corpus.num_tokens, cfg.num_topics, corpus.num_words,
            corpus.num_tokens / corpus.num_docs,
        )
        cpu_seconds = CostModel().kernel_seconds(CPU_E5_2690V4, cost)
        cpu = corpus.num_tokens / (cpu_seconds * CPU_E5_2690V4.tdp_watts)
        assert per_joule["Volta"] > per_joule["Pascal"] > 0
        assert per_joule["Volta"] > per_joule["Maxwell"]
        assert min(per_joule.values()) > cpu


class TestChromeTrace:
    def test_export_valid_json(self):
        import json

        from repro.gpusim.costmodel import KernelCost
        from repro.gpusim.kernel import KernelLaunch
        from repro.gpusim.platform import pascal_platform
        from repro.gpusim.trace import to_chrome_json

        m = pascal_platform(1)
        KernelLaunch(lambda: None, KernelCost(bytes_read=1e8), "sampling").launch(
            m.gpus[0].default_stream
        )
        doc = json.loads(to_chrome_json(m.trace))
        assert doc["traceEvents"]
        ev = doc["traceEvents"][0]
        assert ev["ph"] == "X"
        assert ev["name"] == "sampling"
        assert ev["dur"] > 0
