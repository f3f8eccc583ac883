"""Tests for the §6.1.2 thread-block assignment and its long-tail rule."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blockplan import BlockPlan, plan_blocks, simulate_block_schedule
from repro.core.kernels import BLOCK_TOKEN_CAPACITY, sampling_launch_plan


def _indptr(counts):
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class TestPlanBlocks:
    def test_covers_all_tokens(self):
        plan = plan_blocks(_indptr([5, 0, 1200, 3]), capacity=512)
        assert plan.total_tokens == 1208
        assert plan.num_blocks == 5  # 1 + 3 (1200 = 512+512+176) + 1

    def test_heavy_words_get_lowest_ids(self):
        plan = plan_blocks(_indptr([5, 0, 1200, 3]), capacity=512)
        assert plan.block_word[0] == 2  # the 1200-token word leads
        # Its segments occupy the first block ids.
        assert set(plan.block_word[:3]) == {2}

    def test_word_order_variant(self):
        plan = plan_blocks(_indptr([5, 0, 1200, 3]), capacity=512,
                           heavy_first=False)
        assert plan.block_word[0] == 0

    def test_no_block_exceeds_capacity(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 3000, size=50)
        plan = plan_blocks(_indptr(counts), capacity=512)
        assert plan.block_tokens.max() <= 512
        assert plan.total_tokens == counts.sum()

    def test_empty_chunk(self):
        plan = plan_blocks(_indptr([0, 0]))
        assert plan.num_blocks == 0
        assert plan.load_imbalance() == 1.0

    def test_matches_launch_plan_count(self):
        counts = [5, 0, 1200, 3, 517]
        ip = _indptr(counts)
        plan = plan_blocks(ip, capacity=BLOCK_TOKEN_CAPACITY)
        blocks, _ = sampling_launch_plan(ip)
        assert plan.num_blocks == blocks

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_blocks(_indptr([3]), capacity=0)
        with pytest.raises(ValueError):
            BlockPlan(np.array([0]), np.array([0]))


class TestScheduleSimulation:
    def test_single_sm_makespan_is_total(self):
        plan = plan_blocks(_indptr([10, 20, 30]), capacity=512)
        assert simulate_block_schedule(plan, num_sms=1) == pytest.approx(60.0)

    def test_perfect_split(self):
        plan = plan_blocks(_indptr([100, 100]), capacity=512)
        assert simulate_block_schedule(plan, num_sms=2) == pytest.approx(100.0)

    def test_long_tail_avoidance_wins(self):
        """The paper's rule, measured: one giant word among many small
        ones — heavy-first scheduling shortens the makespan versus
        word-order (where the giant starts last and becomes the tail)."""
        counts = [40] * 100 + [512 * 6]  # giant word id 100, listed last
        ip = _indptr(counts)
        heavy = plan_blocks(ip, capacity=512, heavy_first=True)
        naive = plan_blocks(ip, capacity=512, heavy_first=False)
        t_heavy = simulate_block_schedule(heavy, num_sms=8)
        t_naive = simulate_block_schedule(naive, num_sms=8)
        assert t_heavy < t_naive

    def test_heavy_first_never_worse_on_random_loads(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            counts = rng.integers(1, 2000, size=64)
            ip = _indptr(counts)
            t_heavy = simulate_block_schedule(
                plan_blocks(ip, heavy_first=True), num_sms=12
            )
            t_naive = simulate_block_schedule(
                plan_blocks(ip, heavy_first=False), num_sms=12
            )
            assert t_heavy <= t_naive * 1.001

    def test_heavy_first_never_worse_on_zipf_twin(self):
        """The rule on a Zipf workload, at the Titan / Pascal / Volta SM
        counts with 8 resident blocks per SM."""
        from repro.corpus.synthetic import nytimes_like

        chunk = nytimes_like(num_tokens=200_000, num_topics=8, seed=6).to_chunk()
        heavy = plan_blocks(chunk.word_indptr, heavy_first=True)
        naive = plan_blocks(chunk.word_indptr, heavy_first=False)
        for sms in (24, 28, 80):
            t_heavy = simulate_block_schedule(heavy, num_sms=sms, blocks_per_sm=8)
            t_naive = simulate_block_schedule(naive, num_sms=sms, blocks_per_sm=8)
            assert t_heavy <= t_naive * 1.001, sms

    def test_validation(self):
        plan = plan_blocks(_indptr([5]))
        with pytest.raises(ValueError):
            simulate_block_schedule(plan, num_sms=0)


class TestPlanProperties:
    @given(
        counts=st.lists(st.integers(0, 5000), min_size=1, max_size=40),
        capacity=st.sampled_from([32, 512, 1024]),
        heavy=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_plan_invariants(self, counts, capacity, heavy):
        ip = _indptr(counts)
        plan = plan_blocks(ip, capacity=capacity, heavy_first=heavy)
        assert plan.total_tokens == sum(counts)
        if plan.num_blocks:
            assert plan.block_tokens.max() <= capacity
        # Per-word token totals preserved.
        for w, c in enumerate(counts):
            owned = plan.block_tokens[plan.block_word == w].sum()
            assert owned == c
