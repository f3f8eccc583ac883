"""Tests for the R-way index tree (tree-based sampling, paper Fig 5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index_tree import IndexTree


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IndexTree(np.array([]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IndexTree(np.array([1.0, -0.1]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            IndexTree(np.array([1.0, np.nan]))

    def test_rejects_fanout_one(self):
        with pytest.raises(ValueError):
            IndexTree(np.array([1.0]), fanout=1)

    def test_total_mass(self):
        t = IndexTree(np.array([0.1, 0.2, 0.3]))
        assert t.total == pytest.approx(0.6)

    def test_depth_log_fanout(self):
        # 1000 leaves at fanout 32: levels 1000 -> 32 -> 1 => depth 3.
        t = IndexTree(np.ones(1000), fanout=32)
        assert t.depth == 3
        # Fanout 2 over 8 leaves: 8 -> 4 -> 2 -> 1 => depth 4.
        t2 = IndexTree(np.ones(8), fanout=2)
        assert t2.depth == 4
        # Wider fanout, fewer serial SIMD steps: a 64-wide AMD wavefront
        # (§2.2) is no deeper than the paper's 32-wide warp.
        depths = [IndexTree(np.ones(4096), fanout=f).depth for f in (64, 32, 2)]
        assert depths == sorted(depths)

    def test_single_leaf(self):
        t = IndexTree(np.array([5.0]))
        assert t.sample(0.0) == 0
        assert t.sample(4.999) == 0

    def test_internal_nbytes_small(self):
        # The paper's point: internal levels are ~K/31 entries at R=32.
        t = IndexTree(np.ones(10_000), fanout=32)
        assert t.internal_nbytes(4) < 10_000 * 4 / 20
        # A wider fanout keeps a smaller internal section in shared memory.
        wide = IndexTree(np.ones(4096), fanout=64).internal_nbytes()
        assert wide < IndexTree(np.ones(4096), fanout=2).internal_nbytes()


class TestSearchCorrectness:
    def test_fig5_example(self):
        """The paper's Fig 5: p = [.01 .02 .03 .02 .04 .06 .01 .01],
        u = 0.15 must land at index 5 (prefix sums .01 .03 .06 .08 .12
        .18 ...; first exceeding 0.15 is 0.18 at index 5)."""
        p = np.array([0.01, 0.02, 0.03, 0.02, 0.04, 0.06, 0.01, 0.01])
        t = IndexTree(p, fanout=2)
        assert t.sample(0.15) == 5

    @pytest.mark.parametrize("fanout", [2, 3, 8, 32, 64])
    def test_matches_searchsorted(self, fanout, rng):
        p = rng.random(257)
        t = IndexTree(p, fanout=fanout)
        cdf = np.cumsum(p)
        us = rng.random(500) * cdf[-1]
        expected = np.searchsorted(cdf, us, side="right")
        got = t.sample_many(us)
        assert np.array_equal(got, np.minimum(expected, p.size - 1))

    def test_zero_weight_leaves_skipped(self):
        p = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
        t = IndexTree(p, fanout=2)
        samples = t.sample_many(np.linspace(0, 2.9999, 100))
        assert set(np.unique(samples)) <= {1, 3}

    def test_boundary_u_equal_total_clamped(self):
        p = np.array([1.0, 1.0])
        t = IndexTree(p)
        # u == total (can occur through float round-off upstream).
        assert t.sample(2.0) == 1

    def test_prefix_sum_matches_numpy(self, rng):
        p = rng.random(100)
        t = IndexTree(p)
        assert np.allclose(t.prefix_sum(), np.cumsum(p))

    def test_sampling_distribution_chi_square(self, rng):
        """Sampling u ~ U(0, total) through the tree must reproduce the
        weight distribution."""
        from scipy.stats import chisquare

        p = np.array([0.1, 0.4, 0.2, 0.3])
        t = IndexTree(p, fanout=2)
        n = 20_000
        us = rng.random(n) * t.total
        samples = t.sample_many(us)
        observed = np.bincount(samples, minlength=4)
        _, pvalue = chisquare(observed, p / p.sum() * n)
        assert pvalue > 1e-4


class TestSearchProperties:
    @given(
        weights=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ).filter(lambda w: sum(w) > 1e-9),
        fanout=st.sampled_from([2, 4, 32]),
        u_frac=st.floats(min_value=0.0, max_value=0.999999),
    )
    @settings(max_examples=200, deadline=None)
    def test_sample_satisfies_cdf_bracket(self, weights, fanout, u_frac):
        """For any valid target u, the returned index k satisfies
        cdf[k-1] <= u < cdf[k] (up to float tolerance) and w[k] > 0."""
        w = np.asarray(weights)
        t = IndexTree(w, fanout=fanout)
        u = u_frac * t.total
        k = t.sample(u)
        cdf = np.cumsum(w)
        tol = 1e-9 * max(1.0, cdf[-1])
        assert 0 <= k < w.size
        assert w[k] > 0
        assert cdf[k] >= u - tol
        if k > 0:
            assert cdf[k - 1] <= u + tol

    @given(
        n=st.integers(min_value=1, max_value=300),
        fanout=st.sampled_from([2, 32]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_tree_total_equals_sum(self, n, fanout, seed):
        rng = np.random.default_rng(seed)
        w = rng.random(n)
        t = IndexTree(w, fanout=fanout)
        assert t.total == pytest.approx(w.sum(), rel=1e-12)

    @given(
        n=st.integers(min_value=2, max_value=100),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_fanouts_agree(self, n, seed):
        """Any two fanouts must return the same index for the same u."""
        rng = np.random.default_rng(seed)
        w = rng.random(n)
        us = rng.random(20) * w.sum() * 0.999999
        a = IndexTree(w, fanout=2).sample_many(us)
        b = IndexTree(w, fanout=32).sample_many(us)
        assert np.array_equal(a, b)
