"""Alias tables — the competing O(1) sampling structure.

CuLDA_CGS samples the dense part p₂(k) through a 32-way index tree
(Fig 5). The main competing design in the literature the paper builds
on (LightLDA [35], SaberLDA [20], F+LDA) is the **alias table** (Vose's
method): O(K) construction, O(1) per draw, at the cost of staleness —
the table encodes the distribution at build time, so MH corrections or
periodic rebuilds are needed when counts move.

This module implements Vose's algorithm exactly, plus a vectorized
multi-draw, so the tree-vs-alias design choice is measurable
(``tests/test_alias.py``): per *word*, the tree costs
O(K) build + O(log₃₂ K) per draw, the alias table O(K) build + O(1)
per draw — with CuLDA's block sharing both builds amortize, and the
draw-cost difference is what remains.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AliasTable"]


class AliasTable:
    """Vose alias table over a nonnegative weight vector.

    After construction, a draw takes one uniform (bucket) + one
    uniform (coin): ``k = bucket if coin < prob[bucket] else
    alias[bucket]``.
    """

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative")
        total = w.sum()
        if total <= 0:
            raise ValueError("total weight must be positive")
        self.size = int(w.size)
        self.total = float(total)

        n = self.size
        scaled = w * (n / total)
        prob = np.ones(n, dtype=np.float64)
        alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            (small if scaled[l] < 1.0 else large).append(l)
        for i in large + small:
            prob[i] = 1.0
        self.prob = prob
        self.alias = alias

    def sample(self, u_bucket: float, u_coin: float) -> int:
        """One draw from two uniforms in [0, 1)."""
        return int(self.sample_many(np.asarray([u_bucket]), np.asarray([u_coin]))[0])

    def sample_many(self, u_bucket: np.ndarray, u_coin: np.ndarray) -> np.ndarray:
        """Vectorized draws; both inputs in [0, 1), equal shapes."""
        u_bucket = np.asarray(u_bucket, dtype=np.float64)
        u_coin = np.asarray(u_coin, dtype=np.float64)
        if u_bucket.shape != u_coin.shape:
            raise ValueError("uniform arrays must have equal shape")
        buckets = np.minimum(
            (u_bucket * self.size).astype(np.int64), self.size - 1
        )
        take_alias = u_coin >= self.prob[buckets]
        return np.where(take_alias, self.alias[buckets], buckets)

    def implied_distribution(self) -> np.ndarray:
        """The exact distribution the table encodes (for testing):
        summing each bucket's kept and aliased mass must recover the
        normalized input weights."""
        out = np.zeros(self.size, dtype=np.float64)
        np.add.at(out, np.arange(self.size), self.prob)
        np.add.at(out, self.alias, 1.0 - self.prob)
        return out / self.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AliasTable(size={self.size}, total={self.total:.6g})"
