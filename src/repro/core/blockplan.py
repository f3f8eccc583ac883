"""Thread-block assignment for the sampling kernel (paper §6.1.2).

Each thread block samples tokens of a single word (so its 32 samplers
share the p₂ index tree). Two load-balancing rules from the paper:

- *splitting*: "words that have a lot of tokens are assigned to
  multiple thread blocks" — a word's tokens are cut into segments of at
  most ``BLOCK_TOKEN_CAPACITY``;
- *long-tail avoidance*: "those words are assigned to thread blocks
  that have the smallest IDs" — the GPU issues blocks in id order, so
  putting the heavy segments first prevents a giant word from starting
  last and dragging the kernel's tail.

:func:`plan_blocks` builds the assignment; :func:`simulate_block_schedule`
replays it against an SM array (greedy in-id-order issue, exactly the
hardware's behaviour) so the long-tail effect is *measurable* — see
``tests/test_blockplan.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels import BLOCK_TOKEN_CAPACITY

__all__ = ["BlockPlan", "plan_blocks", "simulate_block_schedule"]


@dataclass(frozen=True)
class BlockPlan:
    """The (block → word segment) assignment.

    Arrays are indexed by block id (issue order):

    - ``block_word[i]`` — the word block *i* samples;
    - ``block_tokens[i]`` — how many of that word's tokens it owns.
    """

    block_word: np.ndarray
    block_tokens: np.ndarray

    def __post_init__(self) -> None:
        if self.block_word.shape != self.block_tokens.shape:
            raise ValueError("block arrays must align")
        if self.block_tokens.size and self.block_tokens.min() <= 0:
            raise ValueError("every block must own at least one token")

    @property
    def num_blocks(self) -> int:
        return int(self.block_word.size)

    @property
    def total_tokens(self) -> int:
        return int(self.block_tokens.sum())

    def load_imbalance(self) -> float:
        """max/mean block load (1.0 = perfectly even)."""
        if self.num_blocks == 0:
            return 1.0
        return float(self.block_tokens.max() / self.block_tokens.mean())


def plan_blocks(
    word_indptr: np.ndarray,
    capacity: int = BLOCK_TOKEN_CAPACITY,
    heavy_first: bool = True,
) -> BlockPlan:
    """Build the §6.1.2 block assignment for a chunk.

    Parameters
    ----------
    word_indptr: the chunk's per-word token index (``int64[V+1]``).
    capacity: max tokens per block (32 samplers × tokens-per-sampler).
    heavy_first: the paper's rule — heaviest words get the smallest
        block ids. ``False`` keeps plain word order (the ablation).
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    counts = np.diff(word_indptr)
    present = np.nonzero(counts)[0]
    if present.size == 0:
        return BlockPlan(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
    if heavy_first:
        present = present[np.argsort(counts[present], kind="stable")[::-1]]

    words: list[np.ndarray] = []
    tokens: list[np.ndarray] = []
    for w in present:
        c = int(counts[w])
        full, rem = divmod(c, capacity)
        sizes = [capacity] * full + ([rem] if rem else [])
        words.append(np.full(len(sizes), w, dtype=np.int64))
        tokens.append(np.asarray(sizes, dtype=np.int64))
    return BlockPlan(np.concatenate(words), np.concatenate(tokens))


def simulate_block_schedule(
    plan: BlockPlan,
    num_sms: int,
    blocks_per_sm: int = 1,
    cost_per_token: float = 1.0,
    block_overhead: float = 0.0,
) -> float:
    """Makespan of the plan on *num_sms* SMs issuing blocks in id order.

    Models the hardware scheduler: ``num_sms × blocks_per_sm`` block
    slots; whenever a slot frees, the next block id starts there. The
    returned makespan is in the same unit as ``cost_per_token``.
    """
    if num_sms < 1 or blocks_per_sm < 1:
        raise ValueError("need at least one block slot")
    slots = np.zeros(num_sms * blocks_per_sm, dtype=np.float64)
    durations = plan.block_tokens * cost_per_token + block_overhead
    for dur in durations:
        i = int(np.argmin(slots))
        slots[i] += dur
    return float(slots.max()) if plan.num_blocks else 0.0
