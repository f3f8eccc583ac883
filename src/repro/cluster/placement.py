"""Work placement after node loss: token-lightest migration.

Multi-node CuLDA survives a dead node by moving its logical workers
intact onto surviving nodes
(:meth:`~repro.core.distributed.DistributedCuLDA.handle_device_loss`).
Each orphaned worker, in worker order, goes to the survivor currently
hosting the fewest tokens, ties to the lower node id — deterministic
given the same plan.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["place_token_lightest"]


def place_token_lightest(
    hosting: Sequence[int], tokens: Sequence[int], survivors: Sequence[int]
) -> list[int]:
    """The hosting map after migration.

    ``hosting[w]`` is worker *w*'s node and ``tokens[w]`` its token
    count. Workers already on a survivor stay; every other worker moves
    to the token-lightest survivor (ties to the lower node id), whose
    load then grows by the worker's tokens.
    """
    placed = list(hosting)
    load = {n: 0 for n in survivors}
    for node, count in zip(placed, tokens):
        if node in load:
            load[node] += count
    for w, node in enumerate(placed):
        if node in load:
            continue
        target = min(load, key=lambda n: (load[n], n))
        placed[w] = target
        load[target] += tokens[w]
    return placed
