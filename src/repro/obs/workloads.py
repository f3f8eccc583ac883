"""Shared workload builders for the observatory, ``bench/`` and tests.

Synthetic-twin construction, platform/machine creation and trainer
assembly with a fixed seed live here once, imported by the scenario
registry (:mod:`repro.obs.scenarios`), by ``bench/`` and by the tests.
Everything is seeded: the same arguments always produce the same
corpus, machine, and trainer.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "make_corpus",
    "make_platform",
    "make_culda",
    "make_distributed_culda",
    "make_baseline",
    "kernel_state",
    "train_tiny_checkpoint",
]


def make_corpus(
    kind: str = "nytimes",
    tokens: int = 50_000,
    seed: int = 0,
    num_topics: int = 32,
    vocab_cap: int = 8_192,
):
    """A synthetic twin corpus (``nytimes`` or ``pubmed``)."""
    from repro.corpus.synthetic import nytimes_like, pubmed_like

    makers: dict[str, Callable] = {
        "nytimes": nytimes_like, "pubmed": pubmed_like,
    }
    try:
        maker = makers[kind]
    except KeyError:
        raise ValueError(
            f"unknown corpus kind {kind!r}; expected one of {tuple(makers)}"
        ) from None
    return maker(
        num_tokens=tokens, num_topics=num_topics, seed=seed,
        vocab_cap=vocab_cap,
    )


def make_platform(platform: str = "pascal", gpus: int = 1):
    """A simulated machine on a named platform's device specs."""
    from repro.gpusim.platform import make_machine

    return make_machine(platform, gpus)


def make_culda(
    corpus,
    platform: str = "pascal",
    gpus: int = 1,
    registry=None,
    callbacks=None,
    **config_kwargs,
):
    """A CuLDA trainer on a fresh machine; config defaults are the
    :class:`~repro.core.culda.TrainConfig` defaults plus *config_kwargs*."""
    from repro.core import CuLDA, TrainConfig

    return CuLDA(
        corpus,
        machine=make_platform(platform, gpus),
        config=TrainConfig(**config_kwargs),
        registry=registry,
        callbacks=callbacks,
    )


def make_distributed_culda(
    corpus,
    nodes: int = 2,
    platform: str = "pascal",
    gpus_per_node: int = 1,
    link_gbps: float | None = None,
    latency_seconds: float | None = None,
    registry=None,
    callbacks=None,
    **config_kwargs,
):
    """A multi-node CuLDA trainer: *nodes* fresh machines joined by a
    fresh :class:`~repro.cluster.network.ClusterNetwork` (10 GbE with
    50 µs latency by default; pass ``link_gbps``/``latency_seconds``
    for a faster fabric, e.g. 12.5/5e-6 for 100 GbE-class)."""
    from repro.cluster.network import ClusterNetwork
    from repro.core import DistributedCuLDA, TrainConfig

    net_kwargs = {}
    if link_gbps is not None:
        net_kwargs["link_gbps"] = link_gbps
    if latency_seconds is not None:
        net_kwargs["latency_seconds"] = latency_seconds
    network = ClusterNetwork(nodes, **net_kwargs)
    return DistributedCuLDA(
        corpus,
        [make_platform(platform, gpus_per_node) for _ in range(nodes)],
        network=network,
        config=TrainConfig(**config_kwargs),
        registry=registry,
        callbacks=callbacks,
    )


def make_baseline(
    corpus,
    algo: str,
    num_topics: int = 32,
    seed: int = 0,
    registry=None,
    **kwargs,
):
    """A baseline trainer (``saberlda``/``warplda``/``scvb0``/``ldastar``).

    SaberLDA runs on a simulated machine (``platform``/``gpus`` kwargs);
    the CPU/cluster baselines take their own kwargs (e.g. ``num_workers``
    for LDA*).
    """
    from repro.core.model import LDAHyperParams

    if algo == "saberlda":
        from repro.baselines import SaberLDA
        from repro.core import TrainConfig

        platform = kwargs.pop("platform", "pascal")
        gpus = kwargs.pop("gpus", 1)
        return SaberLDA(
            corpus,
            make_platform(platform, gpus),
            TrainConfig(num_topics=num_topics, seed=seed, **kwargs),
            registry=registry,
        )
    hyper = LDAHyperParams(num_topics=num_topics)
    if algo == "warplda":
        from repro.baselines import WarpLDA

        return WarpLDA(corpus, hyper, seed=seed, registry=registry, **kwargs)
    if algo == "scvb0":
        from repro.baselines import SCVB0

        return SCVB0(corpus, hyper, seed=seed, registry=registry, **kwargs)
    if algo == "ldastar":
        from repro.baselines import LDAStar

        return LDAStar(corpus, hyper, seed=seed, registry=registry, **kwargs)
    raise ValueError(f"unknown baseline algorithm {algo!r}")


def kernel_state(corpus, num_topics: int = 64, seed: int = 0) -> dict:
    """Mid-training sampler state for kernel micro-benchmarks.

    Builds exactly what one training iteration reads: the word-first
    token chunk, a seeded random assignment, the sparse θ derived from
    it, the accumulated φ, and the topic totals ``n_k``.
    """
    from repro.core.kernels import accumulate_phi
    from repro.core.model import LDAHyperParams, SparseTheta

    chunk = corpus.to_chunk()
    rng = np.random.default_rng(seed)
    topics = rng.integers(0, num_topics, size=chunk.num_tokens).astype(np.int64)
    theta = SparseTheta.from_assignments(chunk, topics, num_topics, False)
    phi = accumulate_phi(chunk, topics, num_topics)
    return {
        "chunk": chunk,
        "topics": topics,
        "theta": theta,
        "phi": phi,
        "n_k": phi.sum(axis=1),
        "hyper": LDAHyperParams(num_topics=num_topics),
        "rng": rng,
    }


def train_tiny_checkpoint(
    path,
    tokens: int = 6_000,
    num_topics: int = 16,
    iterations: int = 2,
    seed: int = 0,
) -> str:
    """Train a small deterministic model and save it to *path*.

    The serving scenarios need a checkpoint on disk; timings downstream
    depend only on the model's shape and counts (deterministic for a
    fixed spec), never on the path.
    """
    from repro.core import save_model

    corpus = make_corpus("nytimes", tokens=tokens, seed=seed, num_topics=8)
    trainer = make_culda(
        corpus, platform="pascal", gpus=1,
        num_topics=num_topics, iterations=iterations, seed=seed,
    )
    result = trainer.train()
    save_model(result, path, vocabulary=corpus.vocabulary)
    return str(path)
