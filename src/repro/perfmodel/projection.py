"""Analytic projection of CuLDA_CGS performance at paper scale.

Evaluates the kernel cost model (:mod:`repro.core.kernels`) and the
platform specs (:mod:`repro.gpusim.platform`) on full-scale dataset
statistics, reproducing:

- **Table 4** — average tokens/sec of the first 100 iterations, per
  platform and dataset, with the WarpLDA CPU row;
- **Table 5** — kernel time breakdown (sampling / update θ / update φ);
- **Fig 7** — per-iteration throughput series (the sparsity ramp-up);
- **Fig 9** — multi-GPU scaling on PubMed/Pascal.

The projection follows the schedule the trainer would pick:

- if one GPU's chunk + model fit in device memory → WorkSchedule1
  (resident data, no per-iteration PCIe traffic);
- otherwise → WorkSchedule2: per-iteration chunk streaming whose
  transfer time overlaps compute (iteration time = max of the two).
  This is why the paper's PubMed numbers sit close to its NYTimes
  numbers on the big GPUs: PubMed (738M tokens ≈ 15 GB of chunk data)
  cannot reside in a 12–16 GB GPU, so its steady state is PCIe-bound.

Multi-GPU iterations add the φ reduce-tree + broadcast cost (§5.2):
2·⌈log₂G⌉ peer transfers of the K×V replica plus the add kernels, with
the θ update overlapped (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.sparsity import SparsityModel
from repro.core.kernels import (
    BLOCK_TOKEN_CAPACITY,
    KernelConfig,
    SamplingStats,
    phi_reduce_cost,
    sampling_cost,
    update_phi_cost,
    update_theta_cost,
)
from repro.core.model import LDAHyperParams
from repro.corpus.datasets import NYTIMES, PUBMED, DatasetStats
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import DeviceSpec
from repro.gpusim.platform import (
    CPU_E5_2690V4,
    GPU_TITAN_X,
    GPU_TITAN_XP,
    GPU_V100,
    PCIE3_EFFECTIVE_GBPS,
)

__all__ = [
    "ProjectionConfig",
    "project_iteration_seconds",
    "project_series",
    "average_tokens_per_sec",
    "fig7_series",
    "fig9_scaling",
    "table4_throughput",
    "table5_breakdown",
]

#: The evaluation platforms of Table 2, keyed as the paper labels them.
PLATFORM_GPUS: dict[str, DeviceSpec] = {
    "Titan": GPU_TITAN_X,
    "Pascal": GPU_TITAN_XP,
    "Volta": GPU_V100,
}


@dataclass(frozen=True)
class ProjectionConfig:
    """Knobs of the analytic projection."""

    num_topics: int = 1024
    iterations: int = 100
    kernel: KernelConfig = field(default_factory=KernelConfig)
    pcie_gbps: float = PCIE3_EFFECTIVE_GBPS
    #: GPU↔GPU P2P bandwidth. PCIe P2P through the host bridge achieves
    #: roughly half the host-link bandwidth on multi-GPU boxes without
    #: NVLink (the Fig 9 platform).
    p2p_gbps: float = 6.0
    #: Multi-GPU load imbalance: the slowest chunk exceeds the mean by
    #: this fraction (token-balanced chunks are equal in tokens but not
    #: in θ sparsity).
    imbalance: float = 0.08
    #: Per-chunk host scheduling overhead (kernel launches, callbacks).
    per_chunk_host_seconds: float = 200e-6

    def hyper(self) -> LDAHyperParams:
        return LDAHyperParams(num_topics=self.num_topics)


# ----------------------------------------------------------------------
# Building blocks
# ----------------------------------------------------------------------

def _chunk_stream_bytes(stats: DatasetStats, kd_doc: float, cfg: ProjectionConfig) -> float:
    """Per-token bytes moved over PCIe per iteration when streaming
    (WorkSchedule2): chunk structure + topics up, topics + θ both ways."""
    idx_b = cfg.kernel.index_bytes
    h2d = 4 + 8 + idx_b          # token_doc, doc_map_indices, topics
    theta_per_token = (idx_b + 4) * kd_doc / max(stats.avg_doc_length, 1.0)
    d2h = idx_b + theta_per_token
    return h2d + theta_per_token + d2h


def _resident_fits(stats: DatasetStats, spec: DeviceSpec, cfg: ProjectionConfig,
                   num_gpus: int) -> bool:
    """Does one GPU's share of the corpus + the model fit (M = 1)?"""
    idx_b = cfg.kernel.index_bytes
    T_g = stats.num_tokens / num_gpus
    D_g = stats.num_docs / num_gpus
    chunk = T_g * (4 + 8 + idx_b) + D_g * 16 + stats.num_words * 8
    theta_cap = min(stats.avg_doc_length, cfg.num_topics) * D_g * (idx_b + 4)
    model = 3 * cfg.num_topics * stats.num_words * cfg.kernel.phi_bytes
    return chunk + theta_cap + model <= 0.9 * spec.mem_capacity_bytes


def _estimate_segments(stats: DatasetStats, tokens_in_chunk: float) -> int:
    """(block, word) segments for a chunk: every present word needs at
    least one block; heavy words add ~tokens/BLOCK_TOKEN_CAPACITY more."""
    return int(stats.num_words + tokens_in_chunk / BLOCK_TOKEN_CAPACITY)


def project_iteration_seconds(
    stats: DatasetStats,
    spec: DeviceSpec,
    cfg: ProjectionConfig,
    kd_token: float,
    num_gpus: int = 1,
    p2p_gbps: float | None = None,
) -> dict[str, float]:
    """Simulated seconds of one iteration, by component.

    ``kd_token`` is the mean θ-row population seen per token (from the
    sparsity model). Returns a dict with keys ``sampling``,
    ``update_theta``, ``update_phi``, ``sync``, ``transfer``, ``total``.
    """
    hyper = cfg.hyper()
    cm = CostModel()
    G = num_gpus
    T_g = stats.num_tokens / G
    D_g = stats.num_docs / G
    K, V = cfg.num_topics, stats.num_words

    s_stats = SamplingStats(
        num_tokens=int(T_g),
        kd_sum=int(T_g * kd_token),
        p1_draws=0,
        num_word_segments=_estimate_segments(stats, T_g),
        num_blocks=max(1, int(T_g / BLOCK_TOKEN_CAPACITY)),
    )
    t_sampling = cm.kernel_seconds(
        spec, sampling_cost(s_stats, hyper, V, cfg.kernel)
    )
    # θ-row population per *document*: kd_token is token-weighted; for
    # the nnz estimate use it directly (long docs dominate both).
    nnz = D_g * kd_token
    t_theta = cm.kernel_seconds(
        spec, update_theta_cost(int(T_g), int(D_g), int(nnz), hyper, cfg.kernel)
    )
    t_phi = cm.kernel_seconds(
        spec, update_phi_cost(int(T_g), V, hyper, cfg.kernel)
    )

    # φ synchronization (G > 1): reduce tree + broadcast (§5.2).
    t_sync = 0.0
    if G > 1:
        p2p = (p2p_gbps or cfg.p2p_gbps) * 1e9
        phi_bytes = float(K) * V * cfg.kernel.phi_bytes
        steps = int(np.ceil(np.log2(G)))
        t_add = cm.kernel_seconds(spec, phi_reduce_cost(K, V, cfg.kernel))
        t_sync = steps * (phi_bytes / p2p + t_add) + steps * (phi_bytes / p2p)

    # Streaming (WorkSchedule2) when the chunk does not fit resident.
    t_transfer = 0.0
    streaming = not _resident_fits(stats, spec, cfg, G)
    if streaming:
        kd_doc = kd_token  # same estimate as nnz above
        t_transfer = (
            T_g * _chunk_stream_bytes(stats, kd_doc, cfg)
            / (cfg.pcie_gbps * 1e9)
        )

    compute = t_sampling + t_phi
    # The θ update overlaps the φ sync (§6.2); whichever is longer counts.
    tail = max(t_theta, t_sync)
    body = compute + tail
    if streaming:
        # Transfers overlap compute across the pipelined chunks.
        body = max(body, t_transfer)
    body *= 1.0 + (cfg.imbalance if G > 1 else 0.0)
    body += cfg.per_chunk_host_seconds
    return {
        "sampling": t_sampling,
        "update_theta": t_theta,
        "update_phi": t_phi,
        "sync": t_sync,
        "transfer": t_transfer,
        "total": body,
    }


def project_series(
    stats: DatasetStats,
    spec: DeviceSpec,
    cfg: ProjectionConfig | None = None,
    num_gpus: int = 1,
    sparsity: SparsityModel | None = None,
) -> np.ndarray:
    """Per-iteration tokens/sec over ``cfg.iterations`` iterations."""
    cfg = cfg or ProjectionConfig()
    sp = sparsity or SparsityModel.from_stats(stats, cfg.num_topics)
    out = np.empty(cfg.iterations, dtype=np.float64)
    for it in range(cfg.iterations):
        parts = project_iteration_seconds(
            stats, spec, cfg, float(sp.kd(it)), num_gpus
        )
        out[it] = stats.num_tokens / parts["total"]
    return out


def average_tokens_per_sec(stats: DatasetStats, series: np.ndarray) -> float:
    """Eq 2 over a whole series: total tokens / total time."""
    return stats.num_tokens * len(series) / (stats.num_tokens / series).sum()


def _warplda_series(stats: DatasetStats, cfg: ProjectionConfig) -> np.ndarray:
    """WarpLDA's flat series on the paper's host CPU (Table 4 row)."""
    from repro.baselines.warplda import warplda_iteration_cost

    cm = CostModel()
    cost = warplda_iteration_cost(
        stats.num_tokens, cfg.num_topics, stats.num_words, stats.avg_doc_length
    )
    dt = cm.kernel_seconds(CPU_E5_2690V4, cost)
    return np.full(cfg.iterations, stats.num_tokens / dt)


# ----------------------------------------------------------------------
# Paper artifacts
# ----------------------------------------------------------------------

def fig7_series(
    dataset: str = "NYTimes", cfg: ProjectionConfig | None = None
) -> dict[str, np.ndarray]:
    """Fig 7: tokens/sec vs iteration for Titan/Pascal/Volta + WarpLDA."""
    cfg = cfg or ProjectionConfig()
    stats = {"NYTimes": NYTIMES, "PubMed": PUBMED}[dataset]
    out = {
        name: project_series(stats, spec, cfg)
        for name, spec in PLATFORM_GPUS.items()
    }
    out["WarpLDA"] = _warplda_series(stats, cfg)
    return out


def table4_throughput(cfg: ProjectionConfig | None = None) -> dict[str, dict[str, float]]:
    """Table 4: average tokens/sec of the first 100 iterations.

    Returns ``{dataset: {platform: tokens_per_sec}}`` including the
    WarpLDA row (platform key "WarpLDA").
    """
    cfg = cfg or ProjectionConfig()
    out: dict[str, dict[str, float]] = {}
    for ds_name, stats in (("NYTimes", NYTIMES), ("PubMed", PUBMED)):
        row: dict[str, float] = {}
        for name, spec in PLATFORM_GPUS.items():
            row[name] = average_tokens_per_sec(
                stats, project_series(stats, spec, cfg)
            )
        w = _warplda_series(stats, cfg)
        row["WarpLDA"] = float(w[0])
        out[ds_name] = row
    return out


def table5_breakdown(
    cfg: ProjectionConfig | None = None, dataset: str = "NYTimes"
) -> dict[str, dict[str, float]]:
    """Table 5: per-kernel time fractions at steady state on *dataset*.

    Returns ``{platform: {kernel: fraction}}`` over the three kernels
    the paper profiles.
    """
    cfg = cfg or ProjectionConfig()
    stats = {"NYTimes": NYTIMES, "PubMed": PUBMED}[dataset]
    sp = SparsityModel.from_stats(stats, cfg.num_topics)
    out: dict[str, dict[str, float]] = {}
    # Average over the first 100 iterations, as Table 4/5 do.
    its = np.arange(cfg.iterations)
    for name, spec in PLATFORM_GPUS.items():
        acc = {"sampling": 0.0, "update_theta": 0.0, "update_phi": 0.0}
        for it in its:
            parts = project_iteration_seconds(stats, spec, cfg, float(sp.kd(it)))
            for k in acc:
                acc[k] += parts[k]
        total = sum(acc.values())
        out[name] = {k: v / total for k, v in acc.items()}
    return out


def fig9_scaling(
    cfg: ProjectionConfig | None = None,
    gpu_counts: tuple[int, ...] = (1, 2, 4),
) -> dict[int, dict[str, object]]:
    """Fig 9: PubMed on the Pascal platform with 1/2/4 GPUs.

    Returns ``{G: {"series": tokens/sec array, "speedup": float}}`` with
    speedups normalized to G = 1 (paper: 1.93× and 2.99×).
    """
    cfg = cfg or ProjectionConfig()
    spec = GPU_TITAN_XP
    series = {
        g: project_series(PUBMED, spec, cfg, num_gpus=g) for g in gpu_counts
    }
    base = average_tokens_per_sec(PUBMED, series[gpu_counts[0]])
    return {
        g: {
            "series": series[g],
            "speedup": average_tokens_per_sec(PUBMED, series[g]) / base,
        }
        for g in gpu_counts
    }
