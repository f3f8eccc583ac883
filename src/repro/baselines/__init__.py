"""Comparator systems from the paper's evaluation (§7.2).

- :mod:`repro.baselines.gibbs_reference` — an exact sequential collapsed
  Gibbs sampler (with self-exclusion). Not in the paper's evaluation;
  it is this repo's correctness oracle for the vectorized kernels.
- :mod:`repro.baselines.warplda` — the CPU comparator: WarpLDA's
  Metropolis–Hastings/MCEM O(1)-per-token algorithm with a CPU cost
  model (paper cites Chen et al., VLDB 2016).
- :mod:`repro.baselines.saberlda` — the prior-GPU comparator: a
  sparsity-aware single-GPU LDA without CuLDA's block-shared p₂ tree,
  sub-expression reuse, or 16-bit compression (SaberLDA's code is not
  public; see DESIGN.md §2 for the substitution argument).
- :mod:`repro.baselines.ldastar` — the distributed comparator: a
  parameter-server CGS over a simulated 10 Gb/s Ethernet cluster
  (LDA*, Yu et al., VLDB 2017).
"""

from repro.baselines.gibbs_reference import ReferenceCGS
from repro.baselines.ldastar import LDAStar
from repro.baselines.saberlda import SaberLDA
from repro.baselines.scvb0 import SCVB0
from repro.baselines.warplda import WarpLDA

__all__ = [
    "ReferenceCGS",
    "WarpLDA",
    "SaberLDA",
    "SCVB0",
    "LDAStar",
]
