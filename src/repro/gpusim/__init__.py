"""Execution-driven GPU simulator.

This subpackage substitutes for the CUDA machines of the paper (see
DESIGN.md §2). It models a single host with one or more GPUs:

- :mod:`repro.gpusim.device` — device specifications (SM count, peak
  bandwidth/FLOPS, memory capacity, shared memory) and runtime devices.
- :mod:`repro.gpusim.memory` — device memory allocation with capacity
  enforcement; :class:`DeviceArray` buffers that hold real NumPy data
  and stamp when each byte range was last written and read.
- :mod:`repro.gpusim.stream` — CUDA-style streams over a simulated
  clock; operations on one stream serialize, operations on different
  streams (or devices) overlap, and an operation waits for the buffers
  it reads and writes.
- :mod:`repro.gpusim.kernel` — the kernel-launch abstraction: a kernel
  executes its real numerics immediately and is charged simulated time
  from its reported :class:`KernelCost`.
- :mod:`repro.gpusim.costmodel` — the roofline timing model (paper §3):
  kernel time = max(bytes / effective bandwidth, flops / effective
  FLOPS) + launch overheads.
- :mod:`repro.gpusim.interconnect` — PCIe / NVLink links with contention;
  a copy's time is latency + bytes / bandwidth (:meth:`Link.reserve`).
- :mod:`repro.gpusim.platform` — the paper's Table 2 platforms (Maxwell /
  Pascal / Volta) plus the host CPU spec used for the characterization.
- :mod:`repro.gpusim.trace` — a timeline recorder for breakdowns
  (Table 5) and overlap inspection.

The simulator's *functional* semantics are exact (kernels compute real
results); its *temporal* semantics are a coarse-grained analytic model,
which is precisely the fidelity the paper's own roofline analysis (§3)
argues is the determining one for LDA.
"""

from repro.gpusim.costmodel import CostModel, KernelCost
from repro.gpusim.device import Device, DeviceSpec
from repro.gpusim.errors import DeviceLost, FaultError, KernelFault, LinkDown
from repro.gpusim.interconnect import Link
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import DeviceArray, DeviceOutOfMemoryError
from repro.gpusim.platform import (
    CPU_E5_2670,
    CPU_E5_2650V3,
    CPU_E5_2690V4,
    GPU_TITAN_X,
    GPU_TITAN_XP,
    GPU_V100,
    Machine,
    dgx_platform,
    maxwell_platform,
    pascal_platform,
    volta_platform,
)
from repro.gpusim.stream import Stream
from repro.gpusim.trace import Interval, TraceRecorder, to_chrome_json

__all__ = [
    "CostModel",
    "KernelCost",
    "Device",
    "DeviceLost",
    "DeviceSpec",
    "FaultError",
    "KernelFault",
    "Link",
    "LinkDown",
    "KernelLaunch",
    "DeviceArray",
    "DeviceOutOfMemoryError",
    "Machine",
    "maxwell_platform",
    "pascal_platform",
    "volta_platform",
    "dgx_platform",
    "CPU_E5_2670",
    "CPU_E5_2650V3",
    "CPU_E5_2690V4",
    "GPU_TITAN_X",
    "GPU_TITAN_XP",
    "GPU_V100",
    "Stream",
    "Interval",
    "TraceRecorder",
    "to_chrome_json",
]
