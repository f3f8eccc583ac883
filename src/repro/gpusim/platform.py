"""Machines and the paper's Table 2 platform presets.

A :class:`Machine` is one host (CPU spec + host clock) with zero or more
GPUs, a PCIe link per GPU, and peer-to-peer links between GPU pairs.
Factory functions build the paper's three platforms:

- :func:`maxwell_platform` — 2× E5-2670 host, 1× Titan X (336 GB/s).
- :func:`pascal_platform` — 2× E5-2650 v3 host, up to 4× Titan Xp
  (550 GB/s); the multi-GPU scaling platform of Fig 9.
- :func:`volta_platform` — 2× E5-2690 v4 host, up to 2× V100 (900 GB/s).

Calibration
-----------
Peak numbers are the paper's. The per-architecture ``mem_efficiency``
derates (achieved fraction of peak bandwidth on LDA's irregular access
mix) are the model's calibration knobs, fitted once against the paper's
Table 4 and recorded in EXPERIMENTS.md: Volta's HBM2 + larger L1 achieve
a much higher fraction than Pascal's GDDR5X (whose random-access derate
is a well-known effect), which is why the paper's Volta speedup (3.65×
over Maxwell) exceeds its raw bandwidth ratio (2.68×).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.gpusim.costmodel import CostModel, KernelCost
from repro.gpusim.device import Device, DeviceSpec
from repro.gpusim.interconnect import Link
from repro.gpusim.memory import DeviceArray
from repro.gpusim.stream import Stream
from repro.gpusim.trace import TraceRecorder

__all__ = [
    "Machine",
    "make_machine",
    "maxwell_platform",
    "pascal_platform",
    "volta_platform",
    "dgx_platform",
    "ampere_platform",
    "CPU_E5_2670",
    "CPU_E5_2650V3",
    "CPU_E5_2690V4",
    "GPU_TITAN_X",
    "GPU_TITAN_XP",
    "GPU_V100",
    "GPU_A100",
]

# ----------------------------------------------------------------------
# Table 2 device specs
# ----------------------------------------------------------------------

#: Maxwell-platform host: 2× Intel Xeon E5-2670, 64 GB.
CPU_E5_2670 = DeviceSpec(
    name="2x Intel Xeon E5-2670",
    arch="cpu",
    num_sms=16,
    peak_bandwidth_gbps=42.6,
    peak_gflops=332.8,
    mem_capacity_bytes=64 * 2**30,
    shared_mem_per_block=0,
    warp_size=8,
    mem_efficiency=0.70,
    compute_efficiency=0.60,
    kernel_launch_seconds=1e-6,
    tail_penalty=0.0,
    tdp_watts=2 * 115.0,
)

#: Pascal-platform host: 2× Intel Xeon E5-2650 v3, 64 GB.
CPU_E5_2650V3 = DeviceSpec(
    name="2x Intel Xeon E5-2650 v3",
    arch="cpu",
    num_sms=20,
    peak_bandwidth_gbps=68.0,
    peak_gflops=416.0,
    mem_capacity_bytes=64 * 2**30,
    shared_mem_per_block=0,
    warp_size=8,
    mem_efficiency=0.70,
    compute_efficiency=0.60,
    kernel_launch_seconds=1e-6,
    tail_penalty=0.0,
    tdp_watts=2 * 105.0,
)

#: Volta-platform host: 2× Intel Xeon E5-2690 v4 — the paper's §3
#: characterization CPU (470 GFLOPS, 51.2 GB/s ⇒ ridge 9.2 Flops/Byte).
CPU_E5_2690V4 = DeviceSpec(
    name="2x Intel Xeon E5-2690 v4",
    arch="cpu",
    num_sms=28,
    peak_bandwidth_gbps=51.2,
    peak_gflops=470.0,
    mem_capacity_bytes=64 * 2**30,
    shared_mem_per_block=0,
    warp_size=8,
    mem_efficiency=0.70,
    compute_efficiency=0.60,
    kernel_launch_seconds=1e-6,
    tail_penalty=0.0,
    tdp_watts=2 * 135.0,
)

#: NVIDIA Titan X (Maxwell), 336 GB/s, 24 SMs, 12 GB.
GPU_TITAN_X = DeviceSpec(
    name="NVIDIA Titan X (Maxwell)",
    arch="maxwell",
    num_sms=24,
    peak_bandwidth_gbps=336.0,
    peak_gflops=6144.0,
    mem_capacity_bytes=12 * 2**30,
    shared_mem_per_block=48 * 1024,
    mem_efficiency=0.63,
    compute_efficiency=0.45,
    atomic_ops_per_sec=1.0e10,
    tdp_watts=250.0,
)

#: NVIDIA Titan Xp (Pascal), 550 GB/s, 28 SMs, 12 GB. GDDR5X suffers a
#: strong random-access derate, visible in the paper's modest 1.28×
#: speedup over Maxwell despite a 1.64× bandwidth ratio.
GPU_TITAN_XP = DeviceSpec(
    name="NVIDIA Titan Xp (Pascal)",
    arch="pascal",
    num_sms=28,
    peak_bandwidth_gbps=550.0,
    peak_gflops=12150.0,
    mem_capacity_bytes=12 * 2**30,
    shared_mem_per_block=48 * 1024,
    mem_efficiency=0.46,
    compute_efficiency=0.45,
    atomic_ops_per_sec=1.6e10,
    tdp_watts=250.0,
)

#: NVIDIA V100 (Volta), 900 GB/s HBM2, 80 SMs, 16 GB.
GPU_V100 = DeviceSpec(
    name="NVIDIA V100 (Volta)",
    arch="volta",
    num_sms=80,
    peak_bandwidth_gbps=900.0,
    peak_gflops=14000.0,
    mem_capacity_bytes=16 * 2**30,
    shared_mem_per_block=96 * 1024,
    mem_efficiency=0.86,
    compute_efficiency=0.50,
    atomic_ops_per_sec=4.0e10,
    tdp_watts=300.0,
)

#: NVIDIA A100 (Ampere), 1555 GB/s HBM2e, 108 SMs, 40 GB — a
#: post-publication GPU used to test the paper's claim that CuLDA_CGS
#: "can be scaled to future GPUs as well" (§7.1). Efficiency follows the
#: Volta calibration (same HBM generation family).
GPU_A100 = DeviceSpec(
    name="NVIDIA A100 (Ampere)",
    arch="ampere",
    num_sms=108,
    peak_bandwidth_gbps=1555.0,
    peak_gflops=19500.0,
    mem_capacity_bytes=40 * 2**30,
    shared_mem_per_block=160 * 1024,
    mem_efficiency=0.86,
    compute_efficiency=0.50,
    atomic_ops_per_sec=6.0e10,
    tdp_watts=400.0,
)

#: PCIe 3.0 x16: 16 GB/s nominal, ~13 GB/s achieved.
PCIE3_EFFECTIVE_GBPS = 13.0
#: GPU-to-GPU P2P through the host bridge: about half the host-link rate
#: on boxes without NVLink (the paper's platforms).
PCIE_P2P_GBPS = 6.0


def _corrupt_payload(arr: np.ndarray) -> None:
    """Deterministically flip one element of a delivered payload.

    Models silent data corruption on a link: the perturbation breaks
    count-conservation invariants (Σφ over all words and topics equals
    the corpus token count) so the engine's post-sync validation can
    detect it.
    """
    if arr.size:
        flat = arr.reshape(-1)
        flat[0] = flat[0] + 1  # wraps on unsigned dtypes; still detectable


class Machine:
    """One host with GPUs, links, a clock, and a trace.

    Parameters
    ----------
    host_spec: CPU spec for host-side compute charges.
    gpu_specs: one spec per GPU to instantiate.
    pcie_gbps: effective host↔device bandwidth per root-complex uplink.
    p2p_gbps: effective GPU↔GPU bandwidth (PCIe P2P by default; pass
        e.g. 150.0 to model NVLink).
    num_host_links: independent host↔GPU uplinks. The Table 2 platforms
        are all dual-socket, i.e. two root complexes — GPUs map onto
        them round-robin, so on a 4-GPU box pairs of GPUs contend for
        a shared uplink (the effect that makes gather-to-CPU model
        synchronization lose to the GPU reduce tree, §5.2). Defaults to
        min(#GPUs, 2).
    name: platform label used by benchmark output.
    """

    def __init__(
        self,
        host_spec: DeviceSpec,
        gpu_specs: list[DeviceSpec],
        pcie_gbps: float = PCIE3_EFFECTIVE_GBPS,
        p2p_gbps: float | None = None,
        num_host_links: int | None = None,
        name: str = "machine",
    ):
        self.name = name
        self.host_spec = host_spec
        self.cost_model = CostModel()
        self.trace = TraceRecorder()
        self.host_time = 0.0
        self.gpus: list[Device] = [
            Device(i, spec, self) for i, spec in enumerate(gpu_specs)
        ]
        G = len(gpu_specs)
        n_links = num_host_links or max(1, min(G, 2))
        if n_links < 1:
            raise ValueError("num_host_links must be >= 1")
        uplinks = [Link(f"pcie[{i}]", pcie_gbps) for i in range(n_links)]

        def socket_of(i: int) -> int:
            # Contiguous halves: GPUs 0..G/2-1 on socket 0, rest on 1.
            return min(i * n_links // G, n_links - 1) if G else 0

        self._socket_of = socket_of
        #: GPU id -> its (possibly shared) host uplink.
        self.pcie: list[Link] = [uplinks[socket_of(i)] for i in range(G)]
        # P2P topology: GPUs under the same PCIe switch (same socket)
        # talk at full switch speed; cross-socket P2P crosses the
        # inter-socket bridge at the (slower) p2p rate.
        cross = p2p_gbps if p2p_gbps is not None else pcie_gbps
        # With a fast fabric (NVLink), same-socket pairs are at least as
        # fast as cross-socket ones; with PCIe P2P they run at switch
        # speed while cross-socket traffic crosses the (slower) bridge.
        local = max(pcie_gbps, cross)
        self._p2p: dict[tuple[int, int], Link] = {}
        for i in range(G):
            for j in range(i + 1, G):
                rate = local if socket_of(i) == socket_of(j) else cross
                self._p2p[(i, j)] = Link(f"p2p[{i}-{j}]", rate)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def advance_host(self, t: float) -> None:
        """Move the host clock forward to *t* (never backward)."""
        self.host_time = max(self.host_time, t)

    def synchronize(self) -> float:
        """Host waits for every GPU; returns the new host time."""
        for gpu in self.gpus:
            self.advance_host(gpu.busy_until())
        return self.host_time

    def reset_clock(self) -> None:
        """Zero all clocks and clear the trace (memory state is kept).

        Used between a warm-up and a measured run, like resetting a
        profiler."""
        self.host_time = 0.0
        for gpu in self.gpus:
            for s in gpu.streams:
                s.available_at = 0.0
        for link in self.pcie:
            link._busy_until = {0: 0.0, 1: 0.0}
        for link in self._p2p.values():
            link._busy_until = {0: 0.0, 1: 0.0}
        self.trace.clear()

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def socket_of(self, device_id: int) -> int:
        """Which host socket (root complex) GPU *device_id* hangs off.

        GPUs sharing a socket also share a PCIe uplink and talk P2P at
        switch speed; cross-socket traffic crosses the (slower) bridge.
        """
        return self._socket_of(device_id)

    def p2p_link(self, a: int, b: int) -> Link:
        """The peer-to-peer link between GPUs *a* and *b*."""
        if a == b:
            raise ValueError("no p2p link from a device to itself")
        key = (min(a, b), max(a, b))
        return self._p2p[key]

    def iter_links(self) -> list[Link]:
        """Every distinct link on the machine (host uplinks + P2P)."""
        seen: list[Link] = []
        for link in list(self.pcie) + list(self._p2p.values()):
            if link not in seen:
                seen.append(link)
        return seen

    def find_link(self, name: str) -> Link:
        """Look a link up by its label (``pcie[0]``, ``p2p[1-3]``)."""
        for link in self.iter_links():
            if link.name == name:
                return link
        raise KeyError(
            f"no link named {name!r}; machine has "
            f"{[link.name for link in self.iter_links()]}"
        )

    @property
    def alive_gpus(self) -> list[Device]:
        """GPUs that have not been failed by fault injection."""
        return [g for g in self.gpus if g.alive]

    # ------------------------------------------------------------------
    # Timed transfers
    # ------------------------------------------------------------------
    def memcpy_h2d(
        self,
        dst: DeviceArray,
        src: np.ndarray,
        stream: Stream | None = None,
        label: str = "h2d",
        pinned: bool = True,
    ) -> tuple[float, float]:
        """Copy host array *src* into device buffer *dst* (timed).

        ``pinned=False`` models a copy from pageable host memory, which
        runs at roughly half the pinned DMA rate (the staging copy).
        """
        if src.shape != dst.shape:
            raise ValueError(f"h2d shape mismatch {src.shape} != {dst.shape}")
        stream = stream or dst.device.default_stream
        if stream.device is not dst.device:
            raise ValueError("stream and destination buffer on different devices")
        link = self.pcie[dst.device.device_id]
        nbytes = dst.nbytes
        charged = nbytes if pinned else 2 * nbytes
        # Reserve the link starting at the stream frontier / host clock.
        earliest = max(stream.available_at, stream._pending_after, self.host_time)
        l_start, l_end = link.reserve(charged, earliest, direction=0)
        corrupt = link.take_corruption()

        def do_copy() -> None:
            dst.data[...] = src.astype(dst.dtype, copy=False)
            if corrupt:
                _corrupt_payload(dst.data)

        start, end, _ = stream.enqueue(
            duration=l_end - l_start,
            kind="h2d",
            label=label,
            fn=do_copy,
            not_before=l_start,
            bytes_moved=nbytes,
        )
        return start, end

    def memcpy_d2h(
        self,
        src: DeviceArray,
        stream: Stream | None = None,
        label: str = "d2h",
        pinned: bool = True,
        rows: tuple[int, int] | None = None,
    ) -> tuple[float, float, np.ndarray]:
        """Copy device buffer *src* back to the host (timed).

        ``pinned=False`` models a copy into pageable host memory (half
        the pinned DMA rate). ``rows=(lo, hi)`` copies only
        ``src[lo:hi]``: leading-axis rows of a C-order buffer are one
        contiguous range, so one DMA moves them with no staging kernel.
        """
        stream = stream or src.device.default_stream
        if stream.device is not src.device:
            raise ValueError("stream and source buffer on different devices")
        nbytes = src.nbytes
        if rows is not None:
            lo, hi = rows
            if not 0 <= lo <= hi <= src.shape[0]:
                raise ValueError(f"rows {rows} outside {src.shape[0]} rows")
            nbytes = src.data[lo:hi].nbytes
        link = self.pcie[src.device.device_id]
        charged = nbytes if pinned else 2 * nbytes
        earliest = max(stream.available_at, stream._pending_after, self.host_time)
        l_start, l_end = link.reserve(charged, earliest, direction=1)
        corrupt = link.take_corruption()

        def fetch() -> np.ndarray:
            arr = src.copy_to_host() if rows is None else src.data[lo:hi].copy()
            if corrupt:
                _corrupt_payload(arr)
            return arr

        start, end, result = stream.enqueue(
            duration=l_end - l_start,
            kind="d2h",
            label=label,
            fn=fetch,
            not_before=l_start,
            bytes_moved=nbytes,
        )
        return start, end, result

    def memcpy_p2p(
        self,
        dst: DeviceArray,
        src: DeviceArray,
        stream: Stream | None = None,
        label: str = "p2p",
    ) -> tuple[float, float]:
        """Copy between two GPUs over their peer link (timed on the
        destination device's stream, as cudaMemcpyPeerAsync does)."""
        if dst.shape != src.shape:
            raise ValueError("p2p shape mismatch")
        if dst.device is src.device:
            raise ValueError("p2p endpoints must be distinct devices")
        stream = stream or dst.device.default_stream
        link = self.p2p_link(src.device.device_id, dst.device.device_id)
        direction = 0 if src.device.device_id < dst.device.device_id else 1
        # Source readiness is the caller's responsibility (record an event
        # on the producer stream and wait_event on *stream*), as in CUDA.
        earliest = max(stream.available_at, stream._pending_after, self.host_time)
        l_start, l_end = link.reserve(src.nbytes, earliest, direction=direction)
        corrupt = link.take_corruption()
        src_data = src.data  # bind before enqueue; src must stay live

        def do_copy() -> None:
            dst.data[...] = src_data.astype(dst.dtype, copy=False)
            if corrupt:
                _corrupt_payload(dst.data)

        start, end, _ = stream.enqueue(
            duration=l_end - l_start,
            kind="p2p",
            label=label,
            fn=do_copy,
            not_before=l_start,
            bytes_moved=src.nbytes,
        )
        return start, end

    # ------------------------------------------------------------------
    # Host compute
    # ------------------------------------------------------------------
    def host_compute(
        self,
        fn: Callable[[], object],
        cost: KernelCost,
        label: str = "host",
    ) -> object:
        """Run *fn* on the host, charging roofline time on the host clock."""
        duration = self.cost_model.kernel_seconds(self.host_spec, cost)
        start = self.host_time
        self.host_time = start + duration
        result = fn()
        self.trace.add(
            device_id=-1,
            stream="host",
            kind="host",
            label=label,
            start=start,
            end=self.host_time,
            bytes_moved=cost.total_bytes,
            flops=cost.flops,
        )
        return result

    def energy_joules(self, elapsed: float | None = None) -> float:
        """Energy estimate over the simulated run so far.

        Each device draws its TDP while busy (trace busy time) and
        ``idle_power_fraction × TDP`` for the remaining wall time; the
        host draws its CPU power for the whole makespan. *elapsed*
        overrides the wall time (defaults to the trace makespan).
        """
        wall = self.trace.makespan() if elapsed is None else elapsed
        total = self.host_spec.tdp_watts * wall
        for gpu in self.gpus:
            busy = min(self.trace.device_busy_time(gpu.device_id), wall)
            idle = max(wall - busy, 0.0)
            total += gpu.spec.tdp_watts * (
                busy + gpu.spec.idle_power_fraction * idle
            )
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Machine({self.name!r}, gpus={len(self.gpus)})"


# ----------------------------------------------------------------------
# Table 2 platform factories
# ----------------------------------------------------------------------

def maxwell_platform(num_gpus: int = 1) -> Machine:
    """The paper's Maxwell platform: E5-2670 host + Titan X GPU(s)."""
    if not 1 <= num_gpus <= 1:
        raise ValueError("the Maxwell platform has exactly 1 GPU")
    return Machine(
        CPU_E5_2670, [GPU_TITAN_X] * num_gpus, p2p_gbps=PCIE_P2P_GBPS,
        name="Maxwell Platform",
    )


def pascal_platform(num_gpus: int = 1) -> Machine:
    """The paper's Pascal platform: E5-2650 v3 host + up to 4 Titan Xp."""
    if not 1 <= num_gpus <= 4:
        raise ValueError("the Pascal platform has 1-4 GPUs")
    return Machine(
        CPU_E5_2650V3, [GPU_TITAN_XP] * num_gpus, p2p_gbps=PCIE_P2P_GBPS,
        name="Pascal Platform",
    )


def volta_platform(num_gpus: int = 1) -> Machine:
    """The paper's Volta platform: E5-2690 v4 host + up to 2 V100."""
    if not 1 <= num_gpus <= 2:
        raise ValueError("the Volta platform has 1-2 GPUs")
    return Machine(
        CPU_E5_2690V4, [GPU_V100] * num_gpus, p2p_gbps=PCIE_P2P_GBPS,
        name="Volta Platform",
    )


#: NVLink 2.0: the paper (§3) cites "up to 300 GB/s" aggregate; one
#: direction of one link bundle achieves ~130 GB/s effective.
NVLINK_P2P_GBPS = 130.0


def ampere_platform(num_gpus: int = 1) -> Machine:
    """A hypothetical future platform: E5-2690 v4 host + up to 8 A100.

    Not in the paper (the A100 shipped two years later); projections
    on its GPU test the §7.1 claim that the design keeps scaling with
    device bandwidth (EXPERIMENTS.md, Extensions).
    """
    if not 1 <= num_gpus <= 8:
        raise ValueError("the Ampere platform has 1-8 GPUs")
    return Machine(
        CPU_E5_2690V4,
        [GPU_A100] * num_gpus,
        p2p_gbps=NVLINK_P2P_GBPS,
        name="Ampere Platform (hypothetical)",
    )


#: GPU spec and interconnect per platform name, for ``make_machine``.
_PLATFORM_PARTS = {
    "maxwell": (CPU_E5_2670, GPU_TITAN_X, PCIE_P2P_GBPS, "Maxwell"),
    "pascal": (CPU_E5_2650V3, GPU_TITAN_XP, PCIE_P2P_GBPS, "Pascal"),
    "volta": (CPU_E5_2690V4, GPU_V100, PCIE_P2P_GBPS, "Volta"),
    "ampere": (CPU_E5_2690V4, GPU_A100, NVLINK_P2P_GBPS, "Ampere"),
    "dgx": (CPU_E5_2690V4, GPU_V100, NVLINK_P2P_GBPS, "DGX"),
}


def make_machine(platform: str, num_gpus: int = 1) -> Machine:
    """Build *any* GPU count on a named platform's device specs.

    The ``*_platform`` factories above enforce the paper's Table 2 GPU
    counts (e.g. the Volta box tops out at 2 V100s) so reproduction
    scripts can't silently model hardware the paper never ran. Profiling
    and what-if runs want the specs without the cap — this builder keeps
    the same CPU/GPU/interconnect parts but accepts any ``num_gpus``.
    """
    try:
        cpu, gpu, p2p, label = _PLATFORM_PARTS[platform]
    except KeyError:
        raise ValueError(
            f"unknown platform {platform!r}; "
            f"choose from {sorted(_PLATFORM_PARTS)}"
        ) from None
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    return Machine(
        cpu, [gpu] * num_gpus, p2p_gbps=p2p,
        name=f"{label} Platform ({num_gpus} GPU)",
    )


def dgx_platform(num_gpus: int = 8) -> Machine:
    """An NVLink-connected V100 box (the DGX-1 the paper cites in §3).

    Extension beyond the paper's evaluated platforms: same V100 GPUs as
    the Volta platform, but GPU↔GPU traffic rides NVLink instead of
    PCIe P2P — the regime where the reduce-tree synchronization cost
    almost vanishes (see EXPERIMENTS.md, Extensions).
    """
    if not 1 <= num_gpus <= 8:
        raise ValueError("the DGX platform has 1-8 GPUs")
    return Machine(
        CPU_E5_2690V4,
        [GPU_V100] * num_gpus,
        p2p_gbps=NVLINK_P2P_GBPS,
        name="DGX Platform (NVLink)",
    )
