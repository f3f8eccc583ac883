"""The pluggable collectives behind model synchronization (paper §5.2).

After every iteration the per-GPU *partial* φ replicas (each holding
only its own chunks' counts) must be summed into the full φ and
redistributed. The paper rejects the intuitive gather-to-CPU approach
(the CPU adds slower than GPUs, and the host link becomes a serial
bottleneck) in favour of a **binary reduce tree over peer-to-peer
copies** — ⌈log₂ G⌉ steps whose transfers use disjoint GPU pairs and
therefore disjoint links (Fig 4) — followed by a broadcast of the
root's result. Which strategy wins, though, depends on the fabric: on
NVLink the tree's few fat hops are unbeatable, on a dual-socket PCIe
box the inter-socket bridge is the bottleneck and a **hierarchical**
scheme (intra-socket tree + inter-socket ring between socket leaders)
halves the bridge traffic, and with dead peer links the rejected
CPU-gather becomes the only path left.

Each strategy is a registered :class:`Collective`, reached by name
through :func:`get_collective`: a **reduce half** and a **gather
half** built from executable steps (the tree's ``reduce_phi_tree`` and
``broadcast_phi``, the ring's reduce-scatter and all-gather, the host
gather and scatter) that work on arbitrary *sublists* of replicas —
positions carry their devices, so the hierarchical composition and
the elastic G−1 path fall out for free. :class:`SyncContext` checks
that its per-position lists align, for every collective. One machine
runs both halves (:meth:`Collective.allreduce`). A cluster node runs
no collective: each of its GPUs sends its host only its own sparse Δφ
(:func:`~repro.sched.schedule.send_phi_deltas`). The collective's
``estimate`` prices ``allreduce`` by running that same code on an idle
shadow machine built from the topology snapshot, so
:func:`~repro.comm.planner.plan_sync` ranks the collectives by what
they cost, not by a second description of them.

Because φ is summed in exact integer arithmetic, every collective is
bit-identical: the planner may pick freely on cost alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.comm.topology import LinkInfo, Topology
from repro.comm.transfer import TransferRetry, resilient_p2p, with_retry
from repro.core.kernels import KernelConfig, phi_reduce_cost
from repro.gpusim.costmodel import KernelCost
from repro.gpusim.device import DeviceSpec
from repro.gpusim.errors import SyncPathError
from repro.gpusim.interconnect import Link
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import DeviceArray
from repro.gpusim.platform import Machine
from repro.gpusim.stream import Stream
from repro.telemetry.context import emit_counter, emit_observe, telemetry_session

__all__ = [
    "SyncContext",
    "CostEstimate",
    "Collective",
    "Reduced",
    "register",
    "get_collective",
    "collective_names",
    "collectives",
    "reduce_phi_tree",
    "broadcast_phi",
]


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------

@dataclass
class SyncContext:
    """Everything a collective needs to all-reduce the φ replicas.

    ``partials[g]`` / ``fulls[g]`` / ``scratch[g]`` / ``streams[g]``
    belong to the same (arbitrary) device — positions are logical ranks,
    devices come from the arrays, so an elastic run over surviving GPUs
    {0, 2, 3} needs no renumbering.
    """

    machine: Machine
    partials: list
    fulls: list
    scratch: list
    streams: list
    config: KernelConfig
    retry: TransferRetry | None = None

    def __post_init__(self) -> None:
        if not (
            len(self.partials) == len(self.fulls) == len(self.scratch)
            == len(self.streams)
        ):
            raise ValueError("partials, fulls, scratch, and streams must align")

    @property
    def shape(self) -> tuple[int, int]:
        return self.partials[0].shape

    @property
    def devices(self) -> tuple[int, ...]:
        return tuple(p.device.device_id for p in self.partials)


@dataclass(frozen=True)
class Reduced:
    """Where a collective's reduce half left Σ_g φ_g.

    Each ``(position, lo, hi)`` in ``owners`` says rows ``lo:hi`` of
    the sum are in ``partials[position]``; together they cover every
    row once. A collective that reduces on the host (``cpu_gather``)
    leaves the whole sum in ``host`` instead.
    """

    owners: tuple[tuple[int, int, int], ...] = ()
    host: np.ndarray | None = None


# ----------------------------------------------------------------------
# Executable primitives
# ----------------------------------------------------------------------

def _add_kernel(dst: DeviceArray, src: DeviceArray, config: KernelConfig) -> KernelLaunch:
    """dst += src (element-wise integer add on the destination GPU)."""
    K, V = dst.shape

    def body() -> None:
        dst.data += src.data

    return KernelLaunch(
        fn=body,
        cost=phi_reduce_cost(K, V, config),
        label="phi_add",
        kind="sync",
    )


def reduce_phi_tree(
    machine: Machine,
    partials: list[DeviceArray],
    scratch: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None = None,
) -> DeviceArray:
    """Tree-reduce the partial replicas into ``partials[0]`` (Fig 4).

    At stride s = 1, 2, 4, … position ``i+s`` sends its accumulated
    partial to position ``i``'s scratch buffer, and position ``i`` adds
    it in. Transfers within one step use disjoint device pairs, so they
    proceed in parallel — the reduction completes in ⌈log₂ G⌉ serial
    steps. Positions need not be device ids: the hierarchical collective
    runs this on per-socket sublists.

    Returns ``partials[0]``, which afterwards holds Σ_g φ_g.
    """
    G = len(partials)
    if not (len(scratch) == len(streams) == G):
        raise ValueError("partials, scratch, and streams must align")
    stride = 1
    while stride < G:
        for i in range(0, G - stride, 2 * stride):
            sender = i + stride
            src_dev = partials[sender].device.device_id
            dst_dev = partials[i].device.device_id
            ready = streams[sender].record(label=f"phi_ready[{src_dev}]")
            streams[i].wait_event(ready)
            c_start, _ = resilient_p2p(
                machine, scratch[i], partials[sender], streams[i],
                streams[sender], "phi_reduce_copy", retry,
            )
            emit_counter(
                "sync_bytes_total", partials[sender].nbytes,
                help="bytes moved per link during model synchronization",
                link=f"{src_dev}->{dst_dev}", phase="reduce",
            )
            _, a_end, _ = _add_kernel(partials[i], scratch[i], config).launch(
                streams[i]
            )
            emit_observe(
                "sync_reduce_step_seconds", a_end - c_start,
                help="simulated copy+add time of one reduce-tree step",
                stride=str(stride),
            )
        stride *= 2
    return partials[0]


def broadcast_phi(
    machine: Machine,
    source: DeviceArray,
    destinations: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None = None,
) -> None:
    """Tree-broadcast *source* (the reduced φ at position 0) everywhere.

    Inverse of the reduce tree: at stride 1, 2, 4, … each position that
    already has the result forwards it, doubling the holder set each
    step — again ⌈log₂ G⌉ serial steps.

    ``destinations[g]`` is position *g*'s full-φ buffer;
    ``destinations[0]`` lives on the same device as *source* and, unless
    it *is* the source, receives a device-local copy (charged as a
    kernel, not a link transfer).
    """
    G = len(destinations)
    if len(streams) != G:
        raise ValueError("destinations and streams must align")
    if destinations[0].device is not source.device:
        raise ValueError("destinations[0] must live on the source device")

    if destinations[0] is not source:
        def local_copy() -> None:
            destinations[0].data[...] = source.data

        K, V = source.shape
        n = float(K) * V * config.phi_bytes
        KernelLaunch(
            fn=local_copy,
            cost=KernelCost(bytes_read=n, bytes_written=n),
            label="phi_local_copy",
            kind="sync",
        ).launch(streams[0])

    # Doubling pattern: holders {0} -> {0,1} -> {0,1,2,3} -> ...
    have = [0]
    step = 1
    while step < G:
        new_holders = []
        for h in have:
            peer = h + step
            if peer < G:
                src_dev = destinations[h].device.device_id
                dst_dev = destinations[peer].device.device_id
                ready = streams[h].record(label=f"phi_have[{src_dev}]")
                streams[peer].wait_event(ready)
                resilient_p2p(
                    machine, destinations[peer], destinations[h],
                    streams[peer], streams[h], "phi_broadcast_copy", retry,
                )
                emit_counter(
                    "sync_bytes_total", destinations[h].nbytes,
                    help="bytes moved per link during model synchronization",
                    link=f"{src_dev}->{dst_dev}", phase="broadcast",
                )
                new_holders.append(peer)
        have.extend(new_holders)
        step *= 2


def _cpu_gather_reduce(
    machine: Machine,
    partials: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None,
) -> np.ndarray:
    """``cpu_gather``'s reduce half: gather every replica and add them
    on the host. Returns the sum, built from the gathered arrays."""
    G = len(partials)
    host_copies: list[np.ndarray] = []
    for g in range(G):
        dev = partials[g].device.device_id
        # The gather lands in the host model arrays — pageable memory,
        # so it runs at the staging-copy rate (unlike the pinned chunk
        # buffers WorkSchedule2 streams through).
        _, _, arr = with_retry(
            lambda g=g: machine.memcpy_d2h(
                partials[g], stream=streams[g], label="phi_gather", pinned=False
            ),
            streams[g], "phi_gather", retry, devices=(dev,),
        )
        emit_counter(
            "sync_bytes_total", partials[g].nbytes,
            help="bytes moved per link during model synchronization",
            link=f"{dev}->host", phase="gather",
        )
        host_copies.append(arr)
    machine.synchronize()

    K, V = partials[0].shape
    n = float(K) * V

    def host_add() -> np.ndarray:
        total = host_copies[0].astype(np.int64)
        for arr in host_copies[1:]:
            total += arr
        return total.astype(partials[0].dtype)

    return machine.host_compute(
        host_add,
        KernelCost(
            bytes_read=G * n * config.phi_bytes,
            bytes_written=n * config.phi_bytes,
            flops=(G - 1) * n,
        ),
        label="phi_host_add",
    )


def _cpu_scatter(
    machine: Machine,
    total: np.ndarray,
    destinations: list[DeviceArray],
    streams: list[Stream],
    retry: TransferRetry | None,
) -> None:
    """``cpu_gather``'s gather half: push the host sum to every GPU."""
    for g in range(len(destinations)):
        dev = destinations[g].device.device_id
        with_retry(
            lambda g=g: machine.memcpy_h2d(
                destinations[g], total, stream=streams[g], label="phi_scatter",
                pinned=False,
            ),
            streams[g], "phi_scatter", retry, devices=(dev,),
        )
        emit_counter(
            "sync_bytes_total", destinations[g].nbytes,
            help="bytes moved per link during model synchronization",
            link=f"host->{dev}", phase="scatter",
        )


def _ring_edges(K: int, G: int) -> list[int]:
    """Row-segment boundaries: segment c is rows ``edges[c]:edges[c+1]``."""
    return [K * i // G for i in range(G + 1)]


def _ring_pass(
    machine: Machine,
    partials: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None,
    reduce_phase: bool,
) -> None:
    """The G−1 steps of one ring phase, each stage → transfer →
    combine on every GPU: the reduce phase adds the received segment
    into ``partials``, the gather phase overwrites it."""
    G = len(partials)
    if G == 1:
        return
    K, V = partials[0].shape
    phi_b = config.phi_bytes
    edges = _ring_edges(K, G)
    max_rows = max(edges[i + 1] - edges[i] for i in range(G))
    seg_bytes = float(max_rows) * V * phi_b

    send_bufs = [
        DeviceArray(partials[g].device, (max_rows, V), partials[g].dtype,
                    label=f"ring_send{g}")
        for g in range(G)
    ]
    recv_bufs = [
        DeviceArray(partials[g].device, (max_rows, V), partials[g].dtype,
                    label=f"ring_recv{g}")
        for g in range(G)
    ]

    # sent[g] marks, on GPU g+1's stream, the end of the last copy out
    # of send_bufs[g]; the next stage into that buffer waits for it.
    sent: list = [None] * G

    def run_step(step: int) -> None:
        stage_events = []
        send_chunk = [0] * G
        recv_chunk = [0] * G
        for g in range(G):
            if reduce_phase:
                send_chunk[g] = (g - step) % G
                recv_chunk[g] = (g - step - 1) % G
            else:
                send_chunk[g] = (g + 1 - step) % G
                recv_chunk[g] = (g - step) % G

        for g in range(G):
            c = send_chunk[g]
            lo, hi = edges[c], edges[c + 1]

            def stage(g: int = g, lo: int = lo, hi: int = hi) -> None:
                send_bufs[g].data[: hi - lo] = partials[g].data[lo:hi]

            if sent[g] is not None:
                streams[g].wait_event(sent[g])
            KernelLaunch(
                stage,
                KernelCost(bytes_read=seg_bytes, bytes_written=seg_bytes),
                "ring_stage",
                kind="sync",
            ).launch(streams[g])
            stage_events.append(streams[g].record(label=f"ring_staged[{g}]"))

        for g in range(G):
            dst = (g + 1) % G
            streams[dst].wait_event(stage_events[g])
            resilient_p2p(
                machine, recv_bufs[dst], send_bufs[g], streams[dst],
                streams[g], "ring_transfer", retry,
            )
            sent[g] = streams[dst].record(label=f"ring_sent[{g}]")
            emit_counter(
                "sync_bytes_total", send_bufs[g].nbytes,
                help="bytes moved per link during model synchronization",
                link=(
                    f"{send_bufs[g].device.device_id}"
                    f"->{recv_bufs[dst].device.device_id}"
                ),
                phase="ring_reduce" if reduce_phase else "ring_gather",
            )

        for g in range(G):
            c = recv_chunk[g]
            lo, hi = edges[c], edges[c + 1]

            def combine(g: int = g, lo: int = lo, hi: int = hi) -> None:
                if reduce_phase:
                    partials[g].data[lo:hi] += recv_bufs[g].data[: hi - lo]
                else:
                    partials[g].data[lo:hi] = recv_bufs[g].data[: hi - lo]

            KernelLaunch(
                combine,
                KernelCost(
                    bytes_read=2 * seg_bytes if reduce_phase else seg_bytes,
                    bytes_written=seg_bytes,
                    flops=float(max_rows) * V if reduce_phase else 0.0,
                ),
                "ring_combine",
                kind="sync",
            ).launch(streams[g])

    try:
        for step in range(G - 1):
            run_step(step)
    finally:
        for buf in send_bufs + recv_bufs:
            buf.free()


def _ring_reduce_scatter(
    machine: Machine,
    partials: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None,
) -> Reduced:
    """The ring's reduce half: after G−1 reduce-scatter steps position
    g holds the sum of row segment (g+1) mod G."""
    G = len(partials)
    _ring_pass(machine, partials, streams, config, retry, reduce_phase=True)
    edges = _ring_edges(partials[0].shape[0], G)
    return Reduced(owners=tuple(
        (g, edges[(g + 1) % G], edges[(g + 1) % G + 1]) for g in range(G)
    ))


def _ring_allgather(
    machine: Machine,
    partials: list[DeviceArray],
    fulls: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None,
) -> None:
    """The ring's gather half: G−1 all-gather steps complete every
    ``partials[g]``, then a device-local copy fills ``fulls[g]``."""
    _ring_pass(machine, partials, streams, config, retry, reduce_phase=False)
    K, V = partials[0].shape
    n = float(K) * V * config.phi_bytes
    for g in range(len(partials)):
        def body(g: int = g) -> None:
            fulls[g].data[...] = partials[g].data

        KernelLaunch(
            body,
            KernelCost(bytes_read=n, bytes_written=n),
            "phi_local_copy",
            kind="sync",
        ).launch(streams[g])


def _socket_groups(machine: Machine, arrays: list[DeviceArray]) -> list[list[int]]:
    """Positions in *arrays* grouped by their device's socket
    (ascending socket id, original order within a group)."""
    by_socket: dict[int, list[int]] = {}
    for pos, arr in enumerate(arrays):
        by_socket.setdefault(
            machine.socket_of(arr.device.device_id), []
        ).append(pos)
    return [by_socket[s] for s in sorted(by_socket)]


def _hierarchical_reduce(
    machine: Machine,
    partials: list[DeviceArray],
    scratch: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None,
) -> Reduced:
    """The reduce half: each socket tree-reduces into its leader, then
    the leaders reduce-scatter; each leader owns one ring segment."""
    groups = _socket_groups(machine, partials)
    for grp in groups:
        if len(grp) > 1:
            reduce_phi_tree(
                machine,
                [partials[p] for p in grp],
                [scratch[p] for p in grp],
                [streams[p] for p in grp],
                config, retry=retry,
            )
    leaders = [grp[0] for grp in groups]
    ring = _ring_reduce_scatter(
        machine,
        [partials[p] for p in leaders],
        [streams[p] for p in leaders],
        config, retry,
    )
    return Reduced(owners=tuple(
        (leaders[i], lo, hi) for i, lo, hi in ring.owners
    ))


def _hierarchical_gather(
    machine: Machine,
    partials: list[DeviceArray],
    fulls: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None,
) -> None:
    """The gather half: the leaders all-gather their segments into their
    full φ (a single leader only copies locally), then each leader
    tree-broadcasts that full φ down its socket."""
    groups = _socket_groups(machine, partials)
    leaders = [grp[0] for grp in groups]
    _ring_allgather(
        machine,
        [partials[p] for p in leaders],
        [fulls[p] for p in leaders],
        [streams[p] for p in leaders],
        config, retry,
    )
    for grp in groups:
        if len(grp) > 1:
            broadcast_phi(
                machine,
                fulls[grp[0]],
                [fulls[p] for p in grp],
                [streams[p] for p in grp],
                config, retry=retry,
            )


# ----------------------------------------------------------------------
# Collective interface + cost estimation by replay
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CostEstimate:
    """Predicted simulated completion time of one collective on one
    topology (``inf`` when the topology offers no usable path)."""

    seconds: float

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.seconds)


class Collective:
    """One synchronization strategy: a reduce half and a gather half,
    run together by :meth:`allreduce` and priced by replaying it
    (:meth:`estimate`).

    Each registered subclass binds ``allreduce`` as its own attribute,
    because ``bench/layertrace.py`` wraps it class by class."""

    name: str = ""

    def reduce(self, ctx: SyncContext) -> Reduced:
        """The reduce half: sum ``ctx.partials`` where the returned
        :class:`Reduced` says. Other partial rows are left holding
        partial sums."""
        raise NotImplementedError

    def gather(self, ctx: SyncContext, reduced: Reduced) -> None:
        """The gather half: copy the sum *reduced* left into every
        ``ctx.fulls``."""
        raise NotImplementedError

    def allreduce(self, ctx: SyncContext) -> None:
        """Sum every ``ctx.partials`` into every ``ctx.fulls``."""
        self.gather(ctx, self.reduce(ctx))

    def estimate(
        self,
        machine: Machine,
        topo: Topology,
        shape: tuple[int, int],
        config: KernelConfig,
        retry: TransferRetry | None = None,
    ) -> CostEstimate:
        """Predicted cost of :meth:`allreduce` on *topo* for a (K, V)
        payload — the planner's ranking input.

        Runs :meth:`allreduce` itself on an idle shadow machine with
        *machine*'s specs and *topo*'s link states, so the prediction is
        the simulated time the same run takes from idle.
        """
        return _replay(
            self,
            machine.host_spec,
            tuple(gpu.spec for gpu in machine.gpus),
            len(set(machine.pcie)),  # GPUs on one socket share an uplink
            topo.devices,
            tuple(topo.host.items()),
            tuple(topo.p2p.items()),
            tuple(shape),
            config,
            retry,
        )


def _copy_state(link: Link, info: LinkInfo) -> None:
    link.bandwidth_gbps = info.bandwidth_gbps
    link.latency_seconds = info.latency_seconds
    link.up = info.up


@functools.lru_cache(maxsize=256)
def _replay(
    collective: Collective,
    host_spec: DeviceSpec,
    gpu_specs: tuple[DeviceSpec, ...],
    num_host_links: int,
    devices: tuple[int, ...],
    host: tuple[tuple[int, LinkInfo], ...],
    p2p: tuple[tuple[tuple[int, int], LinkInfo], ...],
    shape: tuple[int, int],
    config: KernelConfig,
    retry: TransferRetry | None,
) -> CostEstimate:
    """Run *collective* on a fresh idle machine built from the
    arguments alone — they are the memo key, so a cached estimate can
    only be reused for an identical replay."""
    shadow = Machine(host_spec, list(gpu_specs), num_host_links=num_host_links)
    for d, info in host:
        _copy_state(shadow.pcie[d], info)
    for (a, b), info in p2p:
        _copy_state(shadow.p2p_link(a, b), info)
    gpus = [shadow.gpus[d] for d in devices]
    dtype = np.uint16 if config.compressed else np.int32

    def buffers(label: str) -> list[DeviceArray]:
        return [DeviceArray(gpu, shape, dtype, label=label) for gpu in gpus]

    ctx = SyncContext(
        machine=shadow,
        partials=buffers("phi_partial"),
        fulls=buffers("phi_full"),
        scratch=buffers("phi_scratch"),
        streams=[gpu.create_stream("sync") for gpu in gpus],
        config=config,
        retry=retry,
    )
    # A throwaway session keeps the replay's transfer and retry
    # counters out of the caller's registry.
    with telemetry_session():
        try:
            collective.allreduce(ctx)
        except SyncPathError:
            return CostEstimate(math.inf)
    return CostEstimate(
        max(shadow.host_time, *(s.available_at for s in ctx.streams))
    )


class TreeCollective(Collective):
    """Reduce tree into position 0 + tree broadcast (paper Fig 4)."""

    name = "gpu_tree"

    allreduce = Collective.allreduce  # own attribute: see Collective

    def reduce(self, ctx: SyncContext) -> Reduced:
        reduce_phi_tree(
            ctx.machine, ctx.partials, ctx.scratch, ctx.streams, ctx.config,
            retry=ctx.retry,
        )
        return Reduced(owners=((0, 0, ctx.shape[0]),))

    def gather(self, ctx: SyncContext, reduced: Reduced) -> None:
        broadcast_phi(
            ctx.machine, ctx.partials[0], ctx.fulls, ctx.streams, ctx.config,
            retry=ctx.retry,
        )


class RingCollective(Collective):
    """Two-phase ring all-reduce (reduce-scatter + all-gather) — the
    alternative the tree is benchmarked against.

    φ is split into G row segments: 2·(G−1) steps, each moving only 1/G
    of the replica per link, with every neighbouring link active in
    parallel. At large G this moves less data per link than the tree
    (2·(G−1)/G replicas vs ⌈log₂G⌉), at the cost of more latency-bound
    steps — the trade ``tests/test_sync.py`` measures. The helpers work
    on arbitrary sublists (the hierarchical collective rings the socket
    leaders)."""

    name = "ring"

    allreduce = Collective.allreduce  # own attribute: see Collective

    def reduce(self, ctx: SyncContext) -> Reduced:
        return _ring_reduce_scatter(
            ctx.machine, ctx.partials, ctx.streams, ctx.config, ctx.retry
        )

    def gather(self, ctx: SyncContext, reduced: Reduced) -> None:
        _ring_allgather(
            ctx.machine, ctx.partials, ctx.fulls, ctx.streams, ctx.config,
            ctx.retry,
        )


class CpuGatherCollective(Collective):
    """Gather to the host, add on the CPU, scatter back: the intuitive
    baseline the paper rejects (§5.2).

    All transfers contend on the host links and the adds run at CPU
    speed; ``tests/test_sync.py`` measures the gap versus the GPU tree.
    It is also the path of last resort when peer links are down — no
    leg of it touches the P2P fabric."""

    name = "cpu_gather"

    allreduce = Collective.allreduce  # own attribute: see Collective

    def reduce(self, ctx: SyncContext) -> Reduced:
        return Reduced(host=_cpu_gather_reduce(
            ctx.machine, ctx.partials, ctx.streams, ctx.config, ctx.retry
        ))

    def gather(self, ctx: SyncContext, reduced: Reduced) -> None:
        _cpu_scatter(
            ctx.machine, reduced.host, ctx.fulls, ctx.streams, ctx.retry
        )


class HierarchicalCollective(Collective):
    """Intra-socket tree + inter-socket leader ring + intra-socket
    broadcast — the dual-socket PCIe specialist.

    The EZLDA-style composition: GPUs under one PCIe switch first
    tree-reduce at switch speed into a per-socket *leader*; the leaders
    then ring-all-reduce across the (slow) inter-socket bridge, moving
    each byte over the bridge only once per direction instead of the
    tree's repeated full-replica hops; finally each leader
    tree-broadcasts the full model back down its switch. One socket ⇒
    tree + broadcast only; one GPU per socket ⇒ a pure ring."""

    name = "hierarchical"

    allreduce = Collective.allreduce  # own attribute: see Collective

    def reduce(self, ctx: SyncContext) -> Reduced:
        return _hierarchical_reduce(
            ctx.machine, ctx.partials, ctx.scratch, ctx.streams, ctx.config,
            ctx.retry,
        )

    def gather(self, ctx: SyncContext, reduced: Reduced) -> None:
        _hierarchical_gather(
            ctx.machine, ctx.partials, ctx.fulls, ctx.streams, ctx.config,
            ctx.retry,
        )


_COLLECTIVES: dict[str, Collective] = {}


def register(collective: Collective) -> Collective:
    """Add *collective* to the registry (registration order is the
    planner's tie-break order: earlier wins on equal cost)."""
    if not collective.name:
        raise ValueError("collective must have a name")
    if collective.name in _COLLECTIVES:
        raise ValueError(f"collective {collective.name!r} already registered")
    _COLLECTIVES[collective.name] = collective
    return collective


def get_collective(name: str) -> Collective:
    """Look a registered collective up by name."""
    try:
        return _COLLECTIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown sync algorithm {name!r}; choose from "
            + ", ".join(("auto", *_COLLECTIVES))
        ) from None


def collective_names() -> tuple[str, ...]:
    """Registered collective names, in registration (tie-break) order."""
    return tuple(_COLLECTIVES)


def collectives() -> tuple[Collective, ...]:
    """The registered collectives, in registration order."""
    return tuple(_COLLECTIVES.values())


# The seed default registers first, so it wins every cost tie — auto
# can never be slower than the old hard-wired gpu_tree on equal terms.
register(TreeCollective())
register(RingCollective())
register(CpuGatherCollective())
register(HierarchicalCollective())
