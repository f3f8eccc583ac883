"""The pluggable collectives behind model synchronization (paper §5.2).

After every iteration the per-GPU *partial* φ replicas (each holding
only its own chunks' counts) must be summed into the full φ and
redistributed. The paper rejects the intuitive gather-to-CPU approach
(the CPU adds slower than GPUs, and the host link becomes a serial
bottleneck) in favour of a **binary reduce tree over peer-to-peer
copies** — ⌈log₂ G⌉ steps whose transfers use disjoint GPU pairs and
therefore disjoint links (Fig 4) — followed by a broadcast of the
root's result. Which strategy wins, though, depends on the fabric and
the payload: a **ring** moves 1/G of φ per hop, a **hierarchical**
scheme (intra-socket tree + ring between socket leaders) crosses the
inter-socket bridge only between leaders; at tiny payloads link
latency dominates and the rejected CPU-gather wins, and with dead peer
links it is the only path left.

Each strategy is a registered :class:`Collective`, reached by name
through :func:`get_collective`, whose one ``allreduce`` is built from
executable steps (the tree's ``reduce_phi_tree`` and
``broadcast_phi``, the ring, the host gather and scatter) that work on
arbitrary *sublists* of replicas — positions carry their devices, so
the hierarchical composition and the elastic G−1 path fall out for
free. The ring moves φ rows in place: each step copies a row segment
straight out of the sender's φ (a :class:`~repro.gpusim.memory.DeviceView`
of its rows) into the receiver's, with no staging copy on either side.
:class:`SyncContext` checks that its per-position lists align, for
every collective. A cluster node runs no collective: each of its GPUs
sends its host only its own sparse Δφ
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
from repro.gpusim.memory import DeviceArray, DeviceView
from repro.gpusim.platform import Machine
from repro.gpusim.stream import Stream
from repro.telemetry.context import emit_counter, emit_observe, telemetry_session

__all__ = [
    "SyncContext",
    "CostEstimate",
    "Collective",
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


def _local_copy(
    dst: DeviceArray, src: DeviceArray, stream: Stream, config: KernelConfig
) -> None:
    """dst = src on one GPU, charged as a kernel, not a link transfer."""

    def body() -> None:
        dst.data[...] = src.data

    K, V = src.shape
    n = float(K) * V * config.phi_bytes
    KernelLaunch(
        fn=body,
        cost=KernelCost(bytes_read=n, bytes_written=n),
        label="phi_local_copy",
        kind="sync",
    ).launch(stream)


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
        _local_copy(destinations[0], source, streams[0], config)

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


def _cpu_gather(
    machine: Machine,
    partials: list[DeviceArray],
    fulls: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None,
) -> None:
    """Gather every replica to the host, add them there, and push the
    sum back to every GPU."""
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

    total = machine.host_compute(
        host_add,
        KernelCost(
            bytes_read=G * n * config.phi_bytes,
            bytes_written=n * config.phi_bytes,
            flops=(G - 1) * n,
        ),
        label="phi_host_add",
    )
    for g in range(G):
        dev = fulls[g].device.device_id
        with_retry(
            lambda g=g: machine.memcpy_h2d(
                fulls[g], total, stream=streams[g], label="phi_scatter",
                pinned=False,
            ),
            streams[g], "phi_scatter", retry, devices=(dev,),
        )
        emit_counter(
            "sync_bytes_total", fulls[g].nbytes,
            help="bytes moved per link during model synchronization",
            link=f"host->{dev}", phase="scatter",
        )


def _rows(buf: DeviceArray, lo: int, hi: int) -> DeviceView:
    """Rows ``lo:hi`` of a K×V buffer, as a copy or kernel endpoint."""
    K, V = buf.shape
    return DeviceView(
        buf, lo * (buf.nbytes // K), (hi - lo, V), buf.dtype,
        label=f"{buf.label}[{lo}:{hi}]",
    )


def _ring_allreduce(
    machine: Machine,
    partials: list[DeviceArray],
    fulls: list[DeviceArray],
    scratch: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None,
) -> None:
    """Sum ``partials`` into every ``fulls`` around a ring of positions,
    moving φ rows in place.

    φ is cut into G row segments. At reduce step s = 0 … G−2, position
    g copies segment g−s straight out of its partial into position
    g+1's receive buffer (the top rows of its ``scratch``), and g+1 adds
    that into the same segment of its own partial. The last reduce
    step's add writes the sum of g's *owned* segment g+1 into
    ``fulls[g]`` instead. At gather step s, position g copies segment
    g+1−s from its full φ into the same rows of g+1's. One position
    only copies its partial locally."""
    G = len(partials)
    if G == 1:
        _local_copy(fulls[0], partials[0], streams[0], config)
        return
    K = partials[0].shape[0]
    edges = [K * i // G for i in range(G + 1)]

    def segment(buf: DeviceArray, c: int) -> DeviceView:
        return _rows(buf, edges[c % G], edges[c % G + 1])

    # Only read-after-write waits are needed. At reduce step s position
    # g sends segment g−s and adds into segment g−s−1, so each segment
    # is added into once and sent one step later, and the owned segment
    # g+1 is never sent during the reduce: no add rewrites rows that a
    # copy still reads. In the gather each segment is received before it
    # is forwarded and is never rewritten. A receive buffer is written
    # and read on its owner's stream, which orders its reuse. So each
    # copy waits only for an event recorded on the sender's stream after
    # its last write to the rows it sends (before step 0, the write that
    # made its partial ready).
    def send(pairs: list[tuple[DeviceView, DeviceView]], phase: str) -> None:
        ready = [streams[g].record(label=f"ring_ready[{g}]") for g in range(G)]
        for g, (src, dst) in enumerate(pairs):
            nxt = (g + 1) % G
            streams[nxt].wait_event(ready[g])
            resilient_p2p(
                machine, dst, src, streams[nxt], streams[g],
                "ring_transfer", retry,
            )
            emit_counter(
                "sync_bytes_total", src.nbytes,
                help="bytes moved per link during model synchronization",
                link=f"{src.device.device_id}->{dst.device.device_id}",
                phase=phase,
            )

    def received(g: int, c: int) -> DeviceView:
        return _rows(scratch[g], 0, edges[c % G + 1] - edges[c % G])

    for s in range(G - 1):
        send([
            (segment(partials[g], g - s), received((g + 1) % G, g - s))
            for g in range(G)
        ], "ring_reduce")
        for g in range(G):
            out = fulls[g] if s == G - 2 else partials[g]
            _add_rows(
                segment(out, g - s - 1), segment(partials[g], g - s - 1),
                received(g, g - s - 1), config, streams[g],
            )
    for s in range(G - 1):
        send([
            (segment(fulls[g], g + 1 - s), segment(fulls[(g + 1) % G], g + 1 - s))
            for g in range(G)
        ], "ring_gather")


def _add_rows(
    out: DeviceArray,
    a: DeviceArray,
    b: DeviceArray,
    config: KernelConfig,
    stream: Stream,
) -> None:
    """out = a + b on one GPU: a ring step's add."""
    rows, V = out.shape
    n = float(rows) * V

    def body() -> None:
        out.data[...] = a.data + b.data

    KernelLaunch(
        body,
        KernelCost(
            bytes_read=2 * n * config.phi_bytes,
            bytes_written=n * config.phi_bytes,
            flops=n,
        ),
        "ring_combine",
        kind="sync",
    ).launch(stream)


def _socket_groups(machine: Machine, arrays: list[DeviceArray]) -> list[list[int]]:
    """Positions in *arrays* grouped by their device's socket
    (ascending socket id, original order within a group)."""
    by_socket: dict[int, list[int]] = {}
    for pos, arr in enumerate(arrays):
        by_socket.setdefault(
            machine.socket_of(arr.device.device_id), []
        ).append(pos)
    return [by_socket[s] for s in sorted(by_socket)]


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
    """One synchronization strategy: :meth:`allreduce` sums every
    replica into every full φ, and :meth:`estimate` prices it by
    replaying it.

    Each registered subclass defines ``allreduce`` itself, because
    ``bench/layertrace.py`` wraps it class by class."""

    name: str = ""

    def allreduce(self, ctx: SyncContext) -> None:
        """Sum every ``ctx.partials`` into every ``ctx.fulls``."""
        raise NotImplementedError

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

    def allreduce(self, ctx: SyncContext) -> None:
        root = reduce_phi_tree(
            ctx.machine, ctx.partials, ctx.scratch, ctx.streams, ctx.config,
            retry=ctx.retry,
        )
        broadcast_phi(
            ctx.machine, root, ctx.fulls, ctx.streams, ctx.config,
            retry=ctx.retry,
        )


class RingCollective(Collective):
    """Two-phase ring all-reduce (reduce-scatter + all-gather) — the
    alternative the tree is benchmarked against.

    φ is split into G row segments: 2·(G−1) steps, each moving only 1/G
    of the replica per link, with every neighbouring link active in
    parallel. At large G this moves less data per link than the tree
    (2·(G−1)/G replicas vs ⌈log₂G⌉), at the cost of more latency-bound
    steps — the trade ``tests/test_sync.py`` measures. The ring works
    on arbitrary sublists (the hierarchical collective rings the socket
    leaders)."""

    name = "ring"

    def allreduce(self, ctx: SyncContext) -> None:
        _ring_allreduce(
            ctx.machine, ctx.partials, ctx.fulls, ctx.scratch, ctx.streams,
            ctx.config, ctx.retry,
        )


class CpuGatherCollective(Collective):
    """Gather to the host, add on the CPU, scatter back: the intuitive
    baseline the paper rejects (§5.2).

    All transfers contend on the host links and the adds run at CPU
    speed; ``tests/test_sync.py`` measures the gap versus the GPU tree.
    It is also the path of last resort when peer links are down — no
    leg of it touches the P2P fabric."""

    name = "cpu_gather"

    def allreduce(self, ctx: SyncContext) -> None:
        _cpu_gather(
            ctx.machine, ctx.partials, ctx.fulls, ctx.streams, ctx.config,
            ctx.retry,
        )


class HierarchicalCollective(Collective):
    """Intra-socket tree + inter-socket leader ring + intra-socket
    broadcast — the dual-socket PCIe specialist.

    The EZLDA-style composition: GPUs under one PCIe switch first
    tree-reduce at switch speed into a per-socket *leader*; the leaders
    then ring-all-reduce across the (slow) inter-socket bridge, moving
    each byte over the bridge only once per direction instead of the
    tree's repeated full-replica hops; finally each leader
    tree-broadcasts its full φ back down its switch. One socket ⇒
    tree + broadcast only; one GPU per socket ⇒ a pure ring."""

    name = "hierarchical"

    def allreduce(self, ctx: SyncContext) -> None:
        machine, config, retry = ctx.machine, ctx.config, ctx.retry
        groups = _socket_groups(machine, ctx.partials)

        def pick(arrays: list, positions: list[int]) -> list:
            return [arrays[p] for p in positions]

        for grp in groups:
            if len(grp) > 1:
                reduce_phi_tree(
                    machine, pick(ctx.partials, grp), pick(ctx.scratch, grp),
                    pick(ctx.streams, grp), config, retry=retry,
                )
        leaders = [grp[0] for grp in groups]
        _ring_allreduce(
            machine, pick(ctx.partials, leaders), pick(ctx.fulls, leaders),
            pick(ctx.scratch, leaders), pick(ctx.streams, leaders),
            config, retry,
        )
        for grp in groups:
            if len(grp) > 1:
                broadcast_phi(
                    machine, ctx.fulls[grp[0]], pick(ctx.fulls, grp),
                    pick(ctx.streams, grp), config, retry=retry,
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
