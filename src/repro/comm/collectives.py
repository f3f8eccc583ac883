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
2-D ring rings each socket and then the GPUs at the same place in
every socket, so fewer of its latency-bound steps wait on the slow
inter-socket bridge; at tiny payloads link latency dominates and the
rejected CPU-gather wins, and with dead peer links it is the only path
left.

Each strategy is a :class:`Collective`, reached by name through
:func:`get_collective`, whose one ``allreduce`` is built from
executable steps (the tree's ``reduce_phi_tree`` and
``broadcast_phi``, the ring's reduce-scatter and all-gather over a row
window, the host gather and scatter) that work on arbitrary *sublists*
of replicas — positions carry their devices, so the 2-D ring's socket
rows and columns and the elastic G−1 path fall out for free. The rings
move φ rows in place: each step copies a row segment straight out of
the sender's φ (a :class:`~repro.gpusim.memory.DeviceView` of its
rows) into the receiver's, with no staging copy on either side.
:class:`SyncContext` checks that its per-position lists align, for
every collective. A cluster node runs no collective: each of its GPUs
sends its host only its own sparse Δφ
(:func:`~repro.sched.schedule.send_phi_deltas`). The collective's
``estimate`` prices ``allreduce`` by running that same code on an idle
shadow machine that copies the real one's specs and link states, so
:func:`~repro.comm.planner.plan_sync` ranks the collectives by what
they cost, not by a second description of them.

Because φ is summed in exact integer arithmetic, every collective is
bit-identical: the planner may pick freely on cost alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.comm.transfer import TransferRetry, resilient_p2p
from repro.core.kernels import KernelConfig, phi_reduce_cost
from repro.gpusim.costmodel import KernelCost
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
    {0, 2, 3} needs no renumbering. Every copy and add names the rows it
    reads and writes, so each step waits for the last write to its
    inputs (the first, for the update φ that wrote the partial), and
    whatever reads a full φ afterwards waits for the collective.

    ``lane_streams`` holds one more list of streams, one per position,
    for every lane after the first. A ring-family collective splits φ's
    rows into :attr:`lanes` windows and runs lane l on its own streams,
    so one lane's steps overlap another's on links they do not share.
    The default is one lane; only the planner's replay picks more.
    """

    machine: Machine
    partials: list
    fulls: list
    scratch: list
    streams: list
    config: KernelConfig
    retry: TransferRetry | None = None
    lane_streams: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not (
            len(self.partials) == len(self.fulls) == len(self.scratch)
            == len(self.streams)
        ) or any(len(lane) != len(self.streams) for lane in self.lane_streams):
            raise ValueError("partials, fulls, scratch, and streams must align")

    @property
    def lanes(self) -> int:
        return 1 + len(self.lane_streams)

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
        reads=(src,),
        writes=(dst,),
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
        reads=(src,),
        writes=(dst,),
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
    steps. Positions need not be device ids: an elastic run's
    survivors keep theirs.

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
                help="simulated copy+add time of one reduce step",
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
        _, _, arr = machine.memcpy_d2h(
            partials[g], stream=streams[g], label="phi_gather", pinned=False,
            retry=retry,
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
        machine.memcpy_h2d(
            fulls[g], total, stream=streams[g], label="phi_scatter",
            pinned=False, retry=retry,
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


def _edges(lo: int, hi: int, n: int) -> list[int]:
    """Rows ``lo:hi`` cut into *n* segments: segment c is rows
    ``edges[c]:edges[c+1]``."""
    return [lo + (hi - lo) * i // n for i in range(n + 1)]


def _segment(buf: DeviceArray, edges: list[int], c: int) -> DeviceView:
    n = len(edges) - 1
    return _rows(buf, edges[c % n], edges[c % n + 1])


def _ring_step(
    ctx: SyncContext,
    ring: list[int],
    pairs: list[tuple[DeviceView, DeviceView]],
    phase: str,
) -> list[float]:
    """Ring position g (context position ``ring[g]``) copies
    ``pairs[g]`` = (its rows, position g+1's rows) on g+1's stream.
    Returns each copy's start, by receiving position."""
    G = len(ring)
    streams = [ctx.streams[p] for p in ring]
    starts = [0.0] * G
    for g, (src, dst) in enumerate(pairs):
        nxt = (g + 1) % G
        starts[nxt], _ = resilient_p2p(
            ctx.machine, dst, src, streams[nxt], streams[g], "ring_transfer",
            ctx.retry,
        )
        emit_counter(
            "sync_bytes_total", src.nbytes,
            help="bytes moved per link during model synchronization",
            link=f"{src.device.device_id}->{dst.device.device_id}",
            phase=phase,
        )
    return starts


def _ring_reduce_scatter(
    ctx: SyncContext, ring: list[int], outs: list[DeviceArray], lo: int, hi: int
) -> None:
    """Sum rows ``lo:hi`` of the partials around *ring* (context
    positions), in place.

    The rows are cut into G segments. At step s = 0 … G−2 position g
    copies segment g−s straight out of its partial into position g+1's
    receive buffer (rows from ``lo`` down of its ``scratch``, so lanes
    over disjoint windows never share one), and g+1 adds that into the
    same segment of its own partial. The last step's add writes the sum
    of g's *owned* segment g+1 into its ``outs`` buffer instead."""
    G = len(ring)
    edges = _edges(lo, hi, G)
    partials = [ctx.partials[p] for p in ring]

    def received(g: int, c: int) -> DeviceView:
        return _rows(
            ctx.scratch[ring[g]], lo, lo + edges[c % G + 1] - edges[c % G]
        )

    for s in range(G - 1):
        starts = _ring_step(ctx, ring, [
            (_segment(partials[g], edges, g - s), received((g + 1) % G, g - s))
            for g in range(G)
        ], "ring_reduce")
        for g, p in enumerate(ring):
            out = outs[p] if s == G - 2 else partials[g]
            c = g - s - 1
            _, a_end, _ = _add_rows(
                _segment(out, edges, c), _segment(partials[g], edges, c),
                received(g, c), ctx.config, ctx.streams[p],
            )
            emit_observe(
                "sync_reduce_step_seconds", a_end - starts[g],
                help="simulated copy+add time of one reduce step",
                stride="ring",
            )


def _ring_all_gather(ctx: SyncContext, ring: list[int], lo: int, hi: int) -> None:
    """Spread rows ``lo:hi`` of the fulls around *ring*, each position
    holding its owned segment g+1 (as the reduce-scatter leaves it): at
    step s position g copies segment g+1−s from its full φ into the same
    rows of g+1's."""
    G = len(ring)
    edges = _edges(lo, hi, G)
    fulls = [ctx.fulls[p] for p in ring]
    for s in range(G - 1):
        _ring_step(ctx, ring, [
            (_segment(fulls[g], edges, g + 1 - s),
             _segment(fulls[(g + 1) % G], edges, g + 1 - s))
            for g in range(G)
        ], "ring_gather")


def _add_rows(
    out: DeviceArray,
    a: DeviceArray,
    b: DeviceArray,
    config: KernelConfig,
    stream: Stream,
) -> tuple[float, float, object]:
    """out = a + b on one GPU: a ring step's add."""
    rows, V = out.shape

    def body() -> None:
        out.data[...] = a.data + b.data

    return KernelLaunch(
        body, phi_reduce_cost(rows, V, config), "ring_combine", kind="sync",
        reads=(a, b), writes=(out,),
    ).launch(stream)


def _ring_allreduce(ctx: SyncContext, grid: list[list[int]]) -> None:
    """Sum ``ctx.partials`` into every ``ctx.fulls`` with a 2-D ring over
    *grid*: S rows of g positions each, moving φ rows in place.

    1. Each row ring-reduce-scatters all K rows: position r of a row
       owns the row's sum of segment r+1 of g.
    2. The positions at the same place r of every row (a column)
       ring-all-reduce that segment: their reduce-scatter's last add
       writes it into ``fulls``, and their all-gather spreads it.
    3. Each row ring-all-gathers all K rows of ``fulls``.

    One row is the flat ring (phase 2 is empty), and so is one column
    (phases 1 and 3 are). Either way each position sends 2(G−1)/G of φ;
    the grid takes 2(g−1) + 2(S−1) steps instead of 2(G−1), and only a
    column's copies, 1/G of φ each, cross between rows. One position
    only copies its partial locally.

    With L = ``ctx.lanes``, the K rows are cut into L windows and lane l
    runs all three phases on window l, on its own streams. The lanes are
    issued phase by phase (phase 2's reduce-scatter and all-gather
    apart), and a link serves copies in issue order, so while lane l
    crosses between rows, lane l+1 reduces within them."""
    if len(ctx.partials) == 1:
        _local_copy(ctx.fulls[0], ctx.partials[0], ctx.streams[0], ctx.config)
        return
    K = ctx.shape[0]
    S, g = len(grid), len(grid[0])
    # One row's reduce-scatter is the whole reduce: it writes the fulls.
    outs = ctx.fulls if S == 1 else ctx.partials
    windows = _edges(0, K, ctx.lanes)
    lanes = [ctx, *(
        replace(ctx, streams=streams, lane_streams=[])
        for streams in ctx.lane_streams
    )]

    def reduce_rows(lane: SyncContext, lo: int, hi: int) -> None:
        for row in grid:
            _ring_reduce_scatter(lane, row, outs, lo, hi)

    def columns(lo: int, hi: int):
        """Each column, with the rows of window lo:hi it owns."""
        edges = _edges(lo, hi, g)
        for r in range(g):
            c = (r + 1) % g
            yield [row[r] for row in grid], edges[c], edges[c + 1]

    def reduce_columns(lane: SyncContext, lo: int, hi: int) -> None:
        for column, a, b in columns(lo, hi):
            _ring_reduce_scatter(lane, column, lane.fulls, a, b)

    def gather_columns(lane: SyncContext, lo: int, hi: int) -> None:
        for column, a, b in columns(lo, hi):
            _ring_all_gather(lane, column, a, b)

    def gather_rows(lane: SyncContext, lo: int, hi: int) -> None:
        for row in grid:
            _ring_all_gather(lane, row, lo, hi)

    for phase in (reduce_rows, reduce_columns, gather_columns, gather_rows):
        for lane, lo, hi in zip(lanes, windows, windows[1:]):
            phase(lane, lo, hi)


def _socket_grid(ctx: SyncContext) -> list[list[int]]:
    """Positions grouped by their device's socket (ascending socket id,
    original order within a group) — or, when the groups differ in
    size, one group of every position."""
    by_socket: dict[int, list[int]] = {}
    for pos, dev in enumerate(ctx.devices):
        by_socket.setdefault(ctx.machine.socket_of(dev), []).append(pos)
    groups = [by_socket[s] for s in sorted(by_socket)]
    if len({len(grp) for grp in groups}) > 1:
        return [list(range(len(ctx.devices)))]
    return groups


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

    Each subclass defines ``allreduce`` itself, because
    ``bench/layertrace.py`` wraps it class by class. ``lane_counts``
    are the :attr:`SyncContext.lanes` the planner replays it at."""

    name: str = ""
    lane_counts: tuple[int, ...] = (1,)

    def allreduce(self, ctx: SyncContext) -> None:
        """Sum every ``ctx.partials`` into every ``ctx.fulls``."""
        raise NotImplementedError

    def estimate(
        self,
        machine: Machine,
        shape: tuple[int, int],
        config: KernelConfig,
        retry: TransferRetry | None = None,
        lanes: int = 1,
    ) -> CostEstimate:
        """Predicted cost of :meth:`allreduce` over *lanes* lanes on
        *machine*'s alive GPUs for a (K, V) payload — the planner's
        ranking input.

        Runs :meth:`allreduce` itself on an idle shadow machine with
        *machine*'s specs and link states (:func:`_machine_key`), so the
        prediction is the simulated time the same run takes from idle.
        """
        return _replay(
            self, _machine_key(machine), tuple(shape), config, retry, lanes
        )


def _link_state(link: Link) -> tuple[float, float, bool]:
    """What a replay copies of *link*: its effective bandwidth (the
    degradation scale applied), latency and up state. A pending
    transient fault (``fail_next``) stays out: retrying it is the run's
    concern, not the plan's."""
    return (
        link.bandwidth_gbps * link.bandwidth_scale,
        link.latency_seconds,
        link.up,
    )


def _set_state(link: Link, state: tuple[float, float, bool]) -> None:
    link.bandwidth_gbps, link.latency_seconds, link.up = state


def _machine_key(machine: Machine, devices: list[int] | None = None) -> tuple:
    """The fabric part of a replay's memo key: *machine*'s host and GPU
    specs (two boxes with equal links still add at different speeds),
    its host-link count, the participating *devices* (default: the
    alive GPUs, the elastic G−1 set) and every link's
    :func:`_link_state`, in :meth:`~repro.gpusim.platform.Machine.iter_links`
    order."""
    if devices is None:
        devices = [g.device_id for g in machine.alive_gpus]
    return (
        machine.host_spec,
        tuple(gpu.spec for gpu in machine.gpus),
        len(set(machine.pcie)),  # GPUs on one socket share an uplink
        tuple(int(d) for d in devices),
        tuple(_link_state(link) for link in machine.iter_links()),
    )


@functools.lru_cache(maxsize=256)
def _replay(
    collective: Collective,
    fabric: tuple,
    shape: tuple[int, int],
    config: KernelConfig,
    retry: TransferRetry | None,
    lanes: int,
) -> CostEstimate:
    """Run *collective* over *lanes* lanes on a fresh idle machine built
    from the arguments alone (*fabric* is a :func:`_machine_key`) — they
    are the memo key, so a cached estimate can only be reused for an
    identical replay. The cost is the latest operation on any stream of
    the shadow's GPUs, or the host clock if later."""
    host_spec, gpu_specs, num_host_links, devices, links = fabric
    shadow = Machine(host_spec, list(gpu_specs), num_host_links=num_host_links)
    for link, state in zip(shadow.iter_links(), links):
        _set_state(link, state)
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
        lane_streams=[
            [gpu.create_stream(f"sync{lane}") for gpu in gpus]
            for lane in range(1, lanes)
        ],
    )
    # A throwaway session keeps the replay's transfer and retry
    # counters out of the caller's registry.
    with telemetry_session():
        try:
            collective.allreduce(ctx)
        except SyncPathError:
            return CostEstimate(math.inf)
    return CostEstimate(shadow.synchronize())


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
    steps — the trade ``tests/test_sync.py`` measures. It is the 2-D
    ring's one-row grid."""

    name = "ring"
    lane_counts = (1, 2)

    def allreduce(self, ctx: SyncContext) -> None:
        _ring_allreduce(ctx, [list(range(len(ctx.partials)))])


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
    """A 2-D ring over the socket grid — the socket-aware collective,
    on PCIe and NVLink boxes alike.

    The EZLDA-style composition: S sockets of g GPUs each. Every socket
    first ring-reduce-scatters φ at switch speed, so each GPU owns its
    socket's sum of 1/g of the rows; the GPUs with the same place in
    their socket then ring-all-reduce that slice across the (slow)
    inter-socket bridge, each carrying 1/G of φ; finally every socket
    ring-all-gathers the full φ. Each GPU still moves 2·(G−1)/G of φ,
    as in the flat ring, but in 2(g−1) + 2(S−1) steps, and every GPU
    crosses the bridge with its own slice. When the sockets hold
    different numbers of GPUs (an elastic survivor set), or one GPU
    each, it is the flat ring."""

    name = "hierarchical"
    lane_counts = (1, 2)

    def allreduce(self, ctx: SyncContext) -> None:
        _ring_allreduce(ctx, _socket_grid(ctx))


#: Every collective, in the planner's tie-break order: on equal cost the
#: earlier wins, so the seed default ``gpu_tree`` comes first and
#: ``auto`` can never be slower than the old hard-wired tree.
_COLLECTIVES = (
    TreeCollective(),
    RingCollective(),
    CpuGatherCollective(),
    HierarchicalCollective(),
)


def get_collective(name: str) -> Collective:
    """Look a collective up by name."""
    for collective in _COLLECTIVES:
        if collective.name == name:
            return collective
    raise ValueError(
        f"unknown sync algorithm {name!r}; choose from "
        + ", ".join(("auto", *collective_names()))
    )


def collective_names() -> tuple[str, ...]:
    """The collectives' names, in tie-break order."""
    return tuple(c.name for c in _COLLECTIVES)


def collectives() -> tuple[Collective, ...]:
    """The collectives, in tie-break order."""
    return _COLLECTIVES
