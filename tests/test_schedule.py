"""Tests for WorkSchedule1/2 machinery (paper Alg 1, §5.1)."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.kernels import KernelConfig
from repro.core.model import LDAHyperParams, SparseTheta
from repro.corpus.corpus import TokenChunk
from repro.gpusim.platform import pascal_platform
from repro.sched.schedule import (
    ChunkRuntime,
    GpuWorker,
    download_chunk,
    run_iteration,
    upload_chunk,
)
from repro.telemetry import TrainerCallback


def _make_runtime(corpus, chunk_id, lo, hi, K, seed=0):
    chunk = TokenChunk.from_corpus_range(corpus, lo, hi)
    rng = np.random.default_rng(seed)
    topics = rng.integers(0, K, chunk.num_tokens).astype(np.uint16)
    theta = SparseTheta.from_assignments(chunk, topics, K)
    return ChunkRuntime(chunk_id, chunk, topics, theta, rng)


def _init_phi(runtimes, K, V):
    from repro.core.kernels import accumulate_phi

    phi = np.zeros((K, V), dtype=np.int64)
    for r in runtimes:
        phi += accumulate_phi(r.chunk, r.topics, K)
    return phi


def _stage(machine, workers, runtimes):
    """Each GPU's chunk slots for its chunks, and its first chunk staged
    in the first slot, as the trainer stages them."""
    G = len(workers)
    for g, w in enumerate(workers):
        w.allocate_slots(runtimes[g::G])
    return [
        upload_chunk(machine, w, runtimes[g], w.slots[0])
        for g, w in enumerate(workers)
    ]


def _setup(machine, corpus, K=8, num_chunks=None):
    from repro.sched.partition import partition_by_tokens

    G = len(machine.gpus)
    C = num_chunks or G
    hyper = LDAHyperParams(num_topics=K)
    cfg = KernelConfig()
    ranges = partition_by_tokens(corpus, C)
    runtimes = [
        _make_runtime(corpus, i, lo, hi, K, seed=i) for i, (lo, hi) in enumerate(ranges)
    ]
    workers = [GpuWorker(d, K, corpus.num_words, cfg) for d in machine.gpus]
    phi = _init_phi(runtimes, K, corpus.num_words)
    for w in workers:
        w.phi_full.data[...] = phi.astype(w.phi_full.dtype)
        w.n_k.data[...] = phi.sum(axis=1)
    return hyper, cfg, runtimes, workers


class TestChunkMovement:
    def test_upload_roundtrip(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus)
        [dc] = _stage(pascal1, workers, runtimes)
        assert np.array_equal(dc.token_doc.data, runtimes[0].chunk.token_doc)
        assert np.array_equal(dc.topics.data, runtimes[0].topics)
        download_chunk(pascal1, workers[0], dc)
        assert dc.slot is workers[0].slots[0] and not dc.slot.freed

    def test_upload_allocates_nothing(self, medium_corpus, pascal1):
        """A chunk's memory is a slot its worker allocated once: laying
        the chunk out and copying it up allocates nothing, and copying
        its state back frees nothing."""
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus)
        w, allocator = workers[0], pascal1.gpus[0].allocator
        w.allocate_slots(runtimes)
        before = allocator.bytes_in_use
        dc = upload_chunk(pascal1, w, runtimes[0], w.slots[0])
        assert allocator.bytes_in_use == before
        download_chunk(pascal1, w, dc)
        assert allocator.bytes_in_use == before

    def test_upload_takes_simulated_time(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus)
        _stage(pascal1, workers, runtimes)
        assert pascal1.synchronize() > 0


class TestChunkCompute:
    """One GPU's chunk work inside :func:`run_iteration`: sampling →
    update φ → update θ on its compute stream."""

    @staticmethod
    def _iterate(machine, corpus, num_chunks=None):
        hyper, cfg, runtimes, workers = _setup(
            machine, corpus, num_chunks=num_chunks
        )
        held = _stage(machine, workers, runtimes)
        run_iteration(machine, workers, runtimes, held, hyper, cfg)
        machine.synchronize()
        return hyper, runtimes, workers, held

    def test_updates_all_state(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus)
        cr = runtimes[0]
        held = _stage(pascal1, workers, runtimes)
        theta_before = cr.theta
        run_iteration(pascal1, workers, runtimes, held, hyper, cfg)
        pascal1.synchronize()
        # φ partial recounted from the new assignments.
        assert workers[0].phi_partial.data.sum() == cr.chunk.num_tokens
        # θ replaced and consistent with the new topics.
        assert cr.theta is not theta_before
        recount = SparseTheta.from_assignments(
            cr.chunk, cr.topics, hyper.num_topics
        )
        assert recount == cr.theta
        # Device θ mirrors the host θ.
        assert np.array_equal(held[0].theta_data.data, cr.theta.data)

    def test_stats_recorded(self, medium_corpus, pascal1):
        _, runtimes, _, _ = self._iterate(pascal1, medium_corpus)
        cr = runtimes[0]
        assert cr.last_stats is not None
        assert cr.last_stats.num_tokens == cr.chunk.num_tokens

    def test_phi_ready_event_precedes_theta_update(self, medium_corpus, pascal1):
        """§6.2 ordering: update φ ends before update θ does, and the
        sync starts as update φ ends, while update θ still runs."""
        self._iterate(pascal1, medium_corpus)
        first = {}
        for iv in pascal1.trace.intervals:
            first.setdefault(iv.kind, iv)
        phi, theta = first["update_phi"], first["update_theta"]
        assert phi.end < theta.end
        assert first["sync"].start == phi.end

    def test_accumulate_mode_adds(self, medium_corpus, pascal1):
        _, _, workers, _ = self._iterate(pascal1, medium_corpus, num_chunks=2)
        assert workers[0].phi_partial.data.sum() == medium_corpus.num_tokens


@pytest.fixture
def write_before(monkeypatch):
    """``write_before(prefix, target, stream)`` runs a 1 ms write of
    *target* (a device buffer, or a callable giving it at that moment)
    on *stream* just before the first op whose label starts with
    *prefix*. It returns a dict that then holds that write's end
    (``"write"``) and the op's start (``"op"``)."""
    from repro.gpusim.stream import Stream

    enqueue = Stream.enqueue

    def install(prefix, target, stream):
        seen = {}

        def patched(self, *args, **kwargs):
            if "op" in seen or not kwargs["label"].startswith(prefix):
                return enqueue(self, *args, **kwargs)
            buf = target() if callable(target) else target
            _, seen["write"], _ = enqueue(
                stream, duration=1e-3, kind="h2d", label="rewrite",
                writes=(buf,),
            )
            start, end, result = enqueue(self, *args, **kwargs)
            seen["op"] = start
            return start, end, result

        monkeypatch.setattr(Stream, "enqueue", patched)
        return seen

    return install


class TestDeclaredReadsWait:
    """Each of these ops declares a read that its body takes from a host
    mirror of the bytes, written earlier on the op's own stream or
    before a ``synchronize``, so nothing else orders it today. Written
    on another stream just before the op, the bytes must still be ready
    before it starts: the declaration is what makes the op wait."""

    @staticmethod
    def _chunk(machine, corpus):
        hyper, cfg, runtimes, workers = _setup(machine, corpus)
        [dc] = _stage(machine, workers, runtimes)
        return hyper, cfg, runtimes[0], workers[0], dc

    def test_sampling_waits_for_its_chunk(
        self, medium_corpus, pascal1, write_before
    ):
        from repro.sched.schedule import _enqueue_sample_and_phi

        hyper, cfg, cr, w, dc = self._chunk(pascal1, medium_corpus)
        seen = write_before("sampling:", dc.token_doc, w.upload)
        _enqueue_sample_and_phi(w, cr, dc, hyper, cfg, False, None)
        assert seen["op"] >= seen["write"]

    def test_update_phi_waits_for_the_word_layout(
        self, medium_corpus, pascal1, write_before
    ):
        from repro.sched.schedule import _enqueue_sample_and_phi

        hyper, cfg, cr, w, dc = self._chunk(pascal1, medium_corpus)
        seen = write_before("update_phi:", dc.word_indptr, w.upload)
        _enqueue_sample_and_phi(w, cr, dc, hyper, cfg, False, None)
        assert seen["op"] >= seen["write"]

    @pytest.mark.parametrize("field", ["token_doc", "topics"])
    def test_update_theta_waits_for_its_inputs(
        self, medium_corpus, pascal1, write_before, field
    ):
        from repro.sched.schedule import (
            _enqueue_sample_and_phi,
            _enqueue_update_theta,
        )

        hyper, cfg, cr, w, dc = self._chunk(pascal1, medium_corpus)
        _enqueue_sample_and_phi(w, cr, dc, hyper, cfg, False, None)
        seen = write_before("update_theta:", getattr(dc, field), w.upload)
        _enqueue_update_theta(w, cr, dc, hyper, cfg)
        assert seen["op"] >= seen["write"]

    def test_phi_compact_waits_for_its_base(
        self, medium_corpus, pascal1, write_before
    ):
        from repro.sched.schedule import launch_phi_compact

        _, cfg, _, workers = _setup(pascal1, medium_corpus)
        w = workers[0]
        seen = write_before("phi_delta_compact", w.phi_scratch, w.upload)
        launch_phi_compact(w, cfg, w.sync)
        assert seen["op"] >= seen["write"]

    def test_by_word_sampling_waits_for_its_theta_replica(
        self, medium_corpus, monkeypatch, write_before
    ):
        import repro.sched.byword as byword
        from repro.core import TrainConfig

        replicas, make = [], byword.DeviceArray

        def recording(*args, **kwargs):
            buf = make(*args, **kwargs)
            if kwargs["label"] == "theta_full":
                replicas.append(buf)
            return buf

        monkeypatch.setattr(byword, "DeviceArray", recording)
        m = pascal_platform(2)
        seen = write_before(
            "sampling:w1", lambda: replicas[1], m.gpus[1].create_stream("w")
        )
        byword.train_by_word(
            medium_corpus, m, TrainConfig(num_topics=8, iterations=1, seed=0)
        )
        assert seen["op"] >= seen["write"]

    @pytest.mark.parametrize(
        "read", ["serve_tokens[0]", "phi[d]"], ids=["tokens", "phi"]
    )
    def test_fold_in_waits_for_its_inputs(
        self, pascal1, monkeypatch, write_before, read
    ):
        import repro.serve.replica as replica
        from repro.serve.request import InferenceRequest

        staged, make = [], replica.DeviceArray

        def recording(*args, **kwargs):
            buf = make(*args, **kwargs)
            staged.append(buf)
            return buf

        monkeypatch.setattr(replica, "DeviceArray", recording)
        K, V = 4, 12
        phi = np.arange(K * V, dtype=np.int64).reshape(K, V) % 7 + 1
        rep = replica.PhiReplica(pascal1.gpus[0])
        rep.ensure_model("d", phi)
        seen = write_before(
            "serve_batch[",
            lambda: next(b for b in staged if b.label == read),
            pascal1.gpus[0].create_stream("w"),
        )
        rep.execute(
            [InferenceRequest(0, ((0, 3, 5, 5), (11, 2)))], phi,
            LDAHyperParams(num_topics=K), 2, KernelConfig(),
            not_before=0.0, batch_id=0, digest="d",
        )
        assert seen["op"] >= seen["write"]


class TestIterations:
    def test_resident_iteration_preserves_totals(self, medium_corpus, pascal4):
        hyper, cfg, runtimes, workers = _setup(pascal4, medium_corpus)
        dev_chunks = _stage(pascal4, workers, runtimes)
        run_iteration(pascal4, workers, runtimes, dev_chunks, hyper, cfg)
        pascal4.synchronize()
        # Every GPU's full φ equals the global recount.
        expected = _init_phi(runtimes, hyper.num_topics, medium_corpus.num_words)
        for w in workers:
            assert np.array_equal(w.phi_full.data.astype(np.int64), expected)
            assert np.array_equal(w.n_k.data, expected.sum(axis=1))

    def test_resident_requires_one_chunk_per_gpu(self, medium_corpus, pascal4):
        hyper, cfg, runtimes, workers = _setup(pascal4, medium_corpus, num_chunks=2)
        with pytest.raises(ValueError):
            run_iteration(pascal4, workers, runtimes, [], hyper, cfg)

    def test_streaming_iteration_preserves_totals(self, medium_corpus, pascal1):
        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus, num_chunks=3)
        held = _stage(pascal1, workers, runtimes)
        run_iteration(pascal1, workers, runtimes, held, hyper, cfg)
        pascal1.synchronize()
        expected = _init_phi(runtimes, hyper.num_topics, medium_corpus.num_words)
        assert np.array_equal(
            workers[0].phi_full.data.astype(np.int64), expected
        )

    def test_streaming_keeps_its_slots(self, medium_corpus, pascal1):
        """The GPU keeps the chunk it sampled last, and its bytes in use
        stay at the model plus its two slots through the iteration and
        the collection: no chunk is allocated or freed."""
        from repro.sched.partition import model_device_bytes

        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus, num_chunks=3)
        allocator = pascal1.gpus[0].allocator
        held = _stage(pascal1, workers, runtimes)
        assert held[0].chunk_id == 0
        budget = (
            model_device_bytes(hyper.num_topics, medium_corpus.num_words, cfg)
            + 2 * workers[0].slots[0].nbytes
        )
        assert allocator.bytes_in_use == allocator.peak_bytes == budget
        run_iteration(pascal1, workers, runtimes, held, hyper, cfg)
        pascal1.synchronize()
        assert held[0].chunk_id == 2
        download_chunk(pascal1, workers[0], held[0])
        assert allocator.bytes_in_use == allocator.peak_bytes == budget

    def test_streaming_overlap_hides_transfers(self, medium_corpus):
        """WorkSchedule2's point: with overlap on, h2d transfers and
        sampling kernels coexist on the timeline; with overlap off, the
        iteration takes at least as long."""
        m_overlap = pascal_platform(1)
        hyper, cfg, runtimes, workers = _setup(m_overlap, medium_corpus, num_chunks=4)
        held = _stage(m_overlap, workers, runtimes)
        m_overlap.reset_clock()
        run_iteration(
            m_overlap, workers, runtimes, held, hyper, cfg, overlap=True,
        )
        t_overlap = m_overlap.synchronize()
        overlap_secs = m_overlap.trace.overlap_seconds("h2d", "sampling")

        m_serial = pascal_platform(1)
        hyper, cfg, runtimes, workers = _setup(m_serial, medium_corpus, num_chunks=4)
        held = _stage(m_serial, workers, runtimes)
        m_serial.reset_clock()
        run_iteration(
            m_serial, workers, runtimes, held, hyper, cfg, overlap=False,
        )
        t_serial = m_serial.synchronize()
        assert overlap_secs > 0, "pipelined transfers must overlap compute"
        assert t_overlap < t_serial

    def test_held_chunk_must_be_its_own(self, medium_corpus):
        machine = pascal_platform(2)
        hyper, cfg, runtimes, workers = _setup(machine, medium_corpus, num_chunks=4)
        held = _stage(machine, workers, runtimes)
        held.reverse()
        with pytest.raises(ValueError, match="not one of its chunks"):
            run_iteration(machine, workers, runtimes, held, hyper, cfg)

    def test_multi_gpu_iteration_faster(self, medium_corpus):
        """2 GPUs must beat 1 GPU on the same resident workload."""
        m1 = pascal_platform(1)
        hyper, cfg, rts1, w1 = _setup(m1, medium_corpus, num_chunks=2)
        held = _stage(m1, w1, rts1)
        m1.reset_clock()
        run_iteration(m1, w1, rts1, held, hyper, cfg)
        t1 = m1.synchronize()

        m2 = pascal_platform(2)
        hyper, cfg, rts2, w2 = _setup(m2, medium_corpus, num_chunks=2)
        dcs = _stage(m2, w2, rts2)
        m2.reset_clock()
        run_iteration(m2, w2, rts2, dcs, hyper, cfg)
        t2 = m2.synchronize()
        assert t2 < t1


def _fields(cr):
    """A chunk's eight arrays, in the device order of its buffer."""
    ch, th = cr.chunk, cr.theta
    return (ch.token_doc, ch.word_indptr, ch.doc_map_indptr,
            ch.doc_map_indices, cr.topics, th.indptr, th.indices, th.data)


def _max_chunks_held(intervals, device) -> int:
    """The most of its chunks *device* held at once: a chunk is on it
    from its upload's first byte (or from the start, if it was staged
    before the clock started) to its download's last."""
    visits: dict[int, list[list[float]]] = {}
    copies = sorted(
        (iv for iv in intervals
         if iv.device_id == device and iv.kind in ("h2d", "d2h")
         and iv.label[4:].startswith("chunk")),
        key=lambda iv: iv.start,
    )
    for iv in copies:
        chunk = int(re.match(r"chunk(\d+)", iv.label[4:]).group(1))
        spans = visits.setdefault(chunk, [])
        if iv.kind == "h2d":
            if not spans or spans[-1][1] is not None:
                spans.append([iv.start, None])
        else:
            if not spans:
                spans.append([0.0, None])
            spans[-1][1] = max(spans[-1][1] or 0.0, iv.end)
    edges = sorted(
        (t if t is not None else float("inf"), step)
        for spans in visits.values() for span in spans
        for t, step in zip(span, (1, -1))
    )
    held = most = 0
    for _, step in edges:  # at a tie the slot frees before it refills
        held += step
        most = max(most, held)
    return most


class _Cuts(TrainerCallback):
    """Trace lengths at the start of training and after each iteration."""

    def __init__(self, machine):
        self.machine = machine
        self.at: list[int] = []

    def on_train_start(self, event):
        self.at.append(len(self.machine.trace.intervals))

    def on_iteration_end(self, event):
        self.at.append(len(self.machine.trace.intervals))


class _Residency(TrainerCallback):
    """At every iteration boundary, each GPU's bytes in use and its
    chunks (GPU g of G holds ``runtimes[g::G]`` of its node's)."""

    def __init__(self, trainer):
        self.trainer = trainer
        self.at: list[list[tuple[int, list]]] = []

    def on_iteration_end(self, event):
        local = self.trainer._node_runtimes[0]
        workers = self.trainer._node_workers[0]
        self.at.append([
            (w.device.allocator.bytes_in_use, local[g::len(workers)])
            for g, w in enumerate(workers)
        ])


class TestChunkResidency:
    """Each GPU keeps the chunk it samples last and samples it first in
    the next iteration; a chunk moves up in one h2d and its state comes
    back in one d2h; and a GPU holds at most two of its chunks."""

    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.corpus.synthetic import pubmed_like

        return pubmed_like(12_000, 8, seed=3)

    @staticmethod
    def _train(corpus, machine, recovery=None, fault_plan=None, **config):
        from repro.core import CuLDA, TrainConfig

        cuts = _Cuts(machine)
        config = {"num_topics": 16, "iterations": 4, "seed": 0, **config}
        result = CuLDA(corpus, machine, TrainConfig(**config)).train(
            callbacks=[cuts], recovery=recovery, fault_plan=fault_plan
        )
        return result, cuts.at

    def test_update_phi_time_ignores_chunk_order(self, corpus):
        """The kept chunk goes first, so a GPU's two chunks swap order
        every iteration. Either order makes the same atomics and one
        zeroing pass, so the GPU's summed update-φ time stays put; only
        the wave charge on the zeroing pass differs, when the two chunks
        launch different block counts (a 1e-5 share here)."""
        machine = pascal_platform(4)
        self._train(corpus, machine, chunks_per_gpu=2)
        for gpu in range(4):
            phi = [
                iv for iv in machine.trace.intervals
                if iv.kind == "update_phi" and iv.device_id == gpu
            ]
            assert [iv.label for iv in phi[:2]] == [iv.label for iv in phi[3:1:-1]]
            sums = [a.duration + b.duration for a, b in zip(phi[::2], phi[1::2])]
            assert max(sums) == pytest.approx(min(sums), rel=1e-4), gpu

    def test_allocation_is_the_planned_chunk_bytes(self, medium_corpus, pascal1):
        """Each slot is the planned bytes of the GPU's largest chunk, and
        a chunk laid out in it fills its planned bytes exactly: its
        fields from the slot's first byte, θ at its capacity last."""
        from repro.sched.partition import estimate_chunk_device_bytes

        hyper, cfg, runtimes, workers = _setup(pascal1, medium_corpus, num_chunks=2)
        planned = [
            estimate_chunk_device_bytes(
                medium_corpus,
                (cr.chunk.doc_offset, cr.chunk.doc_offset + cr.chunk.num_docs),
                hyper, cfg,
            )
            for cr in runtimes
        ]
        [dc] = _stage(pascal1, workers, runtimes)
        assert [s.nbytes for s in workers[0].slots] == [max(planned)] * 2
        cr = runtimes[0]
        before_theta = sum(a.nbytes for a in _fields(cr)[:5])
        assert before_theta + dc.theta_room().nbytes == planned[0]
        for view, arr in zip(
            (dc.token_doc, dc.word_indptr, dc.doc_map_indptr,
             dc.doc_map_indices, dc.topics, dc.theta_indptr,
             dc.theta_indices, dc.theta_data),
            _fields(cr),
        ):
            assert np.array_equal(view.data, arr)

    def test_each_copy_carries_the_bytes_it_replaces(self, medium_corpus):
        """GPU g holds chunk g and streams chunk g + 2: the upload carries
        all eight of its arrays, the download chunk g's topics and θ."""
        machine = pascal_platform(2)
        hyper, cfg, runtimes, workers = _setup(machine, medium_corpus, num_chunks=4)
        held = _stage(machine, workers, runtimes)
        machine.reset_clock()
        up = {
            f"h2d:chunk{cr.chunk_id}": sum(a.nbytes for a in _fields(cr))
            for cr in runtimes[2:]
        }
        run_iteration(machine, workers, runtimes, held, hyper, cfg)
        down = {
            f"d2h:chunk{cr.chunk_id}": sum(a.nbytes for a in _fields(cr)[4:])
            for cr in runtimes[:2]
        }
        moved = {
            iv.label: iv.bytes_moved for iv in machine.trace.intervals
            if iv.label[4:].startswith("chunk")
        }
        assert moved == {**up, **down}
        assert [dc.chunk_id for dc in held] == [2, 3]

    @pytest.mark.parametrize("gpus, chunks_per_gpu, loss", [
        (1, 1, False), (1, 4, False), (4, 2, False), (4, 2, True),
    ], ids=["1gpu-M1", "1gpu-M4", "4gpu-M2", "4gpu-M2-gpu-loss"])
    def test_each_gpu_holds_its_planned_bytes(
        self, corpus, gpus, chunks_per_gpu, loss
    ):
        """§5.1's budget is each GPU's memory, exactly: at every
        iteration boundary its bytes in use are the model plus
        ``chunk_slots(M_g)`` times its largest chunk's planned bytes, for
        its M_g chunks. After an elastic GPU loss, GPUs that hold three
        chunks still hold two slots. A fault-free run's peak is the
        budget :func:`~repro.sched.partition.choose_chunking` checks."""
        from repro.core import CuLDA, TrainConfig
        from repro.faults import FaultPlan, FaultSpec
        from repro.sched.partition import (
            chunk_slots,
            estimate_chunk_device_bytes,
            model_device_bytes,
            partition_by_tokens,
        )

        cfg = TrainConfig(
            num_topics=16, iterations=4, seed=0, chunks_per_gpu=chunks_per_gpu
        )
        trainer = CuLDA(corpus, pascal_platform(gpus), cfg)
        seen = _Residency(trainer)
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=2, device=1),))
        result = trainer.train(
            callbacks=[seen], recovery="elastic" if loss else None,
            fault_plan=plan if loss else None,
        )
        hyper, kcfg = cfg.hyper(), cfg.kernel_config()
        model = model_device_bytes(hyper.num_topics, corpus.num_words, kcfg)

        def planned(doc_range):
            return estimate_chunk_device_bytes(corpus, doc_range, hyper, kcfg)

        def docs(cr):
            return cr.chunk.doc_offset, cr.chunk.doc_offset + cr.chunk.num_docs

        assert len(seen.at) == 4
        for boundary in seen.at:
            for in_use, chunks in boundary:
                largest = max(planned(docs(cr)) for cr in chunks)
                assert in_use == model + chunk_slots(len(chunks)) * largest
        if loss:
            assert max(len(chunks) for _, chunks in seen.at[-1]) == 3
        else:
            ranges = partition_by_tokens(corpus, chunks_per_gpu * gpus)
            budget = model + chunk_slots(chunks_per_gpu) * max(map(planned, ranges))
            assert result.peak_device_bytes == budget

    def test_one_chunk_each_way_per_gpu_and_iteration(self, corpus):
        machine = pascal_platform(4)
        result, cuts = self._train(corpus, machine, chunks_per_gpu=2)
        assert result.chunks_per_gpu == 2
        ivs = machine.trace.intervals
        for lo, hi in zip(cuts, cuts[1:]):
            for d in range(4):
                labels = [
                    iv.kind for iv in ivs[lo:hi]
                    if iv.device_id == d and iv.label[4:].startswith("chunk")
                ]
                assert sorted(labels) == ["d2h", "h2d"]

    def test_resident_chunks_never_move(self, corpus):
        machine = pascal_platform(4)
        _, cuts = self._train(corpus, machine, chunks_per_gpu=1)
        ivs = machine.trace.intervals
        moved = [
            iv for iv in ivs[cuts[0]:cuts[-1]]
            if iv.label[4:].startswith("chunk")
        ]
        assert moved == []
        collected = [
            (iv.device_id, iv.kind) for iv in ivs[cuts[-1]:]
            if iv.label[4:].startswith("chunk")
        ]
        assert sorted(collected) == [(d, "d2h") for d in range(4)]

    @pytest.mark.parametrize("chunks_per_gpu", [3, 4])
    def test_at_most_two_chunks_per_gpu(self, corpus, chunks_per_gpu):
        """At K = 128 a chunk computes for longer than the next one takes
        to upload, so back-to-back uploads would bring in a third."""
        machine = pascal_platform(2)
        self._train(
            corpus, machine, num_topics=128, chunks_per_gpu=chunks_per_gpu
        )
        for d in range(2):
            assert _max_chunks_held(machine.trace.intervals, d) == 2

    def test_kernel_fault_rolls_back_bit_identically(self, corpus):
        from repro.faults import FaultPlan, FaultSpec

        clean, _ = self._train(corpus, pascal_platform(4), chunks_per_gpu=2)
        plan = FaultPlan(faults=(
            FaultSpec(kind="kernel_fault", iteration=2, device=1),))
        faulted, _ = self._train(
            corpus, pascal_platform(4), recovery="retry", fault_plan=plan,
            chunks_per_gpu=2,
        )
        assert faulted.rollbacks == 1
        assert np.array_equal(faulted.phi, clean.phi)
        assert np.array_equal(faulted.topics, clean.topics)
        assert faulted.theta == clean.theta

    def test_faulted_upload_frees_its_chunk(self, corpus):
        """A faulted upload lands in a slot the worker already holds: the
        rollback needs no memory beyond the clean run's, and the run
        leaves nothing allocated."""
        from repro.faults import FaultPlan, FaultSpec

        clean, _ = self._train(corpus, pascal_platform(4), chunks_per_gpu=2)
        machine = pascal_platform(4)
        plan = FaultPlan(faults=(
            FaultSpec(kind="kernel_fault", iteration=2, device=1, op="h2d"),))
        faulted, _ = self._train(
            corpus, machine, recovery="retry", fault_plan=plan,
            chunks_per_gpu=2,
        )
        assert faulted.rollbacks == 1
        assert np.array_equal(faulted.phi, clean.phi)
        assert faulted.peak_device_bytes == clean.peak_device_bytes
        assert [gpu.allocator.bytes_in_use for gpu in machine.gpus] == [0] * 4

    def test_gpu_loss_stays_bit_identical(self, corpus):
        from repro.faults import FaultPlan, FaultSpec

        clean, _ = self._train(corpus, pascal_platform(4), chunks_per_gpu=2)
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=2, device=1),))
        survived, _ = self._train(
            corpus, pascal_platform(4), recovery="elastic", fault_plan=plan,
            chunks_per_gpu=2,
        )
        assert survived.repartitions == 1
        assert np.array_equal(survived.phi, clean.phi)
        assert np.array_equal(survived.topics, clean.topics)
        assert survived.theta == clean.theta


class _MachineCuts(TrainerCallback):
    """Each machine's trace length at the start of training and after
    each iteration."""

    def __init__(self, machines):
        self.machines = machines
        self.at: list[list[int]] = []

    def on_train_start(self, event):
        self.at.append([len(m.trace.intervals) for m in self.machines])

    def on_iteration_end(self, event):
        self.at.append([len(m.trace.intervals) for m in self.machines])


class TestThetaBehindPhiReady:
    """At M = 2 only update φ gates the sync. Each GPU's penultimate
    update θ runs after its last update φ, and that chunk's download is
    issued only after the sync's copies, so it never queues ahead of
    one on a host link: on a single machine the collective's peer
    copies, on a cluster node each GPU's Δφ copies to its host. The
    sync joins its lanes before ``n_k_rowsum``."""

    @pytest.mark.parametrize("layout", [
        dict(gpus=4), dict(nodes=2, gpus_per_node=2),
    ], ids=["4gpu", "2x2"])
    def test_penultimate_theta_and_download_wait(self, layout):
        from repro.corpus.synthetic import pubmed_like
        from repro.obs.workloads import make_culda, make_distributed_culda

        # At K = 128 the 4-GPU plan runs its 2-D ring in two lanes.
        corpus = pubmed_like(12_000, 8, seed=3)
        config = dict(num_topics=128, iterations=3, seed=0, chunks_per_gpu=2)
        if "nodes" in layout:
            trainer = make_distributed_culda(corpus, **layout, **config)
        else:
            trainer = make_culda(corpus, **layout, **config)
        cuts = _MachineCuts(trainer.machines)
        trainer.train(callbacks=[cuts])
        for n, machine in enumerate(trainer.machines):
            for lo, hi in zip(cuts.at, cuts.at[1:]):
                window = machine.trace.intervals[lo[n]:hi[n]]
                copies = [
                    i for i, iv in enumerate(window)
                    if iv.kind == "p2p" or iv.label.startswith("d2h:phi_delta")
                ]
                assert copies
                for gpu in machine.gpus:
                    mine = [iv for iv in window if iv.device_id == gpu.device_id]
                    phi = [iv for iv in mine if iv.kind == "update_phi"]
                    assert len(phi) == 2
                    kept = phi[0].label.split(":")[1]  # sampled first
                    [theta] = [
                        iv for iv in mine if iv.label == f"update_theta:{kept}"
                    ]
                    assert theta.start >= phi[1].end
                    [down] = [
                        i for i, iv in enumerate(window)
                        if iv.label == f"d2h:{kept}"
                    ]
                    assert down > max(copies)
                    sync_ops = [
                        iv for iv in mine
                        if iv.kind == "p2p" or iv.label == "ring_combine"
                    ]
                    for rowsum in (
                        iv for iv in mine if iv.label == "n_k_rowsum"
                    ):
                        assert rowsum.start >= max(
                            (iv.end for iv in sync_ops), default=0.0
                        )


class TestSamplerTables:
    """The sampler's word tables are built once per machine and
    iteration, and shared only with a GPU whose φ and n_k equal the
    first GPU's byte for byte."""

    @staticmethod
    def _count_builds(monkeypatch) -> list[np.ndarray]:
        import repro.core.kernels as kernels
        import repro.sched.schedule as schedule

        built, build = [], kernels.word_tables

        def counting(phi, n_k, hyper):
            built.append(phi.copy())
            return build(phi, n_k, hyper)

        monkeypatch.setattr(kernels, "word_tables", counting)
        monkeypatch.setattr(schedule, "word_tables", counting)
        return built

    def test_built_once_per_node_and_iteration(self, monkeypatch):
        from repro.core import CuLDA, DistributedCuLDA, TrainConfig
        from repro.corpus.synthetic import pubmed_like

        corpus = pubmed_like(12_000, 8, seed=3)
        cfg = TrainConfig(num_topics=16, iterations=3, seed=0)
        built = self._count_builds(monkeypatch)
        DistributedCuLDA(
            corpus, [pascal_platform(2), pascal_platform(2)], config=cfg
        ).train()
        assert len(built) == 2 * 3
        built.clear()
        streaming = CuLDA(
            corpus, pascal_platform(4),
            TrainConfig(num_topics=16, iterations=3, seed=0, chunks_per_gpu=2),
        ).train()
        assert streaming.chunks_per_gpu == 2
        assert len(built) == 3

    def test_a_diverged_replica_builds_its_own(
        self, medium_corpus, pascal4, monkeypatch
    ):
        hyper, cfg, runtimes, workers = _setup(pascal4, medium_corpus)
        dev_chunks = _stage(pascal4, workers, runtimes)
        workers[2].phi_full.data[0, 0] += 1
        diverged = workers[2].phi_full.data.copy()
        built = self._count_builds(monkeypatch)
        run_iteration(pascal4, workers, runtimes, dev_chunks, hyper, cfg)
        assert len(built) == 2
        assert not np.array_equal(built[0], diverged)
        assert np.array_equal(built[1], diverged)

    def test_unrecovered_fault_run_keeps_its_bits(self, monkeypatch):
        """A corrupted replica nothing rolls back is sampled against in
        the next iteration: the run trains the same model as one whose
        every chunk builds its own tables."""
        import repro.sched.schedule as schedule
        from repro.core import CuLDA, TrainConfig
        from repro.corpus.synthetic import pubmed_like
        from repro.faults import FaultPlan, FaultSpec

        corpus = pubmed_like(12_000, 8, seed=3)
        # The tree's reduce copy and then its broadcast copy over
        # p2p[0-1]: the replicas of GPUs 1 and 3 diverge from GPU 0's.
        plan = FaultPlan(faults=(
            FaultSpec(kind="transfer_corruption", iteration=1,
                      link="p2p[0-1]", count=2),))

        def run():
            return CuLDA(
                corpus, pascal_platform(4),
                TrainConfig(num_topics=16, iterations=4, seed=0,
                            sync_algorithm="gpu_tree"),
            ).train(fault_plan=plan)

        built = self._count_builds(monkeypatch)
        shared = run()
        assert len(built) == 4 + 2  # the diverged replicas built their own
        monkeypatch.setattr(
            schedule, "_sampler_tables", lambda workers, hyper: [None] * 4
        )
        per_chunk = run()
        assert np.array_equal(shared.phi, per_chunk.phi)
        assert np.array_equal(shared.topics, per_chunk.topics)
