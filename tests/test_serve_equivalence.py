"""Bit-identity: serving == direct ``infer_documents``.

The serving path's core promise is that batching, replica placement,
and failover move only *simulated time*, never bits: each request's
payload is a pure function of ``(docs, φ, seed, iterations)``. These
tests pin that across batch compositions, replica counts, and fault
plans, against real format-v3 checkpoints.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.core.inference import infer_documents
from repro.core.serialization import load_model
from repro.corpus.corpus import Corpus
from repro.faults import FaultPlan
from repro.gpusim.platform import make_machine
from repro.serve import (
    InferenceRequest,
    InferenceService,
    ServiceConfig,
    poisson_trace,
)

ITERATIONS = 4


@pytest.fixture(scope="module")
def ckpt(serve_checkpoints):
    return load_model(serve_checkpoints[0])


@pytest.fixture(scope="module")
def trace(serve_checkpoints, ckpt):
    return poisson_trace(
        [serve_checkpoints[0]], int(ckpt.phi.shape[1]),
        rate=3000, duration=0.008, seed=21,
    )


def direct(request, ckpt):
    """What a standalone fold-in call returns for *request*."""
    corpus = Corpus.from_documents(
        request.docs, num_words=int(ckpt.phi.shape[1])
    )
    return infer_documents(
        corpus, ckpt.phi, ckpt.hyper, iterations=ITERATIONS,
        seed=request.seed,
    )


def make_service(gpus, fault_plan=None, max_batch_size=4):
    return InferenceService(
        make_machine("pascal", gpus),
        ServiceConfig(max_batch_size=max_batch_size,
                      max_wait_seconds=1e-3, max_queue=4096,
                      iterations=ITERATIONS),
        fault_plan=fault_plan,
    )


def serve(trace, gpus, fault_plan=None, max_batch_size=4):
    return make_service(gpus, fault_plan, max_batch_size).run_trace(trace)


def split_at_midpoint(trace):
    """The trace's first and second halves, in arrival order."""
    half = len(trace) // 2
    order = sorted(trace, key=lambda r: (r.arrival_time, r.request_id))
    return order[:half], order[half:]


def assert_identical_payloads(report, trace, ckpt):
    assert report.count("completed") == len(trace)
    by_id = {r.request.request_id: r for r in report.results}
    for request in trace:
        want = direct(request, ckpt)
        got = by_id[request.request_id]
        assert np.array_equal(got.doc_topic, want.doc_topic)
        assert got.log_likelihood_per_token == want.log_likelihood_per_token


class TestServeEqualsDirect:
    def test_batch_size_one(self, trace, ckpt):
        """No batching at all: every request is its own kernel."""
        report = serve(trace, gpus=1, max_batch_size=1)
        assert_identical_payloads(report, trace, ckpt)

    def test_mixed_batches(self, trace, ckpt):
        """Wait-bound and size-bound batches mixed — composition must
        not leak into payloads."""
        report = serve(trace, gpus=1, max_batch_size=4)
        sizes = {
            r.batch_id: len([x for x in report.results
                             if x.batch_id == r.batch_id])
            for r in report.results
        }
        assert len(set(sizes.values())) > 1, "trace produced uniform batches"
        assert_identical_payloads(report, trace, ckpt)

    @pytest.mark.parametrize("gpus", [1, 2, 4])
    def test_replica_count_is_invisible(self, trace, ckpt, gpus):
        report = serve(trace, gpus=gpus)
        assert_identical_payloads(report, trace, ckpt)

    def test_batch_policies_agree_with_each_other(self, trace, ckpt):
        """Any two servings of the same trace agree bit-for-bit,
        whatever the batching/placement."""
        a = serve(trace, gpus=1, max_batch_size=1)
        b = serve(trace, gpus=4, max_batch_size=8)
        for ra, rb in zip(a.results, b.results):
            assert np.array_equal(ra.doc_topic, rb.doc_topic)

    def test_failover_preserves_bits(self, trace, ckpt):
        """A batch that faults and re-runs on another replica returns
        exactly the bytes the healthy run returns — only later."""
        plan = FaultPlan.from_dict({"faults": [
            {"kind": "kernel_fault", "iteration": 0, "device": 0,
             "op": "serve"},
            {"kind": "kernel_fault", "iteration": 2, "device": 1,
             "op": "serve"},
        ]})
        faulted = serve(trace, gpus=2, fault_plan=plan)
        assert faulted.failovers > 0
        assert_identical_payloads(faulted, trace, ckpt)

    def test_tables_rebuilt_after_eviction(self, trace, ckpt):
        """A replica drops its p*/Q tables with the φ buffer; the batch
        after the rebuild still returns direct ``infer_documents`` bits."""
        service = make_service(gpus=1)
        first, second = split_at_midpoint(trace)
        service.run_trace(first)
        (replica,) = service.scheduler.replicas
        (before,) = replica._tables.values()
        replica.evict_all()
        assert not replica._tables
        report = service.run_trace(second)
        (after,) = replica._tables.values()
        assert after is not before
        assert_identical_payloads(report, second, ckpt)

    def test_rewritten_checkpoint_never_meets_stale_tables(
        self, serve_checkpoints, tmp_path
    ):
        """Rewriting the checkpoint under the same path gives it a new
        digest, so the replica builds tables for the new φ even though
        the old φ and its tables are still resident."""
        path = tmp_path / "model.npz"
        shutil.copyfile(serve_checkpoints[0], path)
        old, new = (load_model(p) for p in serve_checkpoints)
        trace = poisson_trace([str(path)], int(old.phi.shape[1]),
                              rate=3000, duration=0.008, seed=22)
        first, second = split_at_midpoint(trace)
        service = make_service(gpus=1)
        assert_identical_payloads(service.run_trace(first), first, old)
        shutil.copyfile(serve_checkpoints[1], path)
        report = service.run_trace(second)
        (replica,) = service.scheduler.replicas
        assert len(replica._tables) == 2
        assert_identical_payloads(report, second, new)
        stale = direct(second[0], old)
        served = report.results[0]
        assert not np.array_equal(served.doc_topic, stale.doc_topic)

    def test_mixed_sweep_counts_in_one_batch(self, ckpt, serve_checkpoints):
        """Requests asking for 2, 3 and 5 sweeps share one batch; each
        sweeps only as often as it asked and keeps its own burn-in."""
        V = int(ckpt.phi.shape[1])
        requests = [
            InferenceRequest(
                request_id=i, docs=((i, 3 * i + 1, 5, 7 + i), (2, 9, i)),
                model_key=serve_checkpoints[0], seed=40 + i, iterations=n,
            )
            for i, n in enumerate((2, 3, 5))
        ]
        report = serve(requests, gpus=1)
        assert len({r.batch_id for r in report.results}) == 1
        assert report.count("completed") == len(requests)
        for got in report.results:
            req = got.request
            want = infer_documents(
                Corpus.from_documents(req.docs, num_words=V), ckpt.phi,
                ckpt.hyper, iterations=req.iterations, seed=req.seed,
            )
            assert np.array_equal(got.doc_topic, want.doc_topic)
            assert got.log_likelihood_per_token == (
                want.log_likelihood_per_token
            )

    def test_timings_differ_even_when_bits_do_not(self, trace, ckpt):
        """Sanity: the simulated clock *does* see the batching policy
        (otherwise the equivalence above would be vacuous)."""
        solo = serve(trace, gpus=1, max_batch_size=1)
        batched = serve(trace, gpus=1, max_batch_size=8)
        solo_t = [r.completion_time for r in solo.results]
        batched_t = [r.completion_time for r in batched.results]
        assert solo_t != batched_t
