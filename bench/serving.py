"""The serving workload: an open-loop Poisson trace on fold-in replicas.

One run trains the workload's fixed checkpoint (input generation, not
timed) and draws the seed's arrival trace. One replay of the whole
trace on a fresh service supplies the simulated-clock metrics and is
checked with ``verify_report``. Passes over the trace's first
``wall_window`` seconds, served in ``wall_chunk``-second slices on a
fresh service, then repeat while another fits in the measured seconds
and supply the wall samples; each must reproduce the first one's
latencies exactly. ``setup_trials`` set-ups (``load_model`` plus
``InferenceService`` construction) are timed after that, in the warmed
process. Wall times are in reference-host seconds
(``common.calibrated``). Latency counts from each request's scheduled
arrival, and the trace is generated before the run, so the generator is
never late.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from common import (
    Outcome,
    calibrated,
    calibration_kernel,
    interval_totals,
    quartiles,
    rate_with_iqr,
    repeat_for,
    setup_times,
    timed,
    transfer_layers,
    wall_layers,
)
from layertrace import LayerTracer
from repro.core import load_model
from repro.obs.workloads import make_platform, train_tiny_checkpoint
from repro.serve import InferenceService, ServiceConfig, poisson_trace, verify_report


def _latencies(report) -> list[float]:
    return [
        r.completion_time - r.request.arrival_time
        for r in report.results if r.status == "completed"
    ]


def _busy_seconds(machine) -> float:
    return sum(machine.trace.device_busy_time(g.device_id) for g in machine.gpus)


def _sim_layers(report, config: ServiceConfig) -> dict:
    """Per-request layer metrics from the report and its spans."""
    n = report.submitted
    machine = report.machine
    stages: dict[str, list[float]] = {}
    for span in report.trace_spans:
        if span.name == "queue" or span.attrs.get("won"):
            stages.setdefault(span.name, []).append(span.duration)
    batch = report.registry.get("serve_batch_size")
    busy_frac = _busy_seconds(machine) / (len(machine.gpus) * report.makespan)
    seconds, nbytes = interval_totals(machine.trace.intervals)

    def p(stage, q):
        return float(np.percentile(stages[stage], q)) if stage in stages else 0.0

    return {
        **transfer_layers(seconds, nbytes, n),
        "sched.gpu_busy_frac": busy_frac,
        "gpusim.trace.intervals": len(machine.trace.intervals) / n,
        "serve.queue_wait.sim_s_p50": p("queue", 50),
        "serve.queue_wait.sim_s_p99": p("queue", 99),
        "serve.staging.sim_s_p50": p("staging", 50),
        "serve.kernel.sim_s_p50": p("kernel", 50),
        "serve.download.sim_s_p50": p("download", 50),
        "serve.batch_fill": batch.sum() / batch.count() / config.max_batch_size,
        "serve.cache_hit_rate": report.cache_hit_rate,
        "serve.replica_busy_frac": busy_frac,
    }


def _chunks(requests, window: float, chunk: float) -> list[list]:
    """The requests arriving in the first *window* seconds, cut into
    consecutive *chunk*-second slices of arrival time."""
    out: list[list] = [[] for _ in range(round(window / chunk))]
    for r in requests:
        i = int(r.arrival_time // chunk)
        if i < len(out):
            out[i].append(r)
    return [c for c in out if c]


def _chunked_pass(service, chunks) -> tuple[list[list[float]], float]:
    """Serve *chunks* one after another on one fresh service, with a
    calibration kernel call before each: every chunk's latencies, and
    the pass's wall seconds in reference-host seconds."""
    svc = service()
    latencies, walls, kernel = [], [], []
    for chunk in chunks:
        kernel.append(calibration_kernel())
        t0 = time.perf_counter()
        report = svc.run_trace(chunk)
        walls.append(time.perf_counter() - t0)
        latencies.append(_latencies(report))
    return latencies, sum(calibrated(walls, kernel))


def run(params: dict, seed: int, seconds: float, tracing: bool,
        workdir: Path) -> Outcome:
    out = Outcome()
    config = ServiceConfig()
    ck = params["checkpoint"]
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = train_tiny_checkpoint(
            Path(tmp) / "model.npz", tokens=ck["tokens"],
            num_topics=ck["num_topics"], iterations=ck["iterations"],
            seed=ck["seed"],
        )
        num_words = int(load_model(path).phi.shape[1])
        requests = poisson_trace(
            [path], num_words, rate=params["rate"],
            duration=params["duration"], seed=seed,
        )

        def service():
            return InferenceService(
                make_platform(params["platform"], params["gpus"]), config
            )

        def setup_trial() -> float:
            t0 = time.perf_counter()
            load_model(path)
            service()
            return time.perf_counter() - t0

        def replay():
            return service().run_trace(requests)

        # One replay of the whole trace supplies the simulated metrics.
        # Wall time comes from passes over the trace's first
        # ``wall_window`` seconds, served in ``wall_chunk``-second slices
        # so that a calibration kernel call can run between them: the
        # host changed speed within a 13 s replay, and whole-replay wall
        # throughput spread 10% over ten runs.
        chunks = _chunks(requests, params["wall_window"], params["wall_chunk"])
        window = [r for chunk in chunks for r in chunk]
        start = time.perf_counter()
        first, first_s, _ = timed(replay)
        passes = repeat_for(
            seconds - (time.perf_counter() - start),
            lambda: _chunked_pass(service, chunks),
        )
        setup = setup_times(setup_trial, params["setup_trials"], params["setup_warmup"])
        latencies = _latencies(first)

        problems = verify_report(
            first, requests, default_iterations=config.iterations,
            payload_sample=params["payload_sample"],
        )
        if len(latencies) != len(requests):
            problems.append(
                f"{len(requests) - len(latencies)} of {len(requests)} "
                "requests did not complete"
            )
        out.record(len(requests), problems)
        pass_latencies = passes[0][0]
        out.record(len(window), [] if sum(map(len, pass_latencies)) == len(window) else [
            "a request of the wall-time window did not complete"
        ])
        for other, _ in passes[1:]:
            out.record(len(window), [] if other == pass_latencies else [
                "a second pass over the same chunks gave different latencies"
            ])
        layers = _sim_layers(first, config)
        out.layers = layers

        tokens = sum(
            r.request.num_tokens for r in first.results if r.status == "completed"
        )
        window_tokens = sum(r.num_tokens for r in window)
        walls = [s for _, s in passes]
        wall_tps, wall_iqr = rate_with_iqr(window_tokens, walls)
        setup_q1, setup_med, setup_q3 = quartiles(setup)
        replicas = len(first.machine.gpus)
        out.e2e = {
            "sim_tokens_per_s": tokens * replicas / _busy_seconds(first.machine),
            "sim_s_to_result": first.latency_quantile(0.99),
            "wall_tokens_per_s": wall_tps,
            "setup_s": setup_med,
        }
        wall_rps, wall_rps_iqr = rate_with_iqr(len(window), walls)
        out.iqr = {
            "wall_tokens_per_s": wall_iqr,
            "setup_s": setup_q3 - setup_q1,
            "wall_requests_per_s": wall_rps_iqr,
        }
        limit = params["latency_limit_s"]
        out.extra = {
            "sim_latency_p50_s": first.latency_quantile(0.50),
            "sim_goodput_rps": sum(1 for x in latencies if x <= limit) / params["duration"],
            "wall_requests_per_s": wall_rps,
        }

        if tracing:
            with LayerTracer() as tracer:
                t0 = time.perf_counter()
                traced, traced_s, _ = timed(replay)
                out.traced_wall = time.perf_counter() - t0
            same = _latencies(traced) == latencies and _sim_layers(traced, config) == layers
            out.record(len(requests), [] if same else [
                "the traced replay's simulated results differ from the untraced one"
            ])
            out.tracer = tracer
            out.wall_layers = wall_layers(tracer.totals(), len(requests))
            out.wall_layers["bench.trace_overhead_frac"] = traced_s / first_s - 1.0
    return out
