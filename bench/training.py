"""Training workloads: CuLDA on one machine or N x G nodes.

One run builds the seeded corpus once, then repeats the whole training
run while another fits in the measured seconds. The first repetition
supplies the simulated-clock metrics and the correctness checks; every
later one must reproduce it bit for bit and supplies the wall samples.
``setup_trials`` set-ups (trainer construction to ``on_train_start``)
are timed after that, in the warmed process. Wall times are in
reference-host seconds: a calibration kernel runs before every
iteration (``common.calibrated``). The N x G workload then runs its
node-loss recovery phase once, and ``--trace 1`` adds one more
repetition under the layer tracer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
from repro.comm import cluster_collective_names, collective_names, decisions_from_registry
from repro.corpus.split import split_documents
from repro.faults import FaultPlan, FaultSpec
from repro.obs.profiling import counter_total
from repro.obs.workloads import make_corpus, make_culda, make_distributed_culda
from repro.telemetry import MetricsRegistry, TrainerCallback


class _SetupDone(Exception):
    """Ends a set-up-only trial at ``on_train_start``."""


class _Recorder(TrainerCallback):
    """Wall timestamps, calibration kernel times, simulated-trace cut
    points and the per-iteration event fields the layer metrics need.

    Iteration ``i`` runs from ``starts[i]`` to ``marks[i + 1]``, and
    with *calibrate* ``kernel[i]`` was timed just before it; the
    recorder's own work falls outside both. The traced run does not
    calibrate, so that layer spans hold no benchmark work."""

    def __init__(self, machines, stop_at_start: bool = False,
                 phi_at: int | None = None, calibrate: bool = True):
        self.machines = machines
        self.calibrate = calibrate
        self.stop_at_start = stop_at_start
        self.phi_at = phi_at
        self.phi = None
        self.marks: list[float] = []
        self.starts: list[float] = []
        self.kernel: list[float] = []
        self.cuts: list[list[int]] = []
        self.busy: list[float] = []
        self.internode: list[float] = []

    def _cut(self) -> None:
        self.cuts.append([len(m.trace.intervals) for m in self.machines])

    def _start(self) -> None:
        if self.calibrate:
            self.kernel.append(calibration_kernel())
        self.starts.append(time.perf_counter())

    def raw_walls(self) -> list[float]:
        """Each iteration's wall seconds on this host, as measured."""
        return [b - a for a, b in zip(self.starts, self.marks[1:])]

    def iteration_walls(self) -> list[float]:
        """Each iteration's wall seconds, in reference-host seconds."""
        return calibrated(self.raw_walls(), self.kernel)

    def on_train_start(self, event: dict) -> None:
        self.marks.append(time.perf_counter())
        if self.stop_at_start:
            raise _SetupDone
        self._cut()
        self._start()

    def on_iteration_end(self, event: dict) -> None:
        self.marks.append(time.perf_counter())
        self._cut()
        busy = event["device_busy_fraction"]
        self.busy.append(sum(busy.values()) / len(busy))
        self.internode.append(event.get("internode_bytes", 0.0))
        if event["iteration"] == self.phi_at:
            self.phi = event["phi"]()
        self._start()


@dataclass
class _Rep:
    """One training run and what was recorded around it."""

    result: object
    recorder: _Recorder
    registry: MetricsRegistry


def _corpus(params: dict, seed: int):
    """The seed's half of the workload's fixed twin corpus."""
    c = params["corpus"]
    twin = make_corpus(
        c["kind"], tokens=c["tokens"], seed=c["seed"], vocab_cap=c["vocab_cap"]
    )
    return split_documents(twin, test_fraction=1.0 - c["keep"], seed=seed)[0]


def _trainer(params: dict, corpus, seed: int, registry, iterations=None):
    config = dict(params["config"], seed=seed)
    if iterations is not None:
        config["iterations"] = iterations
    if params["nodes"] == 1:
        return make_culda(
            corpus, platform=params["platform"], gpus=params["gpus"],
            registry=registry, **config,
        )
    return make_distributed_culda(
        corpus, nodes=params["nodes"], platform=params["platform"],
        gpus_per_node=params["gpus"], link_gbps=params["link_gbps"],
        latency_seconds=params["latency_seconds"], registry=registry,
        **config,
    )


def _machines(trainer) -> list:
    return list(getattr(trainer, "machines", [trainer.machine]))


def _train(params, corpus, seed, phi_at=None, calibrate=True) -> _Rep:
    registry = MetricsRegistry()
    trainer = _trainer(params, corpus, seed, registry)
    recorder = _Recorder(_machines(trainer), phi_at=phi_at, calibrate=calibrate)
    result = trainer.train(callbacks=[recorder])
    return _Rep(result, recorder, registry)


def _setup_trial(params, corpus, seed) -> float:
    t0 = time.perf_counter()
    trainer = _trainer(params, corpus, seed, MetricsRegistry())
    recorder = _Recorder(_machines(trainer), stop_at_start=True)
    try:
        trainer.train(callbacks=[recorder])
    except _SetupDone:
        return recorder.marks[0] - t0
    raise RuntimeError("training did not stop at on_train_start")


def time_to_target(iterations, target: float) -> float | None:
    """Simulated seconds at which LL/token first reaches *target*,
    interpolated linearly between the two evaluations around it."""
    elapsed, t_prev, ll_prev = 0.0, 0.0, None
    for it in iterations:
        elapsed += it.sim_seconds
        ll = it.log_likelihood_per_token
        if ll is None:
            continue
        if ll >= target:
            if ll_prev is None:
                return elapsed
            return t_prev + (target - ll_prev) / (ll - ll_prev) * (elapsed - t_prev)
        t_prev, ll_prev = elapsed, ll
    return None


def _model_problems(result, corpus, label: str) -> list[str]:
    """φ must hold every token once and equal a recount of the returned
    assignments against the corpus word ids."""
    phi = result.phi
    K, V = phi.shape
    problems = []
    if int(phi.sum(dtype=np.int64)) != corpus.num_tokens:
        problems.append(f"{label}: sum(phi) != {corpus.num_tokens} tokens")
    recount = np.bincount(
        result.topics.astype(np.int64) * V + corpus.token_word,
        minlength=K * V,
    ).reshape(K, V)
    if not np.array_equal(recount, phi):
        problems.append(f"{label}: phi differs from a recount of the topics")
    return problems


def _same_run(a: _Rep, b: _Rep) -> bool:
    return (
        np.array_equal(a.result.phi, b.result.phi)
        and a.result.iterations == b.result.iterations
    )


def _planner_pick(registry, names: tuple[str, ...]) -> tuple[float, float]:
    """(1-based index of the most frequent pick among *names*, its
    predicted seconds); (0, 0) when the planner made no such decision."""
    for d in decisions_from_registry(registry):
        if d["algorithm"] in names:
            return names.index(d["algorithm"]) + 1.0, d.get("predicted_seconds", 0.0)
    return 0.0, 0.0


def _sim_layers(rep: _Rep, params: dict) -> tuple[dict, list[str]]:
    """Per-iteration layer metrics from the run's own outputs, and any
    violated identity."""
    its = rep.result.iterations
    n = len(its)
    recorder = rep.recorder
    intervals, window = [], 0.0
    for i in range(n):
        widest = 0.0
        for m, machine in enumerate(recorder.machines):
            ivs = machine.trace.intervals[recorder.cuts[i][m]:recorder.cuts[i + 1][m]]
            intervals.extend(ivs)
            comm = [iv for iv in ivs if iv.kind in ("sync", "p2p")]
            if comm:
                widest = max(
                    widest,
                    max(iv.end for iv in comm) - min(iv.start for iv in comm),
                )
        window += widest
    seconds, nbytes = interval_totals(intervals)
    pick, predicted = _planner_pick(rep.registry, collective_names())
    cluster_pick, _ = _planner_pick(rep.registry, cluster_collective_names())
    layers = {
        "kernels.sampling.sim_s": seconds["sampling"] / n,
        "kernels.update_theta.sim_s": seconds["update_theta"] / n,
        "kernels.update_phi.sim_s": seconds["update_phi"] / n,
        "kernels.p1_frac": float(np.mean([it.p1_fraction for it in its])),
        "kernels.theta_entries_per_token": float(np.mean([it.mean_kd for it in its])),
        **transfer_layers(seconds, nbytes, n),
        "sched.gpu_busy_frac": float(np.mean(recorder.busy)),
        "comm.sync_window.sim_s": window / n,
        "comm.planner.pick": pick,
        "comm.planner.predicted_s": predicted,
        "comm.cluster_planner.pick": cluster_pick,
        "gpusim.trace.intervals": len(intervals) / n,
    }
    problems = []
    if params["nodes"] > 1:
        sim = float(np.mean([it.sim_seconds for it in its]))
        compute = float(np.mean([it.compute_seconds for it in its]))
        network = float(np.mean([it.network_seconds for it in its]))
        unattributed = sim - (compute + network)
        if (compute + network) + unattributed != sim:
            problems.append("compute + network + unattributed != iteration sim seconds")
        layers.update({
            "cluster.compute.sim_s": compute,
            "cluster.network.sim_s": network,
            "cluster.unattributed.sim_s": unattributed,
            "cluster.internode.bytes": float(np.mean(recorder.internode)),
        })
    return layers, problems


def _recovery(params, corpus, seed, clean: _Rep) -> tuple[dict, list[str], int]:
    """The node-loss phase: layer metrics, problems, iterations run."""
    spec = params["recovery"]
    registry = MetricsRegistry()
    plan = FaultPlan(faults=(
        FaultSpec(kind="node_failure", iteration=spec["fail_iteration"],
                  node=spec["fail_node"]),
    ))
    trainer = _trainer(params, corpus, seed, registry, iterations=spec["iterations"])
    faulted = trainer.train(recovery="elastic", fault_plan=plan)
    problems = _model_problems(faulted, corpus, "recovery")
    if not np.array_equal(faulted.phi, clean.recorder.phi):
        problems.append(
            f"recovered phi differs from the clean run after {spec['iterations']} iterations"
        )
    stall = registry.get("node_recovery_stall_seconds_total")
    by_phase = {
        s.labels["phase"]: s.value for s in (stall.samples() if stall else ())
    }
    faulted_sim = sum(it.sim_seconds for it in faulted.iterations)
    clean_sim = sum(it.sim_seconds for it in clean.result.iterations[:spec["iterations"]])
    layers = {
        "cluster.recovery.detect.sim_s": by_phase.get("detect", 0.0),
        "cluster.recovery.repartition.sim_s": by_phase.get("repartition", 0.0),
        "cluster.recovery.workers_migrated": counter_total(registry, "workers_migrated_total"),
        "cluster.recovery.shards_adopted": counter_total(registry, "shards_adopted_total"),
        "cluster.recovery.overhead.sim_s": faulted_sim - clean_sim,
        "cluster.recovery.post_sim_tokens_per_s": (
            corpus.num_tokens / faulted.iterations[-1].sim_seconds
        ),
    }
    return layers, problems, len(faulted.iterations)


def run(params: dict, seed: int, seconds: float, tracing: bool) -> Outcome:
    out = Outcome()
    corpus = _corpus(params, seed)
    tokens = corpus.num_tokens
    recovery = params.get("recovery")
    phi_at = recovery["iterations"] - 1 if recovery else None

    reps = repeat_for(seconds, lambda: _train(params, corpus, seed, phi_at))
    setup = setup_times(
        lambda: _setup_trial(params, corpus, seed),
        params["setup_trials"], params["setup_warmup"],
    )

    first = reps[0]
    result = first.result
    its = result.iterations
    problems = _model_problems(result, corpus, "train")
    to_target = time_to_target(its, params["ll_target"])
    if to_target is None:
        problems.append(
            f"LL/token never reached the target {params['ll_target']} "
            f"(final {result.final_log_likelihood:.4f})"
        )
    layers, identity = _sim_layers(first, params)
    out.record(len(its), problems + identity)
    for rep in reps[1:]:
        out.record(len(rep.result.iterations), [] if _same_run(first, rep) else [
            "a repeated run with the same seed gave a different model"
        ])

    # The first repetition also warms the allocator and caches (on a
    # 2-core host its iterations ran ~40% slower than later ones), so it
    # is timed only when alone.
    warm = reps[1:] or reps
    per_rep = [rep.recorder.iteration_walls() for rep in warm]
    iter_walls = [w for walls in per_rep for w in walls]
    # Iterations speed up as the topics concentrate, and every
    # repetition retraces the same ones, so whole repetitions are
    # compared: a median over iterations sampled that trend and moved
    # ~4% from run to run.
    rep_walls = [sum(walls) for walls in per_rep]
    wall_tps, wall_iqr = rate_with_iqr(tokens * len(its), rep_walls)
    setup_q1, setup_med, setup_q3 = quartiles(setup)
    out.e2e = {
        "sim_tokens_per_s": result.avg_tokens_per_sec,
        "sim_s_to_result": to_target if to_target is not None else float("nan"),
        "wall_tokens_per_s": wall_tps,
        "setup_s": setup_med,
    }
    iter_q1, _, iter_q3 = quartiles(iter_walls)
    out.iqr = {
        "wall_tokens_per_s": wall_iqr,
        "setup_s": setup_q3 - setup_q1,
        "wall_iter_s_p75": iter_q3 - iter_q1,
    }
    out.extra = {"wall_iter_s_p75": iter_q3}

    if recovery:
        rec_layers, rec_problems, rec_units = _recovery(params, corpus, seed, first)
        layers.update(rec_layers)
        out.record(rec_units, rec_problems)
    out.layers = layers

    if tracing:
        with LayerTracer() as tracer:
            t0 = time.perf_counter()
            traced, _, factor = timed(
                lambda: _train(params, corpus, seed, phi_at, calibrate=False)
            )
            if recovery:
                traced_rec, rec_problems, rec_units = _recovery(
                    params, corpus, seed, traced
                )
            out.traced_wall = time.perf_counter() - t0
        traced_layers, _ = _sim_layers(traced, params)
        units = len(traced.result.iterations)
        if recovery:
            traced_layers.update(traced_rec)
            out.record(rec_units, rec_problems)
            units += rec_units
        same = _same_run(first, traced) and traced_layers == layers
        out.record(len(traced.result.iterations), [] if same else [
            "the traced run's simulated results differ from the untraced run"
        ])
        out.tracer = tracer
        out.wall_layers = wall_layers(tracer.totals(), units)
        out.wall_layers["bench.trace_overhead_frac"] = (
            sum(traced.recorder.raw_walls()) * factor
            / quartiles(rep_walls)[1]
            - 1.0
        )
    return out
