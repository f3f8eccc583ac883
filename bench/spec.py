"""What the benchmark runs and what each number means.

``BENCHMARK.json`` at the repository root names every metric with its
unit, direction and bound. This module holds what that file's fixed
schema has no room for: the workload parameters (including each
training workload's stated log-likelihood target), whether an
end-to-end metric is read from the simulated clock (``exact``) or the
wall clock (``wall``), and, for every per-layer metric, its layer and
the end-to-end metric and workload it should move.

Pure data: importing this module imports nothing else, so ``run.py``
can read it before numpy's thread variables are fixed.
"""

#: Runs of the full workloads. Training corpora are a seeded half of a
#: fixed twin (same planted topics every seed, different documents), so
#: one stated LL target is meaningful for every seed while simulated
#: times still differ from seed to seed.
WORKLOADS = {
    "train_1gpu": {
        "kind": "train",
        "why": "compute only: sampling dominates, no sync and no network, "
               "so communication changes must not move it",
        "corpus": {"kind": "nytimes", "tokens": 100_000, "seed": 0,
                   "vocab_cap": 8_192, "keep": 0.5},
        "platform": "pascal", "nodes": 1, "gpus": 1,
        "config": {"num_topics": 128, "iterations": 40, "chunks_per_gpu": 1,
                   "likelihood_every": 1},
        "ll_target": -7.5,
        "setup_trials": 31, "setup_warmup": 5,
    },
    "train_4gpu_stream": {
        "kind": "train",
        "why": "WorkSchedule2 streaming on 4 PCIe GPUs: transfers and the "
               "planned intra-node sync share the GPUs' busy time",
        "corpus": {"kind": "pubmed", "tokens": 100_000, "seed": 0,
                   "vocab_cap": 8_192, "keep": 0.5},
        "platform": "pascal", "nodes": 1, "gpus": 4,
        "config": {"num_topics": 128, "iterations": 40, "chunks_per_gpu": 2,
                   "likelihood_every": 1, "sync_algorithm": "auto"},
        "ll_target": -6.3,
        "setup_trials": 31, "setup_warmup": 5,
    },
    "train_4x2_nodes": {
        "kind": "train",
        "why": "4 nodes x 2 GPUs: the only workload with an inter-node leg "
               "and a node-loss recovery phase",
        "corpus": {"kind": "pubmed", "tokens": 100_000, "seed": 0,
                   "vocab_cap": 8_192, "keep": 0.5},
        "platform": "pascal", "nodes": 4, "gpus": 2,
        "link_gbps": 12.5, "latency_seconds": 5e-6,
        "config": {"num_topics": 128, "iterations": 40, "chunks_per_gpu": 1,
                   "likelihood_every": 1, "inter_sync": "auto"},
        "ll_target": -6.3,
        "recovery": {"iterations": 8, "fail_iteration": 4, "fail_node": 3},
        "setup_trials": 31, "setup_warmup": 5,
    },
    "serve_poisson": {
        "kind": "serve",
        "why": "the kernel layer as many small fold-in calls: open-loop "
               "Poisson arrivals on 4 replicas, latency from arrival",
        "checkpoint": {"tokens": 20_000, "num_topics": 32, "iterations": 10,
                       "seed": 0},
        "platform": "volta", "gpus": 4,
        "rate": 16_000.0, "duration": 0.25,
        "wall_window": 0.1, "wall_chunk": 0.0025,
        "latency_limit_s": 1e-3,
        "payload_sample": 32,
        "setup_trials": 31, "setup_warmup": 5,
    },
}

#: Overrides that shrink every workload for ``--smoke`` (the test run).
#: Targets are loose: smoke runs check plumbing, not convergence.
SMOKE = {
    "train_1gpu": {"corpus": {"tokens": 16_000},
                   "config": {"iterations": 6},
                   "ll_target": -12.0, "setup_trials": 3,
                   "setup_warmup": 1},
    "train_4gpu_stream": {"corpus": {"tokens": 16_000},
                          "config": {"iterations": 6},
                          "ll_target": -12.0, "setup_trials": 3,
                          "setup_warmup": 1},
    "train_4x2_nodes": {"corpus": {"tokens": 16_000},
                        "config": {"iterations": 6},
                        "ll_target": -12.0, "setup_trials": 3,
                        "setup_warmup": 1,
                        "recovery": {"iterations": 4, "fail_iteration": 2}},
    "serve_poisson": {"checkpoint": {"tokens": 4_000, "num_topics": 8,
                                     "iterations": 2},
                      "rate": 4_000.0, "duration": 0.01, "wall_window": 0.005,
                      "wall_chunk": 0.001,
                      "setup_trials": 3,
                      "setup_warmup": 1},
}

#: End-to-end metric -> clock it is read from. ``exact`` values repeat
#: bit for bit for a given seed; ``wall`` values are medians of real time.
E2E_KIND = {
    "sim_tokens_per_s": "exact",
    "sim_s_to_result": "exact",
    "wall_tokens_per_s": "wall",
    "setup_s": "wall",
}

#: Metrics recorded beside the end-to-end set in ``--out`` snapshots
#: only: (unit, kind, direction) by workload kind.
EXTRA = {
    "train": {
        "wall_iter_s_p75": ("s", "wall", "lower"),
    },
    "serve": {
        "sim_latency_p50_s": ("s", "exact", "lower"),
        "sim_goodput_rps": ("req/s", "exact", "higher"),
        "wall_requests_per_s": ("req/s", "wall", "higher"),
    },
}

_E2E_TRAIN = "sim_tokens_per_s and wall_tokens_per_s"

#: Per-layer metric -> (layer, what it should move, on which workloads).
#: ``.sim_s``/``.bytes``/fractions come from the program's own outputs
#: in every run; ``.wall_s``/``.self_wall_s``/``.calls`` come from the
#: traced run's spans. All are per unit of work: one training iteration
#: or one served request.
LAYERS = {
    "kernels.sampling.sim_s": ("kernels", _E2E_TRAIN, "train_1gpu"),
    "kernels.update_theta.sim_s": ("kernels", _E2E_TRAIN, "train_1gpu"),
    "kernels.update_phi.sim_s": ("kernels", _E2E_TRAIN, "train_1gpu"),
    "kernels.p1_frac": ("kernels", "sim_tokens_per_s", "train_1gpu"),
    "kernels.theta_entries_per_token": ("kernels", "sim_tokens_per_s",
                                        "train_1gpu"),
    "kernels.gibbs_sample_chunk.wall_s": ("kernels", "wall_tokens_per_s",
                                          "train_1gpu, serve_poisson"),
    "kernels.gibbs_sample_chunk.calls": ("kernels", "wall_tokens_per_s",
                                         "serve_poisson"),
    "kernels.gibbs_sample_chunk.tokens": ("kernels", "wall_tokens_per_s",
                                          "train_1gpu"),
    "kernels.accumulate_phi.wall_s": ("kernels", "wall_tokens_per_s",
                                      "train_1gpu"),
    "kernels.recount_theta.wall_s": ("kernels", "wall_tokens_per_s",
                                     "train_1gpu"),
    "sched.h2d.sim_s": ("sched", "sim_tokens_per_s", "train_4gpu_stream"),
    "sched.h2d.bytes": ("sched", "sim_tokens_per_s", "train_4gpu_stream"),
    "sched.d2h.sim_s": ("sched", "sim_tokens_per_s", "train_4gpu_stream"),
    "sched.d2h.bytes": ("sched", "sim_tokens_per_s", "train_4gpu_stream"),
    "sched.gpu_busy_frac": ("sched", "sim_tokens_per_s", "train_4gpu_stream"),
    "sched.upload_chunk.wall_s": ("sched", "wall_tokens_per_s",
                                  "train_4gpu_stream"),
    "sched.download_chunk.wall_s": ("sched", "wall_tokens_per_s",
                                    "train_4gpu_stream"),
    "sched.choose_chunking.wall_s": ("sched", "setup_s", "all train"),
    "comm.sync.sim_s": ("comm", "sim_tokens_per_s", "train_4gpu_stream"),
    "comm.p2p.sim_s": ("comm", "sim_tokens_per_s", "train_4gpu_stream"),
    "comm.p2p.bytes": ("comm", "sim_tokens_per_s", "train_4gpu_stream"),
    "comm.sync_window.sim_s": ("comm", "sim_tokens_per_s",
                               "train_4gpu_stream"),
    "comm.planner.pick": ("comm", "sim_tokens_per_s", "train_4gpu_stream"),
    "comm.planner.predicted_s": ("comm", "sim_tokens_per_s",
                                 "train_4gpu_stream"),
    "comm.cluster_planner.pick": ("comm", "sim_tokens_per_s",
                                  "train_4x2_nodes"),
    "comm.plan_sync.wall_s": ("comm", "wall_tokens_per_s",
                              "train_4gpu_stream"),
    "comm.allreduce.wall_s": ("comm", "wall_tokens_per_s",
                              "train_4gpu_stream"),
    "comm.plan_cluster_sync.wall_s": ("comm", "wall_tokens_per_s",
                                      "train_4x2_nodes"),
    "comm.cluster_allreduce.wall_s": ("comm", "wall_tokens_per_s",
                                      "train_4x2_nodes"),
    "cluster.compute.sim_s": ("cluster", "sim_tokens_per_s",
                              "train_4x2_nodes"),
    "cluster.network.sim_s": ("cluster", "sim_tokens_per_s",
                              "train_4x2_nodes"),
    "cluster.unattributed.sim_s": ("cluster", "sim_tokens_per_s",
                                   "train_4x2_nodes"),
    "cluster.internode.bytes": ("cluster", "sim_tokens_per_s",
                                "train_4x2_nodes"),
    "cluster.recovery.detect.sim_s": ("cluster", "recovery overhead",
                                      "train_4x2_nodes"),
    "cluster.recovery.repartition.sim_s": ("cluster", "recovery overhead",
                                           "train_4x2_nodes"),
    "cluster.recovery.workers_migrated": ("cluster", "recovery overhead",
                                          "train_4x2_nodes"),
    "cluster.recovery.shards_adopted": ("cluster", "recovery overhead",
                                        "train_4x2_nodes"),
    "cluster.recovery.overhead.sim_s": ("cluster", "recovery overhead",
                                        "train_4x2_nodes"),
    "cluster.recovery.post_sim_tokens_per_s": ("cluster", "sim_tokens_per_s",
                                               "train_4x2_nodes"),
    "cluster.send.wall_s": ("cluster", "wall_tokens_per_s",
                            "train_4x2_nodes"),
    "cluster.send.calls": ("cluster", "wall_tokens_per_s", "train_4x2_nodes"),
    "cluster.paramserver.wall_s": ("cluster", "wall_tokens_per_s",
                                   "train_4x2_nodes"),
    "gpusim.launch.self_wall_s": ("gpusim", "wall_tokens_per_s",
                                  "train_4gpu_stream, serve_poisson"),
    "gpusim.launch.calls": ("gpusim", "wall_tokens_per_s",
                            "train_4gpu_stream, serve_poisson"),
    "gpusim.memcpy.self_wall_s": ("gpusim", "wall_tokens_per_s",
                                  "train_4gpu_stream, serve_poisson"),
    "gpusim.memcpy.calls": ("gpusim", "wall_tokens_per_s",
                            "train_4gpu_stream, serve_poisson"),
    "gpusim.trace.intervals": ("gpusim", "wall_tokens_per_s",
                               "train_4gpu_stream, serve_poisson"),
    "engine.run_iteration.wall_s": ("engine", "wall_tokens_per_s",
                                    "all train"),
    "engine.loop.self_wall_s": ("engine", "wall_tokens_per_s", "all train"),
    "engine.log_likelihood.wall_s": ("engine", "wall_tokens_per_s",
                                     "all train"),
    "engine.init_state.wall_s": ("engine", "setup_s", "all train"),
    "engine.recovery.snapshot.wall_s": ("engine", "wall_tokens_per_s",
                                        "train_4x2_nodes"),
    "serve.queue_wait.sim_s_p50": ("serve", "sim_s_to_result",
                                   "serve_poisson"),
    "serve.queue_wait.sim_s_p99": ("serve", "sim_s_to_result",
                                   "serve_poisson"),
    "serve.staging.sim_s_p50": ("serve", "sim_s_to_result", "serve_poisson"),
    "serve.kernel.sim_s_p50": ("serve", "sim_s_to_result", "serve_poisson"),
    "serve.download.sim_s_p50": ("serve", "sim_s_to_result",
                                 "serve_poisson"),
    "serve.batch_fill": ("serve", "sim_s_to_result", "serve_poisson"),
    "serve.cache_hit_rate": ("serve", "sim_s_to_result", "serve_poisson"),
    "serve.replica_busy_frac": ("serve", "sim_tokens_per_s", "serve_poisson"),
    "serve.execute.wall_s": ("serve", "wall_tokens_per_s", "serve_poisson"),
    "serve.infer_documents.wall_s": ("serve", "wall_tokens_per_s",
                                     "serve_poisson"),
    "serve.run_trace.self_wall_s": ("serve", "wall_tokens_per_s",
                                    "serve_poisson"),
    "bench.trace_overhead_frac": ("bench", "none (tracing cost)", "all"),
}


def workload_params(name: str, smoke: bool = False) -> dict:
    """The parameters of workload *name*, shrunk when *smoke*."""
    params = {
        k: dict(v) if isinstance(v, dict) else v
        for k, v in WORKLOADS[name].items()
    }
    if smoke:
        for key, value in SMOKE[name].items():
            if isinstance(value, dict):
                params[key].update(value)
            else:
                params[key] = value
    return params
