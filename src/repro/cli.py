"""Command-line interface.

Seven subcommands::

    repro-lda train    # train CuLDA_CGS on a UCI file or synthetic twin
    repro-lda infer    # fold new documents into a saved model
    repro-lda project  # print a paper artifact (table4/table5/fig7/fig9)
    repro-lda profile  # instrumented run: breakdown, Gantt, counters
    repro-lda serve    # replay a request trace through the online service
    repro-lda loadgen  # Poisson open-loop load test of the service
    repro-lda bench    # run the benchmark suite / regression gate

Examples
--------
::

    repro-lda train --synthetic nytimes --tokens 50000 --topics 32 \
        --iterations 30 --platform pascal --gpus 2 --save model.npz
    repro-lda train --algo warplda --synthetic nytimes --tokens 50000 \
        --topics 32 --iterations 30
    repro-lda train --synthetic nytimes --iterations 40 \
        --save run.npz --save-every 10        # checkpoint every 10 iters
    repro-lda train --synthetic nytimes --iterations 40 --resume run.npz
    repro-lda infer --model model.npz --synthetic nytimes --tokens 5000
    repro-lda project table4
    repro-lda profile --platform volta --gpus 4 --iterations 5 \
        --trace out.json --metrics out.prom --events out.jsonl
    repro-lda serve --model model.npz --trace requests.jsonl --gpus 2
    repro-lda loadgen --model model.npz --rate 2000 --duration 0.05 \
        --gpus 2 --deadline 0.01 --metrics serve.prom
    repro-lda loadgen --model model.npz --smoke      # CI-sized preset
    repro-lda bench --tier quick --out BENCH_ci.json \
        --compare BENCH_21.json               # CI regression gate
    repro-lda loadgen --model model.npz --chaos --gpus 4 \
        --hedge-quantile 0.9 --request-trace-chrome spans.json
    repro-lda profile --serve-trace spans.jsonl      # request critical paths
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]

PLATFORMS = ("maxwell", "pascal", "volta", "dgx")
RECOVERY_MODES = ("none", "retry", "elastic")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value}"
        )
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _add_sync_arg(p: argparse.ArgumentParser) -> None:
    """The ``--sync`` flag shared by train and profile.

    Choices come straight from the collectives (plus ``auto``), so a
    new collective surfaces in every subcommand without touching a
    hand-kept tuple here.
    """
    from repro.comm import sync_choices

    choices = sync_choices()
    p.add_argument(
        "--sync", choices=choices, default="auto",
        help="model-sync collective: 'auto' (default) lets the "
        "topology-aware planner pick the cheapest per iteration; "
        "forcing one of " + ", ".join(choices[1:]) + " pins that plan "
        "(see docs/SYNC.md)")


def _add_cluster_args(p: argparse.ArgumentParser) -> None:
    """The cluster-shape flags shared by train and profile."""
    p.add_argument("--nodes", type=_positive_int, default=1,
                   help="cluster nodes for multi-node CuLDA, where cluster "
                   "fault plans apply; each node is one --platform machine "
                   "joined by 10 GbE (default: 1 = the single-machine "
                   "paper setup; see docs/DISTRIBUTED.md)")
    p.add_argument("--gpus-per-node", type=_positive_int, default=None,
                   metavar="G",
                   help="GPUs on each node with --nodes > 1 "
                   "(default: --gpus)")


def _add_internode_args(p: argparse.ArgumentParser) -> None:
    """The multi-node flags of ``train`` (DistributedCuLDA) beyond the
    cluster's shape.

    ``--inter-sync`` choices come from the cluster backends (plus
    ``auto``), mirroring how ``--sync`` tracks the GPU collectives.
    """
    from repro.comm import cluster_sync_choices

    choices = cluster_sync_choices()
    p.add_argument("--staleness", type=_nonneg_int, default=0,
                   metavar="S",
                   help="bounded staleness: nodes run up to S iterations "
                   "on a stale global φ between inter-node syncs "
                   "(0 = synchronous, bit-identical to one machine; "
                   "--nodes > 1 only)")
    p.add_argument(
        "--inter-sync", choices=choices, default="auto",
        help="inter-node φ-sync backend: 'auto' (default) lets the "
        "cluster planner pick the cheapest per sync; forcing one of " +
        ", ".join(choices[1:]) + " pins it (--nodes > 1 only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lda",
        description="CuLDA_CGS reproduction: train/infer LDA on a "
        "simulated multi-GPU machine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_corpus_args(
        p: argparse.ArgumentParser, required: bool = True
    ) -> None:
        src = p.add_mutually_exclusive_group(required=required)
        src.add_argument("--uci", metavar="DOCWORD",
                         help="UCI bag-of-words file (docword.*.txt[.gz])")
        src.add_argument("--synthetic", choices=("nytimes", "pubmed"),
                         default=None if required else "nytimes",
                         help="generate a synthetic twin corpus")
        p.add_argument("--vocab", metavar="FILE",
                       help="UCI vocab file (with --uci)")
        p.add_argument("--tokens", type=_positive_int, default=50_000,
                       help="twin size in tokens (with --synthetic)")
        p.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("train", help="train a model")
    add_corpus_args(t)
    t.add_argument("--algo",
                   choices=("culda", "saberlda", "warplda", "scvb0",
                            "ldastar"),
                   default="culda",
                   help="training algorithm (default: culda)")
    t.add_argument("--topics", type=_positive_int, default=128, help="K")
    t.add_argument("--iterations", type=_positive_int, default=100)
    t.add_argument("--platform", choices=PLATFORMS, default="volta",
                   help="simulated platform (culda/saberlda)")
    t.add_argument("--gpus", type=_positive_int, default=1)
    _add_cluster_args(t)
    _add_internode_args(t)
    t.add_argument("--workers", type=_positive_int, default=4,
                   help="LDA* comparator cluster size (ldastar; takes no "
                   "--faults/--recovery)")
    t.add_argument("--likelihood-every", type=_nonneg_int, default=0)
    t.add_argument("--no-compression", action="store_true",
                   help="disable 16-bit compression (§6.1.3)")
    _add_sync_arg(t)
    t.add_argument("--save", metavar="FILE", help="write model checkpoint")
    t.add_argument("--save-every", type=_nonneg_int, default=0, metavar="N",
                   help="write a full run-state checkpoint to --save FILE "
                   "every N iterations (resumable with --resume)")
    t.add_argument("--resume", metavar="FILE",
                   help="resume bit-identically from a --save-every "
                   "checkpoint")
    t.add_argument("--report", metavar="FILE",
                   help="write a markdown run report")
    t.add_argument("--top-words", type=_nonneg_int, default=0,
                   help="print N top word-ids per topic")
    t.add_argument("--faults", metavar="PLAN.json",
                   help="inject the faults described in a JSON fault plan "
                   "(--algo culda; cluster kinds need --nodes > 1; see "
                   "docs/ROBUSTNESS.md)")
    t.add_argument("--recovery", choices=RECOVERY_MODES, default=None,
                   help="fault-recovery policy: retry transient transfers "
                   "and roll back corrupted state ('retry'), additionally "
                   "re-partition over surviving GPUs/nodes on device or "
                   "node loss ('elastic'), or fail fast ('none', the "
                   "default; --algo culda)")

    i = sub.add_parser("infer", help="fold documents into a saved model")
    add_corpus_args(i)
    i.add_argument("--model", required=True, help="checkpoint from train --save")
    i.add_argument("--iterations", type=_positive_int, default=20)

    pr = sub.add_parser(
        "profile",
        help="instrumented training run: time breakdown, per-device "
        "Gantt, top counters, optional trace/metrics/event dumps",
    )
    add_corpus_args(pr, required=False)
    pr.add_argument("--topics", type=_positive_int, default=64, help="K")
    pr.add_argument("--iterations", type=_positive_int, default=5)
    pr.add_argument("--platform", choices=PLATFORMS, default="volta")
    pr.add_argument("--gpus", type=_positive_int, default=1)
    _add_cluster_args(pr)
    _add_sync_arg(pr)
    pr.add_argument("--likelihood-every", type=_nonneg_int, default=0)
    pr.add_argument("--faults", metavar="PLAN.json",
                    help="inject the faults described in a JSON fault plan")
    pr.add_argument("--recovery", choices=RECOVERY_MODES, default=None,
                    help="fault-recovery policy (default: none)")
    pr.add_argument("--trace", metavar="FILE",
                    help="write a Chrome/Perfetto trace (chrome://tracing)")
    pr.add_argument("--metrics", metavar="FILE",
                    help="write a Prometheus text-format metrics snapshot")
    pr.add_argument("--events", metavar="FILE",
                    help="stream the training events as JSONL")
    pr.add_argument("--top", type=_positive_int, default=12,
                    help="counter rows to print")
    pr.add_argument("--format", choices=("text", "json"), default="text",
                    help="report format; json emits the stable "
                    "repro-profile/1 schema (see docs/BENCHMARKS.md)")
    pr.add_argument("--serve-trace", metavar="SPANS.jsonl",
                    help="instead of training, reconstruct request "
                    "critical paths from a span file written by "
                    "serve/loadgen --request-trace")
    pr.add_argument("--trace-id", metavar="ID",
                    help="focus the --serve-trace breakdown on one "
                    "request's trace ID")

    def add_service_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--platform", choices=PLATFORMS, default="volta")
        p.add_argument("--gpus", type=_positive_int, default=1,
                       help="replicas (one phi replica per simulated GPU)")
        p.add_argument("--max-batch-size", type=_positive_int, default=8)
        p.add_argument("--max-wait", type=_positive_float, default=2e-3,
                       metavar="SECONDS",
                       help="micro-batcher wait bound (simulated seconds)")
        p.add_argument("--max-queue", type=_positive_int, default=64,
                       help="bounded-queue admission limit "
                       "(pending + in-flight requests)")
        p.add_argument("--cache-capacity", type=_positive_int, default=2,
                       help="resident models in the LRU cache")
        p.add_argument("--iterations", type=_positive_int, default=5,
                       help="default fold-in sweeps per request")
        p.add_argument("--deadline", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="default per-request deadline (simulated)")
        p.add_argument("--warm-spares", type=_nonneg_int, default=0,
                       help="GPUs held in reserve as respawn targets "
                       "for dead replicas")
        p.add_argument("--hedge-quantile", type=_positive_float,
                       default=None, metavar="Q",
                       help="enable hedged requests: duplicate batches "
                       "slower than this service-time quantile")
        p.add_argument("--faults", metavar="PLAN.json",
                       help="fault plan; 'iteration' fields fire per "
                       "batch sequence number")
        p.add_argument("--metrics", metavar="FILE",
                       help="write a Prometheus text-format snapshot")
        p.add_argument("--top", type=_positive_int, default=10,
                       help="counter rows to print")
        p.add_argument("--request-trace", metavar="SPANS.jsonl",
                       help="write per-request trace spans as JSONL "
                       "(inspect with 'profile --serve-trace')")
        p.add_argument("--request-trace-chrome", metavar="FILE.json",
                       help="write per-request trace spans as a "
                       "Chrome/Perfetto trace (chrome://tracing)")

    se = sub.add_parser(
        "serve",
        help="replay a JSONL request trace through the online "
        "inference service",
    )
    se.add_argument("--model", required=True,
                    help="default checkpoint for requests without a "
                    "'model' field")
    se.add_argument("--trace", required=True, metavar="FILE.jsonl",
                    help="request trace (one JSON object per line)")
    add_service_args(se)

    lg = sub.add_parser(
        "loadgen",
        help="open-loop Poisson load test of the serving path",
    )
    lg.add_argument("--model", action="append", required=True,
                    help="checkpoint(s) to serve; repeat to spread load "
                    "over several models (exercises the cache)")
    lg.add_argument("--rate", type=_positive_float, default=2000.0,
                    help="mean arrival rate (requests/simulated second)")
    lg.add_argument("--duration", type=_positive_float, default=0.05,
                    help="trace length (simulated seconds)")
    lg.add_argument("--mean-doc-len", type=_positive_int, default=20)
    lg.add_argument("--max-docs", type=_positive_int, default=3,
                    help="documents per request (uniform in [1, N])")
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--smoke", action="store_true",
                    help="CI preset: small fixed trace, fails if any "
                    "request is lost or any payload differs from its "
                    "direct fold-in")
    lg.add_argument("--chaos", action="store_true",
                    help="run under a serving chaos plan (default plan "
                    "unless --faults is given) and check the serving "
                    "invariants instead of all-completed")
    lg.add_argument("--low-priority-fraction", type=float, default=0.0,
                    metavar="F",
                    help="share of requests tagged priority 0 "
                    "(sheddable under degraded mode)")
    lg.add_argument("--save-trace", metavar="FILE.jsonl",
                    help="also write the generated trace (replayable "
                    "with 'serve --trace')")
    add_service_args(lg)

    b = sub.add_parser(
        "bench",
        help="run the curated benchmark suite; write a BENCH_*.json "
        "snapshot and optionally gate against a baseline",
    )
    b.add_argument("--tier", choices=("quick", "full"), default="quick",
                   help="quick = the CI subset; full adds the larger "
                   "scenarios (tiers select scenarios, never shrink "
                   "workloads)")
    b.add_argument("--only", metavar="SUBSTR",
                   help="run only scenarios whose name contains SUBSTR")
    b.add_argument("--list", action="store_true", dest="list_scenarios",
                   help="list the selected scenarios and exit")
    b.add_argument("--out", metavar="FILE",
                   help="write the snapshot JSON (schema repro-bench/1)")
    b.add_argument("--compare", metavar="BASELINE.json",
                   help="compare against a baseline snapshot; exit 1 "
                   "on a regression, or on a selected baseline scenario "
                   "or metric that is missing or whose params changed")
    b.add_argument("--verbose", action="store_true",
                   help="show unchanged metrics in the --compare table")

    p = sub.add_parser("project", help="print a paper artifact")
    p.add_argument("artifact", choices=("table1", "table4", "table5",
                                        "fig7", "fig9"))
    p.add_argument("--dataset", choices=("NYTimes", "PubMed"),
                   default="NYTimes", help="for fig7")
    return parser


def _load_corpus(args: argparse.Namespace):
    from repro.corpus.synthetic import nytimes_like, pubmed_like
    from repro.corpus.uci import read_uci_bow

    if args.uci:
        return read_uci_bow(args.uci, vocab_path=args.vocab)
    maker = nytimes_like if args.synthetic == "nytimes" else pubmed_like
    return maker(num_tokens=args.tokens, seed=args.seed)


#: Sentinel returned by :func:`_load_fault_plan` for an unreadable or
#: invalid plan file (``None`` already means "no --faults given").
_BAD_PLAN = object()


def _load_fault_plan(path):
    if not path:
        return None
    from repro.faults import FaultPlan

    try:
        return FaultPlan.from_json(path)
    except (OSError, ValueError) as exc:
        print(f"error: invalid fault plan {path}: {exc}", file=sys.stderr)
        return _BAD_PLAN


def _print_training_failure(exc) -> None:
    print(f"error: training failed: {exc}", file=sys.stderr)
    if getattr(exc, "violations", ()):
        for v in exc.violations:
            print(f"  violation: {v}", file=sys.stderr)
    for event in getattr(exc, "fault_events", ()):
        print(f"  fault event: {event}", file=sys.stderr)
    timeline = getattr(exc, "membership_events", ())
    if timeline:
        print("  membership timeline:", file=sys.stderr)
        for at, node, frm, to in timeline:
            print(f"    t={at:.3f}s node {node}: {frm} -> {to}",
                  file=sys.stderr)


def _check_fault_domains(plan, nodes):
    """Cluster fault kinds need a cluster (``--nodes > 1``). Fault plans
    run only on CuLDA, so GPU kinds always have their machine. Returns
    an error naming the offending plan entry, or None."""
    if plan is None or nodes > 1:
        return None
    for i, spec in enumerate(plan):
        if spec.domain == "cluster":
            return (f"fault #{i} ({spec.kind}): cluster fault kinds need a "
                    "cluster substrate — use --nodes > 1")
    return None


def _culda_machines(args: argparse.Namespace) -> list:
    """One ``--platform`` machine per node for a CuLDA run. Each has
    ``--gpus-per-node`` GPUs on a cluster and ``--gpus`` on one node;
    ``DistributedCuLDA`` over one machine is the single-machine trainer."""
    from repro.gpusim.platform import make_machine

    gpn = args.gpus
    if args.nodes > 1 and args.gpus_per_node:
        gpn = args.gpus_per_node
    return [make_machine(args.platform, gpn) for _ in range(args.nodes)]


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core import save_model
    from repro.engine import TrainingFailure
    from repro.telemetry import MetricsRegistry

    if args.save_every and not args.save:
        print("error: --save-every requires --save FILE", file=sys.stderr)
        return 2
    if (args.faults or args.recovery) and args.algo != "culda":
        print("error: --faults/--recovery require --algo culda (fault "
              "injection targets the simulated GPUs and, with --nodes > 1, "
              "the simulated cluster)", file=sys.stderr)
        return 2
    if args.nodes > 1 and args.algo != "culda":
        print("error: --nodes > 1 requires --algo culda (multi-node "
              "training is the DistributedCuLDA trainer; ldastar has "
              "its own --workers cluster)", file=sys.stderr)
        return 2
    if args.nodes == 1 and (args.staleness > 0 or args.inter_sync != "auto"):
        print("error: --staleness/--inter-sync only apply with "
              "--nodes > 1 (a single node has no inter-node sync leg)",
              file=sys.stderr)
        return 2
    fault_plan = _load_fault_plan(args.faults)
    if fault_plan is _BAD_PLAN:
        return 2
    domain_error = _check_fault_domains(fault_plan, args.nodes)
    if domain_error:
        print(f"error: {domain_error}", file=sys.stderr)
        return 2
    corpus = _load_corpus(args)
    registry = MetricsRegistry()
    run_kwargs = dict(
        save_every=args.save_every,
        checkpoint_path=args.save if args.save_every else None,
        resume=args.resume,
        vocabulary=corpus.vocabulary,
    )
    machine = None
    if args.algo in ("culda", "saberlda"):
        from repro.core import TrainConfig
        from repro.gpusim.platform import make_machine

        if args.algo == "saberlda" and args.gpus != 1:
            print("error: saberlda supports a single GPU only",
                  file=sys.stderr)
            return 2
        config = TrainConfig(
            num_topics=args.topics,
            iterations=args.iterations,
            seed=args.seed,
            compressed=not args.no_compression,
            sync_algorithm=args.sync,
            likelihood_every=args.likelihood_every,
            inter_sync=args.inter_sync,
            staleness=args.staleness,
        )
        if args.algo == "saberlda":
            machine = make_machine(args.platform, args.gpus)
            from repro.baselines import SaberLDA

            trainer = SaberLDA(corpus, machine, config, registry=registry)
        else:
            from repro.core import DistributedCuLDA

            machines = _culda_machines(args)
            machine = machines[0]
            trainer = DistributedCuLDA(
                corpus, machines, config=config, registry=registry
            )
            run_kwargs.update(recovery=args.recovery,
                              fault_plan=fault_plan)
        try:
            result = trainer.train(**run_kwargs)
        except TrainingFailure as exc:
            _print_training_failure(exc)
            return 1
    else:
        from repro.core.model import LDAHyperParams

        hyper = LDAHyperParams(num_topics=args.topics)
        if args.algo == "warplda":
            from repro.baselines import WarpLDA

            trainer = WarpLDA(corpus, hyper, seed=args.seed,
                              registry=registry)
        elif args.algo == "scvb0":
            from repro.baselines import SCVB0

            trainer = SCVB0(corpus, hyper, seed=args.seed, registry=registry)
        else:
            from repro.baselines import LDAStar

            trainer = LDAStar(corpus, hyper, num_workers=args.workers,
                              seed=args.seed, registry=registry)
        try:
            result = trainer.train(
                iterations=args.iterations,
                likelihood_every=args.likelihood_every,
                **run_kwargs,
            )
        except TrainingFailure as exc:
            _print_training_failure(exc)
            return 1
    print(result.summary())
    if args.top_words:
        vocab = corpus.vocabulary
        for k in range(result.hyper.num_topics):
            ids = result.top_words(k, n=args.top_words)
            shown = (
                " ".join(vocab.word_of(w) for w in ids) if vocab else str(ids)
            )
            print(f"topic {k:>3d}: {shown}")
    if args.save:
        if args.save_every:
            # train() already wrote the run-state file, which doubles as
            # a model checkpoint.
            print(f"run-state checkpoint saved to {args.save}")
        else:
            save_model(result, args.save, vocabulary=corpus.vocabulary)
            print(f"model saved to {args.save}")
    if args.report:
        from repro.report import render_markdown

        with open(args.report, "w") as fh:
            fh.write(
                render_markdown(
                    result, machine, corpus.vocabulary, registry=registry
                )
            )
        print(f"report written to {args.report}")
    return 0


def _cmd_profile_serve_trace(args: argparse.Namespace) -> int:
    """``profile --serve-trace``: reconstruct request critical paths."""
    import json

    from repro.telemetry.tracing import (
        format_serve_trace,
        read_spans_jsonl,
        serve_trace_json,
    )

    try:
        spans = read_spans_jsonl(args.serve_trace)
    except (OSError, ValueError) as exc:
        print(f"error: invalid span file {args.serve_trace}: {exc}",
              file=sys.stderr)
        return 2
    if not spans:
        print(f"error: {args.serve_trace} holds no spans", file=sys.stderr)
        return 2
    if args.trace_id and not any(s.trace_id == args.trace_id for s in spans):
        print(f"error: no trace {args.trace_id!r} in {args.serve_trace}",
              file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(serve_trace_json(spans), indent=2, sort_keys=True))
    else:
        print(format_serve_trace(spans, trace_id=args.trace_id,
                                 top=args.top))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.core import DistributedCuLDA, TrainConfig
    from repro.engine import TrainingFailure
    from repro.obs.profiling import format_profile, profile_json
    from repro.telemetry import JSONLEmitter, MetricsRegistry
    from repro.gpusim.trace import cluster_trace, to_chrome_json
    from repro.telemetry.exporters import to_prometheus

    if args.serve_trace:
        return _cmd_profile_serve_trace(args)
    if args.trace_id:
        print("error: --trace-id requires --serve-trace", file=sys.stderr)
        return 2
    fault_plan = _load_fault_plan(args.faults)
    if fault_plan is _BAD_PLAN:
        return 2
    domain_error = _check_fault_domains(fault_plan, args.nodes)
    if domain_error:
        print(f"error: {domain_error}", file=sys.stderr)
        return 2
    corpus = _load_corpus(args)
    registry = MetricsRegistry()
    callbacks = [JSONLEmitter(args.events)] if args.events else []
    config = TrainConfig(
        num_topics=args.topics,
        iterations=args.iterations,
        seed=args.seed,
        sync_algorithm=args.sync,
        likelihood_every=args.likelihood_every,
    )
    machines = _culda_machines(args)
    trainer = DistributedCuLDA(
        corpus, machines, config=config,
        callbacks=callbacks, registry=registry,
    )
    try:
        result = trainer.train(recovery=args.recovery, fault_plan=fault_plan)
    except TrainingFailure as exc:
        _print_training_failure(exc)
        return 1

    report = profile_json(
        result, machines, registry, corpus.name, args.topics, top=args.top
    )
    # Every node's machine ran on one clock: one timeline holds them all.
    timeline = cluster_trace([m.trace for m in machines], len(machines[0].gpus))
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(to_chrome_json(timeline, extra=trainer.host_trace))
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(to_prometheus(registry))
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(format_profile(report, timeline.gantt_text(width=80), len(registry)))
    for path, what in ((args.trace, "chrome trace"),
                       (args.metrics, "prometheus metrics"),
                       (args.events, "event stream")):
        if path:
            print(f"{what} written to {path}")
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro.core import infer_documents, load_model

    ckpt = load_model(args.model)
    corpus = _load_corpus(args)
    if corpus.num_words > ckpt.num_words:
        print(
            f"error: corpus vocabulary ({corpus.num_words}) exceeds the "
            f"model's ({ckpt.num_words})",
            file=sys.stderr,
        )
        return 2
    inf = infer_documents(
        corpus, ckpt.phi, ckpt.hyper, iterations=args.iterations,
        seed=args.seed,
    )
    print(f"folded {corpus.num_docs} documents ({corpus.num_tokens} tokens) "
          f"into {args.model}")
    print(f"held-out log-likelihood/token: {inf.log_likelihood_per_token:.4f}")
    dominant = np.argmax(inf.doc_topic, axis=1)
    hist = np.bincount(dominant, minlength=ckpt.num_topics)
    print("dominant-topic histogram:",
          " ".join(f"{k}:{c}" for k, c in enumerate(hist) if c))
    return 0


def _service_from_args(args: argparse.Namespace, fault_plan=None):
    """Build an (InferenceService, registry) pair, or None on bad input.

    *fault_plan* (e.g. the chaos default) wins over ``--faults``.
    """
    from repro.gpusim.platform import make_machine
    from repro.serve import HedgePolicy, InferenceService, ServiceConfig
    from repro.telemetry import MetricsRegistry

    if fault_plan is None:
        fault_plan = _load_fault_plan(args.faults)
        if fault_plan is _BAD_PLAN:
            return None
    if args.warm_spares >= args.gpus:
        print("error: --warm-spares must leave at least one active "
              "replica", file=sys.stderr)
        return None
    hedge = None
    if args.hedge_quantile is not None:
        if not 0.0 < args.hedge_quantile < 1.0:
            print("error: --hedge-quantile must be in (0, 1)",
                  file=sys.stderr)
            return None
        hedge = HedgePolicy(quantile=args.hedge_quantile)
    registry = MetricsRegistry()
    service = InferenceService(
        make_machine(args.platform, args.gpus),
        ServiceConfig(
            max_batch_size=args.max_batch_size,
            max_wait_seconds=args.max_wait,
            max_queue=args.max_queue,
            cache_capacity=args.cache_capacity,
            iterations=args.iterations,
            deadline_seconds=args.deadline,
            warm_spares=args.warm_spares,
            hedge=hedge,
        ),
        registry=registry,
        fault_plan=fault_plan,
    )
    return service, registry


def _print_serve_report(report, registry, machine_name: str, top: int) -> None:
    print(f"serving report ({machine_name}):")
    print(report.summary())
    if report.fault_events:
        print(f"fault events ({len(report.fault_events)} injected):")
        for event in report.fault_events:
            detail = " ".join(
                f"{k}={v}" for k, v in event.items() if k != "kind"
            )
            print(f"  {event['kind']:<24s} {detail}")
    print()
    print(f"top counters (of {len(registry)} metric families):")
    for s in registry.top_counters(top):
        label_s = ",".join(f"{k}={v}" for k, v in sorted(s.labels.items()))
        name = f"{s.name}{{{label_s}}}" if label_s else s.name
        print(f"  {name:<56s} {s.value:>14,.0f}")


def _write_request_traces(report, args: argparse.Namespace) -> None:
    """Honor --request-trace / --request-trace-chrome for serve/loadgen."""
    if not (args.request_trace or args.request_trace_chrome):
        return
    from repro.telemetry.tracing import spans_chrome_json, write_spans_jsonl

    if args.request_trace:
        write_spans_jsonl(report.trace_spans, args.request_trace)
        print(f"request trace spans written to {args.request_trace} "
              f"({len(report.trace_spans)} spans; inspect with "
              f"'repro-lda profile --serve-trace {args.request_trace}')")
    if args.request_trace_chrome:
        with open(args.request_trace_chrome, "w") as fh:
            fh.write(spans_chrome_json(report.trace_spans))
        print(f"request chrome trace written to {args.request_trace_chrome}")


def _write_service_metrics(registry, path: str | None) -> None:
    if not path:
        return
    from repro.telemetry.exporters import to_prometheus

    with open(path, "w") as fh:
        fh.write(to_prometheus(registry))
    print(f"prometheus metrics written to {path}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import read_trace_jsonl

    pair = _service_from_args(args)
    if pair is None:
        return 2
    service, registry = pair
    try:
        requests = read_trace_jsonl(args.trace, default_model=args.model)
    except (OSError, ValueError) as exc:
        print(f"error: invalid trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    report = service.run_trace(requests)
    _print_serve_report(report, registry, service.machine.name, args.top)
    _write_service_metrics(registry, args.metrics)
    _write_request_traces(report, args)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.core import load_model
    from repro.serve import poisson_trace, write_trace_jsonl

    if args.smoke:
        # Small fixed preset so CI exercises the whole serving path in
        # a couple of seconds regardless of the other flags.
        args.rate, args.duration = 2000.0, 0.01
        args.mean_doc_len, args.max_docs = 15, 2
    try:
        num_words = min(
            load_model(path).phi.shape[1] for path in args.model
        )
    except (OSError, ValueError) as exc:
        print(f"error: could not load model: {exc}", file=sys.stderr)
        return 2
    chaos_plan = None
    if args.chaos and not args.faults:
        from repro.serve import default_chaos_plan

        if args.gpus < 2:
            print("error: --chaos needs at least --gpus 2",
                  file=sys.stderr)
            return 2
        chaos_plan = default_chaos_plan(args.gpus)
    if not 0.0 <= args.low_priority_fraction <= 1.0:
        print("error: --low-priority-fraction must be in [0, 1]",
              file=sys.stderr)
        return 2
    pair = _service_from_args(args, fault_plan=chaos_plan)
    if pair is None:
        return 2
    service, registry = pair
    requests = poisson_trace(
        args.model, num_words,
        rate=args.rate, duration=args.duration, seed=args.seed,
        mean_doc_len=args.mean_doc_len,
        max_docs_per_request=args.max_docs,
        deadline_seconds=args.deadline,
        low_priority_fraction=args.low_priority_fraction,
    )
    if not requests:
        print("error: trace is empty; raise --rate or --duration",
              file=sys.stderr)
        return 2
    if args.save_trace:
        write_trace_jsonl(requests, args.save_trace)
        print(f"trace written to {args.save_trace}")
    print(f"loadgen: {len(requests)} requests at {args.rate:.0f} req/s "
          f"over {args.duration * 1e3:.1f} ms "
          f"({len(args.model)} model(s), {args.gpus} replica(s))")
    report = service.run_trace(requests)
    _print_serve_report(report, registry, service.machine.name, args.top)
    _write_service_metrics(registry, args.metrics)
    _write_request_traces(report, args)
    if args.chaos:
        from repro.serve import verify_report

        violations = verify_report(
            report, requests,
            default_iterations=args.iterations,
            payload_sample=64,
        )
        if violations:
            print("chaos invariant violations:", file=sys.stderr)
            for violation in violations:
                print(f"  - {violation}", file=sys.stderr)
            return 1
        print(f"chaos invariants hold: {len(requests)} requests "
              f"accounted for exactly once ({report.failovers} "
              f"failover(s), {report.respawns} respawn(s))")
        return 0
    if args.smoke:
        if report.count("completed") != len(requests):
            print("error: smoke run lost requests (expected every request "
                  "to complete)", file=sys.stderr)
            return 1
        from repro.serve import verify_report

        # Batching must not move a bit: every payload against its
        # direct fold-in.
        violations = verify_report(
            report, requests, default_iterations=args.iterations
        )
        if violations:
            print("smoke invariant violations:", file=sys.stderr)
            for violation in violations:
                print(f"  - {violation}", file=sys.stderr)
            return 1
        print(f"smoke: all {len(requests)} payloads equal their direct "
              "fold-in")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs import (
        REGISTRY,
        compare_snapshots,
        format_deltas,
        format_snapshot,
        gate,
        load_snapshot,
        run_suite,
        write_snapshot,
    )

    if args.list_scenarios:
        import repro.obs.scenarios  # noqa: F401  (populates REGISTRY)

        scenarios = REGISTRY.select(args.tier, args.only)
        if not scenarios:
            print("no scenarios match the selection", file=sys.stderr)
            return 2
        for s in scenarios:
            print(f"{s.name:<36s} [{s.tier:<5s}] {s.description}")
        return 0

    try:
        snapshot = run_suite(
            tier=args.tier, only=args.only,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_snapshot(snapshot))
    if args.out:
        write_snapshot(snapshot, args.out)
        print(f"\nsnapshot written to {args.out}")
    if args.compare:
        try:
            baseline = load_snapshot(args.compare)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        deltas = compare_snapshots(
            baseline, snapshot, selection=(args.tier, args.only)
        )
        print()
        print(f"comparison against {args.compare} "
              f"(git {baseline.get('git_sha', '?')[:12]}):")
        print(format_deltas(deltas, verbose=args.verbose))
        if gate(deltas):
            return 1
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    if args.artifact == "table1":
        from repro.analysis.roofline import format_table1

        print(format_table1())
        return 0
    from repro.perfmodel import (
        fig7_series,
        fig9_scaling,
        table4_throughput,
        table5_breakdown,
    )

    if args.artifact == "table4":
        t4 = table4_throughput()
        for ds, row in t4.items():
            cells = "  ".join(f"{p}={v / 1e6:.1f}M" for p, v in row.items())
            print(f"{ds:<8s} {cells}")
    elif args.artifact == "table5":
        t5 = table5_breakdown()
        for platform, row in t5.items():
            cells = "  ".join(f"{k}={v * 100:.1f}%" for k, v in row.items())
            print(f"{platform:<7s} {cells}")
    elif args.artifact == "fig7":
        series = fig7_series(args.dataset)
        for name, s in series.items():
            pts = " ".join(f"{v / 1e6:.0f}" for v in s[::10])
            print(f"{name:<8s} {pts}  (M tokens/s, every 10th iteration)")
    elif args.artifact == "fig9":
        f9 = fig9_scaling()
        for g, d in f9.items():
            print(f"{g} GPU(s): {d['speedup']:.2f}x")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "infer":
        return _cmd_infer(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_project(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
