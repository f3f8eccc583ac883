"""Wall-clock spans around each layer's public entry points.

The benchmark, not the program, records these spans: :class:`LayerTracer`
patches wrappers in at the names the callers look up (a module global
such as ``repro.sched.schedule.gibbs_sample_chunk``, or a class
attribute such as ``KernelLaunch.launch``) and restores the originals on
exit. A span's parent is the span open when it started, so a layer's
self time is its span time minus its direct children's.

Spans stay in memory and leave through the program's own exporters
(:class:`~repro.telemetry.tracing.TraceCollector`,
``write_spans_jsonl``, ``spans_chrome_json``).
"""

from __future__ import annotations

import functools
import importlib
import time
from pathlib import Path

#: (owner, attribute, span name). An owner is a module path, or
#: ``module:Class``. One span name may cover several call sites.
PATCHES = (
    ("repro.sched.schedule", "gibbs_sample_chunk", "kernels.gibbs_sample_chunk"),
    ("repro.core.inference", "gibbs_sample_chunk", "kernels.gibbs_sample_chunk"),
    ("repro.sched.schedule", "accumulate_phi", "kernels.accumulate_phi"),
    ("repro.core.culda", "accumulate_phi", "kernels.accumulate_phi"),
    ("repro.core.distributed", "accumulate_phi", "kernels.accumulate_phi"),
    ("repro.sched.schedule", "recount_theta", "kernels.recount_theta"),
    ("repro.core.inference", "recount_theta", "kernels.recount_theta"),
    ("repro.sched.schedule", "upload_chunk", "sched.upload_chunk"),
    ("repro.core.culda", "upload_chunk", "sched.upload_chunk"),
    ("repro.core.distributed", "upload_chunk", "sched.upload_chunk"),
    ("repro.sched.schedule", "download_chunk", "sched.download_chunk"),
    ("repro.core.culda", "download_chunk", "sched.download_chunk"),
    ("repro.core.distributed", "download_chunk", "sched.download_chunk"),
    ("repro.core.culda", "choose_chunking", "sched.choose_chunking"),
    ("repro.core.distributed", "choose_chunking", "sched.choose_chunking"),
    ("repro.sched.schedule", "plan_sync", "comm.plan_sync"),
    ("repro.comm.collectives:TreeCollective", "allreduce", "comm.allreduce"),
    ("repro.comm.collectives:RingCollective", "allreduce", "comm.allreduce"),
    ("repro.comm.collectives:CpuGatherCollective", "allreduce",
     "comm.allreduce"),
    ("repro.comm.collectives:HierarchicalCollective", "allreduce",
     "comm.allreduce"),
    ("repro.core.distributed", "plan_cluster_sync", "comm.plan_cluster_sync"),
    ("repro.comm.cluster:EthRingCollective", "allreduce",
     "comm.cluster_allreduce"),
    ("repro.comm.cluster:ParamServerCollective", "allreduce",
     "comm.cluster_allreduce"),
    ("repro.cluster.network:ClusterNetwork", "send", "cluster.send"),
    ("repro.cluster.paramserver:ShardedParameterServer", "push",
     "cluster.paramserver"),
    ("repro.cluster.paramserver:ShardedParameterServer", "pull",
     "cluster.paramserver"),
    ("repro.cluster.paramserver:ShardedParameterServer", "reshard",
     "cluster.paramserver"),
    ("repro.cluster.paramserver:ShardedParameterServer", "verify",
     "cluster.paramserver"),
    ("repro.cluster.paramserver:ShardedParameterServer", "park",
     "cluster.paramserver"),
    ("repro.cluster.paramserver:ShardedParameterServer", "rehome",
     "cluster.paramserver"),
    ("repro.gpusim.kernel:KernelLaunch", "launch", "gpusim.launch"),
    ("repro.gpusim.platform:Machine", "memcpy_h2d", "gpusim.memcpy"),
    ("repro.gpusim.platform:Machine", "memcpy_d2h", "gpusim.memcpy"),
    ("repro.gpusim.platform:Machine", "memcpy_p2p", "gpusim.memcpy"),
    ("repro.core.culda:CuLDA", "run_iteration", "engine.run_iteration"),
    ("repro.core.distributed:DistributedCuLDA", "run_iteration",
     "engine.run_iteration"),
    ("repro.engine.loop:TrainingLoop", "run", "engine.loop"),
    ("repro.core.culda:CuLDA", "log_likelihood", "engine.log_likelihood"),
    ("repro.core.distributed:DistributedCuLDA", "log_likelihood",
     "engine.log_likelihood"),
    ("repro.core.culda:CuLDA", "init_state", "engine.init_state"),
    ("repro.core.distributed:DistributedCuLDA", "init_state",
     "engine.init_state"),
    ("repro.engine.loop", "snapshot_run_state", "engine.recovery.snapshot"),
    ("repro.serve.replica:PhiReplica", "execute", "serve.execute"),
    ("repro.serve.replica", "infer_documents", "serve.infer_documents"),
    ("repro.serve.service:InferenceService", "run_trace", "serve.run_trace"),
)

#: Span name -> how many work items one call carries (default: none).
#: The sampling kernel's first argument is the token chunk it sweeps.
ITEMS = {"kernels.gibbs_sample_chunk": lambda args: args[0].num_tokens}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class LayerTracer:
    """Context manager: patched entry points while open, originals after.

    ``records`` holds one ``[name, start, end, parent, items]`` list per
    call, in start order, with times in seconds since the tracer was
    built and ``parent`` the index of the enclosing span (-1 at top).
    """

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _wrap(self, fn, name: str):
        records, stack, t0 = self.records, self._stack, self._t0
        items = ITEMS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(records)
            records.append([
                name, time.perf_counter() - t0, None,
                stack[-1] if stack else -1,
                items(args) if items else 0,
            ])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                records[idx][2] = time.perf_counter() - t0

        return wrapper

    def __enter__(self) -> "LayerTracer":
        try:
            for owner, attr, name in PATCHES:
                target = _resolve(owner)
                original = (
                    target.__dict__[attr] if isinstance(target, type)
                    else getattr(target, attr)
                )
                self._saved.append((target, attr, original))
                setattr(target, attr, self._wrap(original, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``items``, ``wall_s`` (outermost
        spans only, so recursion through a second call site is not
        counted twice) and ``self_wall_s`` (span time minus its direct
        children, summed over every span)."""
        recs = self.records
        child_time = [0.0] * len(recs)
        for name, start, end, parent, _ in recs:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, items) in enumerate(recs):
            row = out.setdefault(
                name, {"calls": 0, "items": 0, "wall_s": 0.0, "self_wall_s": 0.0}
            )
            row["calls"] += 1
            row["items"] += items
            row["self_wall_s"] += end - start - child_time[i]
            if not self._inside(i, name):
                row["wall_s"] += end - start
        return out

    def _inside(self, i: int, name: str) -> bool:
        parent = self.records[i][3]
        while parent >= 0:
            if self.records[parent][0] == name:
                return True
            parent = self.records[parent][3]
        return False

    def export(self, trace_id: str, directory: Path) -> list[Path]:
        """Write ``spans.jsonl`` and a Chrome trace into *directory*."""
        from repro.telemetry.tracing import (
            TraceCollector,
            spans_chrome_json,
            write_spans_jsonl,
        )

        collector = TraceCollector()
        ids: list[str] = []
        for name, start, end, parent, items in self.records:
            span = collector.add(
                trace_id, name, start, end,
                parent_id=ids[parent] if parent >= 0 else None,
                kind=name.split(".", 1)[0],
                items=items or None,
            )
            ids.append(span.span_id)
        directory.mkdir(parents=True, exist_ok=True)
        jsonl, chrome = directory / "spans.jsonl", directory / "trace.json"
        write_spans_jsonl(collector.spans, jsonl)
        chrome.write_text(spans_chrome_json(collector.spans))
        return [jsonl, chrome]


def format_self_time(totals: dict, traced_wall: float) -> str:
    """The per-layer self-time table the traced run prints."""
    lines = [
        f"  {'span':<30s} {'calls':>8s} {'wall s':>10s} {'self s':>10s} "
        f"{'self %':>7s}"
    ]
    for name, row in sorted(
        totals.items(), key=lambda kv: -kv[1]["self_wall_s"]
    ):
        share = row["self_wall_s"] / traced_wall if traced_wall > 0 else 0.0
        lines.append(
            f"  {name:<30s} {row['calls']:>8d} {row['wall_s']:>10.4f} "
            f"{row['self_wall_s']:>10.4f} {share:>7.1%}"
        )
    return "\n".join(lines)
