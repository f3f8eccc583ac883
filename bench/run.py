#!/usr/bin/env python3
"""End-to-end CuLDA benchmark: training and serving, on both clocks.

Run from the root of a checkout::

    python3 bench/run.py --workload train_1gpu --seed 0 --seconds 20
    python3 bench/run.py --workload all --out snap.json
    python3 bench/run.py --workload serve_poisson --trace 1

The program is imported from ``src/`` of the same checkout; without it
the benchmark exits 2. Every end-to-end metric is printed by
name with its unit; ``--trace 1`` prints the per-layer metrics instead,
with a self-time table, and writes the spans under ``--trace-dir``. The
last line of standard output is one JSON object::

    {"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}

``--out`` writes a ``repro-bench/1`` snapshot (one scenario per
workload, per-layer values under ``layers``), comparable with
``repro.obs.compare.compare_snapshots``. See ``bench/README.md``.
"""

import os

# numpy reads these once, at import, so they are fixed first: the
# benchmark runs in one process on at most 2 threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402
from layertrace import format_self_time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path, or exit 2."""
    package = SRC / "repro"
    if (package / "__init__.py").is_file():
        sys.path.insert(0, str(SRC))
        import repro

        if Path(repro.__file__).resolve().parent == package.resolve():
            return
    print(f"bench: no program source at {package}; run from a full checkout",
          file=sys.stderr)
    sys.exit(2)


def _args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*spec.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long each workload repeats its measured run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: add a traced run and print per-layer metrics")
    p.add_argument("--trace-dir", type=Path, default=OUT_DIR / "trace",
                   help="where --trace 1 writes spans.jsonl and trace.json")
    p.add_argument("--out", type=Path, help="write a repro-bench/1 snapshot")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own test")
    return p.parse_args(argv)


def _run_workload(name: str, args):
    # These import numpy and repro, so only after _import_program().
    import serving
    import training

    params = spec.workload_params(name, args.smoke)
    if params["kind"] == "train":
        return params, training.run(params, args.seed, args.seconds, bool(args.trace))
    return params, serving.run(
        params, args.seed, args.seconds, bool(args.trace), OUT_DIR / "work"
    )


def _layers(outcome, declared: dict) -> dict[str, float]:
    """Every declared per-layer metric: measured, or 0 where the layer
    is not exercised. Simulated values must all be declared."""
    unknown = sorted(set(outcome.layers) - set(declared))
    if unknown:
        raise KeyError(f"undeclared per-layer metrics {unknown}")
    values = dict.fromkeys(declared, 0.0)
    values.update(outcome.layers)
    values.update(
        (k, v) for k, v in outcome.wall_layers.items() if k in declared
    )
    return values


def _snapshot_entry(params, args, outcome, layer_values, benchmark) -> dict:
    from repro.obs.registry import Measurement, params_digest

    e2e = {m["name"]: m for m in benchmark["end_to_end"]}
    metrics = {
        key: Measurement(
            value=value, unit=e2e[key]["unit"], kind=spec.E2E_KIND[key],
            direction=e2e[key]["better"], iqr=outcome.iqr.get(key, 0.0),
        )
        for key, value in outcome.e2e.items()
    }
    for key, value in outcome.extra.items():
        unit, kind, direction = spec.EXTRA[params["kind"]][key]
        metrics[key] = Measurement(
            value, unit, kind, direction, iqr=outcome.iqr.get(key, 0.0)
        )
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    full = {**params, "seed": args.seed, "smoke": args.smoke}
    return {
        "group": params["kind"],
        "description": params["why"],
        "digest": params_digest(full),
        "params": full,
        "metrics": {k: m.as_dict() for k, m in sorted(metrics.items())},
        "layers": {
            k: {"value": v, "unit": units[k]} for k, v in sorted(layer_values.items())
        },
    }


def main(argv=None) -> int:
    args = _args(argv)
    _import_program()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]

    correct, attempted, failed = True, 0, 0
    printed: dict[str, dict] = {}
    scenarios: dict[str, dict] = {}
    for name in names:
        print(f"== {name} (seed {args.seed})", flush=True)
        try:
            params, outcome = _run_workload(name, args)
        except Exception:
            traceback.print_exc()
            print(f"  FAILED: {name} raised", flush=True)
            correct = False
            failed += 1
            attempted += 1
            continue
        attempted += outcome.attempted
        failed += outcome.failed
        correct = correct and outcome.failed == 0
        for problem in outcome.problems:
            print(f"  CHECK FAILED: {problem}")
        if set(outcome.e2e) != set(e2e_units):
            raise KeyError(f"{name}: end-to-end metrics {sorted(outcome.e2e)}")
        layer_values = _layers(outcome, layer_units)
        for key, value in outcome.e2e.items():
            print(f"  {key:<24s} {value:>16.6g} {e2e_units[key]:<10s} "
                  f"[{spec.E2E_KIND[key]}]")
        print(f"  attempted {outcome.attempted} units, failed {outcome.failed}")
        if args.trace:
            trace_dir = args.trace_dir / f"{name}-seed{args.seed}"
            files = outcome.tracer.export(name, trace_dir)
            print(f"  traced run: {outcome.traced_wall:.3f} s wall; spans in "
                  + ", ".join(str(f) for f in files))
            print(format_self_time(outcome.tracer.totals(), outcome.traced_wall))
            for key, value in layer_values.items():
                print(f"  {key:<40s} {value:>14.6g} {layer_units[key]}")
            shown, units = layer_values, layer_units
        else:
            shown, units = outcome.e2e, e2e_units
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in shown.items():
            printed[prefix + key] = {"value": value, "unit": units[key]}
        # Untraced runs know only the simulated layers they exercised.
        scenarios[name] = _snapshot_entry(
            params, args, outcome,
            layer_values if args.trace else outcome.layers, benchmark,
        )

    if args.out is not None:
        from repro.obs.snapshot import (
            SNAPSHOT_SCHEMA,
            git_sha,
            machine_fingerprint,
            write_snapshot,
        )

        write_snapshot({
            "schema": SNAPSHOT_SCHEMA,
            "git_sha": git_sha(),
            "tier": "bench",
            "machine": machine_fingerprint(),
            "scenarios": scenarios,
        }, args.out)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": printed,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
