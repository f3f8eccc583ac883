"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_requires_corpus_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_mutually_exclusive_sources(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--uci", "x", "--synthetic", "nytimes"]
            )


class TestTrain:
    def test_train_synthetic(self, capsys):
        rc = main([
            "train", "--synthetic", "nytimes", "--tokens", "8000",
            "--topics", "8", "--iterations", "3", "--platform", "pascal",
            "--gpus", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CuLDA_CGS on Pascal Platform" in out
        assert "tokens/sec" in out

    def test_train_save_and_top_words(self, capsys, tmp_path):
        model = tmp_path / "m.npz"
        rc = main([
            "train", "--synthetic", "pubmed", "--tokens", "6000",
            "--topics", "6", "--iterations", "2", "--save", str(model),
            "--top-words", "3",
        ])
        assert rc == 0
        assert model.exists()
        out = capsys.readouterr().out
        assert "topic   0:" in out
        assert "model saved" in out

    def test_train_uci_file(self, capsys, tmp_path, small_corpus):
        from repro.corpus.uci import write_uci_bow

        p = tmp_path / "docword.small.txt"
        write_uci_bow(small_corpus, p)
        rc = main([
            "train", "--uci", str(p), "--topics", "4", "--iterations", "2",
        ])
        assert rc == 0
        assert "docword" in capsys.readouterr().out


class TestInfer:
    def test_round_trip(self, capsys, tmp_path):
        model = tmp_path / "m.npz"
        main([
            "train", "--synthetic", "nytimes", "--tokens", "8000",
            "--topics", "8", "--iterations", "4", "--save", str(model),
        ])
        capsys.readouterr()
        rc = main([
            "infer", "--model", str(model), "--synthetic", "nytimes",
            "--tokens", "2000", "--iterations", "4", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "held-out log-likelihood/token" in out
        assert "dominant-topic histogram" in out

    def test_vocab_overflow_is_an_error(self, capsys, tmp_path):
        model = tmp_path / "m.npz"
        main([
            "train", "--synthetic", "pubmed", "--tokens", "4000",
            "--topics", "6", "--iterations", "2", "--save", str(model),
        ])
        capsys.readouterr()
        # A much larger twin has a larger vocabulary than the model.
        rc = main([
            "infer", "--model", str(model), "--synthetic", "nytimes",
            "--tokens", "200000",
        ])
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err


class TestProject:
    @pytest.mark.parametrize("artifact,needle", [
        ("table1", "Compute S"),
        ("fig9", "GPU(s):"),
    ])
    def test_artifacts_print(self, capsys, artifact, needle):
        rc = main(["project", artifact])
        assert rc == 0
        assert needle in capsys.readouterr().out

    def test_table4_slow_artifacts(self, capsys):
        rc = main(["project", "table4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "NYTimes" in out and "PubMed" in out

    def test_fig7_dataset_option(self, capsys):
        rc = main(["project", "fig7", "--dataset", "PubMed"])
        assert rc == 0
        assert "Volta" in capsys.readouterr().out


class TestReport:
    def test_train_writes_report(self, capsys, tmp_path):
        report = tmp_path / "run.md"
        rc = main([
            "train", "--synthetic", "nytimes", "--tokens", "6000",
            "--topics", "6", "--iterations", "3",
            "--likelihood-every", "1", "--report", str(report),
        ])
        assert rc == 0
        text = report.read_text()
        assert "# CuLDA_CGS run report" in text
        assert "Kernel time breakdown" in text
        assert "Iteration trace" in text
        assert "topic" in text

    def test_report_includes_metrics_section(self, capsys, tmp_path):
        report = tmp_path / "run.md"
        rc = main([
            "train", "--synthetic", "nytimes", "--tokens", "6000",
            "--topics", "6", "--iterations", "2", "--report", str(report),
        ])
        assert rc == 0
        text = report.read_text()
        assert "## Metrics" in text
        assert "sampler_tokens_total" in text


class TestProfile:
    def test_profile_defaults_to_synthetic(self, capsys):
        rc = main([
            "profile", "--tokens", "6000", "--topics", "6",
            "--iterations", "2", "--platform", "pascal", "--gpus", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "time breakdown (simulated clock):" in out
        assert "sampling" in out
        assert "device busy fractions:" in out
        assert "gpu0" in out and "gpu1" in out
        assert "top counters" in out
        assert "sampler_tokens_total" in out
        assert "timeline" in out

    def test_profile_volta_4gpu_emits_all_artifacts(self, capsys, tmp_path):
        """The acceptance command: one run produces a valid Chrome
        trace, a Prometheus snapshot, and a JSONL event stream."""
        import json

        from repro.telemetry import parse_prometheus_text, read_jsonl

        trace = tmp_path / "out.json"
        prom = tmp_path / "out.prom"
        events = tmp_path / "out.jsonl"
        rc = main([
            "profile", "--platform", "volta", "--gpus", "4",
            "--iterations", "5", "--tokens", "12000", "--topics", "8",
            "--trace", str(trace), "--metrics", str(prom),
            "--events", str(events),
        ])
        assert rc == 0
        capsys.readouterr()

        doc = json.loads(trace.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert doc["traceEvents"][0]["ph"] == "X"
        # All four simulated devices plus the host-span process.
        assert {e["pid"] for e in slices} == {-1, 0, 1, 2, 3}
        assert all(isinstance(e["tid"], int) for e in slices)

        parsed = parse_prometheus_text(prom.read_text())
        names = {name for name, _ in parsed}
        assert "sampler_p1_draws_total" in names
        assert "transfer_bytes_total" in names
        assert "device_busy_fraction" in names

        evs = read_jsonl(str(events))
        kinds = [e["event"] for e in evs]
        assert kinds[0] == "train_start" and kinds[-1] == "train_end"
        assert kinds.count("iteration_end") == 5

    def test_profile_breakdown_matches_trace(self, capsys, tmp_path):
        """The stdout breakdown table must agree with what an external
        consumer recomputes from the exported Chrome trace."""
        import json
        import re

        from repro.core.culda import BREAKDOWN_KINDS
        from repro.gpusim.trace import TraceRecorder

        trace = tmp_path / "out.json"
        rc = main([
            "profile", "--platform", "pascal", "--gpus", "2",
            "--iterations", "3", "--tokens", "8000", "--topics", "8",
            "--trace", str(trace),
        ])
        assert rc == 0
        out = capsys.readouterr().out

        section = out.split("time breakdown (simulated clock):")[1]
        section = section.split("device busy fractions:")[0]
        printed: dict[str, float] = {}
        for m in re.finditer(r"^  (\w+)\s+(\d+\.\d)%$", section, re.M):
            printed[m.group(1)] = float(m.group(2)) / 100.0
        assert "sampling" in printed

        rebuilt = TraceRecorder()
        for e in json.loads(trace.read_text())["traceEvents"]:
            if e["ph"] != "X" or e["pid"] < 0:
                continue  # skip host spans and metadata
            rebuilt.add(
                e["pid"], str(e["tid"]), e["cat"], e["name"],
                e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6,
            )
        frac = rebuilt.breakdown_fractions(BREAKDOWN_KINDS)
        for kind, share in printed.items():
            assert frac[kind] == pytest.approx(share, abs=6e-4), kind

    @staticmethod
    def _section(out: str, heading: str) -> list[str]:
        """The rows under the line that starts with *heading*, up to the
        blank line."""
        rows = out.split("\n" + heading, 1)[1].split("\n", 1)[1]
        return rows.split("\n\n", 1)[0].splitlines()

    @pytest.mark.parametrize("layout", [
        ["--gpus", "2"],
        ["--nodes", "2", "--gpus-per-node", "2"],
    ])
    def test_text_renders_the_json_document(self, capsys, layout):
        """Both formats of one run: every share, busy fraction and
        counter row the text prints is the JSON value at the printed
        precision."""
        import json
        import re

        args = [
            "profile", "--synthetic", "pubmed", "--tokens", "8000",
            "--topics", "8", "--iterations", "3", "--platform", "pascal",
            *layout,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert main([*args, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)

        assert out.startswith(
            f"profile: {doc['corpus']} on {doc['machine']}, K=8, "
            "3 iteration(s)\n"
        )
        shares = dict(
            re.fullmatch(r"  (\w+)\s+(\d+\.\d)%", row).groups()
            for row in self._section(out, "time breakdown (simulated clock):")
        )
        assert shares == {
            kind: f"{share * 100:.1f}"
            for kind, share in doc["breakdown"].items() if share > 0
        }
        busy = dict(
            re.fullmatch(r"  (gpu[\d.]+)  (\d+\.\d%)", row).groups()
            for row in self._section(out, "device busy fractions:")
        )
        assert busy == {
            dev: f"{frac:.1%}" for dev, frac in doc["device_busy"].items()
        }
        counters = [
            tuple(row.split()) for row in self._section(out, "top counters (of ")
        ]
        expected = []
        for c in doc["counters"]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(c["labels"].items()))
            name = f"{c['name']}{{{labels}}}" if labels else c["name"]
            expected.append((name, f"{c['value']:,.0f}"))
        assert counters == expected

    def test_multinode_reports_every_node(self, capsys, monkeypatch):
        """A 2x2 profile names the cluster, has one busy fraction per
        node GPU, and its breakdown is the run's own all-node one."""
        import json

        from repro.core import CuLDA

        results = []
        train = CuLDA.train

        def keep(self, *a, **kw):
            results.append(train(self, *a, **kw))
            return results[-1]

        monkeypatch.setattr(CuLDA, "train", keep)
        assert main([
            "profile", "--synthetic", "pubmed", "--tokens", "8000",
            "--topics", "8", "--iterations", "3", "--platform", "pascal",
            "--nodes", "2", "--gpus-per-node", "2", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        (result,) = results
        assert doc["machine"].startswith("2x")
        assert doc["machine"] == result.machine_name
        assert list(doc["device_busy"]) == [
            "gpu0.0", "gpu0.1", "gpu1.0", "gpu1.1"
        ]
        assert doc["breakdown"] == result.breakdown


class TestTrainAlgoSelection:
    def test_train_warplda(self, capsys):
        rc = main([
            "train", "--algo", "warplda", "--synthetic", "nytimes",
            "--tokens", "5000", "--topics", "8", "--iterations", "2",
        ])
        assert rc == 0
        assert "WarpLDA on " in capsys.readouterr().out

    def test_train_scvb0(self, capsys):
        rc = main([
            "train", "--algo", "scvb0", "--synthetic", "nytimes",
            "--tokens", "5000", "--topics", "8", "--iterations", "2",
        ])
        assert rc == 0
        assert "SCVB0" in capsys.readouterr().out

    def test_train_ldastar_workers(self, capsys):
        rc = main([
            "train", "--algo", "ldastar", "--workers", "3",
            "--synthetic", "nytimes", "--tokens", "5000",
            "--topics", "8", "--iterations", "2",
        ])
        assert rc == 0
        assert "LDA*" in capsys.readouterr().out

    def test_saberlda_rejects_multi_gpu(self, capsys):
        rc = main([
            "train", "--algo", "saberlda", "--gpus", "2",
            "--synthetic", "nytimes", "--tokens", "5000",
            "--topics", "8", "--iterations", "2",
        ])
        assert rc == 2
        assert "single GPU" in capsys.readouterr().err

    def test_save_every_requires_save(self, capsys):
        rc = main([
            "train", "--synthetic", "nytimes", "--tokens", "5000",
            "--topics", "8", "--iterations", "2", "--save-every", "2",
        ])
        assert rc == 2
        assert "--save" in capsys.readouterr().err


class TestCheckpointResumeCli:
    CORPUS = [
        "--synthetic", "nytimes", "--tokens", "6000",
        "--topics", "8", "--seed", "1",
    ]

    def test_resume_matches_uninterrupted(self, capsys, tmp_path):
        from repro.core.serialization import load_model

        ckpt = tmp_path / "ckpt.npz"
        rc = main([
            "train", *self.CORPUS, "--iterations", "2",
            "--save", str(ckpt), "--save-every", "2",
        ])
        assert rc == 0
        assert "run-state checkpoint saved" in capsys.readouterr().out

        resumed = tmp_path / "resumed.npz"
        rc = main([
            "train", *self.CORPUS, "--iterations", "4",
            "--resume", str(ckpt), "--save", str(resumed),
        ])
        assert rc == 0
        capsys.readouterr()

        fresh = tmp_path / "fresh.npz"
        rc = main([
            "train", *self.CORPUS, "--iterations", "4",
            "--save", str(fresh),
        ])
        assert rc == 0
        capsys.readouterr()

        a, b = load_model(resumed), load_model(fresh)
        assert np.array_equal(a.phi, b.phi)
        assert a.theta == b.theta

    def test_resume_checkpoint_feeds_infer(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt.npz"
        rc = main([
            "train", *self.CORPUS, "--iterations", "2",
            "--save", str(ckpt), "--save-every", "1",
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "infer", "--model", str(ckpt), "--synthetic", "nytimes",
            "--tokens", "2000", "--iterations", "2",
        ])
        assert rc == 0
        assert capsys.readouterr().out


class TestServeCli:
    def test_loadgen_smoke(self, capsys, serve_checkpoints):
        rc = main(["loadgen", "--model", serve_checkpoints[0], "--smoke"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "requests:" in out
        assert "latency (simulated):" in out
        assert "serve_requests_total{status=completed}" in out
        assert "payloads equal their direct fold-in" in out

    def test_loadgen_smoke_fails_on_a_changed_payload(
        self, capsys, monkeypatch, serve_checkpoints
    ):
        """The smoke run checks every payload against a direct fold-in,
        so a batch that moves one bit fails it."""
        import repro.serve.replica as replica

        fold_in = replica.infer_documents

        def nudged(*args, **kwargs):
            results = fold_in(*args, **kwargs)
            results[0].doc_topic[0, 0] *= 1 + 1e-12
            return results

        monkeypatch.setattr(replica, "infer_documents", nudged)
        rc = main(["loadgen", "--model", serve_checkpoints[0], "--smoke"])
        assert rc == 1
        assert "differs from a direct infer_documents call" in (
            capsys.readouterr().err
        )

    def test_loadgen_multi_model_with_metrics(self, capsys, tmp_path,
                                              serve_checkpoints):
        prom = tmp_path / "serve.prom"
        rc = main([
            "loadgen", "--model", serve_checkpoints[0],
            "--model", serve_checkpoints[1],
            "--rate", "2000", "--duration", "0.01", "--gpus", "2",
            "--cache-capacity", "1", "--metrics", str(prom),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "model cache:" in out
        text = prom.read_text()
        assert "serve_latency_seconds" in text
        assert "serve_cache_evictions_total" in text

    def test_loadgen_trace_roundtrips_through_serve(self, capsys, tmp_path,
                                                    serve_checkpoints):
        trace = tmp_path / "trace.jsonl"
        rc = main([
            "loadgen", "--model", serve_checkpoints[0],
            "--rate", "1500", "--duration", "0.01",
            "--save-trace", str(trace),
        ])
        assert rc == 0
        gen = capsys.readouterr().out
        rc = main([
            "serve", "--model", serve_checkpoints[0],
            "--trace", str(trace),
        ])
        replay = capsys.readouterr().out
        assert rc == 0
        # Same machine + same trace => the identical summary line.
        line = next(ln for ln in gen.splitlines() if ln.startswith("requests:"))
        assert line in replay

    def test_loadgen_with_fault_plan(self, capsys, tmp_path,
                                     serve_checkpoints):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"faults": [{"kind": "kernel_fault", "iteration": 0, '
            '"device": 0, "op": "serve"}]}'
        )
        rc = main([
            "loadgen", "--model", serve_checkpoints[0],
            "--rate", "1500", "--duration", "0.01", "--gpus", "2",
            "--faults", str(plan),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault events" in out
        assert "failovers:" in out

    def test_loadgen_chaos_smoke(self, capsys, serve_checkpoints):
        rc = main([
            "loadgen", "--model", serve_checkpoints[0],
            "--chaos", "--smoke", "--gpus", "4", "--platform", "pascal",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chaos invariants hold" in out
        assert "fault events" in out
        assert "replica health:" in out

    def test_loadgen_chaos_with_spare_and_hedging(self, capsys,
                                                  serve_checkpoints):
        rc = main([
            "loadgen", "--model", serve_checkpoints[0],
            "--chaos", "--smoke", "--gpus", "4", "--platform", "pascal",
            "--warm-spares", "1", "--hedge-quantile", "0.9",
            "--low-priority-fraction", "0.2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chaos invariants hold" in out

    def test_loadgen_chaos_needs_two_gpus(self, capsys, serve_checkpoints):
        rc = main([
            "loadgen", "--model", serve_checkpoints[0],
            "--chaos", "--gpus", "1",
        ])
        assert rc == 2
        assert "at least --gpus 2" in capsys.readouterr().err

    def test_loadgen_warm_spares_must_leave_a_replica(self, capsys,
                                                      serve_checkpoints):
        rc = main([
            "loadgen", "--model", serve_checkpoints[0],
            "--gpus", "2", "--warm-spares", "2",
        ])
        assert rc == 2
        assert "warm-spares" in capsys.readouterr().err

    def test_serve_missing_trace_is_an_error(self, capsys,
                                             serve_checkpoints):
        rc = main([
            "serve", "--model", serve_checkpoints[0],
            "--trace", "/nonexistent/trace.jsonl",
        ])
        assert rc == 2
        assert "invalid trace" in capsys.readouterr().err

    def test_loadgen_missing_model_is_an_error(self, capsys):
        rc = main(["loadgen", "--model", "/nonexistent/model.npz"])
        assert rc == 2
        assert "could not load model" in capsys.readouterr().err

    def test_loadgen_bad_fault_plan_is_an_error(self, capsys, tmp_path,
                                                serve_checkpoints):
        plan = tmp_path / "plan.json"
        plan.write_text("{not json")
        rc = main([
            "loadgen", "--model", serve_checkpoints[0],
            "--faults", str(plan),
        ])
        assert rc == 2
        assert "invalid fault plan" in capsys.readouterr().err


class TestRequestTracing:
    """The --request-trace / --serve-trace / --format json surface."""

    def test_loadgen_writes_request_trace(self, capsys, tmp_path,
                                          serve_checkpoints):
        spans = tmp_path / "spans.jsonl"
        chrome = tmp_path / "spans.json"
        rc = main([
            "loadgen", "--model", serve_checkpoints[0], "--smoke",
            "--request-trace", str(spans),
            "--request-trace-chrome", str(chrome),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "request trace spans written" in out
        from repro.telemetry.tracing import read_spans_jsonl

        parsed = read_spans_jsonl(spans)
        assert any(s.name == "kernel" for s in parsed)
        import json as _json

        doc = _json.loads(chrome.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_profile_serve_trace_view(self, capsys, tmp_path,
                                      serve_checkpoints):
        spans = tmp_path / "spans.jsonl"
        assert main([
            "loadgen", "--model", serve_checkpoints[0], "--smoke",
            "--request-trace", str(spans),
        ]) == 0
        capsys.readouterr()
        assert main(["profile", "--serve-trace", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "queue" in out and "kernel" in out

    def test_profile_serve_trace_unknown_id_is_an_error(
        self, capsys, tmp_path, serve_checkpoints
    ):
        spans = tmp_path / "spans.jsonl"
        assert main([
            "loadgen", "--model", serve_checkpoints[0], "--smoke",
            "--request-trace", str(spans),
        ]) == 0
        capsys.readouterr()
        assert main([
            "profile", "--serve-trace", str(spans),
            "--trace-id", "nope",
        ]) == 2
        assert "no trace" in capsys.readouterr().err

    def test_profile_trace_id_requires_serve_trace(self, capsys):
        assert main(["profile", "--trace-id", "x"]) == 2
        assert "--serve-trace" in capsys.readouterr().err

    def test_profile_format_json_schema(self, capsys):
        import json as _json

        rc = main([
            "profile", "--synthetic", "nytimes", "--tokens", "6000",
            "--topics", "8", "--iterations", "2", "--platform", "pascal",
            "--format", "json",
        ])
        assert rc == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-profile/1"
        assert doc["iterations"] == 2
        assert set(doc["breakdown"]) >= {"h2d", "d2h", "p2p"}
        assert doc["device_busy"]
        assert doc["counters"]
        [decision] = doc["sync_planner"]
        assert (decision["algorithm"], decision["lanes"]) == ("gpu_tree", 1)
