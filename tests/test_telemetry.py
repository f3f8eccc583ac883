"""Tests for the telemetry subsystem: registry, spans, exporters,
callback hooks, and the trainer integration."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import (
    BestPhiCheckpointer,
    CallbackList,
    JSONLEmitter,
    MetricsRegistry,
    ProgressLogger,
    TrainerCallback,
    emit_counter,
    event_to_json,
    metrics_markdown,
    parse_prometheus_text,
    read_jsonl,
    span,
    telemetry_session,
    to_prometheus,
)
from repro.telemetry.spans import SPAN_KIND


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counter_label_semantics(self):
        reg = MetricsRegistry()
        c = reg.counter("bytes_total", "moved", ("direction", "device"))
        c.inc(10, direction="h2d", device="0")
        c.inc(5, direction="h2d", device="0")
        c.inc(7, direction="d2h", device="1")
        assert c.value(direction="h2d", device="0") == 15
        assert c.value(direction="d2h", device="1") == 7
        # Unseen label combination reads as zero, not an error.
        assert c.value(direction="p2p", device="0") == 0.0

    def test_counter_rejects_wrong_labelset(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError, match="expects labels"):
            c.inc(1, b="oops")
        with pytest.raises(ValueError, match="expects labels"):
            c.inc(1)  # missing the declared label

    def test_counters_only_go_up(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x_total").inc(-1)

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labelnames=("k",))
        b = reg.counter("x_total", labelnames=("k",))
        assert a is b
        assert len(reg) == 1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x_total")

    def test_labelnames_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError, match="registered with labels"):
            reg.counter("x_total", labelnames=("b",))

    def test_gauge_set_max_is_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("hw", labelnames=("device",))
        g.set_max(10, device="0")
        g.set_max(3, device="0")
        g.set_max(12, device="0")
        assert g.value(device="0") == 12

    def test_top_counters_sorts_descending(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(1)
        reg.counter("b_total").inc(100)
        reg.gauge("not_a_counter").set(1e9)
        top = reg.top_counters(5)
        assert [s.name for s in top] == ["b_total", "a_total"]


class TestHistogram:
    def test_quantiles_are_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.count() == 100
        assert h.sum() == pytest.approx(5050.0)
        assert h.quantile(0.5) == pytest.approx(50.5)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0

    def test_quantile_without_observations_is_nan(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds")
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert math.isnan(h.quantile(q))

    def test_quantile_single_observation(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds")
        h.observe(0.042)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 0.042

    def test_quantile_out_of_range_raises(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds")
        h.observe(1.0)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(-0.1)

    @given(
        values=st.lists(
            st.floats(min_value=1e-9, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=200,
        )
    )
    def test_quantiles_match_numpy_percentile(self, values):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds")
        for v in values:
            h.observe(v)
        for q in (0.5, 0.95, 0.99):
            assert h.quantile(q) == pytest.approx(
                float(np.percentile(values, 100.0 * q)), rel=1e-9
            )

    def test_bucket_counts_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("d", buckets=(1.0, 10.0))
        for v in (0.5, 0.6, 5.0, 50.0):
            h.observe(v)
        counts = dict(h.bucket_counts())
        assert counts[1.0] == 2
        assert counts[10.0] == 3
        assert counts[float("inf")] == 4


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

class TestPrometheus:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("tokens_total", "tokens sampled").inc(123)
        c = reg.counter("bytes_total", labelnames=("direction",))
        c.inc(10, direction="h2d")
        c.inc(20, direction="d2h")
        reg.gauge("busy", labelnames=("device",)).set(0.75, device="0")
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        return reg

    def test_round_trip(self):
        reg = self._populated()
        text = to_prometheus(reg)
        parsed = parse_prometheus_text(text)
        assert parsed[("tokens_total", ())] == 123
        assert parsed[("bytes_total", (("direction", "h2d"),))] == 10
        assert parsed[("bytes_total", (("direction", "d2h"),))] == 20
        assert parsed[("busy", (("device", "0"),))] == 0.75
        assert parsed[("lat_seconds_count", ())] == 2
        assert parsed[("lat_seconds_sum", ())] == pytest.approx(0.55)
        # Cumulative buckets, +Inf included.
        assert parsed[("lat_seconds_bucket", (("le", "0.1"),))] == 1
        assert parsed[("lat_seconds_bucket", (("le", "+Inf"),))] == 2

    def test_type_and_help_lines(self):
        text = to_prometheus(self._populated())
        assert "# TYPE tokens_total counter" in text
        assert "# HELP tokens_total tokens sampled" in text
        assert "# TYPE lat_seconds histogram" in text

    def test_markdown_snapshot(self):
        md = metrics_markdown(self._populated())
        assert "| tokens_total | counter |" in md
        assert "direction=h2d" in md
        assert "| lat_seconds | histogram |" in md


class TestEventJson:
    def test_drops_unserializable_values(self):
        ev = {
            "iteration": np.int64(3),
            "tokens_per_sec": np.float64(1.5e8),
            "phi": lambda: None,
            "result": object(),
            "busy": {0: 0.5},
        }
        d = json.loads(event_to_json("iteration_end", ev))
        assert d["event"] == "iteration_end"
        assert d["iteration"] == 3
        assert d["tokens_per_sec"] == 1.5e8
        assert "phi" not in d and "result" not in d
        assert d["busy"] == {"0": 0.5}

    def test_jsonl_emitter_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        em = JSONLEmitter(path)
        em.on_train_start({"corpus": "tiny"})
        em.on_iteration_end({"iteration": 0})
        em.on_train_end({"iterations": 1})
        events = read_jsonl(path)
        assert [e["event"] for e in events] == [
            "train_start", "iteration_end", "train_end",
        ]
        assert events[0]["corpus"] == "tiny"


# ----------------------------------------------------------------------
# Sessions and spans
# ----------------------------------------------------------------------

class TestSpans:
    def test_emit_is_noop_without_session(self):
        emit_counter("orphan_total", 1)  # must not raise

    def test_span_records_interval_and_histogram(self):
        with telemetry_session() as s:
            with span("phase", device=2):
                pass
        assert len(s.trace.intervals) == 1
        iv = s.trace.intervals[0]
        assert iv.kind == SPAN_KIND
        assert iv.label == "phase"
        assert iv.stream == "host:dev2"
        assert iv.end >= iv.start >= 0
        h = s.registry.get("span_seconds")
        assert h is not None and h.count(name="phase") == 1

    def test_span_duration_without_session(self):
        with span("bare") as sp:
            x = sum(range(100))
        assert x == 4950
        assert sp.duration >= 0

    def test_sessions_nest(self):
        with telemetry_session() as outer:
            emit_counter("n_total", 1)
            with telemetry_session() as inner:
                emit_counter("n_total", 10)
            emit_counter("n_total", 1)
        assert outer.registry.counter("n_total").value() == 2
        assert inner.registry.counter("n_total").value() == 10

    def test_merged_chrome_json_hosts_under_pid_minus_one(self):
        from repro.gpusim.trace import TraceRecorder, to_chrome_json

        sim = TraceRecorder()
        sim.add(0, "0.compute", "sampling", "k", 0.0, 1.0)
        with telemetry_session() as s:
            with span("prep"):
                pass
        doc = json.loads(to_chrome_json(sim, extra=s.trace))
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in slices} == {0, -1}
        assert doc["traceEvents"][0]["ph"] == "X"


# ----------------------------------------------------------------------
# Callbacks
# ----------------------------------------------------------------------

class _Recorder(TrainerCallback):
    def __init__(self):
        self.calls: list[tuple[str, dict]] = []

    def on_train_start(self, event):
        self.calls.append(("train_start", event))

    def on_sync_end(self, event):
        self.calls.append(("sync_end", event))

    def on_iteration_end(self, event):
        self.calls.append(("iteration_end", event))

    def on_train_end(self, event):
        self.calls.append(("train_end", event))


class TestCallbackList:
    def test_fire_order_and_unknown_hooks(self):
        seen = []

        class A(TrainerCallback):
            def on_iteration_end(self, event):
                seen.append("a")

        class B:  # not even a TrainerCallback — duck-typed
            def on_iteration_end(self, event):
                seen.append("b")

        cbs = CallbackList([A(), B()])
        cbs.fire("on_iteration_end", {})
        cbs.fire("on_never_heard_of", {})  # silently ignored
        assert seen == ["a", "b"]

    def test_merged_does_not_mutate(self):
        base = CallbackList([TrainerCallback()])
        merged = base.merged([TrainerCallback()])
        assert len(base) == 1 and len(merged) == 2

    def test_progress_logger_writes_lines(self):
        import io

        buf = io.StringIO()
        pl = ProgressLogger(every=2, file=buf)
        pl.on_train_start({"corpus": "c", "machine": "m"})
        pl.on_iteration_end({"iteration": 0, "tokens_per_sec": 1e6})
        pl.on_iteration_end({
            "iteration": 1, "tokens_per_sec": 2e6,
            "device_busy_fraction": {0: 0.5},
        })
        pl.on_train_end({"avg_tokens_per_sec": 1.5e6, "wall_seconds": 1.0})
        out = buf.getvalue()
        assert "[train] c on m" in out
        assert "[iter    0]" not in out  # every=2 skips iteration 0
        assert "[iter    1]" in out and "busy[g0=50%]" in out
        assert "[done]" in out


# ----------------------------------------------------------------------
# Trainer integration (the acceptance criterion)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def culda_run():
    """One instrumented 3-iteration CuLDA run shared by the tests."""
    from repro.core import CuLDA, TrainConfig
    from repro.corpus.synthetic import nytimes_like
    from repro.gpusim.platform import pascal_platform

    corpus = nytimes_like(num_tokens=12_000, num_topics=8, seed=0)
    recorder = _Recorder()
    registry = MetricsRegistry()
    trainer = CuLDA(
        corpus,
        machine=pascal_platform(2),
        config=TrainConfig(
            num_topics=8, iterations=3, seed=0, likelihood_every=1,
            # Forced: the hooks below assert p2p traffic, which 'auto'
            # may legitimately avoid at this tiny payload.
            sync_algorithm="gpu_tree",
        ),
        callbacks=[recorder],
        registry=registry,
    )
    result = trainer.train()
    return trainer, result, recorder, registry


class TestCuLDAHooks:
    def test_firing_order(self, culda_run):
        _, _, rec, _ = culda_run
        names = [n for n, _ in rec.calls]
        assert names[0] == "train_start"
        assert names[-1] == "train_end"
        assert names[1:-1] == ["sync_end", "iteration_end"] * 3

    def test_every_iteration_observed_with_required_keys(self, culda_run):
        _, _, rec, _ = culda_run
        iters = [e for n, e in rec.calls if n == "iteration_end"]
        assert [e["iteration"] for e in iters] == [0, 1, 2]
        for e in iters:
            assert e["tokens_per_sec"] > 0
            busy = e["device_busy_fraction"]
            assert set(busy) == {0, 1}
            assert all(0.0 <= f <= 1.0 for f in busy.values())
            assert e["p1_draws"] + e["p2_draws"] > 0
            assert e["tree_probe_levels"] > 0
            assert e["log_likelihood_per_token"] is not None

    def test_sync_end_precedes_iteration_end(self, culda_run):
        _, _, rec, _ = culda_run
        syncs = [e for n, e in rec.calls if n == "sync_end"]
        assert len(syncs) == 3
        for e in syncs:
            assert e["sync_seconds"] >= 0
            assert e["p2p_bytes"] > 0  # gpu_tree on 2 GPUs moves bytes

    def test_train_end_payload(self, culda_run):
        _, result, rec, _ = culda_run
        end = rec.calls[-1][1]
        assert end["result"] is result
        assert end["iterations"] == 3
        assert end["avg_tokens_per_sec"] == pytest.approx(
            result.avg_tokens_per_sec
        )

    def test_kernel_counters_populate_registry(self, culda_run):
        _, result, _, reg = culda_run
        tokens = reg.counter("sampler_tokens_total").value()
        assert tokens == result.num_tokens * 3
        p1 = reg.counter("sampler_p1_draws_total").value()
        p2 = reg.counter("sampler_p2_draws_total").value()
        assert p1 + p2 == tokens
        assert reg.counter("sampler_tree_probe_levels_total").value() > 0
        xfer = reg.get("transfer_bytes_total")
        assert xfer is not None
        assert xfer.value(direction="h2d", device="0") > 0
        assert "sync_bytes_total" in reg
        assert "phi_count_high_water" in reg
        assert "span_seconds" in reg

    def test_phi_snapshot_callable_in_hook(self):
        from repro.core import CuLDA, TrainConfig
        from repro.corpus.synthetic import nytimes_like
        from repro.gpusim.platform import pascal_platform

        shapes = []

        class Grab(TrainerCallback):
            def on_iteration_end(self, event):
                shapes.append(event["phi"]().shape)

        corpus = nytimes_like(num_tokens=6_000, num_topics=4, seed=1)
        CuLDA(
            corpus,
            machine=pascal_platform(1),
            config=TrainConfig(num_topics=4, iterations=2, seed=1),
            callbacks=[Grab()],
        ).train()
        assert shapes == [(4, corpus.num_words)] * 2

    def test_callbacks_do_not_change_the_model(self):
        from repro.core import CuLDA, TrainConfig
        from repro.corpus.synthetic import nytimes_like
        from repro.gpusim.platform import pascal_platform

        corpus = nytimes_like(num_tokens=6_000, num_topics=4, seed=2)
        cfg = TrainConfig(num_topics=4, iterations=2, seed=2)
        plain = CuLDA(corpus, machine=pascal_platform(1), config=cfg).train()
        hooked = CuLDA(
            corpus, machine=pascal_platform(1), config=cfg,
            callbacks=[_Recorder()], registry=MetricsRegistry(),
        ).train()
        np.testing.assert_array_equal(plain.phi, hooked.phi)

    def test_best_phi_checkpointer(self, tmp_path):
        from repro.core import CuLDA, TrainConfig
        from repro.corpus.synthetic import nytimes_like
        from repro.gpusim.platform import pascal_platform

        path = str(tmp_path / "best.npz")
        cp = BestPhiCheckpointer(path)
        corpus = nytimes_like(num_tokens=6_000, num_topics=4, seed=3)
        CuLDA(
            corpus,
            machine=pascal_platform(1),
            config=TrainConfig(
                num_topics=4, iterations=3, seed=3, likelihood_every=1
            ),
            callbacks=[cp],
        ).train()
        assert cp.saved
        ckpt = np.load(path)
        assert ckpt["phi"].shape == (4, corpus.num_words)
        assert math.isfinite(float(ckpt["log_likelihood_per_token"]))


class TestBaselineHooks:
    def test_warplda_hooks_and_span_timing(self, small_corpus):
        from repro.baselines.warplda import WarpLDA
        from repro.core.model import LDAHyperParams

        rec = _Recorder()
        reg = MetricsRegistry()
        trainer = WarpLDA(
            small_corpus, LDAHyperParams(num_topics=4),
            callbacks=[rec], registry=reg,
        )
        result = trainer.train(iterations=2)
        names = [n for n, _ in rec.calls]
        assert names == [
            "train_start", "iteration_end", "iteration_end", "train_end",
        ]
        assert result.wall_seconds > 0
        assert reg.get("span_seconds").count(name="train:warplda") == 1

    def test_scvb0_hooks(self, small_corpus):
        from repro.baselines.scvb0 import SCVB0
        from repro.core.model import LDAHyperParams

        rec = _Recorder()
        SCVB0(
            small_corpus, LDAHyperParams(num_topics=4), callbacks=[rec]
        ).train(iterations=2)
        iters = [e for n, e in rec.calls if n == "iteration_end"]
        assert [e["iteration"] for e in iters] == [0, 1]

    def test_ldastar_hooks(self, small_corpus):
        from repro.baselines.ldastar import LDAStar
        from repro.core.model import LDAHyperParams

        rec = _Recorder()
        result = LDAStar(
            small_corpus, LDAHyperParams(num_topics=4), num_workers=2,
            callbacks=[rec],
        ).train(iterations=2)
        iters = [e for n, e in rec.calls if n == "iteration_end"]
        assert len(iters) == 2
        assert all(e["sim_seconds"] > 0 for e in iters)
        assert result.total_sim_seconds == pytest.approx(
            sum(e["sim_seconds"] for e in iters)
        )

    def test_saberlda_forwards_callbacks(self, small_corpus):
        from repro.baselines.saberlda import SaberLDA
        from repro.core.culda import TrainConfig

        rec = _Recorder()
        sab = SaberLDA(
            small_corpus,
            config=TrainConfig(num_topics=4, iterations=2, seed=0),
            callbacks=[rec],
        )
        sab.train()
        assert [n for n, _ in rec.calls].count("iteration_end") == 2
        assert sab.registry is not None
        assert "sampler_tokens_total" in sab.registry


# ----------------------------------------------------------------------
# Report integration
# ----------------------------------------------------------------------

class TestReportMetrics:
    def test_render_markdown_includes_metrics_section(self, culda_run):
        from repro.report import render_markdown

        _, result, _, registry = culda_run
        md = render_markdown(result, registry=registry)
        assert "## Metrics" in md
        assert "sampler_tokens_total" in md
        # Without a registry the section is absent (back-compat).
        assert "## Metrics" not in render_markdown(result)
