"""Tests for the timeline recorder (Table 5 breakdowns, overlap checks)."""

from __future__ import annotations

import pytest

from repro.gpusim.trace import (
    Interval,
    TraceRecorder,
    cluster_trace,
    union_length,
)


def _mk(rec, kind, start, end, dev=0, stream="0.s"):
    rec.add(device_id=dev, stream=stream, kind=kind, label=kind,
            start=start, end=end)


class TestRecorder:
    def test_totals_by_kind(self):
        r = TraceRecorder()
        _mk(r, "sampling", 0, 10)
        _mk(r, "sampling", 10, 15)
        _mk(r, "update_phi", 15, 16)
        totals = r.total_time_by_kind()
        assert totals["sampling"] == 15
        assert totals["update_phi"] == 1

    def test_breakdown_fractions(self):
        r = TraceRecorder()
        _mk(r, "a", 0, 9)
        _mk(r, "b", 9, 10)
        frac = r.breakdown_fractions()
        assert frac["a"] == pytest.approx(0.9)
        assert frac["b"] == pytest.approx(0.1)

    def test_breakdown_restricted_kinds(self):
        r = TraceRecorder()
        _mk(r, "a", 0, 5)
        _mk(r, "b", 5, 10)
        _mk(r, "c", 10, 30)
        frac = r.breakdown_fractions(("a", "b"))
        assert frac["a"] == pytest.approx(0.5)
        assert "c" not in frac

    def test_breakdown_empty(self):
        r = TraceRecorder()
        assert r.breakdown_fractions(("a",)) == {"a": 0.0}

    def test_rejects_inverted_interval(self):
        r = TraceRecorder()
        with pytest.raises(ValueError):
            _mk(r, "a", 5, 3)

    def test_makespan(self):
        r = TraceRecorder()
        assert r.makespan() == 0.0
        _mk(r, "a", 2, 7)
        _mk(r, "b", 1, 3)
        assert r.makespan() == 7


class TestBusyTime:
    def test_merges_overlapping_intervals(self):
        r = TraceRecorder()
        _mk(r, "a", 0, 10, dev=1)
        _mk(r, "b", 5, 15, dev=1)   # overlaps
        _mk(r, "c", 20, 25, dev=1)  # disjoint
        assert r.device_busy_time(1) == pytest.approx(20.0)

    def test_per_device_isolation(self):
        r = TraceRecorder()
        _mk(r, "a", 0, 10, dev=0)
        _mk(r, "a", 0, 4, dev=1)
        assert r.device_busy_time(0) == 10
        assert r.device_busy_time(1) == 4
        assert r.device_busy_time(7) == 0

    def test_one_union_for_busy_time_and_fractions(self):
        """Unordered, nested, touching, disjoint and zero-length spans:
        the recorder's busy time and the scheduler's windowed busy
        fractions both come out of :func:`union_length`, exactly."""
        from repro.sched.schedule import busy_fractions

        r = TraceRecorder()
        for dev, start, end in [
            (0, 4.0, 6.0), (0, 0.0, 4.0), (0, 1.0, 2.0), (0, 7.5, 9.0),
            (0, 8.0, 8.5), (0, 10.0, 10.0), (1, 2.5, 5.0), (1, 2.0, 3.0),
        ]:
            _mk(r, "sampling", start, end, dev=dev)
        assert union_length([]) == 0.0
        assert union_length([(3.0, 4.0), (0.0, 1.0), (0.5, 2.0)]) == 3.0
        assert [r.device_busy_time(d) for d in (0, 1, 2)] == [7.5, 3.0, 0.0]
        assert busy_fractions(r.intervals, [0, 1, 2], 1.0, 9.0) == {
            0: 0.8125, 1: 0.375, 2: 0.0,
        }
        assert busy_fractions(r.intervals, [0, 1, 2], 0.0, r.makespan()) == {
            0: 0.75, 1: 0.3, 2: 0.0,
        }
        assert busy_fractions(r.intervals, [0], 3.0, 3.0) == {0: 0.0}


class TestOverlap:
    def test_overlap_seconds(self):
        r = TraceRecorder()
        _mk(r, "h2d", 0, 10)
        _mk(r, "sampling", 5, 20)
        assert r.overlap_seconds("h2d", "sampling") == pytest.approx(5.0)

    def test_no_overlap(self):
        r = TraceRecorder()
        _mk(r, "h2d", 0, 5)
        _mk(r, "sampling", 5, 10)
        assert r.overlap_seconds("h2d", "sampling") == 0.0

    def test_multiple_intervals(self):
        r = TraceRecorder()
        _mk(r, "a", 0, 2)
        _mk(r, "a", 4, 6)
        _mk(r, "b", 1, 5)
        assert r.overlap_seconds("a", "b") == pytest.approx(2.0)


class TestGantt:
    def test_empty(self):
        assert "(empty" in TraceRecorder().gantt_text()

    def test_contains_streams_and_marks(self):
        r = TraceRecorder()
        _mk(r, "sampling", 0, 8, stream="0.compute")
        _mk(r, "h2d", 0, 4, stream="0.upload")
        text = r.gantt_text(width=16)
        assert "0.compute" in text and "0.upload" in text
        assert "S" in text and "H" in text


class TestClusterTrace:
    def test_global_device_ids_and_node_hosts(self):
        nodes = [TraceRecorder(), TraceRecorder()]
        for n, r in enumerate(nodes):
            _mk(r, "sampling", n, n + 1, dev=1, stream="1.compute")
            _mk(r, "host", n, n + 1, dev=-1, stream="host")
        merged = cluster_trace(nodes, gpus_per_node=2)
        assert [(iv.device_id, iv.stream, iv.start) for iv in merged.intervals] == [
            (1, "1.compute", 0), (-2, "node0.host", 0),
            (3, "3.compute", 1), (-3, "node1.host", 1),
        ]

    def test_one_machine_is_its_own_trace(self):
        r = TraceRecorder()
        _mk(r, "host", 0, 1, dev=-1, stream="host")
        assert cluster_trace([r], gpus_per_node=4) is r


class TestInterval:
    def test_duration(self):
        iv = Interval(0, "s", "k", "l", 1.0, 3.5)
        assert iv.duration == 2.5
