"""Tests for machines, links, transfers, host compute, and the trace."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.costmodel import KernelCost
from repro.gpusim.interconnect import Link
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import DeviceArray
from repro.gpusim.platform import (
    GPU_TITAN_X,
    GPU_TITAN_XP,
    GPU_V100,
    maxwell_platform,
    pascal_platform,
    volta_platform,
)


class TestPlatformPresets:
    def test_table2_bandwidths(self):
        # The paper's Table 2 headline numbers.
        assert GPU_TITAN_X.peak_bandwidth_gbps == 336.0
        assert GPU_TITAN_XP.peak_bandwidth_gbps == 550.0
        assert GPU_V100.peak_bandwidth_gbps == 900.0

    def test_table2_gpu_counts(self):
        assert len(maxwell_platform(1).gpus) == 1
        assert len(pascal_platform(4).gpus) == 4
        assert len(volta_platform(2).gpus) == 2

    def test_gpu_count_limits(self):
        with pytest.raises(ValueError):
            pascal_platform(5)
        with pytest.raises(ValueError):
            volta_platform(3)
        with pytest.raises(ValueError):
            pascal_platform(0)

    def test_volta_has_80_sms(self):
        assert GPU_V100.num_sms == 80

    def test_memory_capacities(self):
        assert GPU_TITAN_X.mem_capacity_bytes == 12 * 2**30
        assert GPU_V100.mem_capacity_bytes == 16 * 2**30


class TestLink:
    def test_serialization_on_same_direction(self):
        link = Link("l", 10.0, latency_seconds=0.0)
        s1, e1 = link.reserve(10e9, earliest=0.0)
        s2, e2 = link.reserve(10e9, earliest=0.0)
        assert s2 == pytest.approx(e1)
        assert e2 == pytest.approx(2.0)

    def test_duplex_directions_independent(self):
        link = Link("l", 10.0, latency_seconds=0.0, duplex=True)
        _, e1 = link.reserve(10e9, 0.0, direction=0)
        s2, _ = link.reserve(10e9, 0.0, direction=1)
        assert s2 == 0.0

    def test_half_duplex_contends(self):
        link = Link("l", 10.0, latency_seconds=0.0, duplex=False)
        _, e1 = link.reserve(10e9, 0.0, direction=0)
        s2, _ = link.reserve(10e9, 0.0, direction=1)
        assert s2 == pytest.approx(e1)

    def test_stats(self):
        link = Link("l", 1.0)
        link.reserve(100, 0.0)
        link.reserve(200, 0.0)
        assert link.bytes_carried == 300
        assert link.num_transfers == 2


class TestTransfers:
    def test_h2d_copies_and_charges(self, pascal1):
        gpu = pascal1.gpus[0]
        buf = DeviceArray(gpu, (1000,), np.float32)
        src = np.arange(1000, dtype=np.float32)
        start, end = pascal1.memcpy_h2d(buf, src)
        assert np.array_equal(buf.data, src)
        expected = 4000 / (13.0e9) + pascal1.pcie[0].latency_seconds
        assert end - start == pytest.approx(expected)

    def test_h2d_shape_mismatch(self, pascal1):
        gpu = pascal1.gpus[0]
        buf = DeviceArray(gpu, (10,), np.float32)
        with pytest.raises(ValueError):
            pascal1.memcpy_h2d(buf, np.zeros(5, dtype=np.float32))

    def test_d2h_returns_copy(self, pascal1):
        gpu = pascal1.gpus[0]
        buf = DeviceArray(gpu, (10,), np.int32, fill=3)
        _, _, host = pascal1.memcpy_d2h(buf)
        assert np.all(host == 3)
        host[0] = 9
        assert buf.data[0] == 3

    def test_d2h_row_range_moves_only_those_rows(self, pascal1):
        gpu = pascal1.gpus[0]
        buf = DeviceArray(gpu, (6, 50), np.uint16,
                          fill=np.arange(300).reshape(6, 50))
        start, end, host = pascal1.memcpy_d2h(buf, rows=(2, 5))
        assert np.array_equal(host, buf.data[2:5])
        expected = 3 * 50 * 2 / 13.0e9 + pascal1.pcie[0].latency_seconds
        assert end - start == pytest.approx(expected)
        [iv] = pascal1.trace.intervals
        assert iv.bytes_moved == 3 * 50 * 2
        with pytest.raises(ValueError, match="outside 6 rows"):
            pascal1.memcpy_d2h(buf, rows=(4, 7))

    def test_p2p_between_gpus(self, pascal4):
        g0, g1 = pascal4.gpus[0], pascal4.gpus[1]
        a = DeviceArray(g0, (100,), np.int32, fill=5)
        b = DeviceArray(g1, (100,), np.int32)
        pascal4.memcpy_p2p(b, a)
        assert np.all(b.data == 5)

    def test_p2p_same_device_rejected(self, pascal4):
        g0 = pascal4.gpus[0]
        a = DeviceArray(g0, (10,), np.int32)
        b = DeviceArray(g0, (10,), np.int32)
        with pytest.raises(ValueError):
            pascal4.memcpy_p2p(b, a)

    def test_p2p_link_lookup_symmetric(self, pascal4):
        assert pascal4.p2p_link(0, 3) is pascal4.p2p_link(3, 0)
        with pytest.raises(ValueError):
            pascal4.p2p_link(1, 1)

    def test_h2d_uplink_sharing_dual_socket(self, pascal4):
        """The Table 2 platforms are dual-socket: GPUs 0/2 share one
        root-complex uplink, GPUs 1/3 the other. Transfers on distinct
        uplinks overlap; transfers on the same uplink serialize."""
        bufs = [DeviceArray(g, (10_000_000,), np.float32) for g in pascal4.gpus]
        src = np.zeros(10_000_000, dtype=np.float32)
        spans = [pascal4.memcpy_h2d(b, src) for b in bufs]
        # GPU 0 and GPU 2: different sockets -> same start.
        assert spans[2][0] == pytest.approx(spans[0][0])
        # GPU 1 shares GPU 0's uplink -> starts after GPU 0 finishes.
        assert spans[1][0] >= spans[0][1]
        assert pascal4.pcie[0] is pascal4.pcie[1]
        assert pascal4.pcie[2] is pascal4.pcie[3]

    def test_p2p_topology_rates(self, pascal4):
        """Same-socket P2P runs at switch speed; cross-socket P2P at the
        slower bridge rate."""
        local = pascal4.p2p_link(0, 1)
        cross = pascal4.p2p_link(0, 2)
        assert local.bandwidth_gbps > cross.bandwidth_gbps


class TestHostCompute:
    def test_advances_host_clock(self, pascal1):
        before = pascal1.host_time
        result = pascal1.host_compute(
            lambda: 42, KernelCost(bytes_read=47.6e9), label="add"
        )
        assert result == 42
        assert pascal1.host_time > before

    def test_gpu_work_after_host_work_starts_later(self, pascal1):
        pascal1.host_compute(lambda: None, KernelCost(bytes_read=47.6e9))
        s = pascal1.gpus[0].default_stream
        start, _, _ = KernelLaunch(
            lambda: None, KernelCost(bytes_read=1.0), "k"
        ).launch(s)
        assert start >= pascal1.host_time - 1e-12


class TestResetClock:
    def test_reset_preserves_memory(self, pascal1):
        gpu = pascal1.gpus[0]
        buf = DeviceArray(gpu, (10,), np.int32, fill=7)
        KernelLaunch(lambda: None, KernelCost(bytes_read=1e9), "k").launch(
            gpu.default_stream
        )
        pascal1.synchronize()
        pascal1.reset_clock()
        assert pascal1.host_time == 0.0
        assert gpu.default_stream.available_at == 0.0
        assert len(pascal1.trace) == 0
        assert np.all(buf.data == 7)
