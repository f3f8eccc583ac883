"""Tests for the roofline cost model."""

from __future__ import annotations

import pytest

from repro.gpusim.costmodel import CostModel, KernelCost
from repro.gpusim.device import DeviceSpec
from repro.gpusim.interconnect import Link

SPEC = DeviceSpec(
    name="test-gpu",
    arch="test",
    num_sms=10,
    peak_bandwidth_gbps=100.0,
    peak_gflops=1000.0,
    mem_capacity_bytes=2**30,
    mem_efficiency=0.5,
    compute_efficiency=0.5,
    kernel_launch_seconds=0.0,
    tail_penalty=0.0,
)


class TestKernelCostValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            KernelCost(bytes_read=-1)
        with pytest.raises(ValueError):
            KernelCost(flops=-1)

    def test_rejects_bad_locality(self):
        with pytest.raises(ValueError):
            KernelCost(atomic_locality=1.5)

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            KernelCost(num_blocks=0)

    def test_flops_per_byte(self):
        c = KernelCost(bytes_read=50, bytes_written=50, flops=27)
        assert c.flops_per_byte == pytest.approx(0.27)

    def test_flops_per_byte_no_traffic(self):
        assert KernelCost(flops=5).flops_per_byte == float("inf")

    def test_add_combines(self):
        a = KernelCost(bytes_read=10, flops=5, atomic_ops=10, atomic_locality=1.0)
        b = KernelCost(bytes_written=20, flops=5, atomic_ops=30, atomic_locality=0.5)
        c = a + b
        assert c.bytes_read == 10 and c.bytes_written == 20
        assert c.flops == 10
        assert c.atomic_ops == 40
        assert c.atomic_locality == pytest.approx((10 * 1.0 + 30 * 0.5) / 40)

    def test_scaled(self):
        c = KernelCost(bytes_read=100, flops=10, num_blocks=4).scaled(2.5)
        assert c.bytes_read == 250
        assert c.flops == 25
        assert c.num_blocks == 10

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            KernelCost(bytes_read=1).scaled(-1)


class TestKernelTiming:
    CM = CostModel()

    def test_memory_bound_time(self):
        # 50 GB at 100 GB/s x 0.5 eff => 1.0 s.
        c = KernelCost(bytes_read=50e9)
        assert self.CM.kernel_seconds(SPEC, c) == pytest.approx(1.0)

    def test_compute_bound_time(self):
        # 5e12 flops at 1000 GF x 0.5 => 10 s, dwarfing 1 byte.
        c = KernelCost(bytes_read=1, flops=5e12)
        assert self.CM.kernel_seconds(SPEC, c) == pytest.approx(10.0)

    def test_max_not_sum(self):
        mem = KernelCost(bytes_read=50e9)
        both = KernelCost(bytes_read=50e9, flops=100e9)  # compute is faster
        assert self.CM.kernel_seconds(SPEC, both) == pytest.approx(
            self.CM.kernel_seconds(SPEC, mem)
        )

    def test_launch_overhead_added(self):
        spec = DeviceSpec(
            name="s", arch="t", num_sms=1, peak_bandwidth_gbps=1.0,
            peak_gflops=1.0, mem_capacity_bytes=1024,
            kernel_launch_seconds=1e-3, tail_penalty=0.0,
        )
        assert self.CM.kernel_seconds(spec, KernelCost()) == pytest.approx(1e-3)

    def test_atomic_throughput_bound(self):
        spec = DeviceSpec(
            name="s", arch="t", num_sms=1, peak_bandwidth_gbps=1e6,
            peak_gflops=1e6, mem_capacity_bytes=1024,
            atomic_ops_per_sec=1e6, atomic_locality_floor=0.1,
            kernel_launch_seconds=0.0, tail_penalty=0.0,
        )
        perfect = KernelCost(atomic_ops=1e6, atomic_locality=1.0)
        scattered = KernelCost(atomic_ops=1e6, atomic_locality=0.0)
        t_perfect = self.CM.kernel_seconds(spec, perfect)
        t_scattered = self.CM.kernel_seconds(spec, scattered)
        assert t_perfect == pytest.approx(1.0)
        assert t_scattered == pytest.approx(10.0)  # floor = 0.1 of rate

    def test_shared_memory_over_capacity_rejected(self):
        c = KernelCost(bytes_read=1, shared_mem_per_block=10**9)
        with pytest.raises(ValueError, match="shared memory"):
            self.CM.kernel_seconds(SPEC, c)

    def test_tail_penalty(self):
        spec = DeviceSpec(
            name="s", arch="t", num_sms=10, peak_bandwidth_gbps=100.0,
            peak_gflops=1000.0, mem_capacity_bytes=1024, blocks_per_sm=1,
            mem_efficiency=0.5, kernel_launch_seconds=0.0, tail_penalty=1.0,
        )
        full_wave = KernelCost(bytes_read=50e9, num_blocks=10)
        partial = KernelCost(bytes_read=50e9, num_blocks=11)  # 1 extra block
        t_full = self.CM.kernel_seconds(spec, full_wave)
        t_partial = self.CM.kernel_seconds(spec, partial)
        assert t_full == pytest.approx(1.0)
        assert t_partial > t_full  # the 9-idle-SM second wave costs


class TestTransferTiming:
    """:meth:`Link.reserve` times every copy: the link's latency plus the
    bytes at its bandwidth."""

    def test_bandwidth_plus_latency(self):
        link = Link("l", bandwidth_gbps=10.0, latency_seconds=1e-3)
        start, end = link.reserve(10e9, earliest=0.0)
        assert start == 0.0
        assert end - start == pytest.approx(1.0 + 1e-3)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Link("l", bandwidth_gbps=10.0).reserve(-1, earliest=0.0)


class TestDeviceSpec:
    def test_ridge_point(self):
        # The paper's host CPU: 470 GFLOPS / 51.2 GB/s = 9.2.
        from repro.gpusim.platform import CPU_E5_2690V4

        assert CPU_E5_2690V4.ridge_flops_per_byte == pytest.approx(9.18, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(name="x", arch="t", num_sms=0,
                       peak_bandwidth_gbps=1, peak_gflops=1,
                       mem_capacity_bytes=1)
        with pytest.raises(ValueError):
            DeviceSpec(name="x", arch="t", num_sms=1,
                       peak_bandwidth_gbps=0, peak_gflops=1,
                       mem_capacity_bytes=1)
        with pytest.raises(ValueError):
            DeviceSpec(name="x", arch="t", num_sms=1,
                       peak_bandwidth_gbps=1, peak_gflops=1,
                       mem_capacity_bytes=1, mem_efficiency=1.5)
