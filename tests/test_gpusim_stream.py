"""Tests for streams, buffer order, and overlap semantics (CUDA timing rules)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.costmodel import KernelCost
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import DeviceArray, DeviceView


def _kernel(seconds_bytes=1e8, label="k"):
    """A kernel whose duration is dominated by seconds_bytes of traffic."""
    return KernelLaunch(lambda: None, KernelCost(bytes_read=seconds_bytes), label)


class TestStreamOrdering:
    def test_same_stream_serializes(self, pascal1):
        gpu = pascal1.gpus[0]
        s = gpu.create_stream("a")
        t0a, t1a, _ = _kernel().launch(s)
        t0b, t1b, _ = _kernel().launch(s)
        assert t0b >= t1a
        assert t1b > t1a

    def test_different_streams_overlap(self, pascal1):
        gpu = pascal1.gpus[0]
        s1, s2 = gpu.create_stream("a"), gpu.create_stream("b")
        a0, a1, _ = _kernel(1e9).launch(s1)
        b0, b1, _ = _kernel(1e9).launch(s2)
        assert b0 < a1, "streams must overlap in simulated time"

    def test_different_devices_overlap(self, pascal4):
        s1 = pascal4.gpus[0].default_stream
        s2 = pascal4.gpus[3].default_stream
        a0, a1, _ = _kernel(1e9).launch(s1)
        b0, b1, _ = _kernel(1e9).launch(s2)
        assert b0 < a1

    def test_negative_duration_rejected(self, pascal1):
        s = pascal1.gpus[0].default_stream
        with pytest.raises(ValueError):
            s.enqueue(-1.0, "x", "x")


class TestBufferOrder:
    """An op starts no earlier than the last write to any byte it reads
    or writes, nor than the last read of any byte it writes, whichever
    stream or device those ran on."""

    @staticmethod
    def _launch(stream, reads=(), writes=(), nbytes=1e9):
        return KernelLaunch(
            lambda: None, KernelCost(bytes_read=nbytes), "k",
            reads=reads, writes=writes,
        ).launch(stream)

    def test_read_waits_for_the_last_write(self, pascal1):
        gpu = pascal1.gpus[0]
        s1, s2 = gpu.create_stream("a"), gpu.create_stream("b")
        buf = DeviceArray(gpu, 16, np.int32)
        _, w_end, _ = self._launch(s1, writes=(buf,))
        assert self._launch(s2, reads=(buf,))[0] == w_end
        # Reads do not order each other.
        assert self._launch(s1, reads=(buf,))[0] == w_end

    def test_write_waits_for_the_last_read(self, pascal1):
        gpu = pascal1.gpus[0]
        s1, s2 = gpu.create_stream("a"), gpu.create_stream("b")
        buf = DeviceArray(gpu, 16, np.int32)
        _, r_end, _ = self._launch(s1, reads=(buf,))
        assert self._launch(s2, writes=(buf,))[0] == r_end

    def test_views_order_only_the_bytes_they_share(self, pascal1):
        gpu = pascal1.gpus[0]
        s1, s2, s3 = (gpu.create_stream(x) for x in "abc")
        buf = DeviceArray(gpu, 16, np.int32)
        lo, hi = DeviceView(buf, 0, 8, np.int32), DeviceView(buf, 32, 8, np.int32)
        _, w_end, _ = self._launch(s1, writes=(lo,))
        assert self._launch(s2, reads=(hi,))[0] == 0.0
        assert self._launch(s3, reads=(buf,))[0] == w_end

    def test_copy_waits_for_its_source(self, pascal4):
        src = DeviceArray(pascal4.gpus[1], 16, np.int32)
        dst = DeviceArray(pascal4.gpus[0], 16, np.int32)
        _, w_end, _ = self._launch(pascal4.gpus[1].default_stream, writes=(src,))
        start, _ = pascal4.memcpy_p2p(dst, src)
        assert start == w_end

    def test_relayed_h2d_starts_no_earlier_than_not_before(self, pascal4):
        """A copy of data the host received from another device names
        that copy's end: nothing about its destination buffer orders it,
        and it reserves its link from there."""
        src = DeviceArray(pascal4.gpus[1], 16, np.int32)
        dst = DeviceArray(pascal4.gpus[0], 16, np.int32)
        _, staged, host = pascal4.memcpy_d2h(src, pinned=False)
        assert pascal4.host_time < staged
        start, _ = pascal4.memcpy_h2d(dst, host, pinned=False, not_before=staged)
        assert start == staged
        free = DeviceArray(pascal4.gpus[2], 16, np.int32)
        assert pascal4.memcpy_h2d(free, host)[0] == 0.0

    def test_reset_clock_drops_the_stamps(self, pascal1):
        gpu = pascal1.gpus[0]
        buf = DeviceArray(gpu, 16, np.int32)
        self._launch(gpu.create_stream("a"), writes=(buf,))
        pascal1.reset_clock()
        assert self._launch(gpu.create_stream("b"), reads=(buf,))[0] == 0.0


class TestCopyRetry:
    """A copy carries its retry policy: it retries a transient link
    failure after a backoff stall on its own stream, and any other
    failure raises a SyncPathError naming the copy's op and the devices
    of its buffers."""

    def test_down_link_fails_on_the_first_attempt(self, pascal4):
        from repro.comm import TransferRetry
        from repro.gpusim.errors import SyncPathError

        src = DeviceArray(pascal4.gpus[1], 16, np.int32)
        dst = DeviceArray(pascal4.gpus[0], 16, np.int32)
        link = pascal4.p2p_link(0, 1)
        link.set_down()
        with pytest.raises(SyncPathError) as err:
            pascal4.memcpy_p2p(dst, src, label="probe", retry=TransferRetry())
        assert (err.value.op, err.value.devices) == ("probe", (1, 0))
        assert not err.value.transient
        assert link.num_failed_transfers == 1
        assert not pascal4.trace.intervals  # no backoff stall

    def test_transient_failure_retried_after_one_backoff(self, pascal1):
        from repro.comm import TransferRetry

        gpu = pascal1.gpus[0]
        buf = DeviceArray(gpu, 16, np.int32)
        pascal1.pcie[0].fail_next(1)
        start, _ = pascal1.memcpy_h2d(
            buf, np.arange(16, dtype=np.int32), label="probe",
            retry=TransferRetry(max_retries=2, backoff_seconds=1e-4),
        )
        [stall] = [iv for iv in pascal1.trace.intervals if iv.kind == "stall"]
        assert stall.label == "retry_backoff:probe"
        assert stall.stream == f"0.{gpu.default_stream.label}"
        assert start == stall.end == 1e-4
        assert np.array_equal(buf.data, np.arange(16))


class TestSynchronize:
    def test_stream_synchronize_advances_host(self, pascal1):
        s = pascal1.gpus[0].default_stream
        _, end, _ = _kernel(1e9).launch(s)
        t = s.synchronize()
        assert t == end
        assert pascal1.host_time >= end

    def test_device_synchronize_covers_all_streams(self, pascal1):
        gpu = pascal1.gpus[0]
        s1, s2 = gpu.create_stream("a"), gpu.create_stream("b")
        _kernel(1e9).launch(s1)
        _, end2, _ = _kernel(2e9).launch(s2)
        t = gpu.synchronize()
        assert t == pytest.approx(max(s1.available_at, end2))

    def test_machine_synchronize(self, pascal4):
        ends = []
        for g in pascal4.gpus:
            _, e, _ = _kernel(1e9).launch(g.default_stream)
            ends.append(e)
        t = pascal4.synchronize()
        assert t == pytest.approx(max(ends))

    def test_host_work_after_sync_starts_later(self, pascal1):
        s = pascal1.gpus[0].default_stream
        _kernel(1e9).launch(s)
        s.synchronize()
        start, _, _ = _kernel(1.0).launch(s)
        assert start >= pascal1.host_time - 1e-12
