"""Tests for device memory allocation and DeviceArray."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.memory import (
    DeviceAllocator,
    DeviceArray,
    DeviceOutOfMemoryError,
    DeviceView,
)
from repro.gpusim.platform import volta_platform


@pytest.fixture
def device():
    return volta_platform(1).gpus[0]


class TestAllocator:
    def test_basic_accounting(self):
        a = DeviceAllocator(1000)
        t1 = a.allocate(400)
        assert a.bytes_in_use == 400
        t2 = a.allocate(600)
        assert a.bytes_free == 0
        a.free(t1)
        assert a.bytes_in_use == 600
        a.free(t2)
        assert a.bytes_in_use == 0

    def test_oom(self):
        a = DeviceAllocator(100)
        a.allocate(80)
        with pytest.raises(DeviceOutOfMemoryError):
            a.allocate(21)

    def test_oom_message_has_sizes(self):
        a = DeviceAllocator(2**20, owner="gpu0")
        a.allocate(2**19)
        with pytest.raises(DeviceOutOfMemoryError, match="gpu0"):
            a.allocate(2**20)

    def test_double_free_rejected(self):
        a = DeviceAllocator(100)
        t = a.allocate(10)
        a.free(t)
        with pytest.raises(ValueError):
            a.free(t)

    def test_peak_tracking(self):
        a = DeviceAllocator(1000)
        t1 = a.allocate(700)
        a.free(t1)
        a.allocate(100)
        assert a.peak_bytes == 700

    def test_zero_byte_allocation(self):
        a = DeviceAllocator(10)
        t = a.allocate(0)
        a.free(t)
        assert a.bytes_in_use == 0

    def test_negative_rejected(self):
        a = DeviceAllocator(10)
        with pytest.raises(ValueError):
            a.allocate(-1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DeviceAllocator(0)


class TestDeviceArray:
    def test_charges_by_dtype(self, device):
        a = DeviceArray(device, (100,), np.uint16)
        b = DeviceArray(device, (100,), np.int32)
        assert a.nbytes == 200
        assert b.nbytes == 400
        assert device.allocator.bytes_in_use >= 600

    def test_fill_array(self, device):
        src = np.arange(10, dtype=np.float32)
        buf = DeviceArray(device, (10,), np.float32, fill=src)
        assert np.array_equal(buf.data, src)
        src[0] = 99  # the buffer must own a copy
        assert buf.data[0] == 0

    def test_fill_scalar(self, device):
        buf = DeviceArray(device, (3, 3), np.int32, fill=7)
        assert np.all(buf.data == 7)

    def test_fill_shape_mismatch_frees_ticket(self, device):
        before = device.allocator.bytes_in_use
        with pytest.raises(ValueError):
            DeviceArray(device, (10,), np.float32, fill=np.zeros(5, np.float32))
        assert device.allocator.bytes_in_use == before

    def test_use_after_free(self, device):
        buf = DeviceArray(device, (4,), np.int32)
        buf.free()
        with pytest.raises(RuntimeError, match="use-after-free"):
            _ = buf.data

    def test_double_free(self, device):
        buf = DeviceArray(device, (4,), np.int32)
        buf.free()
        with pytest.raises(RuntimeError, match="double free"):
            buf.free()

    def test_free_releases_capacity(self, device):
        before = device.allocator.bytes_in_use
        buf = DeviceArray(device, (1000,), np.float64)
        assert device.allocator.bytes_in_use == before + 8000
        buf.free()
        assert device.allocator.bytes_in_use == before

    def test_data_setter_validates(self, device):
        buf = DeviceArray(device, (4,), np.int32)
        with pytest.raises(ValueError):
            buf.data = np.zeros(5, dtype=np.int32)
        with pytest.raises(ValueError):
            buf.data = np.zeros(4, dtype=np.float64)
        buf.data = np.ones(4, dtype=np.int32)
        assert buf.data.sum() == 4

    def test_copy_to_host_is_a_copy(self, device):
        buf = DeviceArray(device, (4,), np.int32, fill=1)
        host = buf.copy_to_host()
        host[0] = 42
        assert buf.data[0] == 1

    def test_oom_on_model_too_large(self, device):
        # V100 has 16 GB; a 20 GB buffer must fail.
        with pytest.raises(DeviceOutOfMemoryError):
            DeviceArray(device, (20 * 2**30,), np.uint8)


class TestDeviceView:
    def test_a_typed_window_onto_its_base(self, device):
        base = DeviceArray(device, 20, np.uint8)
        in_use = device.allocator.bytes_in_use
        view = DeviceView(base, 4, (2,), np.int64, label="field")
        assert device.allocator.bytes_in_use == in_use  # allocates nothing
        view.data[...] = [1, 2]
        assert base.data[4:20].view(np.int64).tolist() == [1, 2]
        assert view.nbytes == 16

    def test_rows_of_a_2d_buffer(self, device):
        """Rows 1:3 of a 4×5 int32 φ, as a pointer offset into it."""
        base = DeviceArray(device, (4, 5), np.int32)
        view = DeviceView(base, 1 * 5 * 4, (2, 5), np.int32, label="rows")
        view.data[...] = 7
        assert base.data[1:3].tolist() == [[7] * 5] * 2
        assert not base.data[[0, 3]].any()

    def test_must_fit_in_its_base(self, device):
        base = DeviceArray(device, 20, np.uint8)
        with pytest.raises(ValueError, match="outside"):
            DeviceView(base, 8, (2,), np.int64)

    def test_freed_with_its_base(self, device):
        base = DeviceArray(device, 8, np.uint8)
        view = DeviceView(base, 0, (1,), np.int64)
        with pytest.raises(RuntimeError):
            view.free()
        base.free()
        assert view.freed
        with pytest.raises(RuntimeError):
            _ = view.data
