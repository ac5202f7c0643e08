"""Raw tensor file format: header layout and round trips."""

import io
import struct

import numpy as np
import pytest

from revvolnet.tensorio import read_tensor, write_tensor


class TestFormat:
    def test_header_layout(self):
        data = np.arange(24, dtype=np.float32).reshape(1, 2, 3, 2, 2)
        buf = io.BytesIO()
        write_tensor(buf, data)
        raw = buf.getvalue()
        assert raw[:4] == b"RVT1"
        assert struct.unpack("<5I", raw[4:24]) == (1, 2, 3, 2, 2)
        assert len(raw) == 24 + 4 * 24
        payload = np.frombuffer(raw[24:], dtype="<f4")
        np.testing.assert_array_equal(payload, data.ravel())

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((2, 3, 4, 5, 6)).astype(np.float32)
        buf = io.BytesIO()
        write_tensor(buf, data)
        buf.seek(0)
        np.testing.assert_array_equal(read_tensor(buf), data)

    def test_concatenated_records(self):
        a = np.ones((1, 1, 2, 2, 2), np.float32)
        b = np.full((1, 2, 1, 1, 1), 7.0, np.float32)
        buf = io.BytesIO()
        write_tensor(buf, a)
        write_tensor(buf, b)
        buf.seek(0)
        np.testing.assert_array_equal(read_tensor(buf), a)
        np.testing.assert_array_equal(read_tensor(buf), b)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 40))

    def test_truncated_payload_rejected(self):
        data = np.ones((1, 1, 2, 2, 2), np.float32)
        buf = io.BytesIO()
        write_tensor(buf, data)
        clipped = io.BytesIO(buf.getvalue()[:-4])
        with pytest.raises(ValueError, match="truncated"):
            read_tensor(clipped)

    def test_header_larger_than_file_rejected(self):
        header = struct.pack("<4s5I", b"RVT1", 2**31, 2**31, 1, 1, 1)
        with pytest.raises(ValueError, match=f"{2**64} bytes, 0 left"):
            read_tensor(io.BytesIO(header))

    def test_non_five_axis_rejected(self):
        with pytest.raises(ValueError):
            write_tensor(io.BytesIO(), np.zeros((2, 2), np.float32))
