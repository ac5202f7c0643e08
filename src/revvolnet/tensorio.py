"""Raw tensor file format: 20-byte header (magic "RVT1" + five little-endian
uint32 extents) followed by the float32 payload in row-major order."""

import io
import struct

import numpy as np

MAGIC = b"RVT1"
_HEADER = struct.Struct("<4s5I")


def write_tensor(fh_or_path, data: np.ndarray) -> None:
    arr = np.ascontiguousarray(data, dtype=np.float32)
    if arr.ndim != 5:
        raise ValueError(f"raw tensor records are 5-axis, got shape {arr.shape}")
    header = _HEADER.pack(MAGIC, *arr.shape)
    if hasattr(fh_or_path, "write"):
        fh_or_path.write(header)
        fh_or_path.write(arr.astype("<f4", copy=False).tobytes())
    else:
        with open(fh_or_path, "wb") as fh:
            write_tensor(fh, arr)


def read_tensor(fh_or_path) -> np.ndarray:
    if not hasattr(fh_or_path, "read"):
        with open(fh_or_path, "rb") as fh:
            return read_tensor(fh)
    fh = fh_or_path
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated tensor header")
    magic, *extents = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}")
    count = 1
    for e in extents:
        count *= e
    here = fh.tell()
    left = fh.seek(0, io.SEEK_END) - here
    fh.seek(here)
    if 4 * count > left:
        raise ValueError(
            f"truncated tensor payload: header extents {tuple(extents)} need "
            f"{4 * count} bytes, {left} left in the file")
    payload = fh.read(4 * count)
    arr = np.frombuffer(payload, dtype="<f4").reshape(extents)
    return np.ascontiguousarray(arr, dtype=np.float32)
