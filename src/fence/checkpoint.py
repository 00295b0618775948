"""Flat binary weight checkpoints.

Layout: magic "FNCE", format version (u32 LE), then named tensors until
EOF. Each tensor is name length (u32 LE), UTF-8 name (unique in the
file), rank (u32 LE), one u64 LE per dimension, then the float64 LE
payload in C order. Scalars (hyperparameters) are rank-0 tensors with a
single float.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = ["MAGIC", "VERSION", "save_checkpoint", "load_checkpoint"]

MAGIC = b"FNCE"
VERSION = 1


def save_checkpoint(path, state: dict[str, np.ndarray]) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name, value in state.items():
            arr = np.asarray(value, dtype=np.float64)
            if arr.ndim:
                arr = np.ascontiguousarray(arr)  # keeps rank-0 scalars rank-0
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.astype("<f8").tobytes(order="C"))


def _read_exact(fh, count: int, what: str, size: int) -> bytes:
    # compared with what is left before reading, so a corrupt count never
    # sizes a read
    if count > size - fh.tell():
        raise DataError(f"checkpoint truncated while reading {what}")
    return fh.read(count)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    path = Path(path)
    state: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataError(f"{path} is not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version", size))
        if version != VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        while fh.tell() < size:
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "a name length", size))
            try:
                name = _read_exact(fh, name_len, "tensor name", size).decode("utf-8")
            except UnicodeDecodeError:
                raise DataError("checkpoint tensor name is not valid UTF-8") from None
            if name in state:
                raise DataError(f"checkpoint repeats tensor {name!r}")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, f"{name} rank", size))
            dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, f"{name} dims", size))
            count = math.prod(dims)  # Python ints: no wrap-around
            payload = _read_exact(fh, 8 * count, f"{name} data", size)
            values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
            try:
                state[name] = values.reshape(dims)
            except ValueError:  # an empty tensor whose other dims overflow numpy
                raise DataError(f"checkpoint tensor {name!r} has shape {dims}") from None
    return state
