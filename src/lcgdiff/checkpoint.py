"""Checkpoint files: parameters, optimizer moments, step, config snapshot.

A checkpoint is a ``container.py`` file with magic ``LCGC``. Its body holds
the length-prefixed UTF-8 config text, a u64 step, then two tensor tables
(parameters, optimizer moments). Table entries are sorted by name, so saving
the same state twice produces identical bytes.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .container import Reader, pack_text, seal, write_atomic
from .tensor import Tensor

__all__ = [
    "CheckpointError",
    "CheckpointChecksumError",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "restore_tensors",
]

CHECKPOINT_MAGIC = b"LCGC"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file is malformed or does not match the expected model."""


class CheckpointChecksumError(CheckpointError):
    """Checkpoint payload does not match its trailing CRC32."""


def _pack_table(entries: dict[str, np.ndarray]) -> bytearray:
    out = bytearray(struct.pack("<I", len(entries)))
    for name in sorted(entries):
        # asarray with order keeps zero-dim shapes; ascontiguousarray would
        # promote them to (1,).
        arr = np.asarray(entries[name], dtype="<f8", order="C")
        out += pack_text(name, "<H")
        out += struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
        out += arr.tobytes()
    return out


def save_checkpoint(
    path, named: dict[str, Tensor], opt_tensors: dict[str, np.ndarray], step: int, config_text: str
) -> bytes:
    """Write the checkpoint to ``path`` atomically; returns the file's bytes."""
    body = bytearray(pack_text(config_text))
    body += struct.pack("<Q", step)
    body += _pack_table({k: v.data for k, v in named.items()})
    body += _pack_table(opt_tensors)
    payload = seal(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, body)
    write_atomic(path, payload)
    return payload


def _read_table(reader: Reader, label: str) -> dict[str, np.ndarray]:
    (count,) = reader.unpack("<I", f"{label} count")
    table: dict[str, np.ndarray] = {}
    for i in range(count):
        name = reader.text(f"{label} entry {i} name", "<H")
        (ndim,) = reader.unpack("<B", f"{label} {name} ndim")
        shape_at = reader.offset
        shape = reader.unpack(f"<{ndim}I", f"{label} {name} shape")
        # Python ints: a numpy product of the shape can wrap to a small size.
        raw = reader.take(8 * math.prod(shape), f"{label} {name} data")
        try:
            table[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:
            raise CheckpointError(f"{label} {name} shape {shape} at offset {shape_at}: {exc}") from None
    return table


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], int, str]:
    """Returns (parameter arrays, optimizer arrays, step, config text)."""
    reader = Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint", CheckpointError)
    config_text = reader.text("config blob")
    (step,) = reader.unpack("<Q", "step")
    params = _read_table(reader, "params")
    opt = _read_table(reader, "optimizer")
    reader.finish(CheckpointChecksumError)
    return params, opt, step, config_text


def restore_tensors(named: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into live parameters, demanding an exact name match."""
    missing = sorted(set(named) - set(arrays))
    extra = sorted(set(arrays) - set(named))
    if missing or extra:
        raise CheckpointError(
            f"parameter names do not match checkpoint: missing {missing[:3]}, unexpected {extra[:3]}"
        )
    for name, tensor in named.items():
        if arrays[name].shape != tensor.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: checkpoint {arrays[name].shape}, model {tensor.data.shape}"
            )
        tensor.data[...] = arrays[name]
