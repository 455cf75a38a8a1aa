"""Checkpoint files: parameters, optimizer moments, step, config snapshot.

Little-endian layout: magic ``LCGC``, u16 version, length-prefixed UTF-8
config text, u64 step, then two tensor tables (parameters, optimizer
moments) and a trailing CRC32 over all preceding bytes. Table entries are
sorted by name, so saving the same state twice produces identical bytes.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

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


def _pack_table(entries: dict[str, np.ndarray]) -> bytes:
    out = bytearray()
    out += struct.pack("<I", len(entries))
    for name in sorted(entries):
        # asarray with order keeps zero-dim shapes; ascontiguousarray would
        # promote them to (1,).
        arr = np.asarray(entries[name], dtype="<f8", order="C")
        name_bytes = name.encode("utf-8")
        out += struct.pack("<H", len(name_bytes))
        out += name_bytes
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
        out += arr.tobytes()
    return bytes(out)


def save_checkpoint(
    path,
    named: dict[str, Tensor],
    opt_tensors: dict[str, np.ndarray],
    step: int,
    config_text: str,
) -> None:
    blob = config_text.encode("utf-8")
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<H", CHECKPOINT_VERSION)
    out += struct.pack("<I", len(blob))
    out += blob
    out += struct.pack("<Q", step)
    out += _pack_table({k: v.data for k, v in named.items()})
    out += _pack_table(opt_tensors)
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], int, str]:
    """Returns (parameter arrays, optimizer arrays, step, config text)."""
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(data):
            raise CheckpointError(f"truncated checkpoint: {what} needs {n} bytes at offset {offset}")
        piece = data[offset : offset + n]
        offset += n
        return piece

    def take_text(n: int, what: str) -> str:
        try:
            return take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{what} is not UTF-8: bad byte at offset {offset - n + exc.start}") from None

    def read_table(label: str) -> dict[str, np.ndarray]:
        (count,) = struct.unpack("<I", take(4, f"{label} count"))
        table: dict[str, np.ndarray] = {}
        for i in range(count):
            (name_len,) = struct.unpack("<H", take(2, f"{label} entry {i} name length"))
            name = take_text(name_len, f"{label} entry {i} name")
            (ndim,) = struct.unpack("<B", take(1, f"{label} {name} ndim"))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"{label} {name} shape")) if ndim else ()
            size = int(np.prod(shape, dtype=np.int64)) if ndim else 1
            raw = take(8 * size, f"{label} {name} data")
            table[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        return table

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic at offset 0: not a checkpoint")
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (blob_len,) = struct.unpack("<I", take(4, "config length"))
    config_text = take_text(blob_len, "config blob")
    (step,) = struct.unpack("<Q", take(8, "step"))
    params = read_table("params")
    opt = read_table("optimizer")
    (stored,) = struct.unpack("<I", take(4, "checksum"))
    if offset != len(data):
        raise CheckpointError(f"unexpected {len(data) - offset} trailing bytes at offset {offset}")
    actual = zlib.crc32(data[:-4])
    if actual != stored:
        raise CheckpointChecksumError(f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")
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
