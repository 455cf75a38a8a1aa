"""The binary container of shards and checkpoints: a 4-byte magic tag, a u16
version, a body each format lays out, and a CRC32 of all preceding bytes."""

from __future__ import annotations

import os
import struct
import zlib

__all__ = ["seal", "pack_text", "write_atomic", "Reader"]


def seal(magic: bytes, version: int, body) -> bytes:
    head = magic + struct.pack("<H", version)
    return b"".join([head, body, struct.pack("<I", zlib.crc32(body, zlib.crc32(head)))])


def pack_text(text: str, prefix: str = "<I") -> bytes:
    """UTF-8 ``text`` behind its byte length packed as ``prefix``, as ``Reader.text`` reads it."""
    raw = text.encode("utf-8")
    return struct.pack(prefix, len(raw)) + raw


def write_atomic(path, payload) -> None:
    """Fsync a temp file beside ``path``, then rename it over ``path``: never a torn file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.unlink(tmp)


class Reader:
    """Bounds-checked cursor over one container file; every failure raises ``error``."""

    def __init__(self, path, magic: bytes, version: int, noun: str, error: type[Exception]):
        with open(path, "rb") as fh:
            self.data = fh.read()
        self.offset, self.noun, self.error = 0, noun, error
        if self.take(4, "magic") != magic:
            raise error(f"bad magic at offset 0: not a {noun}")
        (found,) = self.unpack("<H", "version")
        if found != version:
            raise error(f"unsupported {noun} version {found} at offset 4")

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise self.error(f"truncated {self.noun}: {what} needs {n} bytes at offset {self.offset}")
        self.offset += n
        return self.data[self.offset - n : self.offset]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, what: str, prefix: str = "<I") -> str:
        (n,) = self.unpack(prefix, f"{what} length")
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} is not UTF-8: bad byte at offset {self.offset - n + exc.start}") from None

    def finish(self, checksum_error: type[Exception]) -> None:
        """Read the CRC32, reject trailing bytes, then check the CRC."""
        (stored,) = self.unpack("<I", "checksum")
        if self.offset != len(self.data):
            raise self.error(f"unexpected {len(self.data) - self.offset} trailing bytes at offset {self.offset}")
        actual = zlib.crc32(memoryview(self.data)[:-4])
        if actual != stored:
            raise checksum_error(f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")
