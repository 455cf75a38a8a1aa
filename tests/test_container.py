"""The shared binary container: framing, atomic replacement, corrupt input."""

import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcgdiff.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from lcgdiff.conditioning import Category, MaskKind
from lcgdiff.container import Reader, pack_text, seal, write_atomic
from lcgdiff.dataforge import ImageMaskSample, ShardError, read_shard, write_shard
from lcgdiff.tensor import Tensor


class Bad(Exception):
    pass


class BadSum(Bad):
    pass


def _file(tmp_path, payload: bytes):
    path = tmp_path / "f.bin"
    path.write_bytes(payload)
    return path


class TestFraming:
    def test_seal_layout(self):
        sealed = seal(b"ABCD", 3, b"xyz")
        assert sealed[:9] == b"ABCD\x03\x00xyz"
        assert sealed[9:] == struct.pack("<I", zlib.crc32(sealed[:9]))

    def test_reader_walks_the_body(self, tmp_path):
        body = pack_text("héllo") + struct.pack("<Q", 7) + pack_text("n", "<H")
        reader = Reader(_file(tmp_path, seal(b"ABCD", 3, body)), b"ABCD", 3, "thing", Bad)
        assert reader.text("greeting") == "héllo"
        assert reader.unpack("<Q", "count") == (7,)
        assert reader.text("name", "<H") == "n"
        reader.finish(BadSum)

    def test_wrong_magic_and_version(self, tmp_path):
        with pytest.raises(Bad, match="bad magic at offset 0: not a thing"):
            Reader(_file(tmp_path, seal(b"ABCE", 3, b"")), b"ABCD", 3, "thing", Bad)
        with pytest.raises(Bad, match="unsupported thing version 4 at offset 4"):
            Reader(_file(tmp_path, seal(b"ABCD", 4, b"")), b"ABCD", 3, "thing", Bad)

    def test_truncation_names_field_and_offset(self, tmp_path):
        reader = Reader(_file(tmp_path, seal(b"ABCD", 3, b"")), b"ABCD", 3, "thing", Bad)
        with pytest.raises(Bad, match="truncated thing: count needs 8 bytes at offset 6"):
            reader.unpack("<Q", "count")

    def test_trailing_bytes_then_checksum(self, tmp_path):
        reader = Reader(_file(tmp_path, seal(b"ABCD", 3, b"z")), b"ABCD", 3, "thing", Bad)
        with pytest.raises(Bad, match="unexpected 1 trailing bytes at offset 10"):
            reader.finish(BadSum)
        raw = bytearray(seal(b"ABCD", 3, b"z"))
        raw[6] ^= 1
        reader = Reader(_file(tmp_path, bytes(raw)), b"ABCD", 3, "thing", Bad)
        reader.take(1, "z")
        with pytest.raises(BadSum, match="checksum mismatch"):
            reader.finish(BadSum)


class TestWriteAtomic:
    def test_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.bin"
        write_atomic(path, b"old")
        write_atomic(path, b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failed_write_keeps_old_file_and_removes_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        write_atomic(path, b"old")

        def refuse(fd):
            raise OSError("no fsync")

        monkeypatch.setattr(os, "fsync", refuse)
        with pytest.raises(OSError, match="no fsync"):
            write_atomic(path, b"new")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_shards_are_replaced_atomically(self, tmp_path, monkeypatch):
        path = tmp_path / "s.lcgs"
        write_shard(path, _samples(), "first")
        first = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk gone"):
            write_shard(path, [], "second")
        assert path.read_bytes() == first


def _samples():
    rng = np.random.default_rng(0)
    return [
        ImageMaskSample(
            rng.random((3, 2, 3)).astype(np.float32),
            (rng.random((3, 2)) < 0.5).astype(np.uint8),
            category,
            kind,
            seed,
        )
        for category, kind, seed in (
            (Category.FOREGROUND, MaskKind.OBJECT_SEMANTIC, 1),
            (Category.BACKGROUND, MaskKind.RANDOM_BRUSH, 2),
        )
    ]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A temporary directory holding small valid shard and checkpoint files."""
    root = tmp_path_factory.mktemp("fuzz")
    write_shard(root / "valid.lcgs", _samples(), "[data]\nseed = 1\n")
    rng = np.random.default_rng(1)
    named = {"w": Tensor(rng.standard_normal((2, 3))), "s": Tensor(np.array(0.5))}
    opt = {"m.w": rng.standard_normal((2, 3)), "v.s": np.array(0.25)}
    save_checkpoint(root / "valid.lcgc", named, opt, step=3, config_text="[train]\n")
    return root


@st.composite
def corrupted(draw, valid: bytes) -> bytes:
    """``valid`` with 1 to 3 bytes changed, sometimes cut short, CRC re-sealed."""
    raw = bytearray(valid)
    if draw(st.integers(0, 3)) == 0:
        del raw[draw(st.integers(0, len(raw) - 1)) :]
    for _ in range(draw(st.integers(1, 3))):
        if raw:
            raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    # Re-sealing makes the parser, not the checksum, meet the mutated fields.
    if len(raw) >= 4:
        raw[-4:] = struct.pack("<I", zlib.crc32(raw[:-4]))
    return bytes(raw)


class TestLoadersUnderCorruption:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_shard_loader_raises_only_shard_error(self, valid_files, data):
        path = valid_files / "mutated.lcgs"
        path.write_bytes(data.draw(corrupted((valid_files / "valid.lcgs").read_bytes())))
        try:
            read_shard(path)
        except ShardError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_checkpoint_loader_raises_only_checkpoint_error(self, valid_files, data):
        path = valid_files / "mutated.lcgc"
        path.write_bytes(data.draw(corrupted((valid_files / "valid.lcgc").read_bytes())))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
