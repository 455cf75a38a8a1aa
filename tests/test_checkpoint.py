"""Checkpoint round trips, byte stability, and corruption detection."""

import os
import struct
import zlib

import numpy as np
import pytest

from lcgdiff.checkpoint import (
    CheckpointChecksumError,
    CheckpointError,
    load_checkpoint,
    restore_tensors,
    save_checkpoint,
)
from lcgdiff.tensor import Tensor


def _state(seed=0):
    rng = np.random.default_rng(seed)
    named = {
        "a.weight": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
        "a.bias": Tensor(rng.standard_normal(4), requires_grad=True),
        "scale": Tensor(np.array(2.5), requires_grad=True),  # zero-dim tensor
    }
    opt = {f"m.{k}": rng.standard_normal(v.data.shape) for k, v in named.items()}
    opt.update({f"v.{k}": np.abs(rng.standard_normal(v.data.shape)) for k, v in named.items()})
    return named, opt


class TestRoundtrip:
    def test_everything_comes_back(self, tmp_path):
        named, opt = _state()
        path = tmp_path / "run.lcgc"
        save_checkpoint(path, named, opt, step=123, config_text="[train]\nlr = 0.001\n")
        params, opt_back, step, text = load_checkpoint(path)
        assert step == 123
        assert text == "[train]\nlr = 0.001\n"
        assert set(params) == set(named)
        for k in named:
            np.testing.assert_array_equal(params[k], named[k].data)
        assert set(opt_back) == set(opt)
        for k in opt:
            np.testing.assert_array_equal(opt_back[k], opt[k])

    def test_save_load_save_is_byte_identical(self, tmp_path):
        named, opt = _state(1)
        p1, p2 = tmp_path / "a.lcgc", tmp_path / "b.lcgc"
        save_checkpoint(p1, named, opt, step=7, config_text="cfg")
        params, opt_back, step, text = load_checkpoint(p1)
        reborn = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
        save_checkpoint(p2, reborn, opt_back, step=step, config_text=text)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_tables(self, tmp_path):
        path = tmp_path / "empty.lcgc"
        save_checkpoint(path, {}, {}, step=0, config_text="")
        params, opt, step, text = load_checkpoint(path)
        assert params == {} and opt == {} and step == 0 and text == ""


class TestRestore:
    def test_restore_copies_into_live_tensors(self, tmp_path):
        named, opt = _state(2)
        path = tmp_path / "x.lcgc"
        save_checkpoint(path, named, opt, step=1, config_text="")
        arrays, _, _, _ = load_checkpoint(path)
        fresh, _ = _state(3)  # different values, same structure
        restore_tensors(fresh, arrays)
        for k in named:
            np.testing.assert_array_equal(fresh[k].data, named[k].data)

    def test_name_mismatch_rejected(self):
        named, _ = _state()
        with pytest.raises(CheckpointError, match="do not match"):
            restore_tensors(named, {"other": np.zeros(1)})

    def test_shape_mismatch_rejected(self):
        named, _ = _state()
        arrays = {k: v.data.copy() for k, v in named.items()}
        arrays["a.bias"] = np.zeros(9)
        with pytest.raises(CheckpointError, match="shape mismatch for a.bias"):
            restore_tensors(named, arrays)


class TestCorruption:
    def _saved(self, tmp_path):
        named, opt = _state(4)
        path = tmp_path / "c.lcgc"
        save_checkpoint(path, named, opt, step=9, config_text="text")
        return path

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation_reports_offset(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 30])
        with pytest.raises(CheckpointError, match=r"offset \d+"):
            load_checkpoint(path)

    def test_flipped_tensor_byte_fails_checksum(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointChecksumError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_non_utf8_config_blob_is_a_checkpoint_error(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[10 + 2] = 0xFF  # magic, version and blob length take 10 bytes
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="config blob is not UTF-8: bad byte at offset 12"):
            load_checkpoint(path)

    def test_non_utf8_tensor_name_is_a_checkpoint_error(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        at = raw.index(b"a.bias")
        raw[at + 1] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"params entry 0 name is not UTF-8: bad byte at offset {at + 1}"):
            load_checkpoint(path)


def checkpoint_with_shape(shape) -> bytes:
    """A sealed checkpoint whose one parameter declares ``shape`` and holds no data."""
    body = b"LCGC" + struct.pack("<HI", 1, 0) + struct.pack("<QI", 0, 1)
    body += struct.pack("<H", 1) + b"w" + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
    body += struct.pack("<I", 0)  # empty optimizer table
    return body + struct.pack("<I", zlib.crc32(body))


class TestMalformedShape:
    def test_wrapping_size_is_a_checkpoint_error(self, tmp_path):
        # An int64 product of this shape wraps to 0 elements.
        path = tmp_path / "wrap.lcgc"
        path.write_bytes(checkpoint_with_shape((2**31, 2**31, 4)))
        with pytest.raises(CheckpointError, match=r"params w data needs \d+ bytes at offset 38"):
            load_checkpoint(path)

    def test_empty_but_oversized_shape_is_a_checkpoint_error(self, tmp_path):
        # Zero elements, so the data fits, but numpy cannot build the array.
        path = tmp_path / "huge.lcgc"
        path.write_bytes(checkpoint_with_shape((0, 2**32 - 1, 2**32 - 1)))
        with pytest.raises(CheckpointError, match=r"params w shape \(0, 4294967295, 4294967295\) at offset 26"):
            load_checkpoint(path)


class TestAtomicSave:
    def test_failed_replace_keeps_the_previous_file(self, tmp_path, monkeypatch):
        named, opt = _state(5)
        path = tmp_path / "ckpt.lcgc"
        save_checkpoint(path, named, opt, step=1, config_text="first")
        first = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk gone"):
            save_checkpoint(path, named, opt, step=2, config_text="second")
        assert path.read_bytes() == first
        assert os.listdir(tmp_path) == ["ckpt.lcgc"]
