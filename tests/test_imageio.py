"""PPM/PGM round trips and header handling."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcgdiff.imageio import (
    ImageIOError,
    read_mask,
    read_pgm,
    read_ppm,
    write_mask,
    write_pgm,
    write_ppm,
)


class TestPpm:
    def test_quantized_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        u8 = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        image = u8.astype(np.float64) / 255.0
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        np.testing.assert_array_equal(read_ppm(path), image)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.zeros((2, 3, 3)))
        assert path.read_bytes().startswith(b"P6\n3 2\n255\n")

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        pixels = bytes(range(18))
        path.write_bytes(b"P6\n# a comment\n3 2\n# another\n255\n" + pixels)
        img = read_ppm(path)
        assert img.shape == (2, 3, 3)
        assert img[0, 0, 1] == 1 / 255.0

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ImageIOError, match="expected P6"):
            read_ppm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(ImageIOError, match="pixel bytes"):
            read_ppm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(ImageIOError, match="maxval"):
            read_ppm(path)

    def test_out_of_range_pixels_rejected(self, tmp_path):
        with pytest.raises(ImageIOError, match=r"\[0, 1\]"):
            write_ppm(tmp_path / "r.ppm", np.full((2, 2, 3), 1.5))

    def test_shape_guard(self, tmp_path):
        with pytest.raises(ImageIOError, match=r"\(H, W, 3\)"):
            write_ppm(tmp_path / "s.ppm", np.zeros((2, 2)))


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        u8 = rng.integers(0, 256, size=(4, 6), dtype=np.uint8)
        image = u8.astype(np.float64) / 255.0
        path = tmp_path / "g.pgm"
        write_pgm(path, image)
        np.testing.assert_array_equal(read_pgm(path), image)

    def test_shape_guard(self, tmp_path):
        with pytest.raises(ImageIOError, match=r"\(H, W\)"):
            write_pgm(tmp_path / "s.pgm", np.zeros((2, 2, 3)))


@pytest.mark.parametrize("write, image", [(write_ppm, np.zeros((2, 3, 3))), (write_pgm, np.zeros((2, 3)))])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, write, image):
    path = tmp_path / "img"
    write(path, image)
    first = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk gone"):
        write(path, np.ones_like(image))
    assert path.read_bytes() == first
    assert os.listdir(tmp_path) == ["img"]


class TestMask:
    def test_mask_roundtrip_binary(self, tmp_path):
        mask = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        path = tmp_path / "m.pgm"
        write_mask(path, mask)
        np.testing.assert_array_equal(read_mask(path), mask)

    def test_threshold_at_half(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 1\n255\n" + bytes([0, 127, 128, 255]))
        np.testing.assert_array_equal(read_mask(path), [[0, 0, 1, 1]])

    def test_nonbinary_mask_rejected(self, tmp_path):
        with pytest.raises(ImageIOError, match="0 or 1"):
            write_mask(tmp_path / "b.pgm", np.array([[0, 2]]))


# (reader, magic, channels); read_mask is read_pgm thresholded.
_READERS = {"ppm": (read_ppm, b"P6", 3), "pgm": (read_pgm, b"P5", 1), "mask": (read_mask, b"P5", 1)}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("imagefuzz")


def _read_or_error(reader: str, path):
    """The reader's array, or None when it raised ImageIOError; anything else escapes."""
    read, _, channels = _READERS[reader]
    try:
        arr = read(path)
    except ImageIOError:
        return None
    assert arr.ndim == (3 if channels == 3 else 2)
    assert arr.min() >= 0.0 and arr.max() <= 1.0
    if reader == "mask":
        assert arr.dtype == np.uint8 and np.isin(arr, (0, 1)).all()
    return arr


# Separators between header fields, and whether the format accepts them: a
# comment must follow whitespace, and fields must not run together.
_SEPARATORS = {b" ": True, b"\n": True, b"\t": True, b"\r\n": True, b"\n# note\n": True, b"": False, b"#\n": False}
# Width fields, and the width they declare when the format accepts them.
_WIDTHS = {b"1": 1, b"3": 3, b"05": 5, b"0": None, b"-2": None, b"1.5": None, b"0x3": None,
           "\u0663".encode("utf-8"): None, str(10**30).encode("ascii"): None}
_MAXVALS = {b"255": True, b"0255": True, b"65535": False, b"0": False, b"-255": False, b"255.0": False}


class TestReadersUnderArbitraryBytes:
    """Any bytes give ImageIOError or an array of the header's shape in [0, 1]."""

    @settings(max_examples=300, deadline=None)
    @given(
        reader=st.sampled_from(sorted(_READERS)),
        magic=st.sampled_from([b"P6", b"P5", b"P3", b"P6x", b"\xff"]),
        w=st.sampled_from(sorted(_WIDTHS)),
        h=st.integers(-1, 4),
        maxval=st.sampled_from(sorted(_MAXVALS)),
        seps=st.lists(st.sampled_from(sorted(_SEPARATORS)), min_size=3, max_size=3),
        end=st.sampled_from([b" ", b"\n", b"\t", b"\r"]),
        spare=st.integers(-3, 3),
        data=st.data(),
    )
    def test_generated_headers(self, fuzz_dir, reader, magic, w, h, maxval, seps, end, spare, data):
        _, want_magic, channels = _READERS[reader]
        width = _WIDTHS[w]
        header = magic + b"".join(sep + field for sep, field in zip(seps, (w, str(h).encode("ascii"), maxval))) + end
        need = width * h * channels if width and h > 0 else 4
        payload = data.draw(st.binary(min_size=max(need + spare, 0), max_size=max(need + spare, 0)))
        path = fuzz_dir / f"gen.{reader}"
        path.write_bytes(header + payload)
        arr = _read_or_error(reader, path)
        valid_header = (
            magic == want_magic and all(_SEPARATORS[sep] for sep in seps) and width and h > 0 and _MAXVALS[maxval]
        )
        # Pixels past the declared count are ignored; too few are an error.
        assert (arr is not None) == bool(valid_header and spare >= 0), header
        if arr is not None:
            assert arr.shape[:2] == (h, width)

    @settings(max_examples=300, deadline=None)
    @given(reader=st.sampled_from(sorted(_READERS)), data=st.data())
    def test_mutated_files(self, fuzz_dir, reader, data):
        _, magic, channels = _READERS[reader]
        rng = np.random.default_rng(0)
        h, w = 3, 4
        raw = bytearray(magic + b"\n# c\n4 3\n255\n" + rng.integers(0, 256, h * w * channels, dtype=np.uint8).tobytes())
        if data.draw(st.integers(0, 3)) == 0:
            del raw[data.draw(st.integers(0, len(raw) - 1)) :]
        for _ in range(data.draw(st.integers(1, 3))):
            if raw:
                raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        path = fuzz_dir / f"mut.{reader}"
        path.write_bytes(bytes(raw))
        _read_or_error(reader, path)
