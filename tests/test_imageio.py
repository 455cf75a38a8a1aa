"""PPM/PGM round trips and header handling."""

import os

import numpy as np
import pytest

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
