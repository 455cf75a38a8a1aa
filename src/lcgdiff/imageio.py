"""Binary PPM (P6) and PGM (P5) image files with 8-bit samples.

Pixels cross the boundary as floats in [0, 1]; files store rounded 8-bit
values, so write-read round trips are exact for images that came from
files and quantize fresh ones once. Writes go through
``container.write_atomic``, so a failed write leaves an earlier file whole.
"""

from __future__ import annotations

import numpy as np

from .container import write_atomic

__all__ = ["ImageIOError", "write_ppm", "read_ppm", "write_pgm", "read_pgm", "read_mask", "write_mask"]


class ImageIOError(RuntimeError):
    """Malformed image file or out-of-contract pixel payload."""


def _write(path, arr: np.ndarray, magic: str) -> None:
    """Header and rounded 8-bit pixels, written atomically."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.size == 0:
        raise ImageIOError("empty image")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ImageIOError(f"pixels must lie in [0, 1], got [{arr.min()}, {arr.max()}]")
    h, w = arr.shape[:2]
    pixels = np.round(arr * 255.0).astype(np.uint8)
    write_atomic(path, f"{magic}\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def write_ppm(path, image: np.ndarray) -> None:
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ImageIOError(f"PPM needs an (H, W, 3) image, got shape {arr.shape}")
    _write(path, arr, "P6")


def write_pgm(path, image: np.ndarray) -> None:
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ImageIOError(f"PGM needs an (H, W) image, got shape {arr.shape}")
    _write(path, arr, "P5")


def write_mask(path, mask: np.ndarray) -> None:
    """Binary mask as full-contrast PGM."""
    arr = np.asarray(mask)
    if not np.isin(arr, (0, 1)).all():
        raise ImageIOError("mask values must be 0 or 1")
    write_pgm(path, arr.astype(np.float64))


def _read_header(data: bytes, magic: bytes, path) -> tuple[int, int, int]:
    # Header tokens may be separated by any whitespace and # comments.
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    if len(tokens) < 4:
        raise ImageIOError(f"{path}: truncated header")
    if tokens[0] != magic:
        raise ImageIOError(f"{path}: expected {magic.decode()} file, found {tokens[0]!r}")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ImageIOError(f"{path}: non-numeric header fields") from None
    if maxval != 255:
        raise ImageIOError(f"{path}: only maxval 255 is supported, got {maxval}")
    if w < 1 or h < 1:
        raise ImageIOError(f"{path}: bad dimensions {w}x{h}")
    return w, h, pos + 1  # single whitespace byte separates header from pixels


def _read(path, magic: bytes, channels: int) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    w, h, start = _read_header(data, magic, path)
    need = w * h * channels
    payload = data[start : start + need]
    if len(payload) != need:
        raise ImageIOError(f"{path}: expected {need} pixel bytes, found {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        return arr.reshape(h, w)
    return arr.reshape(h, w, channels)


def read_ppm(path) -> np.ndarray:
    return _read(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    return _read(path, b"P5", 1)


def read_mask(path) -> np.ndarray:
    """PGM thresholded at half intensity into a {0, 1} mask."""
    return (read_pgm(path) >= 0.5).astype(np.uint8)
