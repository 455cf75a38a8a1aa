"""Procedural training data: layered scenes, brush masks, binary shards.

A scene is a smooth color gradient with a handful of solid shapes stacked in
z-order. The visible part of each shape is one object mask; whatever no
shape covers is the scene mask, so the object masks plus the scene mask
partition the pixel grid exactly.

A shard is a ``container.py`` file, magic ``LCGS``, whose body holds a u64
sample count, the length-prefixed UTF-8 config that made the data, and
per-sample records (dims, category, mask kind, seed, pixels, bit-packed mask).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .conditioning import (
    Category,
    MaskComposeConfig,
    MaskKind,
    category_for_kind,
    compose_background_mask,
)
from .config import DataConfig
from .container import Reader, pack_text, seal, write_atomic

__all__ = [
    "GenError",
    "ShardError",
    "ShardChecksumError",
    "SceneConfig",
    "BrushConfig",
    "ObjectSpec",
    "SceneSpec",
    "Scene",
    "ImageMaskSample",
    "build_scene_spec",
    "rasterize_scene",
    "gen_scene",
    "gen_brush_mask",
    "build_pairs",
    "make_datasets",
    "write_shard",
    "read_shard",
    "SHARD_MAGIC",
    "SHARD_VERSION",
]

SHARD_MAGIC = b"LCGS"
SHARD_VERSION = 1


class GenError(RuntimeError):
    """A generation constraint could not be satisfied within bounded retries."""


class ShardError(RuntimeError):
    """A shard file is malformed (bad magic, version, truncation, bad field)."""


class ShardChecksumError(ShardError):
    """Shard payload does not match its trailing CRC32."""


@dataclass
class SceneConfig:
    height: int = 32
    width: int = 32
    channels: int = 3
    objects_min: int = 1
    objects_max: int = 3
    min_object_frac: float = 0.01
    max_retries: int = 30


@dataclass
class BrushConfig:
    strokes_min: int = 1
    strokes_max: int = 4
    width_min: float = 0.04
    width_max: float = 0.12
    min_ratio: float = 0.05
    max_ratio: float = 0.6
    points_min: int = 4
    points_max: int = 10
    step_min: float = 0.06
    step_max: float = 0.18
    max_retries: int = 20


@dataclass
class ObjectSpec:
    kind: str  # ellipse | rectangle | polygon
    center: tuple[float, float]
    size: tuple[float, float]
    angle: float
    vertices: np.ndarray | None
    color: np.ndarray


@dataclass
class SceneSpec:
    color_a: np.ndarray
    color_b: np.ndarray
    gradient_angle: float
    objects: list[ObjectSpec] = field(default_factory=list)


@dataclass
class Scene:
    image: np.ndarray  # float32 (H, W, C) in [0, 1]
    object_masks: list[np.ndarray]  # uint8, pairwise disjoint after z-order
    scene_mask: np.ndarray  # uint8 complement of the object union


@dataclass
class ImageMaskSample:
    image: np.ndarray  # float32 (H, W, C) in [0, 1]
    mask: np.ndarray  # uint8 (H, W)
    category: Category
    mask_kind: MaskKind
    seed: int  # generator seed this sample was drawn with


def _grid(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    ys, xs = np.mgrid[0:height, 0:width]
    return xs.astype(np.float64) + 0.5, ys.astype(np.float64) + 0.5


def _rasterize_object(obj: ObjectSpec, height: int, width: int) -> np.ndarray:
    xs, ys = _grid(height, width)
    cx, cy = obj.center
    if obj.kind == "polygon":
        return _point_in_polygon(xs, ys, obj.vertices).astype(np.uint8)
    ca, sa = np.cos(obj.angle), np.sin(obj.angle)
    dx = (xs - cx) * ca + (ys - cy) * sa
    dy = -(xs - cx) * sa + (ys - cy) * ca
    rx, ry = obj.size
    if obj.kind == "ellipse":
        return (((dx / rx) ** 2 + (dy / ry) ** 2) <= 1.0).astype(np.uint8)
    if obj.kind == "rectangle":
        return ((np.abs(dx) <= rx) & (np.abs(dy) <= ry)).astype(np.uint8)
    raise GenError(f"unknown object kind {obj.kind!r}")


def _point_in_polygon(xs: np.ndarray, ys: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Crossing-number test, vectorized over the pixel grid."""
    inside = np.zeros(xs.shape, dtype=bool)
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        crosses = (y0 > ys) != (y1 > ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = x0 + (ys - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (xs < x_at)
    return inside


def build_scene_spec(rng: np.random.Generator, config: SceneConfig) -> SceneSpec:
    """Draw a scene description; placement constraints are checked at raster time.

    All colors in a scene share one palette anchor, so occluded regions stay
    inferable from visible ones: background endpoints sit close to the anchor
    and object colors scatter further while remaining correlated with it.
    """
    h, w, c = config.height, config.width, config.channels
    side = min(h, w)
    anchor = rng.uniform(0.15, 0.85, size=c)

    def near(spread: float) -> np.ndarray:
        return np.clip(anchor + rng.uniform(-spread, spread, size=c), 0.02, 0.98)

    spec = SceneSpec(
        color_a=near(0.12),
        color_b=near(0.12),
        gradient_angle=rng.uniform(0.0, 2.0 * np.pi),
    )
    count = int(rng.integers(config.objects_min, config.objects_max + 1))
    min_pixels = config.min_object_frac * h * w
    for _ in range(count):
        for attempt in range(config.max_retries + 1):
            kind = ("ellipse", "rectangle", "polygon")[int(rng.integers(0, 3))]
            center = (rng.uniform(0.2, 0.8) * w, rng.uniform(0.2, 0.8) * h)
            size = (rng.uniform(0.08, 0.3) * side, rng.uniform(0.08, 0.3) * side)
            angle = rng.uniform(0.0, np.pi)
            vertices = None
            if kind == "polygon":
                k = int(rng.integers(3, 8))
                angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
                radii = rng.uniform(0.08, 0.3, size=k) * side
                vertices = np.stack(
                    [center[0] + radii * np.cos(angles), center[1] + radii * np.sin(angles)], axis=1
                )
            obj = ObjectSpec(kind, center, size, angle, vertices, near(0.25))
            if _rasterize_object(obj, h, w).sum() >= min_pixels:
                spec.objects.append(obj)
                break
            if attempt == config.max_retries:
                raise GenError(
                    f"object placement: coverage >= min_object_frac ({config.min_object_frac}) "
                    f"unsatisfied after {config.max_retries} retries"
                )
    return spec


def rasterize_scene(spec: SceneSpec, config: SceneConfig) -> Scene:
    h, w, c = config.height, config.width, config.channels
    xs, ys = _grid(h, w)
    direction = np.array([np.cos(spec.gradient_angle), np.sin(spec.gradient_angle)])
    proj = xs * direction[0] + ys * direction[1]
    span = proj.max() - proj.min()
    t = (proj - proj.min()) / (span if span > 0 else 1.0)
    image = spec.color_a[None, None, :] + t[..., None] * (spec.color_b - spec.color_a)[None, None, :]

    rasters = [_rasterize_object(obj, h, w) for obj in spec.objects]
    covered = np.zeros((h, w), dtype=np.uint8)
    visible: list[np.ndarray] = [np.zeros((h, w), np.uint8)] * len(rasters)
    # Later objects sit on top: walk from the top of the stack down.
    for i in range(len(rasters) - 1, -1, -1):
        vis = rasters[i] & ~covered
        visible[i] = vis
        covered |= rasters[i]
        image[vis.astype(bool)] = spec.objects[i].color
    scene_mask = (1 - covered).astype(np.uint8)
    return Scene(image.astype(np.float32), visible, scene_mask)


def gen_scene(rng: np.random.Generator, config: SceneConfig) -> Scene:
    return rasterize_scene(build_scene_spec(rng, config), config)


def _stroke_mask(rng: np.random.Generator, config: BrushConfig, height: int, width: int) -> np.ndarray:
    side = min(height, width)
    mask = np.zeros((height, width), dtype=np.uint8)
    xs, ys = _grid(height, width)
    pos = np.array([rng.uniform(0, width), rng.uniform(0, height)])
    heading = rng.uniform(0.0, 2.0 * np.pi)
    points = [pos.copy()]
    for _ in range(int(rng.integers(config.points_min, config.points_max + 1))):
        heading += rng.normal(0.0, 0.6)
        step = rng.uniform(config.step_min, config.step_max) * side
        pos = pos + step * np.array([np.cos(heading), np.sin(heading)])
        pos[0] = np.clip(pos[0], 0.0, width)
        pos[1] = np.clip(pos[1], 0.0, height)
        points.append(pos.copy())
    radius = 0.5 * rng.uniform(config.width_min, config.width_max) * side
    for a, b in zip(points[:-1], points[1:]):
        seg = b - a
        seg_len2 = float(seg @ seg)
        if seg_len2 == 0.0:
            dist2 = (xs - a[0]) ** 2 + (ys - a[1]) ** 2
        else:
            t = np.clip(((xs - a[0]) * seg[0] + (ys - a[1]) * seg[1]) / seg_len2, 0.0, 1.0)
            dist2 = (xs - (a[0] + t * seg[0])) ** 2 + (ys - (a[1] + t * seg[1])) ** 2
        mask |= (dist2 <= radius * radius).astype(np.uint8)
    return mask


def gen_brush_mask(rng: np.random.Generator, config: BrushConfig, height: int, width: int) -> np.ndarray:
    """Union of random-walk strokes, regenerated until coverage lands in band."""
    for _ in range(config.max_retries + 1):
        mask = np.zeros((height, width), dtype=np.uint8)
        for _ in range(int(rng.integers(config.strokes_min, config.strokes_max + 1))):
            mask |= _stroke_mask(rng, config, height, width)
        coverage = float(mask.mean())
        if config.min_ratio <= coverage <= config.max_ratio:
            return mask
    raise GenError(
        f"brush coverage in [{config.min_ratio}, {config.max_ratio}] "
        f"unsatisfied after {config.max_retries} retries"
    )


def build_pairs(
    scenes: list[Scene],
    count: int,
    rng: np.random.Generator,
    compose: MaskComposeConfig,
    brush: BrushConfig,
    fg_fraction: float = 4.3 / 14.0,
    min_ratio: float = 0.01,
    max_ratio: float = 0.98,
) -> list[ImageMaskSample]:
    """Emit (image, mask, category, kind) samples from rasterized scenes.

    Foreground samples reuse one object mask verbatim; background samples
    compose the scene mask with a gated fresh brush and a gated object mask
    lifted from a different scene. Each sample records the seed of its own
    generator stream, so any single sample can be re-derived.
    """
    if len(scenes) < 2:
        raise GenError("build_pairs: need at least two scenes so foreign object masks exist")
    if not 0.0 <= fg_fraction <= 1.0:
        raise ValueError(f"fg_fraction must lie in [0, 1], got {fg_fraction}")
    h, w = scenes[0].scene_mask.shape
    samples: list[ImageMaskSample] = []
    for _ in range(count):
        sample_seed = int(rng.integers(0, 2**63))
        sub = np.random.Generator(np.random.PCG64(sample_seed))
        scene_idx = int(sub.integers(0, len(scenes)))
        if sub.random() < fg_fraction:
            samples.append(_foreground_sample(scenes, scene_idx, sub, min_ratio, max_ratio, sample_seed))
        else:
            samples.append(
                _background_sample(scenes, scene_idx, sub, compose, brush, min_ratio, max_ratio, sample_seed, h, w)
            )
    return samples


def make_datasets(
    data: DataConfig, rng: np.random.Generator
) -> tuple[list[ImageMaskSample], list[ImageMaskSample]]:
    """Training and held-out pairs, both drawn in order from ``rng``.

    Held-out pairs come from ``max(2, data.scenes // 4)`` further scenes, so
    no held-out image is a training image.
    """
    scene = SceneConfig(height=data.height, width=data.width, channels=data.channels)
    compose = MaskComposeConfig(p_rand=data.p_rand, p_obj=data.p_obj)

    def pairs(scenes: int, count: int) -> list[ImageMaskSample]:
        drawn = [gen_scene(rng, scene) for _ in range(scenes)]
        return build_pairs(drawn, count, rng, compose, BrushConfig(), data.fg_fraction, data.min_ratio, data.max_ratio)

    train = pairs(data.scenes, data.samples)
    return train, pairs(max(2, data.scenes // 4), data.heldout)


def _foreground_sample(scenes, scene_idx, sub, min_ratio, max_ratio, sample_seed) -> ImageMaskSample:
    for hop in range(len(scenes)):
        scene = scenes[(scene_idx + hop) % len(scenes)]
        fits = [m for m in scene.object_masks if min_ratio <= m.mean() <= max_ratio]
        if fits:
            mask = fits[int(sub.integers(0, len(fits)))]
            return ImageMaskSample(scene.image, mask.copy(), Category.FOREGROUND, MaskKind.OBJECT_SEMANTIC, sample_seed)
    raise GenError(f"no object mask with coverage in [{min_ratio}, {max_ratio}] exists in any scene")


def _background_sample(
    scenes, scene_idx, sub, compose, brush, min_ratio, max_ratio, sample_seed, h, w
) -> ImageMaskSample:
    for hop in range(len(scenes)):
        idx = (scene_idx + hop) % len(scenes)
        scene = scenes[idx]
        # Composed masks contain the scene mask, so an oversized scene mask
        # can never fit the band; move to the next scene instead of retrying.
        if scene.scene_mask.mean() > max_ratio:
            continue
        for _ in range(brush.max_retries + 1):
            brush_mask = gen_brush_mask(sub, brush, h, w)
            other_idx = (idx + 1 + int(sub.integers(0, len(scenes) - 1))) % len(scenes)
            other = scenes[other_idx]
            if other.object_masks:
                foreign = other.object_masks[int(sub.integers(0, len(other.object_masks)))]
            else:
                foreign = np.zeros((h, w), dtype=np.uint8)
            mask, took_brush, took_obj = compose_background_mask(scene.scene_mask, brush_mask, foreign, compose, sub)
            if min_ratio <= mask.mean() <= max_ratio:
                # Provenance of the composed mask: strongest extra component included.
                if took_obj:
                    kind = MaskKind.RANDOM_OBJECT
                elif took_brush:
                    kind = MaskKind.RANDOM_BRUSH
                else:
                    kind = MaskKind.SCENE_SEMANTIC
                assert category_for_kind(kind) is Category.BACKGROUND
                return ImageMaskSample(scene.image, mask, Category.BACKGROUND, kind, sample_seed)
    raise GenError(
        f"background mask coverage in [{min_ratio}, {max_ratio}] unsatisfied in any scene "
        f"after {brush.max_retries} retries each"
    )


def _pack_sample(sample: ImageMaskSample) -> bytes:
    image = np.asarray(sample.image)
    if image.dtype != np.float32:
        raise ShardError(f"shard images must be float32, got {image.dtype}")
    if image.ndim != 3:
        raise ShardError(f"shard images must be (H, W, C), got shape {image.shape}")
    h, w, c = image.shape
    mask = np.asarray(sample.mask, dtype=np.uint8)
    if mask.shape != (h, w):
        raise ShardError(f"mask shape {mask.shape} does not match image plane {(h, w)}")
    head = struct.pack("<IIIBBQ", h, w, c, sample.category.value, sample.mask_kind.value, sample.seed)
    pixels = image.astype("<f4").tobytes()
    packed = np.packbits(mask.reshape(-1)).tobytes()
    return head + pixels + packed


def write_shard(path, samples: list[ImageMaskSample], config_text: str = "") -> None:
    records = (_pack_sample(sample) for sample in samples)
    body = b"".join([struct.pack("<Q", len(samples)), pack_text(config_text), *records])
    write_atomic(path, seal(SHARD_MAGIC, SHARD_VERSION, body))


def read_shard(path) -> tuple[list[ImageMaskSample], str]:
    reader = Reader(path, SHARD_MAGIC, SHARD_VERSION, "shard", ShardError)
    (count,) = reader.unpack("<Q", "sample count")
    config_text = reader.text("config blob")
    samples: list[ImageMaskSample] = []
    for i in range(count):
        record_at = reader.offset
        h, w, c, cat_v, kind_v, seed = reader.unpack("<IIIBBQ", f"sample {i} header")
        if not (0 < h <= 65536 and 0 < w <= 65536 and 0 < c <= 64):
            raise ShardError(f"sample {i}: implausible dims {h}x{w}x{c} at offset {record_at}")
        try:
            category = Category(cat_v)
            kind = MaskKind(kind_v)
        except ValueError:
            raise ShardError(f"sample {i}: unknown category/kind byte at offset {record_at}") from None
        pixels = reader.take(4 * h * w * c, f"sample {i} pixels")
        image = np.frombuffer(pixels, dtype="<f4").reshape(h, w, c).copy()
        packed = reader.take((h * w + 7) // 8, f"sample {i} mask")
        mask = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=h * w).reshape(h, w)
        samples.append(ImageMaskSample(image, mask.astype(np.uint8), category, kind, seed))
    reader.finish(ShardChecksumError)
    return samples, config_text
