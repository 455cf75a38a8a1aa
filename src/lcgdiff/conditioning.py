"""Latent-categories conditioning: mask taxonomy, composition, embeddings.

Masks come in four kinds. Object-semantic masks condition on the foreground
category; scene-semantic, random-brush, and random-object masks condition on
the background category. Background training masks are composed as

    M_bg = M_scene OR (b_rand * M_rand) OR (b_obj * M_obj')

where the two gates are independent Bernoulli draws, so a composed mask
always contains the scene mask and may absorb a brush and an object lifted
from a different scene. A third, null category backs classifier-free
guidance: conditioning drops to null with a configured probability during
training.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensor import Tensor, matmul

__all__ = [
    "MaskKind",
    "Category",
    "MaskError",
    "MaskComposeConfig",
    "LcgEmbeddingTable",
    "category_for_kind",
    "validate_binary_mask",
    "compose_background_mask",
    "drop_condition",
    "init_embedding_table",
    "embed",
    "scan_samples",
]


class MaskKind(Enum):
    OBJECT_SEMANTIC = 0
    SCENE_SEMANTIC = 1
    RANDOM_BRUSH = 2
    RANDOM_OBJECT = 3


class Category(Enum):
    FOREGROUND = 0
    BACKGROUND = 1
    NULL = 2


_KIND_TO_CATEGORY = {
    MaskKind.OBJECT_SEMANTIC: Category.FOREGROUND,
    MaskKind.SCENE_SEMANTIC: Category.BACKGROUND,
    MaskKind.RANDOM_BRUSH: Category.BACKGROUND,
    MaskKind.RANDOM_OBJECT: Category.BACKGROUND,
}


class MaskError(ValueError):
    """A mask violates binarity, shape, or composition preconditions."""


@dataclass
class MaskComposeConfig:
    """Gate probabilities for background mask composition."""

    p_rand: float = 0.5
    p_obj: float = 0.5

    def __post_init__(self):
        for name, p in (("p_rand", self.p_rand), ("p_obj", self.p_obj)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")


def category_for_kind(kind: MaskKind) -> Category:
    return _KIND_TO_CATEGORY[kind]


def validate_binary_mask(mask: np.ndarray, name: str = "mask") -> np.ndarray:
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise MaskError(f"{name}: expected a 2-d mask, got shape {arr.shape}")
    bad = ~np.isin(arr, (0, 1))
    if bad.any():
        offender = arr[bad].flat[0]
        raise MaskError(f"{name}: mask must be binary, found value {offender!r}")
    return arr.astype(np.uint8)


def compose_background_mask(
    m_scene: np.ndarray,
    m_rand: np.ndarray,
    m_obj_prime: np.ndarray,
    config: MaskComposeConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool, bool]:
    """Union the scene mask with Bernoulli-gated brush and foreign-object masks.

    Draw order is fixed (brush gate first, then object gate) so a given rng
    stream composes reproducibly. Returns the mask and both gate outcomes.
    """
    scene = validate_binary_mask(m_scene, "scene mask")
    brush = validate_binary_mask(m_rand, "brush mask")
    obj = validate_binary_mask(m_obj_prime, "foreign object mask")
    if scene.shape != brush.shape or scene.shape != obj.shape:
        raise MaskError(
            f"component masks disagree in shape: scene {scene.shape}, brush {brush.shape}, object {obj.shape}"
        )
    take_brush = bool(rng.random() < config.p_rand)
    take_obj = bool(rng.random() < config.p_obj)
    composed = scene.copy()
    if take_brush:
        composed |= brush
    if take_obj:
        composed |= obj
    return composed, take_brush, take_obj


def drop_condition(category: Category, p_drop: float, rng: np.random.Generator) -> Category:
    """Replace the category with NULL with probability ``p_drop``.

    Always consumes exactly one draw so caller rng streams stay aligned
    whatever the outcome; NULL stays NULL.
    """
    if not 0.0 <= p_drop <= 1.0:
        raise ValueError(f"p_drop must lie in [0, 1], got {p_drop}")
    dropped = rng.random() < p_drop
    if category is Category.NULL or dropped:
        return Category.NULL
    return category


@dataclass
class LcgEmbeddingTable:
    """Learned category tokens plus the shared up-projection.

    Each category owns one token of width ``e_dim``; ``up`` lifts it to the
    width the category-bias value projection expects. Keeping the three
    categories in separate leaves means gradients only ever reach the row
    of the category that was actually selected.
    """

    fg: Tensor
    bg: Tensor
    null: Tensor
    up: Tensor

    @property
    def e_dim(self) -> int:
        return self.fg.shape[1]

    @property
    def d_e(self) -> int:
        return self.up.shape[1]

    def named_params(self) -> dict[str, Tensor]:
        return {"lcg.fg": self.fg, "lcg.bg": self.bg, "lcg.null": self.null, "lcg.up": self.up}


def init_embedding_table(
    e_dim: int,
    d_e: int,
    rng: np.random.Generator,
    init_scale: float = 0.02,
) -> LcgEmbeddingTable:
    if e_dim < 1 or d_e < 1:
        raise ValueError(f"embedding table dims must be positive, got e_dim={e_dim} d_e={d_e}")

    def row() -> Tensor:
        return Tensor(rng.standard_normal((1, e_dim)) * init_scale, requires_grad=True)

    up = Tensor(rng.standard_normal((e_dim, d_e)) * init_scale, requires_grad=True)
    return LcgEmbeddingTable(fg=row(), bg=row(), null=row(), up=up)


def embed(category: Category, table: LcgEmbeddingTable) -> Tensor:
    """The selected category token through the up-projection: a (1, d_e) block."""
    selected = {Category.FOREGROUND: table.fg, Category.BACKGROUND: table.bg, Category.NULL: table.null}[category]
    return matmul(selected, table.up)


def scan_samples(samples, min_ratio: float = 0.0, max_ratio: float = 1.0) -> list[str]:
    """Audit (image, mask, kind, category) records; returns violation strings.

    Checks the kind-to-category mapping, mask binarity and shape agreement,
    pixel range, and coverage bounds. An empty list means a clean dataset.
    """
    violations: list[str] = []
    for i, sample in enumerate(samples):
        image = np.asarray(sample.image)
        mask = np.asarray(sample.mask)
        if category_for_kind(sample.mask_kind) is not sample.category:
            violations.append(
                f"sample {i}: kind {sample.mask_kind.name} maps to "
                f"{category_for_kind(sample.mask_kind).name}, found {sample.category.name}"
            )
        try:
            validate_binary_mask(mask, f"sample {i} mask")
        except MaskError as err:
            violations.append(str(err))
            continue
        if mask.shape != image.shape[:2]:
            violations.append(f"sample {i}: mask shape {mask.shape} != image plane {image.shape[:2]}")
            continue
        if image.min() < 0.0 or image.max() > 1.0:
            violations.append(f"sample {i}: pixel values outside [0, 1]")
        coverage = float(mask.mean())
        if not min_ratio <= coverage <= max_ratio:
            violations.append(f"sample {i}: coverage {coverage:.4f} outside [{min_ratio}, {max_ratio}]")
    return violations
