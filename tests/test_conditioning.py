"""Mask taxonomy, background composition, drop, and embedding lookups."""

import numpy as np
import pytest

from lcgdiff import tensor as T
from lcgdiff.conditioning import (
    Category,
    LcgEmbeddingTable,
    MaskComposeConfig,
    MaskError,
    MaskKind,
    category_for_kind,
    compose_background_mask,
    drop_condition,
    embed,
    init_embedding_table,
    scan_samples,
    validate_binary_mask,
)
from lcgdiff.tensor import Tape, Tensor, backward


def test_kind_to_category_mapping_is_exact():
    assert category_for_kind(MaskKind.OBJECT_SEMANTIC) is Category.FOREGROUND
    for kind in (MaskKind.SCENE_SEMANTIC, MaskKind.RANDOM_BRUSH, MaskKind.RANDOM_OBJECT):
        assert category_for_kind(kind) is Category.BACKGROUND


def test_validate_binary_mask_validates_and_preserves():
    mask = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    np.testing.assert_array_equal(validate_binary_mask(mask), mask)
    with pytest.raises(MaskError, match="binary"):
        validate_binary_mask(np.array([[0.0, 0.5], [1.0, 0.0]]))


def _components():
    scene = np.zeros((6, 6), dtype=np.uint8)
    scene[0] = 1
    brush = np.zeros((6, 6), dtype=np.uint8)
    brush[:, 0] = 1
    obj = np.zeros((6, 6), dtype=np.uint8)
    obj[5, 5] = 1
    return scene, brush, obj


def test_compose_includes_gated_components_exactly_at_probability_one():
    scene, brush, obj = _components()
    cfg = MaskComposeConfig(p_rand=1.0, p_obj=1.0)
    mask, took_brush, took_obj = compose_background_mask(scene, brush, obj, cfg, np.random.default_rng(0))
    assert took_brush and took_obj
    np.testing.assert_array_equal(mask, scene | brush | obj)


def test_compose_excludes_components_exactly_at_probability_zero():
    scene, brush, obj = _components()
    cfg = MaskComposeConfig(p_rand=0.0, p_obj=0.0)
    mask, took_brush, took_obj = compose_background_mask(scene, brush, obj, cfg, np.random.default_rng(0))
    assert not took_brush and not took_obj
    np.testing.assert_array_equal(mask, scene)


def test_compose_always_contains_scene_mask_and_stays_binary():
    scene, brush, obj = _components()
    rng = np.random.default_rng(1)
    cfg = MaskComposeConfig()
    for _ in range(50):
        mask, _, _ = compose_background_mask(scene, brush, obj, cfg, rng)
        assert ((mask & scene) == scene).all()
        assert set(np.unique(mask)) <= {0, 1}


def test_compose_gate_frequencies_near_half():
    scene, brush, obj = _components()
    rng = np.random.default_rng(2)
    cfg = MaskComposeConfig()
    took = np.array(
        [compose_background_mask(scene, brush, obj, cfg, rng)[1:] for _ in range(2000)], dtype=float
    )
    # 3-sigma band for 2000 fair coin flips is about +/- 0.034.
    assert abs(took[:, 0].mean() - 0.5) < 0.034
    assert abs(took[:, 1].mean() - 0.5) < 0.034


def test_compose_rejects_shape_disagreement():
    scene, brush, _ = _components()
    with pytest.raises(MaskError, match="shape"):
        compose_background_mask(scene, brush, np.zeros((3, 3), np.uint8), MaskComposeConfig(), np.random.default_rng(0))


def test_drop_condition_edges():
    rng = np.random.default_rng(3)
    assert drop_condition(Category.FOREGROUND, 0.0, rng) is Category.FOREGROUND
    assert drop_condition(Category.BACKGROUND, 1.0, rng) is Category.NULL
    assert drop_condition(Category.NULL, 0.0, rng) is Category.NULL
    with pytest.raises(ValueError, match="p_drop"):
        drop_condition(Category.FOREGROUND, 1.5, rng)


def test_drop_condition_consumes_one_draw_either_way():
    a = np.random.default_rng(4)
    b = np.random.default_rng(4)
    drop_condition(Category.FOREGROUND, 0.0, a)
    drop_condition(Category.FOREGROUND, 1.0, b)
    assert a.random() == b.random()


def test_embedding_shapes_and_dims():
    table = init_embedding_table(20, 12, np.random.default_rng(5))
    assert table.e_dim == 20 and table.d_e == 12
    for cat in Category:
        tokens = embed(cat, table)
        assert tokens.shape == (1, 12)


def test_embedding_gradient_reaches_only_selected_rows():
    table = init_embedding_table(8, 6, np.random.default_rng(6))
    with Tape() as tape:
        loss = T.mean_square(embed(Category.FOREGROUND, table))
    grads = backward(tape, loss)
    assert np.abs(grads[table.fg]).max() > 0
    assert np.abs(grads[table.up]).max() > 0
    # Unselected categories never enter the tape: no gradient, or an exact zero.
    assert np.abs(grads.get(table.bg, np.zeros(1))).max() == 0
    assert np.abs(grads.get(table.null, np.zeros(1))).max() == 0


def test_distinct_categories_embed_distinctly():
    table = init_embedding_table(8, 6, np.random.default_rng(7))
    fg = embed(Category.FOREGROUND, table).data
    bg = embed(Category.BACKGROUND, table).data
    null = embed(Category.NULL, table).data
    assert not np.array_equal(fg, bg)
    assert not np.array_equal(fg, null)


def test_table_rejects_degenerate_dims():
    with pytest.raises(ValueError, match="positive"):
        init_embedding_table(0, 6, np.random.default_rng(0))


class _Rec:
    def __init__(self, image, mask, kind, category):
        self.image = image
        self.mask = mask
        self.mask_kind = kind
        self.category = category


def test_scanner_passes_clean_samples_and_names_violations():
    image = np.full((4, 4, 3), 0.5, dtype=np.float32)
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask[1:3, 1:3] = 1
    clean = _Rec(image, mask, MaskKind.OBJECT_SEMANTIC, Category.FOREGROUND)
    assert scan_samples([clean], 0.0, 1.0) == []

    wrong_cat = _Rec(image, mask, MaskKind.RANDOM_BRUSH, Category.FOREGROUND)
    nonbinary = _Rec(image, mask.astype(float) * 0.5, MaskKind.SCENE_SEMANTIC, Category.BACKGROUND)
    out_of_band = _Rec(image, np.ones((4, 4), np.uint8), MaskKind.SCENE_SEMANTIC, Category.BACKGROUND)
    report = scan_samples([wrong_cat, nonbinary, out_of_band], 0.0, 0.9)
    assert len(report) == 3
    assert "maps to" in report[0]
    assert "binary" in report[1]
    assert "coverage" in report[2]
