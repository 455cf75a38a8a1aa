"""Scene generation, brush masks, sample building, and shard round trips."""

import numpy as np
import pytest

from lcgdiff.conditioning import Category, MaskComposeConfig, MaskKind, scan_samples
from lcgdiff.config import DataConfig
from lcgdiff.dataforge import (
    BrushConfig,
    GenError,
    ImageMaskSample,
    Scene,
    SceneConfig,
    ShardChecksumError,
    ShardError,
    build_pairs,
    gen_brush_mask,
    gen_scene,
    make_datasets,
    read_shard,
    write_shard,
)

SCENE = SceneConfig()
BRUSH = BrushConfig()
COMPOSE = MaskComposeConfig()


def _scenes(seed: int, n: int = 4):
    rng = np.random.default_rng(seed)
    return [gen_scene(rng, SCENE) for _ in range(n)]


class TestScenes:
    def test_masks_partition_the_pixel_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            scene = gen_scene(rng, SCENE)
            total = scene.scene_mask.astype(np.int64).copy()
            for m in scene.object_masks:
                total += m
            np.testing.assert_array_equal(total, np.ones_like(total))

    def test_image_range_and_dtype(self):
        rng = np.random.default_rng(11)
        scene = gen_scene(rng, SCENE)
        assert scene.image.dtype == np.float32
        assert scene.image.shape == (SCENE.height, SCENE.width, SCENE.channels)
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0

    def test_object_count_respects_config_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            scene = gen_scene(rng, SCENE)
            assert SCENE.objects_min <= len(scene.object_masks) <= SCENE.objects_max
            for m in scene.object_masks:
                assert m.dtype == np.uint8
                assert set(np.unique(m)) <= {0, 1}

    def test_scene_determinism(self):
        a = _scenes(99, 2)
        b = _scenes(99, 2)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.scene_mask, sb.scene_mask)


class TestBrush:
    def test_coverage_lands_in_band(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            mask = gen_brush_mask(rng, BRUSH, 32, 32)
            assert BRUSH.min_ratio <= mask.mean() <= BRUSH.max_ratio
            assert set(np.unique(mask)) <= {0, 1}

    def test_impossible_band_raises_naming_the_constraint(self):
        rng = np.random.default_rng(3)
        cfg = BrushConfig(min_ratio=0.999, max_ratio=1.0, max_retries=3)
        with pytest.raises(GenError, match=r"coverage in \[0.999, 1.0\]"):
            gen_brush_mask(rng, cfg, 32, 32)


class TestBuildPairs:
    def test_category_ratio_matches_target(self):
        scenes = _scenes(1)
        rng = np.random.default_rng(2)
        n = 10_000
        samples = build_pairs(scenes, n, rng, COMPOSE, BRUSH)
        fg = sum(1 for s in samples if s.category is Category.FOREGROUND)
        target = 4.3 / 14.0
        sigma = np.sqrt(target * (1 - target) / n)
        assert abs(fg / n - target) <= 3 * sigma

    def test_samples_pass_the_scanner(self):
        scenes = _scenes(5)
        rng = np.random.default_rng(6)
        samples = build_pairs(scenes, 200, rng, COMPOSE, BRUSH)
        assert scan_samples(samples, min_ratio=0.01, max_ratio=0.98) == []

    def test_kind_provenance_is_consistent(self):
        scenes = _scenes(8)
        rng = np.random.default_rng(9)
        samples = build_pairs(scenes, 500, rng, COMPOSE, BRUSH)
        kinds = {s.mask_kind for s in samples}
        assert MaskKind.OBJECT_SEMANTIC in kinds
        assert kinds & {MaskKind.RANDOM_BRUSH, MaskKind.RANDOM_OBJECT, MaskKind.SCENE_SEMANTIC}
        for s in samples:
            if s.mask_kind is MaskKind.OBJECT_SEMANTIC:
                assert s.category is Category.FOREGROUND
            else:
                assert s.category is Category.BACKGROUND

    def test_background_mask_contains_scene_mask(self):
        scenes = _scenes(21, 3)
        rng = np.random.default_rng(22)
        samples = build_pairs(scenes, 50, rng, COMPOSE, BRUSH, fg_fraction=0.0)
        matched = 0
        for s in samples:
            for scene in scenes:
                if np.array_equal(s.image, scene.image):
                    assert np.all(s.mask >= scene.scene_mask)
                    matched += 1
                    break
        assert matched == len(samples)

    def test_needs_two_scenes(self):
        scenes = _scenes(1, 1)
        with pytest.raises(GenError, match="at least two scenes"):
            build_pairs(scenes, 4, np.random.default_rng(0), COMPOSE, BRUSH)

    def test_hops_past_scene_whose_background_exceeds_the_band(self):
        h = w = 16
        tiny = np.zeros((h, w), np.uint8)
        tiny[0, 0] = 1
        big = np.zeros((h, w), np.uint8)
        big[:8, :] = 1
        oversized = Scene(np.full((h, w, 3), 0.25, np.float32), [tiny], (1 - tiny).astype(np.uint8))
        viable = Scene(np.full((h, w, 3), 0.75, np.float32), [big], (1 - big).astype(np.uint8))
        compose = MaskComposeConfig(p_rand=0.0, p_obj=0.0)
        samples = build_pairs(
            [oversized, viable], 6, np.random.default_rng(3), compose, BRUSH,
            fg_fraction=0.0, min_ratio=0.01, max_ratio=0.98,
        )
        assert len(samples) == 6
        for s in samples:
            # Only the viable scene's background (coverage 0.5) fits the band.
            assert s.mask.mean() <= 0.98
            np.testing.assert_array_equal(s.image, viable.image)

    def test_determinism(self):
        scenes = _scenes(31)
        a = build_pairs(scenes, 40, np.random.default_rng(5), COMPOSE, BRUSH)
        b = build_pairs(scenes, 40, np.random.default_rng(5), COMPOSE, BRUSH)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.mask, sb.mask)
            assert sa.seed == sb.seed and sa.mask_kind is sb.mask_kind


class TestMakeDatasets:
    def test_counts_and_disjoint_images(self):
        data = DataConfig(height=16, width=16, scenes=8, samples=20, heldout=6)
        train, heldout = make_datasets(data, np.random.default_rng(3))
        assert len(train) == 20 and len(heldout) == 6
        for held in heldout:
            assert not any(np.array_equal(held.image, t.image) for t in train)


class TestShards:
    def _samples(self, n: int = 12):
        scenes = _scenes(41)
        return build_pairs(scenes, n, np.random.default_rng(42), COMPOSE, BRUSH)

    def test_roundtrip_preserves_every_field(self, tmp_path):
        samples = self._samples()
        path = tmp_path / "train.lcgs"
        write_shard(path, samples, config_text="[data]\nseed = 42\n")
        loaded, config_text = read_shard(path)
        assert config_text == "[data]\nseed = 42\n"
        assert len(loaded) == len(samples)
        for orig, back in zip(samples, loaded):
            np.testing.assert_array_equal(orig.image, back.image)
            np.testing.assert_array_equal(orig.mask, back.mask)
            assert orig.category is back.category
            assert orig.mask_kind is back.mask_kind
            assert orig.seed == back.seed

    def test_empty_shard_roundtrips(self, tmp_path):
        path = tmp_path / "empty.lcgs"
        write_shard(path, [], config_text="")
        loaded, config_text = read_shard(path)
        assert loaded == [] and config_text == ""

    def test_writes_are_byte_identical(self, tmp_path):
        samples = self._samples(6)
        p1, p2 = tmp_path / "a.lcgs", tmp_path / "b.lcgs"
        write_shard(p1, samples, "cfg")
        write_shard(p2, samples, "cfg")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lcgs"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ShardError, match="magic"):
            read_shard(path)

    def test_truncation_reports_offset(self, tmp_path):
        samples = self._samples(3)
        path = tmp_path / "t.lcgs"
        write_shard(path, samples, "c")
        raw = path.read_bytes()
        cut = path.with_suffix(".cut")
        cut.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ShardError, match=r"offset \d+"):
            read_shard(cut)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        samples = self._samples(3)
        path = tmp_path / "c.lcgs"
        write_shard(path, samples, "c")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # inside some sample's pixel data
        path.write_bytes(bytes(raw))
        with pytest.raises(ShardChecksumError, match="checksum mismatch"):
            read_shard(path)

    def test_rejects_float64_images(self, tmp_path):
        bad = ImageMaskSample(
            image=np.zeros((4, 4, 3), dtype=np.float64),
            mask=np.zeros((4, 4), dtype=np.uint8),
            category=Category.NULL,
            mask_kind=MaskKind.RANDOM_BRUSH,
            seed=0,
        )
        with pytest.raises(ShardError, match="float32"):
            write_shard(tmp_path / "x.lcgs", [bad])

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "g.lcgs"
        write_shard(path, self._samples(2), "c")
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(ShardError, match="trailing"):
            read_shard(path)

    def test_non_utf8_config_blob_is_a_shard_error(self, tmp_path):
        path = tmp_path / "u.lcgs"
        write_shard(path, self._samples(2), "config")
        raw = bytearray(path.read_bytes())
        raw[18 + 3] = 0xFF  # magic, header and blob length take 18 bytes
        path.write_bytes(bytes(raw))
        with pytest.raises(ShardError, match="config blob is not UTF-8: bad byte at offset 21"):
            read_shard(path)
