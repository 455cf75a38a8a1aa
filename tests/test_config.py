"""Config parsing, canonical dumping, and validation."""

import pytest

from lcgdiff.config import (
    Config,
    ConfigError,
    default_config,
    dump_config,
    parse_config,
    validate_config,
)


class TestDefaults:
    def test_key_default_values(self):
        c = default_config()
        assert c.model.e_dim == 20
        assert c.sample.scale == 2.0
        assert c.data.p_rand == 0.5
        assert c.data.p_obj == 0.5
        assert c.schedule.timesteps == 1000
        assert c.schedule.beta_start == 1e-4
        assert c.schedule.beta_end == 2e-2
        assert c.sample.steps == 50
        assert c.model.tau == 16.0

    def test_defaults_validate(self):
        validate_config(default_config())


class TestParsing:
    def test_overrides_apply(self):
        c = parse_config("[model]\nd = 16\nstages = 2,1\n\n[train]\nlr = 0.01\n")
        assert c.model.d == 16
        assert c.model.stages == (2, 1)
        assert c.train.lr == 0.01
        # Untouched keys keep defaults.
        assert c.model.dk == 16

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[optimizer\]"):
            parse_config("[optimizer]\nlr = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key train.momentum"):
            parse_config("[train]\nmomentum = 0.9\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="model.d"):
            parse_config("[model]\nd = sixteen\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="sample.latent_composite"):
            parse_config("[sample]\nlatent_composite = maybe\n")

    def test_bool_words(self):
        assert parse_config("[sample]\nlatent_composite = true\n").sample.latent_composite is True
        assert parse_config("[sample]\nlatent_composite = no\n").sample.latent_composite is False

    def test_bad_stages_list(self):
        with pytest.raises(ConfigError, match="model.stages"):
            parse_config("[model]\nstages = 1,,2\n")

    def test_unparseable_text(self):
        with pytest.raises(ConfigError, match="unparseable"):
            parse_config("not an ini file at all [")


class TestDump:
    def test_roundtrip_equality(self):
        c = default_config()
        c.model.stages = (2, 2, 1)
        c.model.d = 48
        c.train.lr = 3e-4
        c.sample.latent_composite = True
        c.data.max_ratio = 0.75
        assert parse_config(dump_config(c)) == c

    def test_dump_is_stable(self):
        c = default_config()
        assert dump_config(c) == dump_config(parse_config(dump_config(c)))

    def test_model_block_is_pinned(self):
        # Every shard and checkpoint embeds this text, so field order is part of their bytes.
        text = dump_config(default_config())
        block = text[text.index("[model]\n") : text.index("\n\n[schedule]")]
        assert block.split("\n") == [
            "[model]",
            "channels = 3",
            "factor = 4",
            "d = 64",
            "dk = 16",
            "dv = 16",
            "heads = 1",
            "tau = 16.0",
            "d_e = 64",
            "e_dim = 20",
            "stages = 1,1",
            "mlp_ratio = 4",
            "temb_dim = 32",
        ]

    def test_dump_contains_all_sections(self):
        text = dump_config(default_config())
        for section in ("model", "schedule", "train", "data", "sample", "eval"):
            assert f"[{section}]" in text


class TestValidation:
    def test_ratio_order_names_both_keys(self):
        c = default_config()
        c.data.min_ratio = 0.9
        c.data.max_ratio = 0.1
        with pytest.raises(ConfigError, match="data.min_ratio.*data.max_ratio"):
            validate_config(c)

    def test_factor_divides_dimensions(self):
        c = default_config()
        c.data.height = 30
        with pytest.raises(ConfigError, match="divisible by model.factor"):
            validate_config(c)

    def test_stage_fold_must_divide_latent_grid(self):
        c = default_config()
        c.model.stages = (1, 1, 1, 1, 1)  # fold 16 > latent grid 8
        with pytest.raises(ConfigError, match="divisible by 16"):
            validate_config(c)

    def test_guidance_words(self):
        c = default_config()
        c.sample.guidance = "sideways"
        with pytest.raises(ConfigError, match="sample.guidance"):
            validate_config(c)

    def test_probability_ranges(self):
        c = default_config()
        c.train.p_drop = 1.5
        with pytest.raises(ConfigError, match="train.p_drop"):
            validate_config(c)

    def test_channel_agreement(self):
        c = default_config()
        c.data.channels = 1
        with pytest.raises(ConfigError, match="data.channels"):
            validate_config(c)

    def test_sample_steps_bounded_by_timesteps(self):
        c = default_config()
        c.sample.steps = 5000
        with pytest.raises(ConfigError, match="sample.steps"):
            validate_config(c)

    @pytest.mark.parametrize("heads, dk, dv", [(3, 16, 16), (4, 16, 6), (2, 5, 16)])
    def test_heads_must_divide_key_and_value_widths(self, heads, dk, dv):
        c = default_config()
        c.model.heads, c.model.dk, c.model.dv = heads, dk, dv
        with pytest.raises(ConfigError, match="model.heads must divide model.dk and model.dv"):
            validate_config(c)

    def test_parse_validates(self):
        with pytest.raises(ConfigError, match="model.tau"):
            parse_config("[model]\ntau = -1.0\n")


def test_config_equality_is_structural():
    assert default_config() == default_config()
    other = default_config()
    other.eval.count = 99
    assert other != Config()
