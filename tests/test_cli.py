"""End-to-end command-line behavior and exit codes."""

import struct
import zlib

import numpy as np
import pytest

from lcgdiff import blocks, cli
from lcgdiff import tensor as T
from lcgdiff.cli import main
from lcgdiff.dataforge import read_shard
from lcgdiff.imageio import read_mask, read_ppm, write_mask, write_ppm

TINY_CONFIG = """\
[model]
d = 8
dk = 4
dv = 4
d_e = 6
e_dim = 5
temb_dim = 8

[schedule]
timesteps = 40

[train]
steps = 4
batch = 4
chunk = 2
checkpoint_every = 2

[data]
height = 16
width = 16
scenes = 4
samples = 24
heldout = 3

[sample]
steps = 3

[eval]
count = 2
steps = 3
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


@pytest.fixture
def data_dir(tmp_path, config_path):
    out = tmp_path / "data"
    assert main(["datagen", "--config", config_path, "--out", str(out)]) == 0
    return out


@pytest.fixture
def run_dir(tmp_path, config_path, data_dir):
    out = tmp_path / "run"
    code = main(
        ["train", "--config", config_path, "--data", str(data_dir / "train.lcgs"), "--out", str(out)]
    )
    assert code == 0
    return out


class TestDatagen:
    def test_writes_both_shards_with_counts(self, data_dir):
        train_samples, cfg_text = read_shard(data_dir / "train.lcgs")
        heldout, _ = read_shard(data_dir / "heldout.lcgs")
        assert len(train_samples) == 24
        assert len(heldout) == 3
        assert "[data]" in cfg_text

    def test_deterministic_given_seed(self, tmp_path, config_path):
        a, b = tmp_path / "da", tmp_path / "db"
        assert main(["datagen", "--config", config_path, "--out", str(a)]) == 0
        assert main(["datagen", "--config", config_path, "--out", str(b)]) == 0
        assert (a / "train.lcgs").read_bytes() == (b / "train.lcgs").read_bytes()

    def test_seed_flag_changes_bytes(self, tmp_path, config_path):
        a, b = tmp_path / "da", tmp_path / "db"
        assert main(["datagen", "--config", config_path, "--out", str(a)]) == 0
        assert main(["datagen", "--config", config_path, "--seed", "7", "--out", str(b)]) == 0
        assert (a / "train.lcgs").read_bytes() != (b / "train.lcgs").read_bytes()


class TestMaskgen:
    def test_writes_loadable_binary_mask(self, tmp_path, config_path):
        out = tmp_path / "mask.pgm"
        assert main(["maskgen", "--config", config_path, "--out", str(out)]) == 0
        mask = read_mask(out)
        assert mask.shape == (16, 16)
        assert 0.0 < mask.mean() < 1.0

    def test_dimension_flags(self, tmp_path):
        out = tmp_path / "mask.pgm"
        assert main(["maskgen", "--out", str(out), "--height", "24", "--width", "40"]) == 0
        assert read_mask(out).shape == (24, 40)

    @pytest.mark.parametrize("flag, value", [("--height", "0"), ("--width", "-4")])
    def test_size_below_one_is_a_configuration_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "mask.pgm"
        assert main(["maskgen", "--out", str(out), flag, value]) == 2
        assert "lcgdiff: configuration error: maskgen: mask size must be at least 1x1" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_produces_checkpoints(self, run_dir):
        assert (run_dir / "ckpt-latest.lcgc").exists()
        assert (run_dir / "ckpt-000002.lcgc").exists()
        assert (run_dir / "ckpt-000004.lcgc").exists()
        assert (run_dir / "loss.log").exists()

    def test_missing_shard_exits_1(self, tmp_path, config_path):
        code = main(
            ["train", "--config", config_path, "--data", str(tmp_path / "no.lcgs"), "--out", str(tmp_path / "r")]
        )
        assert code == 1

    def test_shard_config_shape_mismatch_exits_1(self, tmp_path, config_path, data_dir):
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CONFIG.replace("height = 16", "height = 32").replace("width = 16", "width = 32"))
        code = main(
            ["train", "--config", str(other), "--data", str(data_dir / "train.lcgs"), "--out", str(tmp_path / "r")]
        )
        assert code == 1

    def test_resume_config_mismatch_exits_2(self, tmp_path, config_path, data_dir, run_dir):
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CONFIG.replace("steps = 4", "steps = 6"))
        code = main(
            ["train", "--config", str(other), "--data", str(data_dir / "train.lcgs"),
             "--out", str(run_dir), "--resume"]
        )
        assert code == 2


class TestSample:
    def test_fills_mask_and_preserves_rest(self, tmp_path, config_path, data_dir, run_dir):
        heldout, _ = read_shard(data_dir / "heldout.lcgs")
        rec = heldout[0]
        image_path = tmp_path / "in.ppm"
        mask_path = tmp_path / "in.pgm"
        out_path = tmp_path / "out.ppm"
        write_ppm(image_path, rec.image.astype(np.float64))
        write_mask(mask_path, rec.mask)
        code = main(
            ["sample", "--config", config_path, "--checkpoint", str(run_dir / "ckpt-latest.lcgc"),
             "--image", str(image_path), "--mask", str(mask_path),
             "--category", "fg", "--out", str(out_path), "--steps", "2"]
        )
        assert code == 0
        out = read_ppm(out_path)
        original = read_ppm(image_path)
        keep = ~rec.mask.astype(bool)
        np.testing.assert_array_equal(out[keep], original[keep])

    def test_all_zero_mask_returns_input_unchanged(self, tmp_path, config_path, run_dir):
        rng = np.random.default_rng(5)
        image_path = tmp_path / "in.ppm"
        mask_path = tmp_path / "in.pgm"
        out_path = tmp_path / "out.ppm"
        write_ppm(image_path, rng.random((16, 16, 3)))
        write_mask(mask_path, np.zeros((16, 16), np.uint8))
        code = main(
            ["sample", "--config", config_path, "--checkpoint", str(run_dir / "ckpt-latest.lcgc"),
             "--image", str(image_path), "--mask", str(mask_path),
             "--category", "bg", "--out", str(out_path), "--steps", "2"]
        )
        assert code == 0
        np.testing.assert_array_equal(read_ppm(out_path), read_ppm(image_path))

    def test_mask_image_size_mismatch_exits_1(self, tmp_path, config_path, run_dir):
        image_path = tmp_path / "in.ppm"
        mask_path = tmp_path / "in.pgm"
        write_ppm(image_path, np.zeros((16, 16, 3)))
        write_mask(mask_path, np.ones((8, 8), np.uint8))
        code = main(
            ["sample", "--config", config_path, "--checkpoint", str(run_dir / "ckpt-latest.lcgc"),
             "--image", str(image_path), "--mask", str(mask_path),
             "--category", "bg", "--out", str(tmp_path / "o.ppm")]
        )
        assert code == 1

    def test_image_grid_not_divisible_by_stage_fold_exits_1(self, tmp_path, config_path, run_dir, capsys):
        # 36x36 at factor 4 is a 9x9 latent grid, which two levels cannot halve.
        image_path = tmp_path / "in.ppm"
        mask_path = tmp_path / "in.pgm"
        write_ppm(image_path, np.zeros((36, 36, 3)))
        write_mask(mask_path, np.ones((36, 36), np.uint8))
        code = main(
            ["sample", "--config", config_path, "--checkpoint", str(run_dir / "ckpt-latest.lcgc"),
             "--image", str(image_path), "--mask", str(mask_path),
             "--category", "fg", "--out", str(tmp_path / "o.ppm"), "--steps", "2"]
        )
        assert code == 1
        assert "lcgdiff: error: denoise: grid 9x9 not divisible by 2 across 2 levels" in capsys.readouterr().err
        assert not (tmp_path / "o.ppm").exists()

    def test_checkpoint_structure_mismatch_exits_2(self, tmp_path, config_path, run_dir):
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CONFIG.replace("d = 8", "d = 12"))
        image_path = tmp_path / "in.ppm"
        mask_path = tmp_path / "in.pgm"
        write_ppm(image_path, np.zeros((16, 16, 3)))
        write_mask(mask_path, np.ones((16, 16), np.uint8))
        code = main(
            ["sample", "--config", str(other), "--checkpoint", str(run_dir / "ckpt-latest.lcgc"),
             "--image", str(image_path), "--mask", str(mask_path),
             "--category", "fg", "--out", str(tmp_path / "o.ppm")]
        )
        assert code == 2


class TestEval:
    def test_prints_masked_l1(self, capsys, config_path, data_dir, run_dir):
        code = main(
            ["eval", "--config", config_path, "--checkpoint", str(run_dir / "ckpt-latest.lcgc"),
             "--data", str(data_dir / "heldout.lcgs")]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Fixture commands print too; find this command's line.
        lines = [l for l in out.splitlines() if l.startswith("masked_l1")]
        assert len(lines) == 1
        value = float(lines[0].split()[1])
        assert 0.0 <= value <= 1.0

    def test_reports_psnr_and_coverage_bands(self, capsys, config_path, data_dir, run_dir):
        code = main(
            ["eval", "--config", config_path, "--checkpoint", str(run_dir / "ckpt-latest.lcgc"),
             "--data", str(data_dir / "heldout.lcgs")]
        )
        assert code == 0
        out = capsys.readouterr().out
        psnr_lines = [l for l in out.splitlines() if l.startswith("masked_psnr")]
        assert len(psnr_lines) == 1
        assert psnr_lines[0].endswith("samples") and "dB" in psnr_lines[0]
        band_lines = [l for l in out.splitlines() if l.startswith("coverage (")]
        assert len(band_lines) == 4
        populated = [l for l in band_lines if "n=" in l]
        assert populated, "every band empty"
        for line in populated:
            assert "l1" in line and "psnr" in line


class TestCheck:
    def test_all_suites_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        for suite in ("gla", "grad", "mask", "codec"):
            assert f"{suite}: ok" in out

    def test_grad_suite_rejects_a_wrong_vjp_at_small_gradients(self, monkeypatch, capsys):
        # swish scaled by 1e-7 with a vjp twice too large: every absolute error
        # is near 1e-7, below the old 1e-6 bound but far above 1e-8.
        def tiny_swish_wrong_vjp(x):
            s = 1.0 / (1.0 + np.exp(-x.data))
            slope = s + x.data * s * (1.0 - s)
            return T._record(T.Tensor(1e-7 * x.data * s), (x,), lambda g: (2e-7 * g * slope,), "swish")

        monkeypatch.setattr(cli, "swish", tiny_swish_wrong_vjp)
        assert main(["check", "--suite", "grad"]) == 1
        assert capsys.readouterr().out.startswith("grad: FAIL")

    def test_grad_suite_rejects_a_wrong_vjp_in_the_category_bias(self, monkeypatch, capsys):
        # The bias does not read the stream, so only the probe on the
        # embedding tokens meets this token mean with a doubled vjp.
        def mean_wrong_vjp(x, axis, keepdims):
            x = T.as_tensor(x)
            out = T.Tensor(x.data.mean(axis=axis, keepdims=keepdims))
            return T._record(out, (x,), lambda g: (np.broadcast_to(2.0 * g / x.shape[axis], x.shape),), "reduce_mean")

        monkeypatch.setattr(blocks, "reduce_mean", mean_wrong_vjp)
        assert main(["check", "--suite", "grad"]) == 1
        assert capsys.readouterr().out.startswith("grad: FAIL")

    def test_single_suite(self, capsys):
        assert main(["check", "--suite", "gla"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("gla: ok")
        assert "codec" not in out


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required arguments
        assert exc.value.code == 2

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["dance"])
        assert exc.value.code == 2

    def test_bad_config_file_is_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nmomentum = 0.9\n")
        assert main(["datagen", "--config", str(bad), "--out", str(tmp_path / "d")]) == 2

    def test_non_utf8_shard_config_exits_1(self, tmp_path, config_path, data_dir, capsys):
        shard = data_dir / "train.lcgs"
        raw = bytearray(shard.read_bytes())
        raw[18] = 0xFF  # first byte of the config blob
        shard.write_bytes(bytes(raw))
        code = main(["train", "--config", config_path, "--data", str(shard), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "lcgdiff: error: config blob is not UTF-8" in capsys.readouterr().err

    def test_non_utf8_checkpoint_config_exits_1(self, config_path, data_dir, run_dir, capsys):
        ckpt = run_dir / "ckpt-latest.lcgc"
        raw = bytearray(ckpt.read_bytes())
        raw[10] = 0xFF  # first byte of the config blob
        ckpt.write_bytes(bytes(raw))
        args = ["eval", "--config", config_path, "--checkpoint", str(ckpt), "--data", str(data_dir / "heldout.lcgs")]
        assert main(args) == 1
        assert "lcgdiff: error: config blob is not UTF-8" in capsys.readouterr().err

    def test_malformed_checkpoint_shape_exits_1(self, tmp_path, config_path, data_dir, capsys):
        # One parameter of shape (0, 2**32 - 1, 2**32 - 1): no data bytes, but no valid array either.
        body = b"LCGC" + struct.pack("<HIQI", 1, 0, 0, 1) + struct.pack("<H", 1) + b"w"
        body += struct.pack("<B3I", 3, 0, 2**32 - 1, 2**32 - 1) + struct.pack("<I", 0)
        ckpt = tmp_path / "bad.lcgc"
        ckpt.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        args = ["eval", "--config", config_path, "--checkpoint", str(ckpt), "--data", str(data_dir / "heldout.lcgs")]
        assert main(args) == 1
        assert "lcgdiff: error: params w shape (0, 4294967295, 4294967295) at offset 26" in capsys.readouterr().err

    def test_heads_not_dividing_widths_is_2(self, tmp_path, capsys):
        config = tmp_path / "h3.ini"
        config.write_text("[model]\nheads = 3\n")
        args = ["sample", "--config", str(config), "--checkpoint", str(tmp_path / "none.lcgc"),
                "--image", str(tmp_path / "in.ppm"), "--mask", str(tmp_path / "in.pgm"),
                "--category", "fg", "--out", str(tmp_path / "o.ppm")]
        assert main(args) == 2
        assert "lcgdiff: configuration error: model.heads must divide model.dk and model.dv" in capsys.readouterr().err

    def test_bad_log_level_is_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LCG_LOG", "loud")
        assert main(["check", "--suite", "gla"]) == 2

    def test_log_levels_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("LCG_LOG", "info")
        assert main(["check", "--suite", "codec"]) == 0
        capsys.readouterr()
