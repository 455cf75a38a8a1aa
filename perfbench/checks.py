"""Correctness checks on what lcgdiff produced during a benchmark run.

Each checker returns a list of problems; an empty list means the output
passed. The checkers compute their expectations apart from the program
(numpy draws, zlib, byte comparisons, their own L1 and PSNR) or test a
property the method must have, so a fault in the program cannot hide
behind the same fault in the check.
"""

from __future__ import annotations

import math
import re
import struct
import zlib

import numpy as np

TAG_STEP = 2  # the trainer's stream tags: SeedSequence((seed, tag, step))
TAG_EVAL = 3
PSNR_CAP = 99.0


# --- files the benchmark writes as inputs -----------------------------------


def ppm_bytes(image: np.ndarray) -> bytes:
    """An (H, W, 3) image in [0, 1] as binary PPM with maxval 255."""
    h, w, _ = image.shape
    pixels = np.round(np.asarray(image, np.float64) * 255.0).astype(np.uint8)
    return f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def pgm_bytes(mask: np.ndarray) -> bytes:
    """A {0, 1} mask as full-contrast binary PGM."""
    h, w = mask.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + (np.asarray(mask, np.uint8) * 255).tobytes()


def parse_ppm(data: bytes) -> np.ndarray:
    """Pixel bytes of a binary PPM as an (H, W, 3) uint8 array."""
    fields = data.split(maxsplit=4)
    if len(fields) < 5 or fields[0] != b"P6" or fields[3] != b"255":
        raise ValueError("not a maxval-255 P6 file")
    w, h = int(fields[1]), int(fields[2])
    payload = data[len(data) - 3 * w * h :]
    return np.frombuffer(payload, np.uint8).reshape(h, w, 3)


# --- train --------------------------------------------------------------------


def first_step_loss(config, seed: int, n_samples: int) -> float:
    """Loss of step 0 of a fresh run, drawn here with numpy alone.

    A freshly built denoiser outputs exactly zero (``out_proj``, ``out_bias``
    and ``skip_w`` start at zero), so each chunk's loss is the mean of eps^2
    over that chunk's noise. The draws follow the trainer's order: batch
    indices, timesteps, noise; chunk losses are summed in chunk order with
    weight chunk/batch.
    """
    batch, chunk, factor = config.train.batch, config.train.chunk, config.model.factor
    latent_shape = (config.data.height // factor, config.data.width // factor, factor**2 * config.model.channels)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, TAG_STEP, 0))))
    rng.integers(0, n_samples, size=batch)
    rng.integers(0, config.schedule.timesteps, size=batch)
    eps = rng.standard_normal((batch,) + latent_shape)
    loss = 0.0
    for lo in range(0, batch, chunk):
        hi = min(lo + chunk, batch)
        loss += (hi - lo) / batch * float(np.mean(eps[lo:hi] * eps[lo:hi]))
    return loss


def read_log(text: str) -> list[tuple[int, float]]:
    rows = []
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            step, loss, _wall = line.split("\t")
            rows.append((int(step), float(loss)))
    return rows


def check_checkpoint_crc(data: bytes) -> list[str]:
    if len(data) < 4:
        return ["checkpoint shorter than its CRC"]
    (stored,) = struct.unpack("<I", data[-4:])
    actual = zlib.crc32(data[:-4])
    if stored != actual:
        return [f"checkpoint CRC {stored:#010x} != zlib.crc32 {actual:#010x}"]
    return []


def check_train_round(first_loss: float, log_text: str, checkpoints: dict[str, bytes], expected_first: float,
                      steps: int, checkpoint_every: int) -> list[str]:
    """One fresh ``trainer.train`` run: first loss, loss log, checkpoint files."""
    problems = []
    if first_loss != expected_first:
        problems.append(f"first loss {first_loss!r} != mean eps^2 {expected_first!r}")
    rows = read_log(log_text)
    if not rows:
        return problems + ["loss log has no rows"]
    if rows[0][1] != float(f"{expected_first:.12e}"):
        problems.append(f"logged first loss {rows[0][1]!r} != {expected_first:.12e}")
    logged_steps = [s for s, _ in rows]
    if logged_steps != list(range(steps)):  # so they also strictly increase
        problems.append(f"logged steps {logged_steps[:8]}... are not 0..{steps - 1} in order")
    if not all(math.isfinite(loss) for _, loss in rows):
        problems.append("a logged loss is not finite")
    if not rows[-1][1] < rows[0][1]:
        problems.append(f"last loss {rows[-1][1]} is not below first {rows[0][1]}")
    want = {f"ckpt-{k:06d}.lcgc" for k in range(checkpoint_every, steps + 1, checkpoint_every)}
    want |= {f"ckpt-{steps:06d}.lcgc", "ckpt-latest.lcgc"}
    if set(checkpoints) != want:
        problems.append(f"checkpoints {sorted(checkpoints)} != {sorted(want)}")
    for name, data in sorted(checkpoints.items()):
        problems += [f"{name}: {p}" for p in check_checkpoint_crc(data)]
    return problems


# --- infill -------------------------------------------------------------------


def check_infill(input_ppm: bytes, mask: np.ndarray, output_ppm: bytes) -> list[str]:
    """Unmasked pixels pass through byte for byte; the hole gets filled."""
    try:
        src, out = parse_ppm(input_ppm), parse_ppm(output_ppm)
    except ValueError as exc:
        return [f"unreadable PPM: {exc}"]
    if src.shape != out.shape:
        return [f"output shape {out.shape} != input shape {src.shape}"]
    hole = np.asarray(mask, bool)
    problems = []
    changed = int(np.count_nonzero(src[~hole] != out[~hole]))
    if changed:
        problems.append(f"{changed} unmasked sample bytes differ from the input")
    if not np.any(out[hole] != 0):
        problems.append("masked region equals the zeroed input")
    return problems


def check_pixels(image: np.ndarray) -> list[str]:
    image = np.asarray(image, np.float64)
    if not np.all(np.isfinite(image)):
        return ["sampler output holds non-finite values"]
    if image.min() < 0.0 or image.max() > 1.0:
        return [f"sampler output leaves [0, 1]: [{image.min()}, {image.max()}]"]
    return []


# --- eval ---------------------------------------------------------------------


def score(original: np.ndarray, filled: np.ndarray, mask: np.ndarray) -> tuple[float, float, float]:
    """(coverage, masked L1, masked PSNR in dB capped at 99) of one infill."""
    hole = np.asarray(mask, bool)
    diff = np.asarray(original, np.float64)[hole] - np.asarray(filled, np.float64)[hole]
    mse = float(np.mean(diff * diff))
    psnr = PSNR_CAP if mse == 0.0 else min(PSNR_CAP, 10.0 * math.log10(1.0 / mse))
    return float(hole.mean()), float(np.mean(np.abs(diff))), psnr


def fill_and_score(lcg, config, checkpoint, heldout, seed: int, count: int, steps: int):
    """Fill the first ``count`` held-out items with ``diffusion.sample`` at the eval seeds; score them here.

    The eval stream of item k is ``SeedSequence((seed, 3, k))``, drawn here
    rather than through the trainer's helper.
    """
    params, table = lcg.trainer.build_model(config, np.random.default_rng(0))
    named = {**params.named_params(), **table.named_params()}
    arrays, _, _, _ = lcg.checkpoint.load_checkpoint(checkpoint)
    lcg.checkpoint.restore_tensors(named, arrays)
    schedule = lcg.config.schedule_config(config)
    scores = []
    for k, rec in enumerate(heldout[:count]):
        image = np.asarray(rec.image, np.float64)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, TAG_EVAL, k))))
        filled = lcg.diffusion.sample(
            params, schedule, table, image * (1.0 - np.asarray(rec.mask, np.float64))[..., None], rec.mask,
            rec.category, rng, steps=steps, scale=config.sample.scale, guidance=config.sample.guidance,
            latent_composite=config.sample.latent_composite)
        scores.append(score(image, filled, rec.mask))
    return scores


_L1 = re.compile(r"^masked_l1 (\S+) \(checkpoint step \d+\)$")
_PSNR = re.compile(r"^masked_psnr (\S+) dB over (\d+) samples$")
_BAND = re.compile(r"^coverage \((\S+),(\S+)\]: (?:n=(\d+) l1 (\S+) psnr (\S+) dB|none)$")


def _close(printed: str, value: float) -> bool:
    """``printed`` is ``value`` rounded to the digits it shows."""
    digits = len(printed.split(".")[1]) if "." in printed else 0
    return abs(float(printed) - value) <= 0.5 * 10.0**-digits + 1e-12


def check_eval(stdout: str, scores: list[tuple[float, float, float]]) -> list[str]:
    """``lcgdiff eval`` output against scores the benchmark computed itself."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    problems = []
    l1 = [_L1.match(line) for line in lines]
    psnr = [_PSNR.match(line) for line in lines]
    bands = [_BAND.match(line) for line in lines]
    l1, psnr, bands = [m for m in l1 if m], [m for m in psnr if m], [m for m in bands if m]
    if len(l1) != 1 or len(psnr) != 1 or len(bands) != 4 or len(lines) != 6:
        return [f"unexpected eval output: {lines!r}"]
    count = len(scores)
    if not _close(l1[0].group(1), float(np.mean([s[1] for s in scores]))):
        problems.append(f"masked_l1 {l1[0].group(1)} != {np.mean([s[1] for s in scores]):.8f}")
    if not _close(psnr[0].group(1), float(np.mean([s[2] for s in scores]))):
        problems.append(f"masked_psnr {psnr[0].group(1)} != {np.mean([s[2] for s in scores]):.4f}")
    if int(psnr[0].group(2)) != count:
        problems.append(f"eval scored {psnr[0].group(2)} samples, expected {count}")
    total = 0
    for m in bands:
        low, high = float(m.group(1)), float(m.group(2))
        inside = [s for s in scores if low < s[0] <= high]
        n = int(m.group(3)) if m.group(3) else 0
        total += n
        if n != len(inside):
            problems.append(f"band ({low},{high}] holds {n}, expected {len(inside)}")
        elif inside and not (_close(m.group(4), float(np.mean([s[1] for s in inside])))
                             and _close(m.group(5), float(np.mean([s[2] for s in inside])))):
            problems.append(f"band ({low},{high}] scores {m.group(4)}/{m.group(5)} disagree")
    if total != count:
        problems.append(f"coverage bands sum to {total}, expected {count}")
    return problems


# --- traced run ---------------------------------------------------------------


def check_gla(inputs: list[np.ndarray], output: np.ndarray, oracle) -> list[str]:
    """A captured ``gla_attend`` slice against the quadratic oracle, as in C1."""
    want = oracle(*inputs).numpy()
    rel = np.abs(output - want) / np.maximum(np.abs(want), 1e-8)
    worst = float(rel.max())
    return [] if worst <= 1e-10 else [f"gla_attend differs from gla_oracle by {worst:.3e} relative"]
