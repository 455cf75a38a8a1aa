#!/usr/bin/env python3
"""End-to-end toy run: generate data, train, evaluate, and fill one mask.

Writes everything under --out (default runs/toy): the checkpoint and loss
log from training, before/after PPM images for one held-out sample, and a
summary of held-out masked L1 for the trained model against its freshly
initialized twin. At the default 300 steps this takes about a minute.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lcgdiff.checkpoint import load_checkpoint, restore_tensors
from lcgdiff.config import default_config, schedule_config
from lcgdiff.dataforge import make_datasets
from lcgdiff.diffusion import masked_l1, sample
from lcgdiff.imageio import write_mask, write_ppm
from lcgdiff.trainer import (
    TAG_INIT,
    TAG_SAMPLE,
    build_model,
    evaluate_heldout,
    read_loss_log,
    step_rng,
    train,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("runs/toy"))
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--samples", type=int, default=256)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    config = default_config()
    config.train.steps = args.steps
    config.train.seed = args.seed
    config.train.checkpoint_every = max(1, args.steps // 3)
    config.data.samples = args.samples
    config.data.seed = args.seed
    config.eval.count = 8
    config.eval.steps = 25

    pairs, heldout = make_datasets(config.data, np.random.default_rng(config.data.seed))
    print(f"data: {len(pairs)} training pairs, {len(heldout)} held out")

    started = time.monotonic()
    result = train(config, pairs, args.out / "run", threads=args.threads)
    rows = read_loss_log(result.log_path)
    print(
        f"train: {result.steps_run} steps in {time.monotonic() - started:.1f}s, "
        f"loss {rows[0][1]:.4f} -> {rows[-1][1]:.4f}"
    )

    params, table = build_model(config, step_rng(config.train.seed, TAG_INIT, 0))
    arrays, _, step, _ = load_checkpoint(result.checkpoint_path)
    restore_tensors({**params.named_params(), **table.named_params()}, arrays)
    fresh_params, fresh_table = build_model(config, step_rng(config.train.seed, TAG_INIT, 0))

    schedule = schedule_config(config)
    l1_trained = evaluate_heldout(config, params, table, schedule, heldout)
    l1_fresh = evaluate_heldout(config, fresh_params, fresh_table, schedule, heldout)
    print(f"eval: masked L1 {l1_trained:.4f} trained vs {l1_fresh:.4f} untrained (step {step})")

    rec = heldout[0]
    masked = rec.image * (1 - rec.mask[..., None]).astype(rec.image.dtype)
    filled = sample(
        params, schedule, table, masked, rec.mask, rec.category,
        step_rng(config.sample.seed, TAG_SAMPLE, 0),
        steps=config.sample.steps, scale=config.sample.scale,
    )
    gallery = args.out / "gallery"
    gallery.mkdir(parents=True, exist_ok=True)
    write_ppm(gallery / "original.ppm", rec.image)
    write_ppm(gallery / "masked.ppm", masked)
    write_ppm(gallery / "filled.ppm", filled)
    write_mask(gallery / "mask.pgm", rec.mask)
    print(
        f"sample: filled held-out image 0 ({rec.category.name.lower()}), "
        f"masked L1 {masked_l1(rec.image, filled, rec.mask):.4f}, wrote {gallery}/"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
