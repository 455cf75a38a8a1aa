#!/usr/bin/env python3
"""Sweep the guidance scale of a trained checkpoint and report masked L1.

Points at a run directory produced by toy_pipeline.py or ``lcgdiff train``
and regenerates held-out data from the configuration stored inside the
checkpoint, so the sweep is comparable across runs of the same config.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lcgdiff.checkpoint import load_checkpoint, restore_tensors
from lcgdiff.config import (
    brush_config,
    compose_config,
    parse_config,
    scene_config,
    schedule_config,
)
from lcgdiff.dataforge import build_pairs, gen_scene
from lcgdiff.diffusion import masked_l1, sample
from lcgdiff.trainer import TAG_INIT, TAG_SAMPLE, build_model, step_rng


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--run", type=Path, required=True, help="directory holding ckpt-latest.lcgc")
    ap.add_argument("--scales", default="0,1,2,4")
    ap.add_argument("--count", type=int, default=8)
    ap.add_argument("--steps", type=int, default=25)
    ap.add_argument("--guidance", default="null", choices=["null", "opposite"])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    arrays, _, step, config_text = load_checkpoint(args.run / "ckpt-latest.lcgc")
    config = parse_config(config_text)
    params, table = build_model(config, step_rng(config.train.seed, TAG_INIT, 0))
    restore_tensors({**params.named_params(), **table.named_params()}, arrays)
    schedule = schedule_config(config)

    rng = np.random.default_rng(args.seed)
    scenes = [gen_scene(rng, scene_config(config)) for _ in range(6)]
    heldout = build_pairs(
        scenes, args.count, rng, compose_config(config), brush_config(config),
        config.data.fg_fraction, config.data.min_ratio, config.data.max_ratio,
    )

    scales = [float(s) for s in args.scales.split(",")]
    masked = np.stack([rec.image * (1 - rec.mask[..., None]).astype(rec.image.dtype) for rec in heldout])
    masks = np.stack([rec.mask for rec in heldout])
    categories = [rec.category for rec in heldout]
    print(f"checkpoint step {step}, {args.count} held-out samples, {args.steps} sampler steps")
    print("scale\tmasked_l1")
    for scale in scales:
        filled = sample(
            params, schedule, table, masked, masks, categories,
            [step_rng(args.seed, TAG_SAMPLE, k) for k in range(len(heldout))],
            steps=args.steps, scale=scale, guidance=args.guidance,
        )
        total = sum(masked_l1(rec.image, out, rec.mask) for rec, out in zip(heldout, filled))
        print(f"{scale:g}\t{total / len(heldout):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
