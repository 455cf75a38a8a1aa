#!/usr/bin/env python3
"""Sweep the guidance scale of a trained checkpoint and report masked L1.

Points at a run directory produced by toy_pipeline.py or ``lcgdiff train``
and regenerates the held-out shard that ``lcgdiff datagen`` writes for the
configuration stored inside the checkpoint, so the sweep is comparable
across runs of the same config.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lcgdiff.checkpoint import load_checkpoint, restore_tensors
from lcgdiff.config import parse_config, schedule_config
from lcgdiff.dataforge import make_datasets
from lcgdiff.trainer import TAG_INIT, build_model, evaluate_heldout, step_rng


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
    heldout = make_datasets(config.data, step_rng(config.data.seed, 0, 0))[1][: args.count]

    config.sample.guidance = args.guidance
    print(f"checkpoint step {step}, {len(heldout)} held-out samples, {args.steps} sampler steps")
    print("scale\tmasked_l1")
    for scale in [float(s) for s in args.scales.split(",")]:
        config.sample.scale = scale
        l1 = evaluate_heldout(config, params, table, schedule, heldout, len(heldout), args.steps, args.seed)
        print(f"{scale:g}\t{l1:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
