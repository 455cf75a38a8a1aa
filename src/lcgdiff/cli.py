"""Command-line entry points.

Subcommands cover the full loop: ``datagen`` and ``maskgen`` produce data,
``train`` fits a model, ``sample`` fills masked images, ``eval`` scores a
checkpoint on held-out data, and ``check`` runs built-in verification
suites. Exit codes: 0 success, 1 runtime failure, 2 usage or configuration
error. ``LCG_LOG`` (error, info, debug) sets log verbosity on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .blocks import init_interaction_params, interaction_forward
from .checkpoint import CheckpointError, load_checkpoint, restore_tensors
from .codec import CodecError, decode_output, encode_image, encode_inputs
from .conditioning import (
    Category,
    MaskComposeConfig,
    MaskError,
    compose_background_mask,
    drop_condition,
    scan_samples,
)
from .config import (
    Config,
    ConfigError,
    default_config,
    dump_config,
    load_config,
    parse_config,
    schedule_config,
)
from .dataforge import (
    BrushConfig,
    GenError,
    ShardError,
    gen_brush_mask,
    make_datasets,
    read_shard,
    write_shard,
)
from .gla import gla_attend, gla_oracle
from .imageio import ImageIOError, read_mask, read_ppm, write_mask, write_ppm
from .tensor import ShapeError, Tensor, check_gradient, mean_square, mul, reduce_sum, sigmoid, swish
from .trainer import (
    TAG_INIT,
    TAG_SAMPLE,
    ConfigMismatchError,
    TrainerError,
    build_model,
    evaluate_samples,
    step_rng,
    train,
)
from .diffusion import sample as run_sampler

log = logging.getLogger("lcgdiff.cli")

_CATEGORY_WORDS = {"fg": Category.FOREGROUND, "bg": Category.BACKGROUND, "null": Category.NULL}

_RUNTIME_ERRORS = (
    TrainerError,
    GenError,
    ShardError,
    CheckpointError,
    ImageIOError,
    MaskError,
    CodecError,
    ShapeError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
)


def _setup_logging() -> None:
    word = os.environ.get("LCG_LOG", "error").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if word not in levels:
        raise ConfigError(f"LCG_LOG must be one of error, info, debug; got {word!r}")
    logging.basicConfig(level=levels[word], stream=sys.stderr, format="%(name)s %(levelname)s %(message)s")


def _load_config(args) -> Config:
    if getattr(args, "config", None):
        return load_config(args.config)
    return default_config()


def _restore(args, config: Config):
    params, table = build_model(config, step_rng(config.train.seed, TAG_INIT, 0))
    named = {**params.named_params(), **table.named_params()}
    arrays, _, step, saved_text = load_checkpoint(args.checkpoint)
    saved = parse_config(saved_text)
    if saved.model != config.model or saved.schedule != config.schedule:
        raise ConfigError(
            "checkpoint model/schedule sections differ from the given config; "
            "sampling with mismatched structure is refused"
        )
    restore_tensors(named, arrays)
    return params, table, step


def _cmd_datagen(args) -> int:
    config = _load_config(args)
    if args.seed is not None:
        config.data.seed = args.seed
    d = config.data
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_samples, heldout_samples = make_datasets(d, step_rng(d.seed, 0, 0))
    problems = scan_samples(train_samples + heldout_samples, d.min_ratio, d.max_ratio)
    if problems:
        for p in problems[:10]:
            log.error("scan: %s", p)
        print(f"datagen: generated data failed audit with {len(problems)} problems", file=sys.stderr)
        return 1
    config_text = dump_config(config)
    train_path = out_dir / "train.lcgs"
    heldout_path = out_dir / "heldout.lcgs"
    write_shard(train_path, train_samples, config_text)
    write_shard(heldout_path, heldout_samples, config_text)
    print(f"wrote {len(train_samples)} samples to {train_path}")
    print(f"wrote {len(heldout_samples)} samples to {heldout_path}")
    return 0


def _cmd_maskgen(args) -> int:
    config = _load_config(args)
    seed = config.data.seed if args.seed is None else args.seed
    height = config.data.height if args.height is None else args.height
    width = config.data.width if args.width is None else args.width
    if height < 1 or width < 1:
        raise ConfigError(f"maskgen: mask size must be at least 1x1, got {height}x{width}")
    mask = gen_brush_mask(step_rng(seed, 0, 1), BrushConfig(), height, width)
    write_mask(args.out, mask)
    print(f"wrote {height}x{width} mask ({mask.mean():.3f} covered) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    if args.seed is not None:
        config.train.seed = args.seed
    samples, _ = read_shard(args.data)
    if not samples:
        raise TrainerError(f"{args.data} holds no samples")
    h, w, c = samples[0].image.shape
    d = config.data
    if (h, w, c) != (d.height, d.width, d.channels):
        raise TrainerError(
            f"shard samples are {h}x{w}x{c} but config expects {d.height}x{d.width}x{d.channels}"
        )
    result = train(config, samples, args.out, threads=args.threads, resume=args.resume)
    print(
        f"trained {result.steps_run} steps: first loss {result.first_loss:.6f}, "
        f"final loss {result.final_loss:.6f}"
        if result.first_loss is not None
        else f"trained {result.steps_run} steps: final loss {result.final_loss:.6f}"
    )
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _cmd_sample(args) -> int:
    config = _load_config(args)
    if args.steps is not None:
        config.sample.steps = args.steps
    if args.scale is not None:
        config.sample.scale = args.scale
    if args.seed is not None:
        config.sample.seed = args.seed
    if args.guidance is not None:
        config.sample.guidance = args.guidance
    params, table, _ = _restore(args, config)
    image = read_ppm(args.image)
    mask = read_mask(args.mask)
    if mask.shape != image.shape[:2]:
        raise ImageIOError(f"mask {mask.shape} does not cover image {image.shape[:2]}")
    masked = image * (1.0 - mask[..., None])
    out = run_sampler(
        params,
        schedule_config(config),
        table,
        masked,
        mask,
        _CATEGORY_WORDS[args.category],
        step_rng(config.sample.seed, TAG_SAMPLE, 0),
        steps=config.sample.steps,
        scale=config.sample.scale,
        guidance=config.sample.guidance,
        latent_composite=config.sample.latent_composite,
    )
    write_ppm(args.out, out)
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    params, table, step = _restore(args, config)
    heldout, _ = read_shard(args.data)
    if not heldout:
        raise TrainerError(f"{args.data} holds no samples")
    scored = evaluate_samples(
        config,
        params,
        table,
        schedule_config(config),
        heldout,
        count=args.count,
        steps=args.steps,
        seed=args.seed,
    )
    mean_l1 = float(np.mean([s.l1 for s in scored]))
    mean_psnr = float(np.mean([s.psnr for s in scored]))
    print(f"masked_l1 {mean_l1:.6f} (checkpoint step {step})")
    print(f"masked_psnr {mean_psnr:.2f} dB over {len(scored)} samples")
    edges = (0.25, 0.5, 0.75, 1.0)
    low = 0.0
    for high in edges:
        band = [s for s in scored if low < s.coverage <= high]
        if band:
            l1 = float(np.mean([s.l1 for s in band]))
            psnr = float(np.mean([s.psnr for s in band]))
            print(f"coverage ({low:.2f},{high:.2f}]: n={len(band)} l1 {l1:.6f} psnr {psnr:.2f} dB")
        else:
            print(f"coverage ({low:.2f},{high:.2f}]: none")
        low = high
    return 0


def _suite_gla(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        length = int(rng.integers(1, 12))
        dk, dv = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        q = rng.standard_normal((length, dk))
        k = rng.standard_normal((length, dk))
        v = rng.standard_normal((length, dv))
        alpha = rng.uniform(0.1, 0.999, (length, dk))
        beta = rng.uniform(0.1, 0.999, (length, dv))
        got, _ = gla_attend(q, k, v, alpha, beta)
        want = gla_oracle(q, k, v, alpha, beta).numpy()
        err = np.abs(got.numpy() - want) / np.maximum(np.abs(want), 1e-8)
        worst = max(worst, float(err.max()))
    return worst < 1e-10, f"max rel err {worst:.3e} over 50 instances"


def _suite_grad(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    params = init_interaction_params(6, 4, 4, 5, rng, zero_residual=False)
    x = rng.standard_normal((7, 6))
    e = rng.standard_normal((2, 5))

    # The block with respect to its stream, then its embedding tokens: the
    # category bias does not read the stream, so only the second probe
    # reaches the cross stage's vjp.
    reports = [
        check_gradient(lambda p: mean_square(interaction_forward(p, e, params)), Tensor(x),
                       max_probes=12, rng=np.random.default_rng(0)),
        check_gradient(lambda p: mean_square(interaction_forward(x, p, params)), Tensor(e),
                       max_probes=12, rng=np.random.default_rng(0)),
    ]

    # The fused gla_attend node's hand-written vjp, probed on each of its five
    # inputs (q, k, v, alpha, beta) with a loss on the reads.
    lead, length, dk, dv = (2,), 5, 3, 4
    inputs = [
        rng.standard_normal(lead + (length, dk)),
        rng.standard_normal(lead + (length, dk)),
        rng.standard_normal(lead + (length, dv)),
        rng.uniform(0.1, 0.999, lead + (length, dk)),
        rng.uniform(0.1, 0.999, lead + (length, dv)),
    ]
    w_reads = Tensor(rng.standard_normal(lead + (length, dv)))
    for i in range(len(inputs)):

        def attend_loss(p: Tensor, i: int = i) -> Tensor:
            args = [Tensor(a) for a in inputs]
            args[i] = p
            return reduce_sum(mul(gla_attend(*args)[0], w_reads))

        reports.append(check_gradient(attend_loss, Tensor(inputs[i]), max_probes=8, rng=np.random.default_rng(0)))

    # sigmoid and swish on both signs, an exact 0 and |x| > 30, where one
    # exp(-|x|) serves both sides of the branch-free form.
    x_act = rng.standard_normal((3, 4)) * 3.0
    x_act.flat[:4] = (0.0, -31.0, 36.5, -40.0)
    w_act = Tensor(rng.standard_normal((3, 4)))
    for act in (sigmoid, swish):
        reports.append(check_gradient(lambda p, act=act: reduce_sum(mul(act(p), w_act)), Tensor(x_act)))
    ok = all(r.ok(rel_tol=1e-4) for r in reports)
    # Gradients near 1e-14 (sigmoid at |x| > 30) sit below difference noise,
    # so they pass on ok()'s absolute bound of 1e-8; print both errors.
    worst_rel = max(r.max_rel_err for r in reports)
    worst_abs = max(r.max_abs_err for r in reports)
    probed = sum(r.probed for r in reports)
    return ok, (
        f"max rel err {worst_rel:.3e}, max abs err {worst_abs:.3e} on {probed} probed coordinates"
        " (interaction block on stream and tokens, gla_attend, sigmoid, swish)"
    )


def _suite_mask(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    scene = (rng.random((16, 16)) < 0.3).astype(np.uint8)
    brush = (rng.random((16, 16)) < 0.3).astype(np.uint8)
    foreign = (rng.random((16, 16)) < 0.3).astype(np.uint8)
    draws = 2000
    config = MaskComposeConfig(p_rand=0.5, p_obj=0.5)
    hits_b = hits_o = 0
    for _ in range(draws):
        _, tb, to = compose_background_mask(scene, brush, foreign, config, rng)
        hits_b += tb
        hits_o += to
    err_b = abs(hits_b / draws - 0.5)
    err_o = abs(hits_o / draws - 0.5)
    always, _, _ = compose_background_mask(scene, brush, foreign, MaskComposeConfig(1.0, 1.0), rng)
    never, tb0, to0 = compose_background_mask(scene, brush, foreign, MaskComposeConfig(0.0, 0.0), rng)
    exact_ok = (
        np.array_equal(always, np.maximum(scene, np.maximum(brush, foreign)))
        and np.array_equal(never, scene)
        and not tb0
        and not to0
    )
    drops = sum(drop_condition(Category.FOREGROUND, 0.5, rng) is Category.NULL for _ in range(draws))
    err_d = abs(drops / draws - 0.5)
    ok = exact_ok and err_b < 0.05 and err_o < 0.05 and err_d < 0.05
    return ok, f"gate freq errs {err_b:.3f}/{err_o:.3f}, drop err {err_d:.3f}, exact limits {exact_ok}"


def _suite_codec(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for i in range(200):
        f = int(rng.choice([1, 2, 4]))
        h = f * int(rng.integers(1, 6))
        w = f * int(rng.integers(1, 6))
        c = int(rng.integers(1, 4))
        image = rng.random((h, w, c))
        if not np.array_equal(decode_output(encode_image(image, f), f), image):
            return False, f"roundtrip {i} changed bits (f={f}, shape {(h, w, c)})"
    image = rng.random((4, 4, 2))
    mask = (rng.random((4, 4)) < 0.5).astype(np.uint8)
    try:
        encode_inputs(image, mask, image * 0.5, 2)
        return False, "inconsistent masked image was accepted"
    except CodecError:
        pass
    return True, "200 bit-exact roundtrips, consistency check enforced"


_SUITES = {"gla": _suite_gla, "grad": _suite_grad, "mask": _suite_mask, "codec": _suite_codec}


def _cmd_check(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        ok, detail = _SUITES[name](args.seed)
        print(f"{name}: {'ok' if ok else 'FAIL'} ({detail})")
        failed |= not ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lcgdiff", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed_help: str) -> None:
        p.add_argument("--config", help="config file (defaults apply when omitted)")
        p.add_argument("--seed", type=int, default=None, help=seed_help)

    p = sub.add_parser("datagen", help="generate training and held-out shards")
    common(p, "override data.seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_datagen)

    p = sub.add_parser("maskgen", help="generate one brush mask as PGM")
    common(p, "override the mask seed")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.set_defaults(func=_cmd_maskgen)

    p = sub.add_parser("train", help="train a model on a shard")
    common(p, "override train.seed")
    p.add_argument("--data", required=True, help="training shard path")
    p.add_argument("--out", required=True, help="run directory for checkpoints and logs")
    p.add_argument("--threads", type=int, default=1, help="worker threads for batch chunks")
    p.add_argument("--resume", action="store_true", help="continue from the latest checkpoint")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sample", help="fill the masked region of an image")
    common(p, "override sample.seed")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="input PPM")
    p.add_argument("--mask", required=True, help="mask PGM; bright pixels are filled")
    p.add_argument("--category", choices=sorted(_CATEGORY_WORDS), required=True)
    p.add_argument("--out", required=True, help="output PPM")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--guidance", choices=["null", "opposite"], default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("eval", help="mean masked L1 of a checkpoint on held-out data")
    common(p, "override eval.seed")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="held-out shard path")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="run built-in verification suites")
    p.add_argument("--suite", choices=sorted(_SUITES) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ConfigMismatchError) as exc:
        print(f"lcgdiff: configuration error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"lcgdiff: error: {exc}", file=sys.stderr)
        return 1


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
