"""Training loop: deterministic streams, chunked gradients, checkpoints.

Every step draws from a generator seeded by (run seed, purpose tag, step),
so step k's batch, noise, and condition drops are a pure function of the
config. Resuming from a checkpoint therefore replays the exact run that an
uninterrupted process would have produced.

A batch is split into fixed-size chunks. Chunks may be evaluated on any
number of threads, but their losses and gradients are reduced in
chunk-index order afterward, which keeps results identical for any
``--threads`` value. Eval splits its held-out items across threads the same
way; each item has its own generator, so the fills do not depend on the
thread count either.
"""

from __future__ import annotations

import fcntl
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, restore_tensors, save_checkpoint
from .conditioning import LcgEmbeddingTable, drop_condition, embed, init_embedding_table
from .config import Config, dump_config, schedule_config
from .container import write_atomic
from .dataforge import ImageMaskSample
from .denoiser import DenoiserParams, init_denoiser
from .diffusion import (
    DiffusionSchedule,
    build_conditioning,
    loss_given_noise,
    masked_l1,
    masked_psnr,
    sample,
)
from .optim import AdamWConfig, AdamWState, adamw_step, init_adamw
from .tensor import Tape, Tensor, backward, stack

__all__ = [
    "TrainerError",
    "LockError",
    "ConfigMismatchError",
    "TAG_INIT",
    "TAG_STEP",
    "TAG_EVAL",
    "TAG_SAMPLE",
    "step_rng",
    "build_model",
    "TrainResult",
    "train",
    "evaluate_heldout",
    "read_loss_log",
]

log = logging.getLogger("lcgdiff.trainer")

TAG_INIT = 1
TAG_STEP = 2
TAG_EVAL = 3
TAG_SAMPLE = 4

LATEST_CHECKPOINT = "ckpt-latest.lcgc"

EVAL_CHUNK = 16  # held-out items per sample call on the calling thread
# ... and on a worker thread, whose whole working set is new memory. In the
# benchmark's 16-item eval on two cores, a worker filling its 8 items 4 at a
# time adds about 7 MB to the peak RSS; 8 at a time, about 13 MB.
EVAL_WORKER_CHUNK = 4


class TrainerError(RuntimeError):
    """Training could not proceed."""


class LockError(TrainerError):
    """Another run holds the output directory."""


class ConfigMismatchError(TrainerError):
    """Resume requested with a config different from the checkpoint's."""


def step_rng(seed: int, tag: int, step: int) -> np.random.Generator:
    """Independent stream for one (run, purpose, step) triple."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, tag, step))))


def build_model(config: Config, rng: np.random.Generator) -> tuple[DenoiserParams, LcgEmbeddingTable]:
    params = init_denoiser(config.model, rng, zero_residual=True)
    table = init_embedding_table(e_dim=config.model.e_dim, d_e=config.model.d_e, rng=rng)
    return params, table


@dataclass
class TrainResult:
    steps_run: int
    first_loss: float | None
    final_loss: float
    checkpoint_path: Path
    log_path: Path


def _encode_all(samples: list[ImageMaskSample], factor: int):
    z0s, conds, cats = [], [], []
    for s in samples:
        z0, cond = build_conditioning(s.image, s.mask, factor)
        z0s.append(z0)
        conds.append(cond)
        cats.append(s.category)
    return np.stack(z0s), np.stack(conds), cats


def _chunk_ranges(start: int, stop: int, chunk: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk, stop)) for lo in range(start, stop, chunk)]


def _shares(total: int, parts: int) -> list[tuple[int, int]]:
    """``range(total)`` as at most ``parts`` contiguous ranges whose sizes differ by at most one."""
    parts = max(1, min(parts, total))
    size, extra = divmod(total, parts)
    bounds = [k * size + min(k, extra) for k in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_ranges(fn, ranges: list[tuple[int, int]], threads: int) -> list:
    """``[fn(lo, hi) for lo, hi in ranges]``, run on up to ``threads`` threads.

    The ranges are dealt out in contiguous groups, one per thread. The
    calling thread runs the first group itself: it reuses memory it already
    holds, where a worker's working set is all new. Results come back in
    range order. Every worker has finished before this returns or raises,
    and the error raised is the first in range order.
    """
    groups = [ranges[a:b] for a, b in _shares(len(ranges), threads)]

    def run_group(group):
        return [fn(lo, hi) for lo, hi in group]

    if len(groups) == 1:
        return run_group(groups[0])
    with ThreadPoolExecutor(max_workers=len(groups) - 1) as pool:
        futures = [pool.submit(run_group, group) for group in groups[1:]]
        done = [run_group(groups[0])] + [f.result() for f in futures]
    return [result for group in done for result in group]


def _opt_tensors(state: AdamWState) -> dict[str, np.ndarray]:
    out = {f"m.{k}": v for k, v in state.m.items()}
    out.update({f"v.{k}": v for k, v in state.v.items()})
    return out


def _restore_opt(state: AdamWState, arrays: dict[str, np.ndarray], step: int) -> None:
    for name in state.m:
        m_key, v_key = f"m.{name}", f"v.{name}"
        if m_key not in arrays or v_key not in arrays:
            raise TrainerError(f"checkpoint optimizer state is missing moments for {name}")
        state.m[name][...] = arrays[m_key]
        state.v[name][...] = arrays[v_key]
    state.step = step


def _cut_loss_log(path: Path, step: int) -> None:
    """Keep the header and the rows of steps before ``step``.

    A run that crashed after its last checkpoint logged steps the resumed
    run replays; without the cut they would appear twice. A torn last line
    has no newline and is dropped too. A missing log stays missing; the
    resumed run then starts a fresh one without a header, as it always has.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.endswith("\n")]
    except FileNotFoundError:
        return
    kept = "".join(line for line in lines if line.startswith("#") or int(line.split("\t", 1)[0]) < step)
    write_atomic(path, kept.encode("utf-8"))


class _Lock:
    """An exclusive ``flock`` on ``<out>/lock``, which names the holder's pid.

    The kernel drops the lock when its holder exits, however it dies, so a
    file left behind by a killed run does not block the next one.
    """

    def __init__(self, out_dir: Path):
        self.path = out_dir / "lock"

    def __enter__(self):
        while True:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                raise LockError(f"training lock {self.path} is held by a live run that owns this directory") from None
            # A releasing run unlinks the file while it still holds the lock,
            # so a lock on an inode the path no longer names guards nothing.
            try:
                if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                    break
            except FileNotFoundError:
                pass
            os.close(fd)
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        self.fd = fd
        return self

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        os.close(self.fd)
        return False


def _check_finite(step: int, loss: float, named: dict[str, Tensor], grads: dict[str, np.ndarray]) -> None:
    """Stop before a non-finite loss or gradient reaches the weights and the next checkpoint."""
    bad = next((name for name in named if name in grads and not np.isfinite(grads[name]).all()), None)
    if bad is None and np.isfinite(loss):
        return
    what = "loss" if bad is None else f"gradient of {bad}"
    raise TrainerError(f"step {step}: {what} is not finite (loss {loss!r}); stopped before the update")


def train(
    config: Config,
    samples: list[ImageMaskSample],
    out_dir,
    threads: int = 1,
    resume: bool = False,
    stop_after: int | None = None,
) -> TrainResult:
    """Run (or continue) training; returns stats for the steps executed.

    ``stop_after`` ends the invocation after that many steps with a
    checkpoint, simulating an interruption; a later ``resume=True`` call
    must then reproduce the uninterrupted run bit for bit.
    """
    if not samples:
        raise TrainerError("no training samples")
    if threads < 1:
        raise TrainerError(f"threads must be >= 1, got {threads}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tc = config.train
    config_text = dump_config(config)
    schedule = schedule_config(config)

    with _Lock(out_dir):
        init_rng = step_rng(tc.seed, TAG_INIT, 0)
        params, table = build_model(config, init_rng)
        named = {**params.named_params(), **table.named_params()}
        opt_state = init_adamw(named)
        opt_config = AdamWConfig(
            lr=tc.lr, beta1=tc.beta1, beta2=tc.beta2, eps=tc.eps, weight_decay=tc.weight_decay
        )

        start_step = 0
        latest = out_dir / LATEST_CHECKPOINT
        log_path = out_dir / "loss.log"
        if resume:
            if not latest.exists():
                raise TrainerError(f"resume requested but {latest} does not exist")
            arrays, opt_arrays, saved_step, saved_config = load_checkpoint(latest)
            if saved_config != config_text:
                raise ConfigMismatchError(
                    "checkpoint was produced by a different config; refusing to mix runs"
                )
            restore_tensors(named, arrays)
            _restore_opt(opt_state, opt_arrays, saved_step)
            start_step = saved_step
            log.info("resumed at step %d from %s", start_step, latest)
            _cut_loss_log(log_path, start_step)
        else:
            header = "".join(f"# {line}\n" if line else "#\n" for line in config_text.rstrip("\n").split("\n"))
            write_atomic(log_path, (header + "# step\tloss\twalltime_s\n").encode("utf-8"))

        z0_all, cond_all, cats_all = _encode_all(samples, config.model.factor)
        n = len(samples)
        latent_shape = z0_all.shape[1:]

        def run_chunk(lo, hi, idx, t_draw, eps_draw, cats):
            with Tape() as tape:
                e_chunk = stack([embed(c, table) for c in cats[lo:hi]], axis=0)
                loss = loss_given_noise(
                    params,
                    z0_all[idx[lo:hi]],
                    cond_all[idx[lo:hi]],
                    e_chunk,
                    t_draw[lo:hi],
                    eps_draw[lo:hi],
                    schedule,
                )
            grads = backward(tape, loss)
            by_name = {k: grads[v] for k, v in named.items() if v in grads}
            return float(loss.numpy()), by_name

        first_loss: float | None = None
        final_loss = float("nan")
        steps_run = 0
        ckpt_every = tc.checkpoint_every
        started = time.monotonic()
        with open(log_path, "a", encoding="utf-8") as log_fh:
            for step in range(start_step, tc.steps):
                rng = step_rng(tc.seed, TAG_STEP, step)
                # Canonical draw order; every run consumes the stream identically.
                idx = rng.integers(0, n, size=tc.batch)
                t_draw = rng.integers(0, schedule.timesteps, size=tc.batch)
                eps_draw = rng.standard_normal((tc.batch,) + latent_shape)
                cats = [drop_condition(cats_all[i], tc.p_drop, rng) for i in idx]

                ranges = _chunk_ranges(0, tc.batch, tc.chunk)
                results = _run_ranges(
                    lambda lo, hi: run_chunk(lo, hi, idx, t_draw, eps_draw, cats), ranges, threads
                )

                # Reduce in chunk-index order: the sum is one fixed sequence.
                loss_value = 0.0
                grad_acc: dict[str, np.ndarray] = {}
                for (lo, hi), (chunk_loss, chunk_grads) in zip(ranges, results):
                    weight = (hi - lo) / tc.batch
                    loss_value += weight * chunk_loss
                    for name, g in chunk_grads.items():
                        if name in grad_acc:
                            grad_acc[name] += weight * g
                        else:
                            grad_acc[name] = weight * g

                _check_finite(step, loss_value, named, grad_acc)
                adamw_step(named, grad_acc, opt_state, opt_config)

                if first_loss is None:
                    first_loss = loss_value
                final_loss = loss_value
                steps_run += 1
                log_fh.write(f"{step}\t{loss_value:.12e}\t{time.monotonic() - started:.3f}\n")
                log_fh.flush()
                if (step + 1) % 100 == 0 or step + 1 == tc.steps:
                    log.info("step %d/%d loss %.6f", step + 1, tc.steps, loss_value)

                done = step + 1
                stopping = stop_after is not None and done - start_step >= stop_after
                if done % ckpt_every == 0 or done == tc.steps or stopping:
                    ckpt = out_dir / f"ckpt-{done:06d}.lcgc"
                    # One serialisation for both files; the bytes are freed before the next step.
                    write_atomic(latest, save_checkpoint(ckpt, named, _opt_tensors(opt_state), done, config_text))
                if stopping:
                    break

    return TrainResult(
        steps_run=steps_run,
        first_loss=first_loss,
        final_loss=final_loss,
        checkpoint_path=latest,
        log_path=log_path,
    )


@dataclass
class EvalSample:
    """Reconstruction quality of one held-out infill."""

    coverage: float
    l1: float
    psnr: float


def evaluate_samples(
    config: Config,
    params: DenoiserParams,
    table: LcgEmbeddingTable,
    schedule: DiffusionSchedule,
    heldout: list[ImageMaskSample],
    count: int | None = None,
    steps: int | None = None,
    seed: int | None = None,
    threads: int | None = None,
) -> list[EvalSample]:
    """Infill the first ``count`` held-out samples and score each masked region.

    The items are split into one contiguous share per thread (``None``: one
    per usable core). The calling thread fills its share ``EVAL_CHUNK``
    items at a time and each worker ``EVAL_WORKER_CHUNK`` at a time, which
    bounds memory for any ``count``. Every item draws from its own generator
    and ``denoise`` is batch-invariant, so neither the shares nor the chunks
    change a bit.
    """
    ev = config.eval
    count = min(ev.count if count is None else count, len(heldout))
    if count < 1:
        raise TrainerError("no held-out samples to evaluate")
    threads = _usable_cores() if threads is None else threads
    if threads < 1:
        raise TrainerError(f"threads must be >= 1, got {threads}")
    steps = ev.steps if steps is None else steps
    seed = ev.seed if seed is None else seed
    records = heldout[:count]
    shapes = {np.shape(rec.image) for rec in records}
    if len(shapes) > 1:
        raise TrainerError(f"held-out samples are filled in batches and must share a size, got {sorted(shapes)}")
    images = np.stack([np.asarray(rec.image, dtype=np.float64) for rec in records])
    masks = np.stack([np.asarray(rec.mask) for rec in records])
    masked = images * (1.0 - masks.astype(np.float64))[..., None]
    categories = [rec.category for rec in records]
    rngs = [step_rng(seed, TAG_EVAL, k) for k in range(count)]
    caller = threading.get_ident()

    def fill(lo: int, hi: int) -> np.ndarray:
        chunk = EVAL_CHUNK if threading.get_ident() == caller else EVAL_WORKER_CHUNK
        return np.concatenate(
            [
                sample(
                    params,
                    schedule,
                    table,
                    masked[a:b],
                    masks[a:b],
                    categories[a:b],
                    rngs[a:b],
                    steps=steps,
                    scale=config.sample.scale,
                    guidance=config.sample.guidance,
                    latent_composite=config.sample.latent_composite,
                )
                for a, b in _chunk_ranges(lo, hi, chunk)
            ]
        )

    shares = _shares(count, threads)
    filled = np.concatenate(_run_ranges(fill, shares, len(shares)))
    return [
        EvalSample(
            coverage=float(np.asarray(mask, np.float64).mean()),
            l1=masked_l1(image, out, mask),
            psnr=masked_psnr(image, out, mask),
        )
        for image, mask, out in zip(images, masks, filled)
    ]


def evaluate_heldout(
    config: Config,
    params: DenoiserParams,
    table: LcgEmbeddingTable,
    schedule: DiffusionSchedule,
    heldout: list[ImageMaskSample],
    count: int | None = None,
    steps: int | None = None,
    seed: int | None = None,
    threads: int | None = None,
) -> float:
    """Mean masked-region L1 between held-out images and their infills."""
    scored = evaluate_samples(config, params, table, schedule, heldout, count, steps, seed, threads)
    return float(np.mean([s.l1 for s in scored]))


def read_loss_log(path) -> list[tuple[int, float]]:
    """Step and loss columns, skipping the config header."""
    rows: list[tuple[int, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            step_s, loss_s, *_ = line.split("\t")
            rows.append((int(step_s), float(loss_s)))
    return rows
