#!/usr/bin/env python3
"""Self-test of the benchmark's checkers: genuine output passes, tampered output fails.

    python3 perfbench/selftest.py           # about ten seconds
    python3 perfbench/selftest.py --regen   # rewrite perfbench/reference.json from the program

It makes a small real run of the program (datagen, a four-step training run,
a five-step infill, a two-item eval), then feeds each checker the genuine
output and copies tampered the ways the checks exist to catch. The
reference file holds the first-step loss the trainer logs at seed 0; the
test demands that the checker's own numpy draws reproduce it to the bit.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from run import WORK, import_program  # noqa: E402

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
STEPS, EVERY = 4, 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--regen", action="store_true", help="rewrite reference.json from a real training step")
    args = parser.parse_args(argv)
    lcg = import_program()
    work = WORK / f"selftest-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures = []

    def expect(name: str, problems: list[str], should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {problems[:1] if problems else 'accepted'}")
        if not ok:
            failures.append(name)

    def cli(*argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lcg.cli.main([str(a) for a in argv])
        if code:
            raise SystemExit(f"selftest: lcgdiff {argv[0]} exited {code}")
        return out.getvalue()

    try:
        config = lcg.config.default_config()
        cli("datagen", "--out", work / "data")
        samples, _ = lcg.dataforge.read_shard(work / "data" / "train.lcgs")
        heldout, _ = lcg.dataforge.read_shard(work / "data" / "heldout.lcgs")
        config.train.steps, config.train.checkpoint_every = STEPS, EVERY
        result = lcg.trainer.train(config, samples, work / "run")

        # train: first-step loss, loss log, checkpoint CRCs
        mine = checks.first_step_loss(config, 0, len(samples))
        if args.regen:
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump({"first_step_loss": {"seed": 0, "batch": config.train.batch, "chunk": config.train.chunk,
                                               "value": result.first_loss}}, fh, indent=2)
                fh.write("\n")
            print(f"wrote {REFERENCE}")
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)["first_step_loss"]["value"]
        expect("reference first-step loss", [] if mine == reference else [f"{mine!r} != {reference!r}"], False)
        log = (work / "run" / "loss.log").read_text()
        ckpts = {p.name: p.read_bytes() for p in (work / "run").glob("ckpt-*.lcgc")}

        def train_check(first=result.first_loss, log_text=log, files=ckpts):
            return checks.check_train_round(first, log_text, files, mine, STEPS, EVERY)

        expect("train genuine", train_check(), False)
        expect("train first loss off by 1e-9", train_check(first=result.first_loss * (1 + 1e-9)), True)
        row0 = next(line for line in log.splitlines() if line.startswith("0\t"))
        off = row0.replace(row0.split("\t")[1], f"{float(row0.split(chr(9))[1]) * (1 + 1e-9):.12e}")
        expect("train logged loss off by 1e-9", train_check(log_text=log.replace(row0, off)), True)
        flipped = bytearray(ckpts["ckpt-latest.lcgc"])
        flipped[len(flipped) // 2] ^= 0x01
        expect("train flipped checkpoint byte", train_check(files={**ckpts, "ckpt-latest.lcgc": bytes(flipped)}), True)
        lines = log.splitlines()
        expect("train repeated step", train_check(log_text="\n".join(lines + [lines[-1]])), True)

        # infill: pass-through pixels, filled hole, finite values in [0, 1]
        rec = heldout[0]
        (work / "in.ppm").write_bytes(checks.ppm_bytes(rec.image))
        (work / "in.pgm").write_bytes(checks.pgm_bytes(rec.mask))
        cli("sample", "--checkpoint", work / "run" / "ckpt-latest.lcgc", "--image", work / "in.ppm",
            "--mask", work / "in.pgm", "--category", "bg", "--out", work / "out.ppm", "--steps", 5)
        src, out = (work / "in.ppm").read_bytes(), (work / "out.ppm").read_bytes()
        expect("infill genuine", checks.check_infill(src, rec.mask, out), False)
        pixels = checks.parse_ppm(out).copy()
        keep = np.argwhere(~np.asarray(rec.mask, bool))[0]
        pixels[tuple(keep)][0] ^= 0x01
        header = out[: len(out) - pixels.size]
        expect("infill one unmasked pixel changed", checks.check_infill(src, rec.mask, header + pixels.tobytes()),
               True)
        pixels = checks.parse_ppm(out).copy()
        pixels[np.asarray(rec.mask, bool)] = 0
        expect("infill hole left zero", checks.check_infill(src, rec.mask, header + pixels.tobytes()), True)
        expect("pixels genuine", checks.check_pixels(np.full((2, 2, 3), 0.5)), False)
        expect("pixels non-finite", checks.check_pixels(np.full((2, 2, 3), np.nan)), True)
        expect("pixels above one", checks.check_pixels(np.full((2, 2, 3), 1.5)), True)

        # eval: printed scores against the benchmark's own fill and scoring
        count, steps = 2, 3
        ckpt = work / "run" / "ckpt-latest.lcgc"
        text = cli("eval", "--checkpoint", ckpt, "--data", work / "data" / "heldout.lcgs", "--count", count,
                   "--steps", steps, "--seed", 0)
        scores = checks.fill_and_score(lcg, config, ckpt, heldout, 0, count, steps)
        expect("eval genuine", checks.check_eval(text, scores), False)
        l1 = text.split()[1]
        bumped = text.replace(l1, f"{float(l1) + 2e-6:.6f}", 1)
        expect("eval masked_l1 off in the last printed digit", checks.check_eval(bumped, scores), True)
        expect("eval band count changed", checks.check_eval(text.replace("]: n=", "]: n=1", 1), scores), True)

        # gla: a recurrence output against the quadratic oracle
        rng = np.random.default_rng(5)
        q, k = rng.standard_normal((9, 4)), rng.standard_normal((9, 4))
        v = rng.standard_normal((9, 3))
        alpha, beta = rng.uniform(0.1, 0.999, (9, 4)), rng.uniform(0.1, 0.999, (9, 3))
        got = lcg.gla.gla_attend(q, k, v, alpha, beta)[0].numpy()
        expect("gla genuine", checks.check_gla([q, k, v, alpha, beta], got, lcg.gla.gla_oracle), False)
        tampered = got.copy()
        tampered[4, 1] *= 1 + 1e-9
        expect("gla output off by 1e-9", checks.check_gla([q, k, v, alpha, beta], tampered, lcg.gla.gla_oracle), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {len(failures)} failed" + (f": {failures}" if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
