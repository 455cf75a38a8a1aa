#!/usr/bin/env python3
"""End-to-end benchmark of lcgdiff: training steps, guided infills, held-out eval.

    python3 perfbench/run.py --workload {train,infill,eval} --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from ``src/`` of the
same checkout and runs in this one process with one BLAS thread. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, and the
spans are written to ``.perfbench_run/traces/``. The line before it starts
with ``perfbench-info`` and records provenance, the tail latency with its
sample count, and which checks ran. See perfbench/README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()
sys.dont_write_bytecode = True  # every run compiles the same sources and leaves no caches behind
# Fixed before numpy loads: two BLAS threads make a train step slower on two
# cores and compete with the host's other load.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"
WORKLOADS = ("train", "infill", "eval")
SETUP_REPEATS = 3
ROUND_STEPS = 8  # one train round: a fresh run of this many steps
CHECKPOINT_EVERY = 4  # two saves per round, several per run
SEED_BASE = 10**9  # program seeds = SEED_BASE + --seed: fixed width keeps config text, and file sizes, constant
SETUP_TRAIN_STEPS = 1  # makes the residual branches non-zero for infill and eval


def import_program():
    """lcgdiff from this checkout's ``src/``; never an installed copy."""
    src = ROOT / "src"
    if not (src / "lcgdiff" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lcgdiff sources under {src}")
    sys.path.insert(0, str(src))
    import lcgdiff
    import lcgdiff.cli  # imports every module the benchmark patches or calls

    if Path(lcgdiff.__file__).resolve().parent != (src / "lcgdiff").resolve():
        raise SystemExit(f"perfbench: imported lcgdiff from {lcgdiff.__file__}, not from {src}")
    return lcgdiff


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def tail(values: list[float]) -> dict:
    """Highest whole percentile with at least ten samples beyond it; none under forty samples."""
    n = len(values)
    if n < 40:
        return {"n": n, "percentile": None, "ms": None}
    pct = math.floor(100 * (1 - 10 / n))
    ordered = sorted(values)
    return {"n": n, "percentile": pct, "ms": ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]}


class Bench:
    def __init__(self, args, lcg, tracer, step_marks):
        self.args, self.lcg = args, lcg
        self.tracer, self.step_marks = tracer, step_marks
        self.seed = SEED_BASE + args.seed  # data, train and eval seed of the program
        self.work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
        self.problems: list[str] = []
        self.checked: list[str] = []

    def cli(self, *argv: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.lcg.cli.main([str(a) for a in argv])
        return code, out.getvalue()

    def expect(self, name: str, problems: list[str]) -> None:
        self.checked.append(name)
        self.problems += [f"{name}: {p}" for p in problems]

    # --- set-up ---------------------------------------------------------------

    def setup_once(self, rep: int) -> dict:
        """Data, the model checkpoint and the request files, all from the seed."""
        lcg = self.lcg
        base = self.work / f"setup-{rep}"
        data = base / "data"
        with self.tracer.span("dataforge.datagen"):
            code, _ = self.cli("datagen", "--out", data, "--seed", self.seed)
        if code:
            raise RuntimeError(f"datagen exited {code}")
        ini = base / "setup.ini"
        ini.write_text(f"[train]\nsteps = {SETUP_TRAIN_STEPS}\ncheckpoint_every = {SETUP_TRAIN_STEPS}\n")
        code, _ = self.cli("train", "--config", ini, "--data", data / "train.lcgs", "--out", base / "model",
                           "--seed", self.seed)
        if code:
            raise RuntimeError(f"set-up training exited {code}")
        train_samples, _ = lcg.dataforge.read_shard(data / "train.lcgs")
        heldout, _ = lcg.dataforge.read_shard(data / "heldout.lcgs")
        requests = []
        (base / "requests").mkdir()
        words = {lcg.conditioning.Category.FOREGROUND: "fg", lcg.conditioning.Category.BACKGROUND: "bg"}
        for i, rec in enumerate(heldout):
            image, mask = base / "requests" / f"{i:02d}.ppm", base / "requests" / f"{i:02d}.pgm"
            image.write_bytes(checks.ppm_bytes(rec.image))
            mask.write_bytes(checks.pgm_bytes(rec.mask))
            requests.append({"image": image, "mask": mask, "hole": np.asarray(rec.mask, bool),
                             "category": words[rec.category]})
        return {"data": data, "checkpoint": base / "model" / "ckpt-latest.lcgc", "train_samples": train_samples,
                "heldout": heldout, "requests": requests}

    def setup(self) -> tuple[dict, float]:
        durations, digests = [], []
        for rep in range(SETUP_REPEATS):
            self.tracer.op = f"setup-{rep}"
            started = time.perf_counter()
            env = self.setup_once(rep)
            durations.append(time.perf_counter() - started)
            digests.append([hashlib.sha256(p.read_bytes()).hexdigest() for p in
                            (env["data"] / "train.lcgs", env["data"] / "heldout.lcgs", env["checkpoint"])])
        self.tracer.op = None
        self.expect("setup-deterministic", [] if all(d == digests[0] for d in digests) else
                    ["repeated set-up wrote different shards or checkpoints"])
        return env, statistics.median(durations)

    # --- workloads -----------------------------------------------------------------

    def timed_loop(self, run_op):
        """Whole operations while the next one, as long as the last, still ends within ``--seconds``.

        A traced run alternates untraced and traced operations and makes at
        least one of each.
        """
        traced = bool(self.args.trace)
        times, traced_times = [], []
        busy, last, attempted, failed, i = 0.0, 0.0, 0, 0, 0
        while i < 1 + traced or busy + last <= self.args.seconds:
            on = traced and i % 2 == 1
            self.tracer.enabled, self.tracer.op = on, i if on else None
            started = time.perf_counter()
            try:
                op_times, ok, bad = run_op(i)
            finally:
                self.tracer.enabled = False
                self.tracer.op = None
            last = time.perf_counter() - started
            busy += last
            attempted += ok + bad
            failed += bad
            (traced_times if on else times).extend(op_times)
            i += 1
        return times, traced_times, busy, attempted, failed

    def train_config(self):
        config = self.lcg.config.default_config()
        config.data.seed = self.seed
        config.train.seed = self.seed
        config.train.steps = ROUND_STEPS
        config.train.checkpoint_every = CHECKPOINT_EVERY
        return config

    def run_train(self, env):
        lcg, config = self.lcg, self.train_config()
        rounds = []

        def one_round(i):
            out = self.work / f"train-{i}"
            del self.step_marks[:]
            try:
                result = lcg.trainer.train(config, env["train_samples"], out, threads=1)
            except Exception as exc:  # a failed round counts all its steps as failed
                self.problems.append(f"train round {i}: {type(exc).__name__}: {exc}")
                return [], 0, ROUND_STEPS
            rounds.append((out, result))
            marks = self.step_marks
            return [(b - a) * 1e3 for a, b in zip(marks, marks[1:])], ROUND_STEPS, 0

        loop = self.timed_loop(one_round)
        samples = env["train_samples"]
        expected = checks.first_step_loss(config, self.seed, len(samples))
        for out, result in rounds:
            ckpts = {p.name: p.read_bytes() for p in out.glob("ckpt-*.lcgc")}
            self.expect(f"train-round-{out.name}", checks.check_train_round(
                result.first_loss, (out / "loss.log").read_text(), ckpts, expected, ROUND_STEPS, CHECKPOINT_EVERY))
            shutil.rmtree(out)
        return loop, config.train.batch

    def infill_argv(self, env, i: int, out: Path) -> list:
        req = env["requests"][i % len(env["requests"])]
        return ["sample", "--checkpoint", env["checkpoint"], "--image", req["image"], "--mask", req["mask"],
                "--category", req["category"], "--out", out, "--seed", self.seed + i]

    def run_infill(self, env):
        outs = self.work / "infill"
        outs.mkdir()
        done = []

        def one_request(i):
            out = outs / f"{i:04d}.ppm"
            started = time.perf_counter()
            code, _ = self.cli(*self.infill_argv(env, i, out))
            elapsed = (time.perf_counter() - started) * 1e3
            if code:
                self.problems.append(f"infill request {i} exited {code}")
                return [], 0, 1
            done.append((i, out))
            return [elapsed], 1, 0

        loop = self.timed_loop(one_request)
        for i, out in done:
            req = env["requests"][i % len(env["requests"])]
            self.expect(f"infill-{i}", checks.check_infill(
                req["image"].read_bytes(), req["hole"], out.read_bytes()))
        # Replay the first request, capturing the sampler's floats: same seed, same bytes.
        captured = []
        sampler = self.lcg.cli.run_sampler
        self.lcg.cli.run_sampler = lambda *a, **k: captured.append(sampler(*a, **k)) or captured[-1]
        try:
            replay = outs / "replay.ppm"
            code, _ = self.cli(*self.infill_argv(env, 0, replay))
        finally:
            self.lcg.cli.run_sampler = sampler
        same = code == 0 and done and replay.read_bytes() == (outs / "0000.ppm").read_bytes()
        self.expect("infill-replay", [] if same else ["replaying request 0 gave different bytes"])
        self.expect("infill-pixels", checks.check_pixels(captured[0]) if captured else ["no replay output"])
        return loop, 1

    def run_eval(self, env):
        outputs = []

        def one_eval(i):
            started = time.perf_counter()
            code, text = self.cli("eval", "--checkpoint", env["checkpoint"], "--data", env["data"] / "heldout.lcgs",
                                  "--seed", self.seed)
            elapsed = (time.perf_counter() - started) * 1e3
            if code:
                self.problems.append(f"eval {i} exited {code}")
                return [], 0, 1
            outputs.append(text)
            return [elapsed], 1, 0

        loop = self.timed_loop(one_eval)
        config = self.lcg.config.default_config()
        count = config.eval.count
        self.expect("eval-repeatable", [] if len(set(outputs)) <= 1 else ["eval outputs differ between runs"])
        if outputs:
            scores = checks.fill_and_score(self.lcg, config, env["checkpoint"], env["heldout"],
                                            self.seed, count, config.eval.steps)
            self.expect("eval-scores", checks.check_eval(outputs[0], scores))
        return loop, count

    def coverage_pass(self, env) -> None:
        """Traced runs only: one request and a one-item eval, so layers the workload never enters still get spans."""
        self.tracer.enabled, self.tracer.op = True, "cover-sample"
        try:
            codes = [self.cli(*self.infill_argv(env, 0, self.work / "cover.ppm"))[0]]
            self.tracer.op = "cover-eval"
            codes.append(self.cli("eval", "--checkpoint", env["checkpoint"], "--data", env["data"] / "heldout.lcgs",
                                  "--count", 1, "--seed", self.seed)[0])
        finally:
            self.tracer.enabled, self.tracer.op = False, None
        self.expect("coverage-pass", [f"exit codes {codes}"] if any(codes) else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < SEED_BASE:
        parser.error(f"--seed must lie in [0, {SEED_BASE})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    lcg = import_program()
    tracer, step_marks = spans.Tracer(), []
    gla_capture = spans.install(tracer, lcg, step_marks)
    bench = Bench(args, lcg, tracer, step_marks)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    try:
        tracer.enabled = bool(args.trace)
        imports_s = time.perf_counter() - T_START
        env, setup_rep_s = bench.setup()
        tracer.enabled = False
        run = {"train": bench.run_train, "infill": bench.run_infill, "eval": bench.run_eval}[args.workload]
        (times, traced_times, busy, attempted, failed), items_per_op = run(env)
        info = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            **provenance(),
            "setup": {"imports_s": imports_s, "repeat_s_median": setup_rep_s, "repeats": SETUP_REPEATS},
            "ops": {"attempted": attempted, "failed": failed, "untraced_samples": len(times),
                    "traced_samples": len(traced_times)},
            "tail": tail(times),
            "op_ms": [round(t, 3) for t in times],
        }
        if args.trace:
            bench.coverage_pass(env)
            if gla_capture:
                bench.expect("gla-oracle", checks.check_gla(gla_capture["inputs"], gla_capture["output"],
                                                            lcg.gla.gla_oracle))
            else:
                bench.expect("gla-oracle", ["no gla_attend call was captured"])
            values, fallback = spans.layer_metrics(tracer.spans, lambda op: isinstance(op, int))
            values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_times) / statistics.median(times) - 1.0)
            units = {**spans.LAYER_METRICS, "trace.overhead_pct": "%"}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
            info["from_setup_or_coverage"] = fallback
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace_path = traces / f"trace-{args.workload}-s{args.seed}-p{os.getpid()}.json"
            tracer.write(trace_path)
            info["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            done_items = (attempted - failed) * items_per_op
            metrics = {
                "setup_s": {"value": imports_s + setup_rep_s, "unit": "s"},
                "op_ms_p50": {"value": statistics.median(times), "unit": "ms"},
                "items_per_s": {"value": done_items / busy, "unit": "items/s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        tracer.restore()
        shutil.rmtree(bench.work, ignore_errors=True)
    info["checks"] = len(bench.checked)
    info["problems"] = bench.problems[:20]
    print("perfbench-info " + json.dumps(info, default=str))
    print(json.dumps({"correct": not bench.problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
