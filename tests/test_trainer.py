"""Training loop behavior: determinism, threading, resume, locking."""

import fcntl
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from lcgdiff import trainer as trainer_module
from lcgdiff.config import default_config
from lcgdiff.conditioning import MaskComposeConfig
from lcgdiff.dataforge import BrushConfig, SceneConfig, build_pairs, gen_scene
from lcgdiff.trainer import (
    ConfigMismatchError,
    LockError,
    TrainerError,
    build_model,
    evaluate_heldout,
    evaluate_samples,
    read_loss_log,
    step_rng,
    train,
)
from lcgdiff.config import schedule_config
from lcgdiff.optim import adamw_step
from lcgdiff.tensor import Tensor, mul


def tiny_config():
    c = default_config()
    c.model.d = 8
    c.model.dk = 4
    c.model.dv = 4
    c.model.d_e = 6
    c.model.e_dim = 5
    c.model.temb_dim = 8
    c.model.factor = 4
    c.schedule.timesteps = 40
    c.train.steps = 5
    c.train.batch = 4
    c.train.chunk = 2
    c.train.checkpoint_every = 100
    c.data.height = 16
    c.data.width = 16
    c.data.scenes = 3
    c.data.samples = 10
    c.data.heldout = 2
    c.sample.steps = 3
    c.eval.count = 2
    c.eval.steps = 3
    return c


def _noisy_model(seed=14):
    """Tiny-config weights drawn at random: zero-initialised outputs would make every fill alike."""
    config = tiny_config()
    params, table = build_model(config, step_rng(0, 1, 0))
    rng = np.random.default_rng(seed)
    for t in {**params.named_params(), **table.named_params()}.values():
        t.data[...] = rng.standard_normal(t.data.shape) * 0.1
    return config, params, table


def make_samples(config, n=None, seed=5):
    rng = np.random.default_rng(seed)
    scfg = SceneConfig(height=config.data.height, width=config.data.width)
    scenes = [gen_scene(rng, scfg) for _ in range(config.data.scenes)]
    return build_pairs(scenes, n or config.data.samples, rng, MaskComposeConfig(), BrushConfig())


class TestTraining:
    def test_runs_and_logs(self, tmp_path):
        config = tiny_config()
        samples = make_samples(config)
        result = train(config, samples, tmp_path / "run")
        assert result.steps_run == 5
        assert result.checkpoint_path.exists()
        rows = read_loss_log(result.log_path)
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
        assert all(np.isfinite(loss) for _, loss in rows)
        header = result.log_path.read_text().splitlines()[0]
        assert header.startswith("# [model]")

    def test_first_loss_near_unit_noise_power(self, tmp_path):
        # Zero-initialized head predicts zero noise, so the first loss is
        # the mean square of unit Gaussian draws.
        config = tiny_config()
        result = train(config, make_samples(config), tmp_path / "run")
        assert abs(result.first_loss - 1.0) < 0.1

    def test_bit_reproducible(self, tmp_path):
        config = tiny_config()
        samples = make_samples(config)
        r1 = train(config, samples, tmp_path / "a")
        r2 = train(config, samples, tmp_path / "b")
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()
        assert read_loss_log(r1.log_path) == read_loss_log(r2.log_path)

    def test_thread_count_does_not_change_bits(self, tmp_path):
        config = tiny_config()
        samples = make_samples(config)
        r1 = train(config, samples, tmp_path / "t1", threads=1)
        r2 = train(config, samples, tmp_path / "t3", threads=3)
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()
        assert read_loss_log(r1.log_path) == read_loss_log(r2.log_path)

    def test_each_checkpoint_step_saves_once_and_latest_matches(self, tmp_path, monkeypatch):
        config = tiny_config()
        config.train.checkpoint_every = 2
        saved = []

        def counting_save(path, *args):
            saved.append(path.name)
            return real_save(path, *args)

        real_save = trainer_module.save_checkpoint
        monkeypatch.setattr(trainer_module, "save_checkpoint", counting_save)
        result = train(config, make_samples(config), tmp_path / "run")
        assert saved == ["ckpt-000002.lcgc", "ckpt-000004.lcgc", "ckpt-000005.lcgc"]
        assert result.checkpoint_path.read_bytes() == (tmp_path / "run" / "ckpt-000005.lcgc").read_bytes()

    def test_uneven_final_chunk(self, tmp_path):
        config = tiny_config()
        config.train.batch = 5  # chunks of 2, 2, 1
        result = train(config, make_samples(config), tmp_path / "run")
        assert np.isfinite(result.final_loss)

    def test_rejects_empty_samples(self, tmp_path):
        with pytest.raises(TrainerError, match="no training samples"):
            train(tiny_config(), [], tmp_path / "run")

    def test_non_finite_loss_stops_before_checkpoint(self, tmp_path, monkeypatch):
        config = tiny_config()
        config.train.steps = 6
        config.train.checkpoint_every = 3
        samples = make_samples(config)
        calls = [0]
        real_loss = trainer_module.loss_given_noise

        def nan_on_step_four(*args, **kwargs):
            calls[0] += 1
            loss = real_loss(*args, **kwargs)
            # Two chunks per step: call 9 is step 4's first chunk.
            return mul(loss, Tensor(np.nan)) if calls[0] == 9 else loss

        monkeypatch.setattr(trainer_module, "loss_given_noise", nan_on_step_four)
        with pytest.raises(TrainerError) as err:
            train(config, samples, tmp_path / "run")
        params, table = build_model(config, step_rng(config.train.seed, trainer_module.TAG_INIT, 0))
        first = next(iter({**params.named_params(), **table.named_params()}))
        assert str(err.value).startswith(f"step 4: gradient of {first} is not finite")
        run = tmp_path / "run"
        assert (run / "ckpt-latest.lcgc").read_bytes() == (run / "ckpt-000003.lcgc").read_bytes()
        assert not (run / "ckpt-000006.lcgc").exists()
        assert [r[0] for r in read_loss_log(run / "loss.log")] == [0, 1, 2, 3]


class TestResume:
    def test_interrupted_plus_resume_matches_straight_run(self, tmp_path):
        config = tiny_config()
        samples = make_samples(config)
        straight = train(config, samples, tmp_path / "full")
        part = train(config, samples, tmp_path / "split", stop_after=2)
        assert part.steps_run == 2
        rest = train(config, samples, tmp_path / "split", resume=True)
        assert rest.steps_run == 3
        assert straight.checkpoint_path.read_bytes() == rest.checkpoint_path.read_bytes()
        # Log rows concatenate across the interruption.
        assert read_loss_log(straight.log_path) == read_loss_log(rest.log_path)

    def test_resume_after_crash_between_checkpoints_logs_each_step_once(self, tmp_path, monkeypatch):
        config = tiny_config()
        config.train.steps = 6
        config.train.checkpoint_every = 3
        samples = make_samples(config)
        straight = train(config, samples, tmp_path / "full")

        calls = [0]

        def crash_on_fifth(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 5:
                raise RuntimeError("simulated crash")
            return adamw_step(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "adamw_step", crash_on_fifth)
        with pytest.raises(RuntimeError, match="simulated crash"):
            train(config, samples, tmp_path / "split")
        monkeypatch.undo()
        # Step 3 was logged after the step-3 checkpoint, and the resumed run replays it.
        assert [r[0] for r in read_loss_log(tmp_path / "split" / "loss.log")] == [0, 1, 2, 3]
        rest = train(config, samples, tmp_path / "split", resume=True)
        assert [r[0] for r in read_loss_log(rest.log_path)] == [0, 1, 2, 3, 4, 5]
        assert read_loss_log(rest.log_path) == read_loss_log(straight.log_path)
        assert rest.log_path.read_text().splitlines()[0].startswith("# [model]")

    def test_resume_without_checkpoint(self, tmp_path):
        config = tiny_config()
        with pytest.raises(TrainerError, match="does not exist"):
            train(config, make_samples(config), tmp_path / "run", resume=True)

    def test_resume_with_different_config_refused(self, tmp_path):
        config = tiny_config()
        samples = make_samples(config)
        train(config, samples, tmp_path / "run", stop_after=2)
        changed = tiny_config()
        changed.train.lr = 0.5
        with pytest.raises(ConfigMismatchError, match="different config"):
            train(changed, samples, tmp_path / "run", resume=True)


class TestLock:
    def test_existing_lock_refuses(self, tmp_path):
        config = tiny_config()
        out = tmp_path / "run"
        out.mkdir()
        with open(out / "lock", "w") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            with pytest.raises(LockError, match="lock"):
                train(config, make_samples(config), out)

    def test_lock_of_a_killed_run_is_taken_over(self, tmp_path):
        config = tiny_config()
        out = tmp_path / "run"
        out.mkdir()
        src = Path(trainer_module.__file__).resolve().parents[1]
        holder = (
            "import os, signal, sys\n"
            "from pathlib import Path\n"
            "from lcgdiff.trainer import _Lock\n"
            "with _Lock(Path(sys.argv[1])):\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", holder, str(out)], env=env, timeout=60)
        assert done.returncode == -signal.SIGKILL
        assert (out / "lock").read_text().strip().isdigit()  # the file outlives its holder
        assert train(config, make_samples(config), out).steps_run == config.train.steps
        assert not (out / "lock").exists()

    def test_lock_retries_when_a_releasing_run_unlinks_the_file(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        out.mkdir()
        real_flock = fcntl.flock
        calls = []

        def flock_after_release(fd, op):
            if not calls:  # the previous holder unlinks the file between our open and our lock
                os.unlink(out / "lock")
            calls.append(fd)
            return real_flock(fd, op)

        monkeypatch.setattr(fcntl, "flock", flock_after_release)
        with trainer_module._Lock(out) as lock:
            assert len(calls) == 2
            assert os.fstat(lock.fd).st_ino == os.stat(out / "lock").st_ino
        assert not (out / "lock").exists()

    def test_lock_released_after_run(self, tmp_path):
        config = tiny_config()
        out = tmp_path / "run"
        train(config, make_samples(config), out)
        assert not (out / "lock").exists()

    def test_lock_released_after_failure(self, tmp_path):
        config = tiny_config()
        config.train.steps = 0  # validate_config would reject this; trainer loop just ends
        out = tmp_path / "run"
        train(config, make_samples(config), out)
        assert not (out / "lock").exists()


class TestEvaluate:
    def test_returns_positive_deterministic_value(self, tmp_path):
        config = tiny_config()
        params, table = build_model(config, step_rng(0, 1, 0))
        heldout = make_samples(config, n=3, seed=9)
        schedule = schedule_config(config)
        a = evaluate_heldout(config, params, table, schedule, heldout)
        b = evaluate_heldout(config, params, table, schedule, heldout)
        assert a == b
        assert 0.0 < a < 1.0

    def test_count_clamped_to_available(self, tmp_path):
        config = tiny_config()
        params, table = build_model(config, step_rng(0, 1, 0))
        heldout = make_samples(config, n=1, seed=10)
        value = evaluate_heldout(config, params, table, schedule_config(config), heldout, count=50)
        assert np.isfinite(value)

    def test_per_sample_records_back_the_mean(self, tmp_path):
        config = tiny_config()
        params, table = build_model(config, step_rng(0, 1, 0))
        heldout = make_samples(config, n=3, seed=11)
        schedule = schedule_config(config)
        scored = evaluate_samples(config, params, table, schedule, heldout, count=3)
        assert len(scored) == 3
        for s in scored:
            assert 0.0 < s.coverage <= 1.0
            assert s.l1 >= 0.0 and 0.0 <= s.psnr <= 99.0
        mean = evaluate_heldout(config, params, table, schedule, heldout, count=3)
        assert mean == float(np.mean([s.l1 for s in scored]))

    def test_mixed_sizes_rejected(self, tmp_path):
        config = tiny_config()
        params, table = build_model(config, step_rng(0, 1, 0))
        heldout = make_samples(config, n=1, seed=12)
        big = make_samples(config, n=1, seed=13)[0]
        big.image = np.zeros((32, 16, 3), np.float32)
        big.mask = np.ones((32, 16), np.uint8)
        with pytest.raises(TrainerError, match="share a size"):
            evaluate_samples(config, params, table, schedule_config(config), heldout + [big], count=2)

    def test_chunked_fill_matches_one_batch_bitwise(self, monkeypatch):
        config, params, table = _noisy_model()
        heldout = make_samples(config, n=5, seed=15)
        schedule = schedule_config(config)
        filled = []
        sample = trainer_module.sample
        monkeypatch.setattr(trainer_module, "sample", lambda *a, **k: filled.append(sample(*a, **k)) or filled[-1])

        whole = evaluate_samples(config, params, table, schedule, heldout, count=5, threads=1)
        monkeypatch.setattr(trainer_module, "EVAL_CHUNK", 2)
        chunked = evaluate_samples(config, params, table, schedule, heldout, count=5, threads=1)
        assert [len(f) for f in filled] == [5, 2, 2, 1]
        assert np.array_equal(filled[0], np.concatenate(filled[1:]))
        assert chunked == whole

    def test_fill_is_bitwise_equal_at_any_thread_count(self, monkeypatch):
        config, params, table = _noisy_model()
        heldout = make_samples(config, n=5, seed=15)
        schedule = schedule_config(config)
        calls, fills = [], []
        sample, masked_l1 = trainer_module.sample, trainer_module.masked_l1

        def traced_sample(*args, **kwargs):
            calls.append((threading.get_ident(), len(args[3])))
            return sample(*args, **kwargs)

        def traced_l1(image, out, mask):
            fills.append(out)  # scored in item order, after the shares are joined
            return masked_l1(image, out, mask)

        monkeypatch.setattr(trainer_module, "sample", traced_sample)
        monkeypatch.setattr(trainer_module, "masked_l1", traced_l1)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the shares as finely as the interpreter allows
        try:
            runs = {}
            # (threads, worker chunk): the sampler calls' sizes in order, thread by thread
            cases = {(1, 4): [[5]], (2, 4): [[3], [2]], (3, 4): [[2], [2], [1]], (2, 1): [[3], [1, 1]]}
            for (threads, worker_chunk), sizes in cases.items():
                monkeypatch.setattr(trainer_module, "EVAL_WORKER_CHUNK", worker_chunk)
                del calls[:], fills[:]
                scored = evaluate_samples(config, params, table, schedule, heldout, count=5, threads=threads)
                by_thread = {}
                for ident, size in calls:
                    by_thread.setdefault(ident, []).append(size)
                assert by_thread.pop(threading.get_ident()) == sizes[0]  # the caller fills the first share
                assert sorted(by_thread.values()) == sorted(sizes[1:])
                runs[threads, worker_chunk] = (np.stack(fills), scored)
        finally:
            sys.setswitchinterval(switch)
        for fill, scored in runs.values():
            assert fill.tobytes() == runs[1, 4][0].tobytes()
            assert scored == runs[1, 4][1]
        assert len({f.tobytes() for f in runs[1, 4][0]}) == 5

    @pytest.mark.parametrize("failing_share", [0, 1])
    def test_failing_share_raises_after_every_worker_ends(self, monkeypatch, failing_share):
        config, params, table = _noisy_model()
        heldout = make_samples(config, n=5, seed=15)
        finished = []
        sample = trainer_module.sample

        def flaky_sample(*args, **kwargs):
            share = 0 if len(args[3]) == 3 else 1  # five items in two shares: three, then two
            if share == failing_share:
                raise RuntimeError(f"share {share} failed")
            out = sample(*args, **kwargs)
            finished.append(share)
            return out

        monkeypatch.setattr(trainer_module, "sample", flaky_sample)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"share {failing_share} failed"):
            evaluate_samples(config, params, table, schedule_config(config), heldout, count=5, threads=2)
        assert finished == [1 - failing_share]
        assert threading.active_count() == before

    def test_threads_below_one_rejected(self):
        config, params, table = _noisy_model()
        with pytest.raises(TrainerError, match="threads"):
            evaluate_samples(config, params, table, schedule_config(config), make_samples(config, n=1), threads=0)
