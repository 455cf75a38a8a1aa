"""Spans recorded around calls into lcgdiff, from outside the package.

``Tracer.patch`` replaces a function by name in the module that calls it
(``lcgdiff.blocks.gla_apply``, ``lcgdiff.trainer.backward``, ...), so the
program itself is untouched. While the tracer is disabled a wrapper only
forwards the call. Spans stay in memory until the run writes them out as one
JSON file.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, **attrs) -> int | None:
        if not self.enabled:
            return None
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(
            {"id": idx, "name": name, "start": time.perf_counter(), "end": None, "parent": parent, "op": self.op,
             **attrs}
        )
        self._stack.append(idx)
        return idx

    def end(self, idx: int | None, **attrs) -> None:
        if idx is None:
            return
        # Spans close in LIFO order; anything above idx was left open by an exception.
        while self._stack and self._stack[-1] != idx:
            self.spans[self._stack.pop()]["end"] = time.perf_counter()
        if self._stack:
            self._stack.pop()
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        span.update(attrs)

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self.begin(name, **attrs)
        try:
            yield
        finally:
            self.end(idx)

    def swap(self, module, attr: str, make) -> None:
        """Replace ``module.attr`` by ``make(original)`` until ``restore``."""
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._patches.append((module, attr, original))

    def patch(self, module, attr: str, name: str, after=None) -> None:
        """Wrap ``module.attr`` in a span; ``after(args, result)`` returns span attributes."""

        def make(original):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                idx = self.begin(name)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    self.end(idx, error=True)
                    raise
                self.end(idx, **(after(args, result) if after else {}))
                return result

            return wrapper

        self.swap(module, attr, make)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def install(tracer: Tracer, lcg, step_marks: list) -> dict:
    """Patch every layer boundary the benchmark reports on.

    ``step_marks`` receives a ``perf_counter`` stamp at the start of every
    training step and one when ``train`` returns, traced or not. The trainer
    has no per-step function to wrap, so a step starts at its per-step
    ``step_rng`` call and ends where the next one starts.

    Returns a dict that receives the inputs and output of the first
    ``gla_attend`` call inside a timed operation, as 2-d slices.
    """
    step_span: list[int | None] = [None]

    def end_step() -> None:
        step_marks.append(time.perf_counter())
        tracer.end(step_span[0])
        step_span[0] = None

    def hook_step_rng(original):
        def step_rng(seed, tag, step):
            if tag == lcg.trainer.TAG_STEP:
                end_step()
                step_span[0] = tracer.begin("trainer.step", step=int(step))
            return original(seed, tag, step)

        return step_rng

    def hook_train(original):
        def train(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                end_step()

        return train

    tracer.swap(lcg.trainer, "step_rng", hook_step_rng)
    tracer.swap(lcg.trainer, "train", hook_train)
    tracer.swap(lcg.cli, "train", hook_train)

    def tape_counts(args, result):
        names = Counter(node.name for node in args[0].nodes)
        return {"nodes": len(args[0].nodes), "by_name": dict(names)}

    def saved_bytes(args, result):
        return {"bytes": os.path.getsize(args[0])}

    capture: dict = {}

    def capture_attend(args, result):
        if not capture and isinstance(tracer.op, int):
            arrays = [a.numpy() if hasattr(a, "numpy") else a for a in args[:5]]
            lead = (0,) * (arrays[0].ndim - 2)
            capture["inputs"] = [a[lead].copy() for a in arrays]
            capture["output"] = result[0].numpy()[lead].copy()
        return {}

    tracer.patch(lcg.gla, "gla_attend", "gla.gla_attend", capture_attend)
    tracer.patch(lcg.blocks, "gla_apply", "gla.gla_apply")
    tracer.patch(lcg.denoiser, "interaction_forward", "blocks.interaction_forward")
    tracer.patch(lcg.diffusion, "denoise", "denoiser.denoise")
    tracer.patch(lcg.trainer, "loss_given_noise", "diffusion.loss_given_noise")
    tracer.patch(lcg.trainer, "backward", "tensor.backward", tape_counts)
    tracer.patch(lcg.trainer, "adamw_step", "optim.adamw_step")
    tracer.patch(lcg.trainer, "save_checkpoint", "checkpoint.save", saved_bytes)
    tracer.patch(lcg.trainer, "sample", "diffusion.sample")
    tracer.patch(lcg.cli, "run_sampler", "diffusion.sample")
    tracer.patch(lcg.cli, "load_checkpoint", "checkpoint.load")
    tracer.patch(lcg.cli, "evaluate_samples", "trainer.evaluate_samples")
    tracer.patch(lcg.cli, "read_ppm", "imageio.read")
    tracer.patch(lcg.cli, "read_mask", "imageio.read")
    tracer.patch(lcg.cli, "write_ppm", "imageio.write")
    tracer.patch(lcg.cli, "read_shard", "dataforge.read_shard")
    return capture


# Per-layer metric names and units; ``_layer_values`` says how each is formed.
LAYER_METRICS = {
    "trainer.step_ms": "ms",
    "trainer.step_self_ms": "ms",
    "diffusion.loss_given_noise_ms": "ms",
    "tensor.backward_ms": "ms",
    "tensor.tape_nodes": "count",
    "tensor.nodes.narrow": "count",
    "tensor.nodes.matmul": "count",
    "tensor.nodes.add": "count",
    "tensor.nodes.mul": "count",
    "optim.adamw_step_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.save_bytes": "B",
    "gla.gla_attend_ms": "ms",
    "gla.gla_attend_calls": "count",
    "gla.gla_apply_self_ms": "ms",
    "blocks.interaction_forward_self_ms": "ms",
    "denoiser.denoise_ms": "ms",
    "denoiser.denoise_self_ms": "ms",
    "denoiser.calls_per_item": "count",
    "diffusion.sample_self_ms": "ms",
    "checkpoint.load_ms": "ms",
    "imageio.read_ms": "ms",
    "imageio.write_ms": "ms",
    "dataforge.read_shard_ms": "ms",
    "trainer.evaluate_samples_ms": "ms",
    "dataforge.datagen_s": "s",
}


def _layer_values(spans: list[dict]) -> dict[str, list[float]]:
    """Samples of every per-layer metric found in ``spans`` (closed spans only)."""
    spans = [s for s in spans if s["end"] is not None]
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s) -> float:
        return s["end"] - s["start"]

    def self_time(s) -> float:
        return dur(s) - sum(dur(c) for c in children.get(s["id"], []))

    def descendants(s, name: str) -> list[dict]:
        out, todo = [], list(children.get(s["id"], []))
        while todo:
            c = todo.pop()
            if c["name"] == name:
                out.append(c)
            todo.extend(children.get(c["id"], []))
        return out

    named: dict[str, list[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)
    v: dict[str, list[float]] = {}

    def put(key: str, values) -> None:
        values = list(values)
        if values:
            v[key] = values

    ms = 1e3
    steps = named.get("trainer.step", [])
    put("trainer.step_ms", (dur(s) * ms for s in steps))
    put("trainer.step_self_ms", (self_time(s) * ms for s in steps))
    put("diffusion.loss_given_noise_ms",
        (sum(dur(c) for c in descendants(s, "diffusion.loss_given_noise")) * ms for s in steps))
    put("tensor.backward_ms", (sum(dur(c) for c in descendants(s, "tensor.backward")) * ms for s in steps))
    backs = named.get("tensor.backward", [])
    put("tensor.tape_nodes", (s["nodes"] for s in backs))
    for prim in ("narrow", "matmul", "add", "mul"):
        put(f"tensor.nodes.{prim}", (s["by_name"].get(prim, 0) for s in backs))
    put("optim.adamw_step_ms", (dur(s) * ms for s in named.get("optim.adamw_step", [])))
    saves = named.get("checkpoint.save", [])
    put("checkpoint.save_ms", (dur(s) * ms for s in saves))
    put("checkpoint.save_bytes", (s["bytes"] for s in saves))
    denoises = named.get("denoiser.denoise", [])
    put("gla.gla_attend_ms", (sum(dur(c) for c in descendants(s, "gla.gla_attend")) * ms for s in denoises))
    put("gla.gla_attend_calls", (len(descendants(s, "gla.gla_attend")) for s in denoises))
    put("gla.gla_apply_self_ms",
        (sum(self_time(c) for c in descendants(s, "gla.gla_apply")) * ms for s in denoises))
    put("blocks.interaction_forward_self_ms",
        (sum(self_time(c) for c in descendants(s, "blocks.interaction_forward")) * ms for s in denoises))
    put("denoiser.denoise_ms", (dur(s) * ms for s in denoises))
    put("denoiser.denoise_self_ms", (self_time(s) * ms for s in denoises))
    samples = named.get("diffusion.sample", [])
    put("denoiser.calls_per_item", (len(descendants(s, "denoiser.denoise")) for s in samples))
    put("diffusion.sample_self_ms", (self_time(s) * ms for s in samples))
    put("checkpoint.load_ms", (dur(s) * ms for s in named.get("checkpoint.load", [])))
    for key, name in (("imageio.read_ms", "imageio.read"), ("imageio.write_ms", "imageio.write")):
        per_op: dict = {}
        for s in named.get(name, []):
            per_op[s["op"]] = per_op.get(s["op"], 0.0) + dur(s) * ms
        put(key, per_op.values())
    put("dataforge.read_shard_ms", (dur(s) * ms for s in named.get("dataforge.read_shard", [])))
    put("trainer.evaluate_samples_ms", (dur(s) * ms for s in named.get("trainer.evaluate_samples", [])))
    put("dataforge.datagen_s", (dur(s) for s in named.get("dataforge.datagen", [])))
    return v


def layer_metrics(spans: list[dict], timed) -> tuple[dict[str, float], list[str]]:
    """Median of every per-layer metric over the timed operations' spans.

    A layer that no timed operation enters (the sampler during ``train``,
    say) is measured on the spans of set-up and the coverage pass instead;
    those names come back as the second result.
    """
    in_ops = _layer_values([s for s in spans if timed(s["op"])])
    elsewhere = _layer_values([s for s in spans if not timed(s["op"])])
    out, fallback = {}, []
    for key in LAYER_METRICS:
        values = in_ops.get(key)
        if values is None:
            values = elsewhere.get(key)
            fallback.append(key)
        if values is None:
            raise KeyError(f"no span measured {key}")
        out[key] = float(statistics.median(values))
    return out, fallback
