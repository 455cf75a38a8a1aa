"""Typed run configuration with a strict line-oriented file format.

Files are INI sections of ``key = value`` pairs, one section per config
group. Parsing starts from defaults, overrides whatever the file mentions,
and rejects unknown sections or keys outright; a silently ignored typo in a
training run costs more than the strictness does. ``dump_config`` writes a
canonical form whose reparse is equal to the original config.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import typing
from dataclasses import dataclass, field

from .denoiser import DenoiserConfig
from .diffusion import DiffusionSchedule, make_schedule

__all__ = [
    "ConfigError",
    "ScheduleConfig",
    "TrainConfig",
    "DataConfig",
    "SampleConfig",
    "EvalConfig",
    "Config",
    "default_config",
    "parse_config",
    "load_config",
    "dump_config",
    "schedule_config",
]


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


@dataclass
class ScheduleConfig:
    timesteps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 2e-2


@dataclass
class TrainConfig:
    steps: int = 2000
    batch: int = 32
    chunk: int = 8
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    p_drop: float = 0.1
    seed: int = 0
    checkpoint_every: int = 500


@dataclass
class DataConfig:
    height: int = 32
    width: int = 32
    channels: int = 3
    scenes: int = 24
    samples: int = 512
    heldout: int = 32
    seed: int = 0
    fg_fraction: float = 4.3 / 14.0
    p_rand: float = 0.5
    p_obj: float = 0.5
    min_ratio: float = 0.01
    max_ratio: float = 0.98


@dataclass
class SampleConfig:
    steps: int = 50
    scale: float = 2.0
    guidance: str = "null"
    latent_composite: bool = False
    seed: int = 0


@dataclass
class EvalConfig:
    count: int = 16
    steps: int = 50
    seed: int = 0


@dataclass
class Config:
    model: DenoiserConfig = field(default_factory=DenoiserConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    sample: SampleConfig = field(default_factory=SampleConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


_SECTIONS: dict[str, type] = {
    "model": DenoiserConfig,
    "schedule": ScheduleConfig,
    "train": TrainConfig,
    "data": DataConfig,
    "sample": SampleConfig,
    "eval": EvalConfig,
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def default_config() -> Config:
    return Config()


def _coerce(raw: str, typ, where: str):
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        if typ is str:
            return raw
        if typ is bool:
            word = raw.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_WORDS[word]
        if typ == tuple[int, ...]:
            parts = [p.strip() for p in raw.split(",")]
            if not parts or any(not p for p in parts):
                raise ValueError(f"not a comma-separated int list: {raw!r}")
            return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: unsupported field type {typ}")


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def parse_config(text: str) -> Config:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from None
    config = default_config()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        target = getattr(config, section)
        hints = typing.get_type_hints(_SECTIONS[section])
        for key, raw in parser.items(section):
            if key not in hints:
                raise ConfigError(f"unknown key {section}.{key}")
            setattr(target, key, _coerce(raw, hints[key], f"{section}.{key}"))
    validate_config(config)
    return config


def load_config(path) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def dump_config(config: Config) -> str:
    out = io.StringIO()
    for section, cls in _SECTIONS.items():
        out.write(f"[{section}]\n")
        target = getattr(config, section)
        for f in dataclasses.fields(cls):
            out.write(f"{f.name} = {_render(getattr(target, f.name))}\n")
        out.write("\n")
    return out.getvalue()


def validate_config(config: Config) -> None:
    m, t, d, s = config.model, config.train, config.data, config.sample
    checks = [
        (m.factor >= 1, "model.factor must be >= 1"),
        (m.d >= 1 and m.dk >= 1 and m.dv >= 1, "model widths must be positive"),
        (m.heads >= 1, "model.heads must be >= 1"),
        (m.heads < 1 or (m.dk % m.heads == 0 and m.dv % m.heads == 0), "model.heads must divide model.dk and model.dv"),
        (m.tau > 0, "model.tau must be positive"),
        (m.e_dim >= 1 and m.d_e >= 1, "model embedding widths must be positive"),
        (len(m.stages) >= 1 and all(x >= 1 for x in m.stages), "model.stages entries must be >= 1"),
        (m.temb_dim % 4 == 0 and m.temb_dim > 0, "model.temb_dim must be a positive multiple of 4"),
        (config.schedule.timesteps >= 1, "schedule.timesteps must be >= 1"),
        (0 < config.schedule.beta_start <= config.schedule.beta_end < 1, "schedule betas must satisfy 0 < start <= end < 1"),
        (t.steps >= 1, "train.steps must be >= 1"),
        (t.batch >= 1 and t.chunk >= 1, "train.batch and train.chunk must be >= 1"),
        (t.lr > 0, "train.lr must be positive"),
        (0 <= t.p_drop <= 1, "train.p_drop must lie in [0, 1]"),
        (t.checkpoint_every >= 1, "train.checkpoint_every must be >= 1"),
        (d.height >= 1 and d.width >= 1, "data dimensions must be positive"),
        (d.height % m.factor == 0 and d.width % m.factor == 0, "data.height and data.width must be divisible by model.factor"),
        (d.scenes >= 2, "data.scenes must be >= 2"),
        (d.samples >= 1 and d.heldout >= 0, "data.samples must be >= 1, data.heldout >= 0"),
        (0 <= d.fg_fraction <= 1, "data.fg_fraction must lie in [0, 1]"),
        (0 <= d.p_rand <= 1 and 0 <= d.p_obj <= 1, "data.p_rand and data.p_obj must lie in [0, 1]"),
        (d.channels == m.channels, "data.channels must equal model.channels"),
        (s.steps >= 1, "sample.steps must be >= 1"),
        (s.steps <= config.schedule.timesteps, "sample.steps must not exceed schedule.timesteps"),
        (s.scale > 0, "sample.scale must be positive"),
        (s.guidance in ("null", "opposite"), "sample.guidance must be null or opposite"),
        (config.eval.count >= 1, "eval.count must be >= 1"),
        (config.eval.steps >= 1, "eval.steps must be >= 1"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    if not d.min_ratio <= d.max_ratio:
        raise ConfigError(
            f"data.min_ratio ({d.min_ratio}) must not exceed data.max_ratio ({d.max_ratio})"
        )
    # Derived constraints, checked after the per-key ones they build on.
    latent_h = d.height // m.factor
    latent_w = d.width // m.factor
    fold = 1 << (len(m.stages) - 1)
    if latent_h % fold != 0 or latent_w % fold != 0:
        raise ConfigError(
            f"latent grid {latent_h}x{latent_w} must be divisible by {fold} for {len(m.stages)} stages"
        )


def schedule_config(config: Config) -> DiffusionSchedule:
    s = config.schedule
    return make_schedule(s.timesteps, s.beta_start, s.beta_end)
