"""Run configuration: one INI file with typed, schema-checked sections.

Unknown sections or keys are rejected. Each CLI command writes its resolved
configuration next to its outputs for auditability.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

from .classifier import FeaturizerConfig, TrainConfig
from .corpus import atomic_open
from .labeling import LabelerConfig


class ConfigError(Exception):
    """Bad configuration file or option value."""


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in raw.split(",") if part.strip())


def _parse_ratio(raw: str):
    value = raw.strip()
    if value == "from-labels":
        return value
    return float(value)


def _build(cls, section, **given):
    """cls from the section's fields of the same names, plus `given`."""
    taken = {f.name: getattr(section, f.name) for f in fields(cls) if f.name not in given}
    return cls(**taken, **given)


@dataclass
class RunSection:
    seed: int = 0
    output_root: str = "runs"
    log_level: str = "INFO"


@dataclass
class CorpusSection:
    input_dir: str = ""
    sample_size: int = 2000
    records_per_shard: int = 1000
    compress: bool = False
    token_budget: int = 1500
    chars_per_token: int = 4
    strict: bool = False


@dataclass
class LabelerSection:
    endpoint_url: str = ""
    model_name: str = ""
    temperature: float = 0.2
    max_output_tokens: int = 16
    max_concurrent_requests: int = 4
    max_retries: int = 3
    backoff_base: float = 0.5
    request_timeout: float = 30.0
    failure_ceiling: float = 0.05
    api_key_env: str = "DOCPRUNE_API_KEY"
    prompt_version: str = "v1"
    icl_demos: str = ""
    mock: bool = False

    def to_labeler_config(self) -> LabelerConfig:
        return _build(LabelerConfig, self)


@dataclass
class DistillerSection:
    ngram_orders: tuple[int, ...] = (1, 2, 3)
    hash_bits: int = 18
    lowercase: bool = True
    token_pattern: str = r"\w+"
    val_fraction: float = 0.1
    epochs: int = 20
    learning_rate: float = 0.5
    batch_size: int = 64
    class_weighting: bool = True
    patience: int = 3

    def to_train_config(self, seed: int) -> TrainConfig:
        return _build(TrainConfig, self, featurizer=_build(FeaturizerConfig, self), seed=seed)


@dataclass
class SelectorSection:
    target_ratio: object = 0.25  # float, or the string "from-labels"
    workers: int = 1


@dataclass
class AblationSection:
    n_docs: int = 2000
    high_quality_fraction: float = 0.25
    signal_strength: float = 1.0
    marker_style: str = "few"
    n_shards: int = 4
    sample_size: int = 1000
    seeds: tuple[int, ...] = (0, 1, 2)
    hash_bits_list: tuple[int, ...] = (10, 14, 18)
    ratios: tuple[float, ...] = (0.20, 0.25, 0.30, 0.40, 0.50, 1.00)
    flip_rate: float = 0.05
    fidelity_0shot: float = 0.60
    fidelity_5shot: float = 0.75


@dataclass
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    corpus: CorpusSection = field(default_factory=CorpusSection)
    labeler: LabelerSection = field(default_factory=LabelerSection)
    distiller: DistillerSection = field(default_factory=DistillerSection)
    selector: SelectorSection = field(default_factory=SelectorSection)
    ablation: AblationSection = field(default_factory=AblationSection)


_SECTIONS = [f.name for f in fields(RunConfig)]

# Field-specific parsers where the dataclass default's type is not enough.
_SPECIAL_PARSERS = {
    ("selector", "target_ratio"): _parse_ratio,
    ("distiller", "ngram_orders"): _parse_int_list,
    ("ablation", "seeds"): _parse_int_list,
    ("ablation", "hash_bits_list"): _parse_int_list,
    ("ablation", "ratios"): _parse_float_list,
}


def _parser_for(section: str, name: str, default) -> callable:
    special = _SPECIAL_PARSERS.get((section, name))
    if special is not None:
        return special
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, int):
        return int
    if isinstance(default, float):
        return float
    return str


def load_config(path: str | Path | None = None) -> RunConfig:
    """Read an INI file into a RunConfig; missing file fields use defaults."""
    config = RunConfig()
    if path is None:
        return config
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    for section_name in parser.sections():
        if section_name not in _SECTIONS:
            raise ConfigError(
                f"unknown config section [{section_name}] "
                f"(expected one of {sorted(_SECTIONS)})"
            )
        target = getattr(config, section_name)
        known = {f.name: getattr(target, f.name) for f in fields(target)}
        for key, raw in parser.items(section_name):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
            parse = _parser_for(section_name, key, known[key])
            try:
                setattr(target, key, parse(raw))
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section_name}] {key} = {raw!r}: {exc}"
                ) from exc
    return config


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ", ".join(str(v) for v in value)
    return str(value)


def write_resolved_config(config: RunConfig, path: str | Path) -> None:
    """Snapshot the fully resolved configuration as INI next to run outputs."""
    parser = configparser.ConfigParser(interpolation=None)
    for section_name in _SECTIONS:
        target = getattr(config, section_name)
        parser[section_name] = {
            f.name: _render_value(getattr(target, f.name)) for f in fields(target)
        }
    with atomic_open(path, "w") as fh:
        parser.write(fh)
