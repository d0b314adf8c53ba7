"""Run configuration: one INI file, one dataclass per section.

Each section is the dataclass its stage consumes: [labeler] is
`labeling.LabelerConfig` and [distiller] is `classifier.FeaturizerConfig`,
the featurizer a trained model records (the SGD recipe is `classifier`'s
constants). `load_config` parses every value, from the file or from a
command-line flag, and checks it by building those dataclasses, so a bad
value fails before a command writes anything. Unknown sections or keys are
rejected. Each CLI command writes its resolved configuration next to its
outputs for auditability.
"""

from __future__ import annotations

import configparser
import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

from .classifier import FeaturizerConfig
from .corpus import atomic_open
from .labeling import LabelerConfig
from .selection import check_keep_ratio


class ConfigError(Exception):
    """Bad configuration file or option value."""


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse(key: str, raw: str, default):
    """An INI value as the type of its key's default; a tuple is a comma list."""
    if key == "target_ratio" and raw.strip() == "from-labels":
        return "from-labels"
    if isinstance(default, tuple):
        return tuple(_parse(key, part, default[0]) for part in raw.split(",") if part.strip())
    if isinstance(default, bool):
        return _parse_bool(raw)
    if isinstance(default, float):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {raw!r}")
        return value
    if isinstance(default, int):
        return int(raw)
    return raw


@dataclass
class RunSection:
    seed: int = 0
    output_root: str = "runs"
    log_level: str = "INFO"

    def __post_init__(self):
        if self.log_level.upper() not in logging.getLevelNamesMapping():
            raise ValueError(f"log_level {self.log_level!r} is not a logging level")


@dataclass
class CorpusSection:
    input_dir: str = ""
    sample_size: int = 2000
    strict: bool = False

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be at least 1")


@dataclass
class SelectorSection:
    target_ratio: float | str = 0.25  # or the string "from-labels"
    workers: int = 1

    def __post_init__(self):
        if self.target_ratio != "from-labels":
            check_keep_ratio(self.target_ratio)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


# The `ablate --sweep` names, kept here so that `cli` lists them without loading `ablation`.
SWEEPS = ("ratio", "capacity", "prompt", "icl")


@dataclass
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    corpus: CorpusSection = field(default_factory=CorpusSection)
    labeler: LabelerConfig = field(default_factory=LabelerConfig)
    distiller: FeaturizerConfig = field(default_factory=FeaturizerConfig)
    selector: SelectorSection = field(default_factory=SelectorSection)


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}


def _flat(section) -> dict:
    """A section's INI keys and values."""
    return {f.name: getattr(section, f.name) for f in fields(section)}


def _build(name: str, raw: dict[str, str]):
    """Section `name` from its raw INI strings, parsed and checked."""
    cls = _SECTIONS[name]
    defaults = _flat(cls())
    values = {}
    for key, text in raw.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        try:
            values[key] = _parse(key, text, defaults[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for [{name}] {key} = {text!r}: {exc}") from exc
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"bad value in [{name}]: {exc}") from exc


def load_config(
    path: str | Path | None = None, overrides: Mapping[tuple[str, str], str] | None = None
) -> RunConfig:
    """The RunConfig of an INI file (None: every default), with `overrides`,
    (section, key) -> value string as it would appear in the file, laid over
    the file's values. Every value is parsed and checked here."""
    raw: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        for name in parser.sections():
            if name not in raw:
                raise ConfigError(
                    f"unknown config section [{name}] (expected one of {sorted(raw)})"
                )
            raw[name].update(parser.items(name))
    for (name, key), value in (overrides or {}).items():
        raw[name][key] = value
    return RunConfig(**{name: _build(name, values) for name, values in raw.items()})


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ", ".join(str(v) for v in value)
    return str(value)


def write_resolved_config(config: RunConfig, path: str | Path) -> None:
    """Snapshot the fully resolved configuration as INI next to run outputs."""
    parser = configparser.ConfigParser(interpolation=None)
    for name in _SECTIONS:
        parser[name] = {k: _render_value(v) for k, v in _flat(getattr(config, name)).items()}
    with atomic_open(path, "w") as fh:
        parser.write(fh)
