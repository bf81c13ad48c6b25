"""Experiment configuration: dataclasses with a sectioned text form.

Configs round-trip losslessly through INI (parse -> emit -> parse is the
identity), which makes runs self-describing and resumable.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
from dataclasses import dataclass, field
from pathlib import Path

from .evolution import EvolutionConfig
from .meta import MetaConfig
from .training import TrainConfig


@dataclass
class TaskConfig:
    name: str = "synthetic"       # synthetic | char_lm | music
    data_path: str = ""           # corpus text or piano-roll matrix file
    vocab_size: int = 8           # synthetic task
    delay: int = 4
    train_tokens: int = 12_000
    valid_tokens: int = 3_000
    test_tokens: int = 3_000
    data_seed: int = 0


@dataclass
class NetworkConfig:
    layers: int = 1
    width: int = 24
    embedding_dim: int = 12
    cardinality: int = 20         # heterogeneous slot width


@dataclass
class PathsConfig:
    out_dir: str = "runs/experiment"
    meta_model: str = ""          # trained curve-predictor checkpoint


@dataclass
class ExperimentConfig:
    seed: int = 0
    precision: int = 64
    task: TaskConfig = field(default_factory=TaskConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    meta: MetaConfig = field(default_factory=MetaConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def __post_init__(self):
        if self.precision not in (32, 64):
            raise ValueError("precision must be 32 or 64")


def _coerce(value: str, kind):
    if kind is int:
        return int(value)
    if kind is float:
        return float(value)
    if kind is tuple:
        return tuple(int(v) for v in value.split(",") if v.strip())
    return value


def _field_type(f):
    # every config module postpones annotations, so each type is a string
    return {"int": int, "float": float, "tuple": tuple}.get(f.type, str)


def _emit(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _nested(cls) -> dict:
    """Field name -> dataclass of each field that holds a nested config."""
    return {f.name: f.default_factory for f in dataclasses.fields(cls)
            if dataclasses.is_dataclass(f.default_factory)}


def _emit_section(parser, section: str, obj) -> None:
    """One section per dataclass, named after the field that holds it; a
    nested dataclass follows its parent ([speciation] after [evolution])."""
    nested = _nested(type(obj))
    parser[section] = {f.name: _emit(getattr(obj, f.name))
                       for f in dataclasses.fields(obj) if f.name not in nested}
    for name in nested:
        _emit_section(parser, name, getattr(obj, name))


def _parse_section(parser, section: str, cls):
    nested = _nested(cls)
    known = {f.name: f for f in dataclasses.fields(cls) if f.name not in nested}
    values = {}
    if parser.has_section(section):
        for key, raw in parser.items(section):
            if key not in known:
                raise ValueError(f"unknown option {key!r} in section [{section}]")
            try:
                values[key] = _coerce(raw, _field_type(known[key]))
            except ValueError as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from exc
    for name, sub in nested.items():
        values[name] = _parse_section(parser, name, sub)
    return cls(**values)


def emit_config(config: ExperimentConfig) -> str:
    parser = configparser.ConfigParser()
    _emit_section(parser, "experiment", config)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return _parse_section(parser, "experiment", ExperimentConfig)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def save_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(emit_config(config), encoding="utf-8")
