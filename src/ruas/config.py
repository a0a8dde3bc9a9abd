"""Run configuration: one JSON document mirroring the scene, search, train
and task options plus paths and seed.  Unknown keys are rejected; the
effective (post-default) config is echoed into every output directory."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .errors import ConfigError, DataIOError
from .scene import SceneConfig
from .search import SearchConfig
from .train import TrainConfig

_SECTION_DEFAULTS = {
    "scene": asdict(SceneConfig()),
    "search": asdict(SearchConfig()),
    "train": asdict(TrainConfig()),
    "task": {
        "gate_eps": 0.01,
        "tv_weight": 0.05,
        "variant": "ruas",
        "scene_ops": None,
        "task_ops": None,
    },
    "paths": {
        "data_dir": None,
        "out_dir": "out",
    },
}

DEFAULT_SEED = 42


class RunConfig:
    def __init__(self, doc=None):
        doc = dict(doc or {})
        known_top = set(_SECTION_DEFAULTS) | {"seed"}
        unknown = set(doc) - known_top
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.seed = doc.pop("seed", None)
        self.sections = {}
        for name, defaults in _SECTION_DEFAULTS.items():
            given = doc.get(name, {})
            if not isinstance(given, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            bad = set(given) - set(defaults)
            if bad:
                raise ConfigError(f"unknown keys in config section {name!r}: {sorted(bad)}")
            merged = dict(defaults)
            merged.update(given)
            self.sections[name] = merged

    @classmethod
    def load(cls, path):
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise DataIOError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls(doc)

    def scene_config(self):
        return SceneConfig(**self.sections["scene"])

    def search_config(self, strategy=None):
        kw = dict(self.sections["search"])
        if strategy is not None:
            kw["strategy"] = strategy
        return SearchConfig(**kw)

    def train_config(self, strategy=None):
        kw = dict(self.sections["train"])
        if strategy is not None:
            kw["strategy"] = strategy
        return TrainConfig(**kw)

    def effective(self, seed):
        doc = {"seed": seed}
        doc.update({k: dict(v) for k, v in self.sections.items()})
        return doc

    def echo(self, out_dir, seed):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "run_config.json").write_text(
            json.dumps(self.effective(seed), indent=2) + "\n"
        )


def resolve_seed(flag_seed, env_seed, config_seed):
    """Precedence: --seed flag, then RUAS_SEED, then config, then 42."""
    for value in (flag_seed, env_seed, config_seed):
        if value is not None:
            try:
                return int(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"seed must be an integer, got {value!r}") from exc
    return DEFAULT_SEED
