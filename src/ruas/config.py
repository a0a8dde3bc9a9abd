"""Run configuration: one JSON document mirroring the scene, search, train
and task options plus paths and seed.  Unknown keys are rejected; the
effective (post-default) config is echoed into every output directory.

Every section is a dataclass below.  ``check_fields`` checks each field
against its annotation and against the class's ``_LIMITS`` table: an
interval in ``(lo, hi]`` notation or a tuple of choices.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import types
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

from .autodiff import DIV_GUARD
from .errors import ConfigError, DataIOError
from .io_metrics import write_file
from .search_space import EDGES, lookup_op

WARM_START_MODES = ("fixed", "no_rectify", "rectify")
SEARCH_STRATEGIES = ("cooperative", "independent", "global")
TRAIN_STRATEGIES = ("end_to_end", "hierarchical")
VARIANTS = ("ruas_s", "ruas", "ruas_a")

_NOUNS = {int: "an integer", float: "a real number", str: "a string"}
_NOUNS[list[str]] = "a list of strings"
# interval wordings the messages have always used
_PHRASES = {"(0, inf)": "positive", "[0, inf)": "nonnegative"}


@functools.cache
def _schema(cls):
    """(name, type, None allowed) per field; annotations resolved once per class."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        optional = type(None) in kinds
        (kind,) = [k for k in kinds if k is not type(None)]
        out.append((f.name, kind, optional))
    return out


def _is(value, kind):
    """Whether ``value`` has the type ``kind``; a bool is never a number."""
    if isinstance(value, bool):
        return False
    if kind is int:
        return isinstance(value, numbers.Integral)
    if kind is float:
        return isinstance(value, numbers.Real)
    if kind == list[str]:
        return isinstance(value, list) and all(_is(v, str) for v in value)
    return isinstance(value, kind)


def _finite(value):
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _within(value, interval):
    lo, hi = (float(s) for s in interval[1:-1].split(","))
    above = value > lo if interval[0] == "(" else value >= lo
    below = value < hi if interval[-1] == ")" else value <= hi
    return above and below


def check_fields(instance):
    """Raise ConfigError unless every field of a config dataclass matches
    its annotation (an ``int`` rejects bool and float, a ``float`` takes an
    int unchanged but no bool, string or non-finite value, ``X | None``
    allows None) and its entry, if any, in the class's ``_LIMITS``."""
    limits = getattr(instance, "_LIMITS", {})
    for name, kind, optional in _schema(type(instance)):
        value = getattr(instance, name)
        if value is None and optional:
            continue
        if not _is(value, kind):
            noun = _NOUNS[kind] + (" or null" if optional else "")
            raise ConfigError(f"{name} must be {noun}, got {value!r}")
        if kind is float and not _finite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        limit = limits.get(name)
        if isinstance(limit, tuple) and value not in limit:
            raise ConfigError(f"{name} must be one of {limit}, got {value!r}")
        if isinstance(limit, str) and not _within(value, limit):
            rule = _PHRASES.get(limit, f"in {limit}")
            raise ConfigError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class SceneConfig:
    stages: int = 3  # K
    window: int = 3  # spatial extent of the local-max region
    gamma: float = 0.5  # residual rectification strength
    warm_start: str = "no_rectify"
    t_floor: float = 1e-3
    rtv_weight: float = 0.1  # eta
    rtv_sigma: float = 1.5
    rtv_eps: float = 1e-3

    _LIMITS = {
        "stages": "[1, inf)", "window": "[1, inf)", "gamma": "(0, 1]",
        "warm_start": WARM_START_MODES,
        "t_floor": f"[{DIV_GUARD}, 1)",  # a lower t fails the guard of u = y / t
        "rtv_weight": "[0, inf)", "rtv_sigma": "(0, inf)",
        "rtv_eps": f"[{DIV_GUARD}, inf)",  # rtv divides by |G*d| + eps, 0 where t is flat
    }

    def __post_init__(self):
        check_fields(self)
        if self.window % 2 == 0:
            raise ConfigError(f"window must be odd, got {self.window}")


@dataclass(frozen=True)
class SearchConfig:
    beta: float = 1.0
    lr_omega: float = 3e-4
    lr_alpha: float = 3e-4
    fd_step: float = 1e-2
    epochs: int = 20
    strategy: str = "cooperative"
    inner_steps: int = 1
    warmup_epochs: int = 3
    weight_decay: float = 1e-3
    momentum: float | None = None  # sampled from (0.5, 0.999) when None
    grad_clip: float | None = 1.0

    _LIMITS = {
        "beta": "[0, inf)", "lr_omega": "[0, inf)", "lr_alpha": "[0, inf)",
        "fd_step": "(0, inf)", "epochs": "[1, inf)", "strategy": SEARCH_STRATEGIES,
        "inner_steps": "[1, inf)", "warmup_epochs": "[0, inf)",
        "weight_decay": "[0, inf)", "momentum": "[0, 1)", "grad_clip": "(0, inf)",
    }

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TrainConfig:
    lambda_weight: float = 1.0
    strategy: str = "end_to_end"
    epochs: int = 100
    lr: float = 3e-4
    momentum: float = 0.9
    weight_decay: float = 1e-3
    pretrain_epochs: int = 30
    grad_clip: float | None = 1.0

    _LIMITS = {
        "lambda_weight": "[0, inf)", "strategy": TRAIN_STRATEGIES, "epochs": "[0, inf)",
        "lr": "[0, inf)", "momentum": "[0, 1)", "weight_decay": "[0, inf)",
        "pretrain_epochs": "[0, inf)", "grad_clip": "(0, inf)",
    }

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TaskConfig:
    gate_eps: float = 0.01  # ruas_a skips removal up to this input noise sigma
    tv_weight: float = 0.05
    variant: str = "ruas"
    scene_ops: list[str] | None = None  # None: the model's default cell
    task_ops: list[str] | None = None

    _LIMITS = {"gate_eps": "[0, inf)", "tv_weight": "[0, inf)", "variant": VARIANTS}

    def __post_init__(self):
        check_fields(self)
        # both lists, whatever the variant: a checkpoint or run_config.json
        # echoes a list that the variant's model does not build
        for name in ("scene_ops", "task_ops"):
            ops = getattr(self, name)
            if ops is not None and len(ops) != len(EDGES):
                raise ConfigError(f"{name} needs {len(EDGES)} operator names, got {len(ops)}")
            for op in ops or ():
                lookup_op(op)


@dataclass(frozen=True)
class PathsConfig:
    data_dir: str | None = None  # the --data flag takes precedence
    out_dir: str = "out"

    def __post_init__(self):
        check_fields(self)


SECTIONS = dict(
    scene=SceneConfig, search=SearchConfig, train=TrainConfig, task=TaskConfig,
    paths=PathsConfig,
)

DEFAULT_SEED = 42


class RunConfig:
    """The parsed document: ``seed`` and one dataclass per section, the
    attributes ``scene``, ``search``, ``train``, ``task`` and ``paths``; every
    section is built, and so checked, here."""

    def __init__(self, doc=None):
        doc = dict(doc or {})
        unknown = set(doc) - set(SECTIONS) - {"seed"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.seed = doc.pop("seed", None)
        resolve_seed(None, None, self.seed)  # a bad seed fails even if overridden
        for name, cls in SECTIONS.items():
            given = doc.get(name, {})
            if not isinstance(given, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            bad = set(given) - {f.name for f in dataclasses.fields(cls)}
            if bad:
                raise ConfigError(f"unknown keys in config section {name!r}: {sorted(bad)}")
            setattr(self, name, cls(**given))

    @classmethod
    def load(cls, path):
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataIOError(f"cannot read config {path}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            kind = type(doc).__name__
            raise ConfigError(f"config {path} must hold a JSON object, not {kind}")
        return cls(doc)

    def set_strategy(self, section, strategy):
        """Make a command-line strategy (None: keep the config's) the
        ``section``'s own, so that the echoed config describes the run."""
        if strategy is not None:
            setattr(self, section, dataclasses.replace(getattr(self, section), strategy=strategy))

    def echo(self, out_dir, seed):
        """Write the effective (post-default) config as run_config.json."""
        doc = {"seed": seed} | {name: asdict(getattr(self, name)) for name in SECTIONS}
        write_file(Path(out_dir) / "run_config.json", json.dumps(doc, indent=2) + "\n")


def resolve_seed(flag_seed, env_seed, config_seed):
    """Precedence: --seed flag, then RUAS_SEED, then config, then 42.

    A seed is a nonnegative integer or, as RUAS_SEED gives it, the decimal
    string of one; a bool or a float (``true``, ``1.5``) is rejected rather
    than truncated.
    """
    for value in (flag_seed, env_seed, config_seed):
        if value is None:
            continue
        try:
            seed = int(value) if isinstance(value, str) else value
        except ValueError:
            seed = None
        if not _is(seed, int) or seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {value!r}")
        return int(seed)
    return DEFAULT_SEED
