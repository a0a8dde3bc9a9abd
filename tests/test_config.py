"""Run-configuration document: defaults, validation, seed precedence, echo."""

import dataclasses
import json
import math
import typing

import pytest

from dataclasses import asdict

from ruas.config import (
    DEFAULT_SEED,
    SECTIONS,
    PathsConfig,
    RunConfig,
    TaskConfig,
    resolve_seed,
)
from ruas.errors import ConfigError, DataIOError
from ruas.scene import SceneConfig
from ruas.search import SearchConfig
from ruas.train import TrainConfig


def test_defaults_materialize():
    cfg = RunConfig()
    assert cfg.sections["scene"] == asdict(SceneConfig())
    assert cfg.sections["search"] == asdict(SearchConfig())
    assert cfg.sections["train"] == asdict(TrainConfig())
    assert cfg.sections["scene"]["stages"] == 3
    assert cfg.sections["search"]["strategy"] == "cooperative"
    assert cfg.sections["train"]["strategy"] == "end_to_end"
    assert cfg.sections["task"]["variant"] == "ruas"
    assert cfg.seed is None


def test_overrides_merge_into_defaults():
    cfg = RunConfig({"train": {"epochs": 7}, "seed": 11})
    assert cfg.sections["train"]["epochs"] == 7
    assert cfg.sections["train"]["lr"] == 3e-4  # untouched default
    assert cfg.seed == 11


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as exc:
        RunConfig({"trian": {}})
    assert "trian" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        RunConfig({"train": {"epoch": 5}})
    assert "epoch" in str(exc.value)
    with pytest.raises(ConfigError):
        RunConfig({"train": 5})


def test_section_to_dataclass():
    cfg = RunConfig({"scene": {"stages": 2}, "search": {"epochs": 4}})
    assert cfg.scene_config().stages == 2
    assert cfg.search_config().epochs == 4
    cfg.set_strategy("search", "global")
    cfg.set_strategy("train", "hierarchical")
    assert cfg.search_config().strategy == "global"
    assert cfg.train_config().strategy == "hierarchical"
    assert cfg.sections["search"]["strategy"] == "global"  # the echoed config
    # invalid values surface when the dataclass is built
    with pytest.raises(ConfigError):
        RunConfig({"scene": {"stages": 0}}).scene_config()


def test_load_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"epochs": 3}}))
    assert RunConfig.load(path).sections["train"]["epochs"] == 3
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.load(path)
    with pytest.raises(DataIOError):
        RunConfig.load(tmp_path / "absent.json")


def test_echo_writes_effective_config(tmp_path):
    cfg = RunConfig({"train": {"epochs": 3}})
    cfg.echo(tmp_path / "out", seed=9)
    doc = json.loads((tmp_path / "out" / "run_config.json").read_text())
    assert doc["seed"] == 9
    assert doc["train"]["epochs"] == 3
    assert doc["train"]["lr"] == 3e-4  # defaults are echoed too


def test_seed_precedence():
    assert resolve_seed(1, 2, 3) == 1
    assert resolve_seed(None, "2", 3) == 2
    assert resolve_seed(None, None, 3) == 3
    assert resolve_seed(None, None, None) == DEFAULT_SEED
    assert resolve_seed(None, None, 0) == 0
    for bad in ("twelve", "1.5", 1.5, 2.0, True, False, -1, "-1", [3]):
        with pytest.raises(ConfigError, match="seed must be"):
            resolve_seed(None, None, bad)
    with pytest.raises(ConfigError):
        resolve_seed(None, "twelve", None)


def test_section_classes_resolve_from_their_modules():
    # SceneConfig, SearchConfig and TrainConfig are imported from ruas.scene,
    # ruas.search and ruas.train above
    assert SECTIONS == {
        "scene": SceneConfig,
        "search": SearchConfig,
        "train": TrainConfig,
        "task": TaskConfig,
        "paths": PathsConfig,
    }


# values of the wrong type for each annotation in the schema; a float field
# also rejects every non-finite value
NON_FINITE = [math.nan, math.inf, -math.inf]
WRONG = {
    int: [1.5, 3.0, True, "1", None, [1]],
    float: ["1", "0.5", True, None, [1.0]] + NON_FINITE,
    float | None: ["1", False, [1.0]] + NON_FINITE,
    str: [1, True, None, ["ruas"]],
    str | None: [5, False, 1.5, ["data"]],
    list[str] | None: ["3-C", [1], ["3-C", None], {"3-C": 1}],
}
FIELDS = [
    (section, f.name, typing.get_type_hints(cls)[f.name])
    for section, cls in SECTIONS.items()
    for f in dataclasses.fields(cls)
]


@pytest.mark.parametrize(
    "section, field, hint", FIELDS, ids=[f"{s}.{f}" for s, f, _ in FIELDS]
)
def test_every_field_rejects_wrong_types(section, field, hint):
    for value in WRONG[hint]:
        with pytest.raises(ConfigError, match=f"{field} must be"):
            RunConfig({section: {field: value}})


def test_search_batch_is_an_unknown_key():
    with pytest.raises(ConfigError, match="batch"):
        RunConfig({"search": {"batch": 1}})


def test_int_in_a_float_field_is_kept_unchanged(tmp_path):
    cfg = RunConfig({"search": {"beta": 1}, "scene": {"gamma": 1}})
    assert type(cfg.search_config().beta) is int
    assert type(cfg.scene_config().gamma) is int
    cfg.echo(tmp_path, seed=1)
    doc = json.loads((tmp_path / "run_config.json").read_text())
    assert doc["search"]["beta"] == 1 and type(doc["search"]["beta"]) is int


def test_optional_fields_take_none():
    cfg = RunConfig(
        {
            "search": {"momentum": None, "grad_clip": None},
            "train": {"grad_clip": None},
            "task": {"scene_ops": None, "task_ops": ["3-C"] * 7},
        }
    )
    assert cfg.search_config().momentum is None
    assert cfg.train_config().grad_clip is None
    assert cfg.task_config().task_ops == ["3-C"] * 7


@pytest.mark.parametrize(
    "section, values",
    [
        ("search", {"warmup_epochs": -1, "weight_decay": -1e-3, "momentum": 1.0}),
        ("train", {"lr": -1e-3, "momentum": -0.1, "pretrain_epochs": -1}),
        ("task", {"gate_eps": -0.01, "tv_weight": -1, "variant": "ruas_x"}),
        ("scene", {"window": -1, "t_floor": 1.0, "warm_start": "cold"}),
    ],
)
def test_out_of_range_values_rejected(section, values):
    for field, value in values.items():
        with pytest.raises(ConfigError, match=f"{field} must"):
            RunConfig({section: {field: value}})


def test_overrides_replace_instead_of_mutating():
    cfg = RunConfig()
    before = cfg.search_config()
    cfg.set_strategy("search", "global")
    assert cfg.search_config().strategy == "global"
    assert before.strategy == "cooperative"
    cfg.set_strategy("search", None)  # None keeps the config's strategy
    assert cfg.search_config().strategy == "global"
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.scene_config().stages = 5
