"""Run-configuration document: defaults, validation, seed precedence, echo."""

import json

import pytest

from dataclasses import asdict

from ruas.config import DEFAULT_SEED, RunConfig, resolve_seed
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
    assert cfg.search_config(strategy="global").strategy == "global"
    assert cfg.train_config(strategy="hierarchical").strategy == "hierarchical"
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
    with pytest.raises(ConfigError):
        resolve_seed(None, "twelve", None)
