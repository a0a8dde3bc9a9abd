"""End-to-end command-line behavior: pipelines, outputs, and exit codes."""

import json
import math

import numpy as np
import pytest

from ruas import cli
from ruas.cli import main
from ruas.errors import ContractError, DomainError
from ruas.io_metrics import make_synthetic_dataset, save_png
from ruas.model import RuasModel, load_checkpoint, save_checkpoint
from ruas.search_space import count_params
from ruas.train import TrainReport

FAST = {
    "search": {"epochs": 2, "warmup_epochs": 1, "lr_omega": 3e-5, "lr_alpha": 3e-4},
    "train": {"epochs": 1, "pretrain_epochs": 1, "lr": 3e-5},
    "task": {"variant": "ruas_s"},
}


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    path.write_text(json.dumps(FAST))
    return str(path)


def test_gradcheck_passes(tmp_path, capsys):
    assert main(["gradcheck", "--seed", "3", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "ok" in out
    lines = (tmp_path / "gradcheck.csv").read_text().strip().splitlines()
    assert lines[0] == "check,max_rel_error"
    assert len(lines) > 10
    # the 56 rows, in order: every primitive, the mixed edge, the scene cell
    ops = ("1-C", "3-C", "1-RC", "3-RC", "3-2-DC", "3-2-RDC")
    mixed = [f"mixed_forward[{op}.{p}]" for op in ops for p in ("weight", "bias")]
    cell = "edge0.3-RC edge1.3-2-RDC edge2.3-RC edge3.3-C edge4.3-C edge5.3-2-DC edge6.3-C fusion"
    scene = [f"scene_composite[cell.{e}.{p}]" for e in cell.split() for p in ("weight", "bias")]
    names = (
        "add sub mul div_num div_den neg relu clamp abs conv2d_x_d1 conv2d_w_d1 conv2d_b_d1"
        " conv2d_x_d2 conv2d_w_d2 conv2d_b_d2 softmax reduce_sum reduce_mean reduce_l1"
        " reduce_l2sq sliding_max spatial_diff correlate1d concat channels conv2d_w_banded"
        " mixed_forward_logits mixed_forward_x"
    ).split() + mixed + scene
    assert len(names) == 56
    assert [line.split(",")[0] for line in lines[1:]] == names


def test_unknown_config_key_exits_2(tmp_path, tiny_dataset):
    root, _ = tiny_dataset
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"trainer": {}}))
    code = main(
        ["train", "--config", str(bad), "--data", str(root), "--out", str(tmp_path)]
    )
    assert code == 2


def test_missing_config_file_exits_3(tmp_path, tiny_dataset):
    root, _ = tiny_dataset
    code = main(
        [
            "train",
            "--config",
            str(tmp_path / "absent.json"),
            "--data",
            str(root),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 3


def test_config_that_is_not_utf8_exits_2(tmp_path, tiny_dataset, capsys):
    root, _ = tiny_dataset
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00{")
    code = main(["train", "--config", str(bad), "--data", str(root), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_out_of_memory_exits_3_naming_the_command(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_gradcheck", exhausted)
    assert main(["gradcheck"]) == 3
    assert capsys.readouterr().err == "out of memory: ruas gradcheck\n"


NO_FILE = object()


@pytest.mark.parametrize(
    "config, arch, code, needle",
    [
        ({"task": {"scene_ops": ["bogus"] * 7}}, None, 2, "'bogus'"),
        ({}, json.dumps({"scene": {"ops": ["3-C"] * 7}}), 2, "task"),
        ({}, "{not json", 2, "JSON"),
        ({}, NO_FILE, 3, "arch.json"),
        # an empty op list is a cell of the wrong length, not the default cell
        ({**FAST, "task": {"variant": "ruas_s", "scene_ops": []}}, None, 2, "got 0"),
        ({**FAST, "task": {"task_ops": []}}, None, 2, "got 0"),
        # operators that the table no longer holds
        ({"task": {"scene_ops": ["7-C"] * 7}}, None, 2, "'7-C'"),
        (
            {},
            json.dumps({"scene": {"ops": ["3-C"] * 7}, "task": {"ops": ["5-2-DC"] * 7}}),
            2,
            "'5-2-DC'",
        ),
    ],
    ids=[
        "unknown-op",
        "arch-without-task",
        "arch-not-json",
        "arch-unreadable",
        "empty-scene-ops",
        "empty-task-ops",
        "removed-op-in-config",
        "removed-op-in-arch",
    ],
)
def test_bad_operator_names_and_arch_files(
    tmp_path, tiny_dataset, capsys, config, arch, code, needle
):
    root, _ = tiny_dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = ["train", "--config", str(cfg), "--data", str(root), "--out", str(tmp_path)]
    if arch is not None:  # text of the --arch file, or NO_FILE to name a missing one
        arch_path = tmp_path / "arch.json"
        if arch is not NO_FILE:
            arch_path.write_text(arch)
        argv += ["--arch", str(arch_path)]
    assert main(argv) == code
    assert needle in capsys.readouterr().err


def test_non_integer_stages_exits_2(tmp_path, tiny_dataset, capsys):
    root, _ = tiny_dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scene": {"stages": 2.5}}))
    argv = ["train", "--config", str(cfg), "--data", str(root), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "integer" in capsys.readouterr().err
    assert not (tmp_path / "run_config.json").exists()


@pytest.mark.parametrize(
    "scene",
    [{"window": 3.0}, {"window": True}, {"gamma": "0.5"}, {"rtv_sigma": "1"}],
    ids=["float-window", "bool-window", "str-gamma", "str-rtv-sigma"],
)
def test_mistyped_scene_fields_exit_2(tmp_path, tiny_dataset, capsys, scene):
    root, _ = tiny_dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scene": scene}))
    argv = ["train", "--config", str(cfg), "--data", str(root), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert f"{next(iter(scene))} must be" in capsys.readouterr().err
    assert not (tmp_path / "run_config.json").exists()


@pytest.mark.parametrize(
    "scene",
    [
        {"rtv_eps": 0},
        {"rtv_eps": -1e-3},
        {"rtv_eps": 1e-13},
        {"rtv_weight": -0.1},
        {"t_floor": 1e-13},
    ],
    ids=[
        "zero-rtv-eps",
        "negative-rtv-eps",
        "rtv-eps-below-guard",
        "negative-rtv-weight",
        "t-floor-below-guard",
    ],
)
def test_out_of_range_rtv_fields_exit_2(tmp_path, tiny_dataset, capsys, scene):
    root, _ = tiny_dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scene": scene}))
    argv = ["train", "--config", str(cfg), "--data", str(root), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert f"{next(iter(scene))} must be" in capsys.readouterr().err
    assert not (tmp_path / "run_config.json").exists()


@pytest.mark.parametrize(
    "search",
    [{"inner_steps": 0}, {"inner_steps": -2}, {"fd_step": 0.0}, {"fd_step": -1}],
    ids=["zero-inner-steps", "negative-inner-steps", "zero-fd-step", "negative-fd-step"],
)
def test_out_of_range_search_fields_exit_2(tmp_path, tiny_dataset, capsys, search):
    # inner_steps 0 would take no alpha or omega step and write the random
    # initial architecture as the search result
    root, _ = tiny_dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"search": search}))
    out = tmp_path / "out"
    argv = ["search", "--config", str(cfg), "--data", str(root), "--out", str(out)]
    assert main(argv) == 2
    assert f"{next(iter(search))} must be" in capsys.readouterr().err
    assert not (out / "alpha_final.json").exists()
    assert not (out / "run_config.json").exists()


@pytest.mark.parametrize(
    "command, doc, needle",
    [
        ("train", {"task": {"tv_weight": "x"}}, "tv_weight must be"),
        ("train", {"train": {"lr": "1e-3"}}, "lr must be"),
        ("search", {"search": {"beta": "1"}}, "beta must be"),
        ("search", {"search": {"momentum": "0.9"}}, "momentum must be"),
        ("train", {"train": {"grad_clip": "1"}}, "grad_clip must be"),
        ("search", {"search": {"lr_alpha": None}}, "lr_alpha must be"),
        ("search", {"search": {"epochs": 1.5}}, "epochs must be"),
        ("train", {"scene": {"rtv_sigma": math.inf}}, "rtv_sigma must be"),
        ("search", {"search": {"warmup_epochs": 0.5}}, "warmup_epochs must be"),
        ("train", {"train": {"epochs": True}}, "epochs must be"),
        ("train", {"train": {"lambda_weight": math.nan}}, "lambda_weight must be"),
        ("search", {"search": {"batch": 1}}, "'batch'"),
        ("train", {"paths": {"data_dir": 5}}, "data_dir must be"),
        ("search", {"seed": 1.5}, "seed must be"),
        ("train", {"seed": True}, "seed must be"),
        # the config's seed is checked even where the flag overrides it
        ("search --seed 1", {"seed": True}, "seed must be"),
        ("train --seed 1", {"seed": "abc"}, "seed must be"),
        ("train", {"task": {"variant": "ruas_s", "task_ops": ["bogus"]}}, "task_ops"),
        *[("search", doc, "JSON object") for doc in (None, [], 0, "", 42, "abc", [1, 2])],
    ],
    ids=[
        "str-tv-weight",
        "str-lr",
        "str-beta",
        "str-momentum",
        "str-grad-clip",
        "null-lr-alpha",
        "float-epochs",
        "infinite-rtv-sigma",
        "float-warmup-epochs",
        "bool-epochs",
        "nan-lambda",
        "search-batch",
        "int-data-dir",
        "float-seed",
        "bool-seed",
        "bool-seed-under-seed-flag",
        "str-seed-under-seed-flag",
        "ruas-s-bogus-task-ops",
        *[
            f"top-level-{n}"
            for n in ("null", "empty-list", "zero", "empty-str", "int", "str", "list")
        ],
    ],
)
def test_mistyped_config_values_exit_2_and_write_nothing(
    tmp_path, tiny_dataset, capsys, command, doc, needle
):
    root, _ = tiny_dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))  # NaN and Infinity as JSON extensions
    out = tmp_path / "out"
    argv = [*command.split(), "--config", str(cfg), "--data", str(root), "--out", str(out)]
    assert main(argv) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_missing_data_dir_exits_2(tmp_path, fast_config):
    assert main(["train", "--config", fast_config, "--out", str(tmp_path)]) == 2


def test_bad_k_list_exits_2(tmp_path, fast_config, tiny_dataset):
    root, _ = tiny_dataset
    code = main(
        [
            "ablate-k",
            "--config",
            fast_config,
            "--data",
            str(root),
            "--out",
            str(tmp_path),
            "--k-list",
            "0",
        ]
    )
    assert code == 2
    argv = ["ablate-k", "--config", fast_config, "--data", str(root), "--k-list", "1,a"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 2
    assert not (tmp_path / "a").exists()


def test_search_outputs_and_determinism(tmp_path, fast_config, tiny_dataset):
    root, _ = tiny_dataset
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "search",
                "--config",
                fast_config,
                "--data",
                str(root),
                "--out",
                str(out),
                "--seed",
                "11",
            ]
        )
        assert code == 0
        for fname in ("history.csv", "alpha_final.json", "arch.dot", "run_config.json"):
            assert (out / fname).exists()
        outs.append((out / "alpha_final.json").read_text())
    assert outs[0] == outs[1]
    alpha = json.loads(outs[0])
    assert len(alpha["scene"]["ops"]) == 7
    assert alpha["strategy"] == "cooperative"


@pytest.mark.parametrize(
    "command, strategy", [("search", "global"), ("train", "hierarchical")]
)
def test_strategy_flag_is_echoed(tmp_path, fast_config, tiny_dataset, command, strategy):
    root, _ = tiny_dataset
    argv = [command, "--config", fast_config, "--data", str(root), "--out", str(tmp_path)]
    assert main(argv + ["--strategy", strategy]) == 0
    echoed = json.loads((tmp_path / "run_config.json").read_text())
    assert echoed[command]["strategy"] == strategy


def test_train_enhance_eval_pipeline(tmp_path, fast_config, tiny_dataset):
    root, records = tiny_dataset
    run = tmp_path / "run"
    code = main(
        [
            "train",
            "--config",
            fast_config,
            "--data",
            str(root),
            "--out",
            str(run),
            "--seed",
            "5",
            "--strategy",
            "hierarchical",
        ]
    )
    assert code == 0
    ckpt = run / "model.ckpt"
    assert ckpt.exists()
    curve = (run / "curve.csv").read_text().strip().splitlines()
    assert curve[0] == "phase,epoch,loss"
    assert any(line.startswith("scene,") for line in curve)
    assert any(line.startswith("fine,") for line in curve)

    # enhance a single image with stage dumps: 1 output + K * (t, u) stages
    enh = tmp_path / "enh"
    code = main(
        [
            "enhance",
            "--model",
            str(ckpt),
            "--input",
            str(records[0].input_path),
            "--out",
            str(enh),
            "--dump-stages",
        ]
    )
    assert code == 0
    assert (enh / f"{records[0].input_path.stem}.png").exists()
    for k in (1, 2, 3):
        assert (enh / f"stage{k}_t.png").exists()
        assert (enh / f"stage{k}_u.png").exists()

    # evaluate against the paired references
    ev = tmp_path / "ev"
    code = main(
        ["eval", "--model", str(ckpt), "--data", str(root), "--out", str(ev)]
    )
    assert code == 0
    lines = (ev / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "id,psnr_db,ssim"
    assert lines[-1].startswith("mean,")

    # variant upgrade needs modules the checkpoint lacks
    code = main(
        [
            "enhance",
            "--model",
            str(ckpt),
            "--input",
            str(records[0].input_path),
            "--out",
            str(tmp_path / "up"),
            "--variant",
            "ruas_a",
        ]
    )
    assert code == 2


def test_variant_downgrade_allowed(tmp_path, tiny_dataset):
    root, records = tiny_dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"train": {"epochs": 1, "lr": 3e-5}, "task": {"variant": "ruas"}})
    )
    run = tmp_path / "run"
    assert (
        main(
            [
                "train",
                "--config",
                str(cfg),
                "--data",
                str(root),
                "--out",
                str(run),
                "--seed",
                "5",
            ]
        )
        == 0
    )
    code = main(
        [
            "enhance",
            "--model",
            str(run / "model.ckpt"),
            "--input",
            str(records[0].input_path),
            "--out",
            str(tmp_path / "down"),
            "--variant",
            "ruas_s",
        ]
    )
    assert code == 0
    assert (tmp_path / "down" / f"{records[0].input_path.stem}.png").exists()
    # ruas and ruas_a hold the same modules: a ruas checkpoint runs gated
    argv = ["enhance", "--model", str(run / "model.ckpt"), "--variant", "ruas_a"]
    argv += ["--input", str(records[0].input_path), "--out", str(tmp_path / "gated")]
    assert main(argv) == 0


def test_training_abort_exits_4(tmp_path, fast_config, tiny_dataset, monkeypatch):
    root, _ = tiny_dataset
    import ruas.cli as cli_mod

    monkeypatch.setattr(
        cli_mod,
        "train_model",
        lambda model, records, cfg: TrainReport(curves={"joint": []}, aborted=True),
    )
    code = main(
        [
            "train",
            "--config",
            fast_config,
            "--data",
            str(root),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 4
    # the last-good checkpoint is still written for inspection
    assert (tmp_path / "model.ckpt").exists()


def test_ablate_k_abort_writes_csv_and_exits_4(
    tmp_path, fast_config, tiny_dataset, monkeypatch, capsys
):
    import ruas.cli as cli_mod

    def trainer(model, records, cfg):
        return TrainReport(curves={}, aborted=model.scene_cfg.stages == 2)

    monkeypatch.setattr(cli_mod, "train_model", trainer)
    root, _ = tiny_dataset
    argv = ["ablate-k", "--config", fast_config, "--data", str(root), "--out", str(tmp_path)]
    assert main(argv + ["--k-list", "1,2,3"]) == 4
    assert "for k=2;" in capsys.readouterr().err
    _, rows = _csv_rows(tmp_path / "ablation.csv")
    assert [r[0] for r in rows] == ["1", "2", "3"]


def test_fixed_op_abort_writes_csv_and_exits_4(
    tmp_path, fast_config, tiny_dataset, monkeypatch, capsys
):
    import ruas.cli as cli_mod

    def trainer(model, records, cfg):
        return TrainReport(curves={}, aborted=model.scene_ops[0] == "3-C")

    def supernet_trainer(model, records, cfg):
        return TrainReport(curves={}, aborted=True)

    monkeypatch.setattr(cli_mod, "train_hierarchical", trainer)
    monkeypatch.setattr(cli_mod, "pretrain_scene", supernet_trainer)
    root, _ = tiny_dataset
    argv = ["fixed-op", "--config", fast_config, "--data", str(root), "--out", str(tmp_path)]
    assert main(argv) == 4
    assert "for 3-C, supernet;" in capsys.readouterr().err
    _, rows = _csv_rows(tmp_path / "fixed_op.csv")
    assert [r[0] for r in rows][-2:] == ["SC", "supernet"]


def test_out_dir_comes_from_paths_unless_out_is_given(
    tmp_path, tiny_dataset, monkeypatch
):
    root, _ = tiny_dataset
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAST | {"paths": {"out_dir": "od", "data_dir": str(root)}}))
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "od" / "model.ckpt").exists()
    assert json.loads((tmp_path / "od" / "run_config.json").read_text())["paths"] == {
        "out_dir": "od",
        "data_dir": str(root),
    }
    assert main(["eval", "--config", str(cfg), "--model", "od/model.ckpt"]) == 0
    assert (tmp_path / "od" / "metrics.csv").exists()
    (tmp_path / "od" / "model.ckpt").unlink()
    assert main(["train", "--config", str(cfg), "--out", "flag"]) == 0
    assert (tmp_path / "flag" / "model.ckpt").exists()
    assert not (tmp_path / "od" / "model.ckpt").exists()
    assert not (tmp_path / "out").exists()


def test_gradcheck_negative_seed_exits_2(tmp_path, capsys):
    assert main(["gradcheck", "--seed", "-1", "--out", str(tmp_path / "g")]) == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_enhance_corrupt_png_exits_3(tmp_path, fast_config, tiny_dataset):
    root, _ = tiny_dataset
    run = tmp_path / "run"
    assert (
        main(
            [
                "train",
                "--config",
                fast_config,
                "--data",
                str(root),
                "--out",
                str(run),
            ]
        )
        == 0
    )
    bad = tmp_path / "bad.png"
    bad.write_bytes(b"definitely not a png")
    code = main(
        [
            "enhance",
            "--model",
            str(run / "model.ckpt"),
            "--input",
            str(bad),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 3


@pytest.mark.parametrize("command", ["eval --model", "ablate-k --k-list 1", "fixed-op"])
def test_reference_of_another_size_exits_3_and_writes_nothing(
    tmp_path, fast_config, capsys, command
):
    """The commands that score against references check every reference's
    size before they train or write anything."""
    root = tmp_path / "data"
    records = make_synthetic_dataset(root, 4, size=16, seed=5)
    bad = records[2]
    save_png(np.full((3, 12, 16), 0.5), bad.reference_path)
    model = tmp_path / "model.ckpt"
    save_checkpoint(RuasModel(np.random.default_rng(0), variant="ruas_s"), model)
    out = tmp_path / "out"
    argv = command.split() + ([str(model)] if command.startswith("eval") else [])
    argv += ["--config", fast_config, "--data", str(root), "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert str(bad.reference_path) in err and str(bad.input_path) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval --model", "ablate-k --k-list 1", "fixed-op"])
def test_reference_smaller_than_the_ssim_window_exits_3_and_writes_nothing(
    tmp_path, fast_config, capsys, command
):
    """An 8 px reference cannot be scored by SSIM's 11 px window, so the
    commands that score refuse it when they load it, before any work."""
    root = tmp_path / "data"
    rng = np.random.default_rng(5)
    for i in range(3):
        save_png(rng.uniform(0.0, 0.3, (3, 8, 8)), root / "input" / f"img{i}.png")
        save_png(rng.uniform(0.0, 1.0, (3, 8, 8)), root / "reference" / f"img{i}.png")
    model = tmp_path / "model.ckpt"
    save_checkpoint(RuasModel(np.random.default_rng(0), variant="ruas_s"), model)
    out = tmp_path / "out"
    argv = command.split() + ([str(model)] if command.startswith("eval") else [])
    argv += ["--config", fast_config, "--data", str(root), "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and str(root / "reference" / "img0.png") in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["enhance", "eval", "search", "train"])
@pytest.mark.parametrize("under_file", [False, True])
def test_output_path_blocked_by_a_file_exits_3(
    tmp_path, fast_config, tiny_dataset, capsys, monkeypatch, command, under_file
):
    """``--out`` naming a file, or a path under one, is an i/o error that
    names the path, raised before the command does its work."""
    root, records = tiny_dataset
    model = tmp_path / "model.ckpt"
    save_checkpoint(RuasModel(np.random.default_rng(0), variant="ruas_s"), model)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if under_file else blocker

    def work(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    for name in ("load_png", "evaluate", "run_search", "train_model"):
        monkeypatch.setattr(cli, name, work)
    argv = {
        "enhance": ["enhance", "--model", str(model), "--input", str(records[0].input_path)],
        "eval": ["eval", "--model", str(model), "--data", str(root)],
        "search": ["search", "--config", fast_config, "--data", str(root)],
        "train": ["train", "--config", fast_config, "--data", str(root)],
    }[command]
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and str(out) in err


@pytest.mark.parametrize("case", ["directory", "single-file"])
def test_enhance_refuses_to_overwrite_its_inputs(tmp_path, capsys, case):
    """An output path that resolves to an input is a config error naming the
    file, raised before anything is written: the inputs keep their bytes."""
    model = tmp_path / "model.ckpt"
    save_checkpoint(RuasModel(np.random.default_rng(0), variant="ruas_s"), model)
    src = tmp_path / "input"
    rng = np.random.default_rng(1)
    for name in ("a", "b"):
        save_png(rng.uniform(0, 1, size=(3, 16, 16)), src / f"{name}.png")
    before = {p: p.read_bytes() for p in src.iterdir()}
    target = src if case == "directory" else src / "b.png"
    # the same directory, spelled another way
    out = tmp_path / "input" / ".." / "input"
    argv = ["enhance", "--model", str(model), "--input", str(target), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    name = "a.png" if case == "directory" else "b.png"
    assert err.startswith("config error:") and name in err and "overwrite" in err
    assert {p: p.read_bytes() for p in src.iterdir()} == before



def test_enhance_refuses_two_inputs_that_write_one_path(tmp_path, capsys):
    """With --dump-stages, ``x``'s stage-1 t map and ``x_stage1_t``'s
    enhanced image are both ``x_stage1_t.png``: a config error naming both
    inputs, raised before the output directory is made."""
    model = tmp_path / "model.ckpt"
    save_checkpoint(RuasModel(np.random.default_rng(0), variant="ruas_s"), model)
    src = tmp_path / "input"
    rng = np.random.default_rng(1)
    for name in ("x", "x_stage1_t"):
        save_png(rng.uniform(0, 1, size=(3, 16, 16)), src / f"{name}.png")
    out = tmp_path / "out"
    argv = ["enhance", "--model", str(model), "--input", str(src), "--dump-stages"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "x_stage1_t.png" in err
    assert str(src / "x.png") in err and str(src / "x_stage1_t.png") in err
    assert not out.exists()


# no hypergradient (warm-up covers the one epoch) keeps the sweeps cheap
SMOKE = {
    "search": {"epochs": 1, "warmup_epochs": 1, "lr_omega": 3e-5},
    "train": {"epochs": 1, "pretrain_epochs": 1, "lr": 3e-5},
}


def _csv_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize(
    "command, csv_name, header, names",
    [
        (
            "compare-strategies",
            "strategies.csv",
            "strategy,scene_val,task_val,combined,scene_params,task_params",
            ["global", "independent", "cooperative"],
        ),
        (
            "fixed-op",
            "fixed_op.csv",
            "model,psnr_db,ssim,params,mult_adds",
            ["1-C", "3-C", "1-RC", "3-RC", "3-2-DC", "3-2-RDC", "SC", "supernet"],
        ),
    ],
    ids=["compare-strategies", "fixed-op"],
)
def test_comparison_commands_smoke(tmp_path, tiny_dataset, command, csv_name, header, names):
    root, _ = tiny_dataset
    cfg = tmp_path / "smoke.json"
    cfg.write_text(json.dumps(SMOKE))
    out = tmp_path / "out"
    code = main(
        [command, "--config", str(cfg), "--data", str(root), "--out", str(out), "--seed", "2"]
    )
    assert code == 0
    got_header, rows = _csv_rows(out / csv_name)
    assert got_header == header
    assert [r[0] for r in rows] == names
    assert all(np.isfinite(float(v)) for r in rows for v in r[1:])


def test_strategy_counts_are_those_of_the_trained_model(tmp_path, tiny_dataset):
    """strategies.csv counts the parameters of the model that ``train --arch``
    builds from each strategy's searched architecture."""
    root, _ = tiny_dataset
    cfg = tmp_path / "smoke.json"
    no_training = {"epochs": 0, "pretrain_epochs": 0}
    cfg.write_text(json.dumps(SMOKE | {"train": no_training, "task": {"variant": "ruas"}}))
    common = ["--config", str(cfg), "--data", str(root), "--seed", "2"]
    assert main(["compare-strategies", *common, "--out", str(tmp_path / "cmp")]) == 0
    _, rows = _csv_rows(tmp_path / "cmp" / "strategies.csv")
    for strategy, *_, scene_params, task_params in rows:
        search, train = tmp_path / f"search_{strategy}", tmp_path / f"train_{strategy}"
        assert main(["search", *common, "--out", str(search), "--strategy", strategy]) == 0
        arch = str(search / "alpha_final.json")
        assert main(["train", *common, "--out", str(train), "--arch", arch]) == 0
        model = load_checkpoint(train / "model.ckpt")
        assert int(scene_params) == model.scene_param_count()
        assert int(task_params) == count_params(model.omega_t())


@pytest.mark.parametrize("error", [DomainError, ContractError])
def test_domain_and_contract_errors_exit_4(tmp_path, monkeypatch, capsys, error):
    import ruas.cli as cli_mod

    def raising(args):
        raise error("boom")

    monkeypatch.setattr(cli_mod, "cmd_gradcheck", raising)
    assert main(["gradcheck", "--out", str(tmp_path)]) == 4
    assert "boom" in capsys.readouterr().err


# at SMOKE's learning rate the TV term moves no PSNR digit that fixed_op.csv keeps
TV_FIXED_OP = SMOKE | {"train": {"epochs": 1, "pretrain_epochs": 1, "lr": 3e-3}}


@pytest.mark.parametrize(
    "command, config, artifact",
    [
        ("search", FAST, "alpha_final.json"),
        ("fixed-op", TV_FIXED_OP, "fixed_op.csv"),
    ],
    ids=["search", "fixed-op"],
)
def test_tv_weight_reaches_the_command(tmp_path, tiny_dataset, command, config, artifact):
    root, _ = tiny_dataset
    outputs = []
    for tv_weight in (0.05, 5.0):
        cfg = tmp_path / f"tv{tv_weight}.json"
        cfg.write_text(json.dumps(config | {"task": {"tv_weight": tv_weight}}))
        out = tmp_path / f"out{tv_weight}"
        argv = [command, "--config", str(cfg), "--data", str(root), "--out", str(out)]
        assert main(argv + ["--seed", "1"]) == 0
        outputs.append((out / artifact).read_text())
    assert outputs[0] != outputs[1]
