"""End-to-end command-line behavior: pipelines, outputs, and exit codes."""

import json

import numpy as np
import pytest

from ruas.cli import main
from ruas.errors import ContractError, DomainError
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


NO_FILE = object()


@pytest.mark.parametrize(
    "config, arch, code, needle",
    [
        ({"task": {"scene_ops": ["bogus"] * 7}}, None, 2, "'bogus'"),
        ({}, json.dumps({"scene": {"ops": ["3-C"] * 7}}), 2, "task"),
        ({}, "{not json", 2, "JSON"),
        ({}, NO_FILE, 3, "arch.json"),
    ],
    ids=["unknown-op", "arch-without-task", "arch-not-json", "arch-unreadable"],
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


@pytest.mark.parametrize(
    "scene",
    [{"rtv_eps": 0}, {"rtv_eps": -1e-3}, {"rtv_weight": -0.1}],
    ids=["zero-rtv-eps", "negative-rtv-eps", "negative-rtv-weight"],
)
def test_out_of_range_rtv_fields_exit_2(tmp_path, tiny_dataset, capsys, scene):
    root, _ = tiny_dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scene": scene}))
    argv = ["train", "--config", str(cfg), "--data", str(root), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert f"{next(iter(scene))} must be" in capsys.readouterr().err


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


def test_training_abort_exits_4(tmp_path, fast_config, tiny_dataset, monkeypatch):
    root, _ = tiny_dataset
    import ruas.cli as cli_mod

    monkeypatch.setattr(
        cli_mod,
        "train_end_to_end",
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


@pytest.mark.parametrize("error", [DomainError, ContractError])
def test_domain_and_contract_errors_exit_4(tmp_path, monkeypatch, capsys, error):
    import ruas.cli as cli_mod

    def raising(args):
        raise error("boom")

    monkeypatch.setattr(cli_mod, "cmd_gradcheck", raising)
    assert main(["gradcheck", "--out", str(tmp_path)]) == 4
    assert "boom" in capsys.readouterr().err
