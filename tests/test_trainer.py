"""Training strategies, abort handling, and the evaluation report."""

import numpy as np
import pytest

from ruas import autodiff as ad
from ruas.errors import ConfigError
from ruas.model import RuasModel, SearchModel
from ruas.train import (
    TrainConfig,
    evaluate,
    metrics_csv,
    pretrain_scene,
    train_end_to_end,
    train_hierarchical,
    train_model,
)


def make_model(seed=0, variant="ruas_s"):
    return RuasModel(np.random.default_rng(seed), variant=variant)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lambda_weight=-0.5)
    with pytest.raises(ConfigError):
        TrainConfig(strategy="joint")
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(grad_clip=-1.0)
    assert TrainConfig(epochs=0).epochs == 0  # explicit no-op budgets allowed


def test_zero_epochs_is_a_noop(tiny_dataset):
    _, records = tiny_dataset
    model = make_model()
    before = [p.data.copy() for p in model.parameters()]
    report = train_end_to_end(model, records[:2], TrainConfig(epochs=0))
    assert report.curves == {"joint": []}
    assert not report.aborted
    for p, b in zip(model.parameters(), before):
        np.testing.assert_array_equal(p.data, b)


def test_end_to_end_curve_and_phase_keys(tiny_dataset):
    _, records = tiny_dataset
    model = make_model()
    cfg = TrainConfig(epochs=2, lr=3e-5)
    report = train_end_to_end(model, records[:2], cfg)
    assert set(report.curves) == {"joint"}
    assert len(report.curves["joint"]) == 2
    assert not report.aborted


def test_hierarchical_phase_keys(tiny_dataset):
    _, records = tiny_dataset
    model = make_model(variant="ruas")
    cfg = TrainConfig(strategy="hierarchical", epochs=1, pretrain_epochs=2, lr=3e-5)
    report = train_hierarchical(model, records[:2], cfg)
    assert set(report.curves) == {"scene", "fine"}
    assert len(report.curves["scene"]) == 2
    assert len(report.curves["fine"]) == 1


def test_pretrain_scene_is_the_hierarchical_scene_phase(tiny_dataset):
    _, records = tiny_dataset
    cfg = TrainConfig(strategy="hierarchical", epochs=0, pretrain_epochs=2, lr=3e-5)
    full, alone = make_model(variant="ruas"), make_model(variant="ruas")
    task_before = [p.data.copy() for p in alone.omega_t()]
    curve = train_hierarchical(full, records[:2], cfg).curves["scene"]
    report = pretrain_scene(alone, records[:2], cfg)
    assert report.curves == {"scene": curve} and not report.aborted
    for p, q in zip(full.parameters(), alone.parameters()):
        np.testing.assert_array_equal(p.data, q.data)
    for p, b in zip(alone.omega_t(), task_before):
        np.testing.assert_array_equal(p.data, b)
    # the supernet's mixed scene cell pre-trains through the same function
    supernet = SearchModel(np.random.default_rng(0))
    report = pretrain_scene(supernet, records[:2], cfg)
    assert len(report.curves["scene"]) == 2 and not report.aborted


@pytest.mark.parametrize(
    "strategy, phases", [("end_to_end", {"joint"}), ("hierarchical", {"scene", "fine"})]
)
def test_train_model_dispatches_on_strategy(tiny_dataset, strategy, phases):
    _, records = tiny_dataset
    cfg = TrainConfig(strategy=strategy, epochs=1, pretrain_epochs=1, lr=3e-5)
    assert set(train_model(make_model(), records[:1], cfg).curves) == phases


def test_supernet_enhance_is_the_clamped_scene_output(tiny_dataset):
    _, records = tiny_dataset
    supernet = SearchModel(np.random.default_rng(0))
    y = ad.Tensor(records[0].input())
    with ad.no_grad():
        x = supernet.enhance(y)
        u, _, _ = supernet.scene_out(y)
    np.testing.assert_array_equal(x.data, np.clip(u.data, 0, 1))


def test_scene_pretraining_loss_decreases(tiny_dataset):
    """The unsupervised scene loss drops monotonically over early epochs."""
    _, records = tiny_dataset
    model = make_model(seed=42)
    cfg = TrainConfig(strategy="hierarchical", epochs=0, pretrain_epochs=5, lr=3e-4)
    report = train_hierarchical(model, records, cfg)
    curve = report.curves["scene"]
    assert len(curve) == 5
    for a, b in zip(curve, curve[1:]):
        assert b < a


def test_end_to_end_lambda_zero_still_trains_scene_weights(tiny_dataset):
    # with lambda = 0 the scene weights still get gradient through u
    _, records = tiny_dataset
    model = make_model()
    before = [p.data.copy() for p in model.omega_s()]
    train_end_to_end(model, records[:2], TrainConfig(epochs=1, lambda_weight=0.0, lr=3e-5))
    changed = any(
        not np.array_equal(p.data, b) for p, b in zip(model.omega_s(), before)
    )
    assert changed


def test_nonfinite_abort_restores_last_good(tiny_dataset):
    _, records = tiny_dataset
    model = make_model()
    # poison one weight so the first forward pass produces NaN
    bad = model.scene_cell.fusion_w
    good = bad.data.copy()
    bad.data = np.full_like(bad.data, np.nan)
    report = train_end_to_end(model, records[:2], TrainConfig(epochs=2, lr=3e-5))
    assert report.aborted
    assert report.curves["joint"] == []
    # the restored snapshot is the pre-epoch state, still NaN-free elsewhere
    np.testing.assert_array_equal(bad.data, np.full_like(good, np.nan))


def test_evaluate_and_csv(tiny_dataset):
    _, records = tiny_dataset
    model = make_model()
    rows, means = evaluate(model, records[:3])
    assert len(rows) == 3
    assert all(r["psnr"] is not None and 0 < r["psnr"] <= 99 for r in rows)
    assert all(-1 <= r["ssim"] <= 1 for r in rows)
    assert abs(means["psnr"] - np.mean([r["psnr"] for r in rows])) < 1e-9
    csv = metrics_csv(rows, means)
    lines = csv.strip().splitlines()
    assert lines[0] == "id,psnr_db,ssim"
    assert len(lines) == 5  # header + 3 rows + mean
    assert lines[-1].startswith("mean,")


def test_evaluate_without_references(tiny_dataset, tmp_path):
    _, records = tiny_dataset
    import dataclasses

    blind = [dataclasses.replace(r, reference_path=None, _reference=None) for r in records[:2]]
    model = make_model()
    rows, means = evaluate(model, blind)
    assert all(r["psnr"] is None for r in rows)
    assert means["psnr"] is None and means["ssim"] is None
    csv = metrics_csv(rows, means)
    assert "mean," not in csv
