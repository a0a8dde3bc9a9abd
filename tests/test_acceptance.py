"""Acceptance gate: eight end-to-end checks, one pass/fail line per criterion.

Each test prints ``acceptance N (<name>): PASS`` (or FAIL) so the suite log
doubles as the acceptance report.  The two quantitative benchmarks use fixed
seeds and budgets small enough for a laptop CPU.
"""

import json
import time

import numpy as np

from ruas import autodiff as ad
from ruas.autodiff import Tensor
from ruas.cli import main as cli_main
from ruas.diagnostics import TOLERANCE, run_all
from ruas.io_metrics import make_synthetic_dataset, psnr, split_records, ssim
from ruas.model import RuasModel
from ruas.scene import SceneConfig, init_illumination, rtv, scene_forward, warm_start
from ruas.search import SearchConfig, hypergrad_onestep, run_search
from ruas.search_space import (
    SEARCH_OPS,
    CellSpec,
    DiscreteCell,
    OPS_BY_NAME,
    apply_op,
    make_op_params,
    mixed_forward,
)
from ruas.train import TrainConfig, evaluate, train_hierarchical

from test_autodiff import conv2d_oracle
from test_io_metrics import ssim_oracle
from test_scene import rtv_oracle
from test_search_engine import quadratic_problem


def _report(number, name, ok):
    print(f"acceptance {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_acceptance_1_gradient_suite():
    start = time.time()
    checks = run_all(seed=7)
    elapsed = time.time() - start
    worst = max(err for _, err in checks)
    ok = worst < TOLERANCE and elapsed < 60.0
    print(f"  {len(checks)} checks, worst rel err {worst:.3e}, {elapsed:.1f}s")
    _report(1, "gradient suite", ok)


# ---------------------------------------------------------------------------
# 2. oracle equivalence


def _op_oracle(kind, arr, params):
    """Scalar-loop replay of one candidate operator."""
    if kind.skip:
        return arr
    w = params["weight"].data
    b = params["bias"].data
    y = np.maximum(conv2d_oracle(arr, w, b, dilation=kind.dilation), 0.0)
    return y + arr if kind.residual else y


def _mixed_oracle(arr, logits, weights, registry):
    """Scalar-loop replay of a mixed edge: sum_i softmax(logits)_i * op_i."""
    e = [np.exp(v - max(logits)) for v in logits]
    total = sum(e)
    out = np.zeros_like(arr)
    for ei, kind, params in zip(e, registry, weights):
        out = out + (ei / total) * _op_oracle(kind, arr, params)
    return out


def _cell_oracle(cell, x):
    """Scalar-loop replay of a discrete cell forward pass (one operator per edge)."""

    def edge(e, arr):
        (kind,), (params,) = cell.edge_ops[e], cell.edge_params[e]
        return _op_oracle(kind, arr, params)

    nodes = [x]
    n_chain = len(cell.spec.chain_edges)
    for e in range(n_chain):
        nodes.append(edge(e, nodes[e]))
    distill = [
        edge(n_chain + d, nodes[i]) for d, (i, _) in enumerate(cell.spec.distill_edges)
    ]
    merged = np.concatenate(distill + [nodes[-1]], axis=1)
    return conv2d_oracle(merged, cell.fusion_w.data, cell.fusion_b.data)


def test_acceptance_2_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    registry = SEARCH_OPS
    ok = True

    for trial in range(20):
        # conv2d, alternating dilation 1 and 2
        dil = 1 if trial % 2 == 0 else 2
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), dilation=dil).data
        ok &= np.allclose(got, conv2d_oracle(x, w, b, dilation=dil), atol=1e-9)

        # full cell forward with random edge operators
        kinds = [registry[rng.integers(len(registry))] for _ in range(7)]
        cell = DiscreteCell(CellSpec(width=3), kinds, rng)
        xc = rng.uniform(0.05, 1.0, size=(1, 3, 6, 6))
        got = cell.forward(Tensor(xc)).data
        ok &= np.allclose(got, _cell_oracle(cell, xc), atol=1e-9)

        # fused mixed edge, over every search candidate or a reordered subset
        mixed_ops = (
            registry
            if trial % 2 == 0
            else [registry[j] for j in rng.permutation(len(registry))[:4]]
        )
        weights = [make_op_params(k, 3, rng, f"op{i}") for i, k in enumerate(mixed_ops)]
        for params in weights:
            if params:
                params["bias"].data = rng.normal(0.0, 0.1, 3)
        logits = rng.normal(size=len(mixed_ops))
        got = mixed_forward(Tensor(xc), Tensor(logits), weights, mixed_ops).data
        ok &= np.allclose(got, _mixed_oracle(xc, logits, weights, mixed_ops), atol=1e-9)

        # rtv prior
        t = rng.uniform(0.0, 1.0, size=(1, 2, 6, 6))
        got = float(rtv(Tensor(t), sigma=1.5, eps=1e-3).data)
        want = rtv_oracle(t, 1.5, 1e-3)
        ok &= abs(got - want) / max(1.0, abs(want)) < 1e-6

        # psnr against the direct formula
        a = rng.uniform(0, 1, size=(1, 3, 8, 8))
        d = np.clip(a + rng.normal(0, 0.05, a.shape), 0, 1)
        mse = float(np.mean((a - d) ** 2))
        ok &= abs(psnr(a, d) - 10.0 * np.log10(1.0 / mse)) < 1e-9

        # ssim against the per-window loop oracle
        s = rng.uniform(0, 1, size=(1, 12, 13))
        n = np.clip(s + rng.normal(0, 0.1, s.shape), 0, 1)
        ok &= abs(ssim(s, n) - ssim_oracle(s, n)) < 1e-9

    elapsed = time.time() - start
    ok &= elapsed < 120.0
    print(f"  6 oracles x 20 instances, {elapsed:.1f}s")
    _report(2, "oracle equivalence", ok)


# ---------------------------------------------------------------------------
# 3. Retinex invariants


def test_acceptance_3_retinex_invariants():
    rng = np.random.default_rng(3)
    cfg = SceneConfig(stages=3)
    cell = DiscreteCell(CellSpec(width=3), [OPS_BY_NAME["3-RC"]] * 7, rng)
    ok = True
    for _ in range(50):
        y = Tensor(rng.uniform(0.05, 1.0, size=(1, 3, 8, 8)))
        _, _, traj = scene_forward(y, cfg, cell.forward)
        for t_k, u_k in traj:
            ok &= bool(np.all(u_k.data >= y.data - 1e-12))
            ok &= bool(np.allclose(u_k.data * t_k.data, y.data, atol=1e-6))
    ok &= float(rtv(Tensor(np.full((1, 3, 6, 6), 0.3))).data) == 0.0

    registry = SEARCH_OPS
    weights = [make_op_params(k, 3, rng, f"op{i}") for i, k in enumerate(registry)]
    x = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    for pick in range(len(registry)):
        logits = np.full(len(registry), -40.0)
        logits[pick] = 40.0
        mixed = mixed_forward(x, Tensor(logits), weights, registry).data
        direct = apply_op(registry[pick], x, weights[pick]).data
        ok &= bool(np.allclose(mixed, direct, atol=1e-6))
    _report(3, "retinex invariants", ok)


# ---------------------------------------------------------------------------
# 4. hypergradient correctness


def test_acceptance_4_hypergradient():
    start = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        w, a, loss_tr, loss_val, exact = quadratic_problem(rng)
        lr = float(rng.uniform(0.01, 0.3))
        (got,) = hypergrad_onestep([a], [w], loss_val, loss_tr, lr)
        want = exact(lr)
        rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        worst = max(worst, float(rel.max()))
    elapsed = time.time() - start
    ok = worst < 1e-3 and elapsed < 30.0
    print(f"  100 bilevel instances, worst rel err {worst:.3e}, {elapsed:.1f}s")
    _report(4, "hypergradient correctness", ok)


# ---------------------------------------------------------------------------
# 5. parameter-count brackets


def test_acceptance_5_parameter_counts():
    rng = np.random.default_rng(5)
    small = RuasModel(rng, variant="ruas_s")
    full = RuasModel(np.random.default_rng(5), variant="ruas")
    scene_n = small.scene_param_count()
    total_n = full.param_count()
    ok = 5e2 <= scene_n <= 5e3 and 1e3 <= total_n <= 2e4
    print(f"  scene params {scene_n}, scene+task params {total_n}")
    _report(5, "parameter-count brackets", ok)


# ---------------------------------------------------------------------------
# 6. end-to-end desk benchmark


def test_acceptance_6_desk_benchmark(tmp_path):
    start = time.time()
    records = make_synthetic_dataset(
        tmp_path / "bench", 32, size=64, seed=0, noise_sigma=0.03
    )
    dark = float(np.mean([psnr(r.input(), r.reference()) for r in records]))
    cfg = TrainConfig(strategy="hierarchical", epochs=6, pretrain_epochs=6, lr=3e-5)

    scores = {}
    for variant in ("ruas", "ruas_s"):
        model = RuasModel(np.random.default_rng(42), variant=variant)
        report = train_hierarchical(model, records, cfg)
        assert not report.aborted
        _, means = evaluate(model, records)
        scores[variant] = means["psnr"]

    elapsed = time.time() - start
    gain = scores["ruas"] - dark
    ok = gain >= 4.0 and scores["ruas"] >= scores["ruas_s"] and elapsed < 900.0
    print(
        f"  dark {dark:.2f} dB, ruas {scores['ruas']:.2f} dB "
        f"(gain {gain:+.2f}), ruas_s {scores['ruas_s']:.2f} dB, {elapsed:.0f}s"
    )
    _report(6, "desk benchmark", ok)


# ---------------------------------------------------------------------------
# 7. search-strategy comparison


def test_acceptance_7_strategy_comparison(tmp_path):
    start = time.time()
    records = make_synthetic_dataset(tmp_path / "search", 8, size=32, seed=3)
    data = split_records(records, val_fraction=0.25, rng=np.random.default_rng(3))

    finals = {}
    for strategy in ("global", "independent", "cooperative"):
        cfg = SearchConfig(
            strategy=strategy,
            epochs=6,
            warmup_epochs=2,
            lr_omega=3e-5,
            lr_alpha=3e-4,
        )
        result = run_search(data, cfg, seed=42)
        finals[strategy] = result.history[-1]["combined"]

    elapsed = time.time() - start
    ordering = sorted(finals, key=finals.get)
    ok = finals["cooperative"] <= finals["global"] and elapsed < 1200.0
    print(
        "  combined val loss: "
        + ", ".join(f"{s}={finals[s]:.3f}" for s in ordering)
        + f" ({elapsed:.0f}s)"
    )
    _report(7, "search-strategy comparison", ok)


# ---------------------------------------------------------------------------
# 8. warm-start ablation


def test_acceptance_8_warm_start_ablation(tmp_path, tiny_dataset):
    root, records = tiny_dataset
    rng = np.random.default_rng(8)

    # formula level: wherever the residual u - y is nonnegative, rectification
    # can only lower the warm-start illumination
    ok = True
    for _ in range(20):
        y = Tensor(rng.uniform(0.05, 1.0, size=(1, 3, 8, 8)))
        cfg_r = SceneConfig(warm_start="rectify")
        t = init_illumination(y, cfg_r)
        u = ad.div(y, t)  # t <= 1 so u - y >= 0 everywhere
        t_rect = warm_start(t, u, y, cfg_r).data
        t_plain = warm_start(t, u, y, SceneConfig(warm_start="no_rectify")).data
        ok &= bool(np.all(t_rect <= t_plain + 1e-12))

    # artifact level: a checkpoint per warm-start mode renders stage dumps
    for mode in ("fixed", "no_rectify", "rectify"):
        cfg_path = tmp_path / f"{mode}.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "scene": {"warm_start": mode},
                    "train": {"epochs": 0, "pretrain_epochs": 0},
                    "task": {"variant": "ruas_s"},
                }
            )
        )
        run = tmp_path / mode
        ok &= (
            cli_main(
                [
                    "train",
                    "--config",
                    str(cfg_path),
                    "--data",
                    str(root),
                    "--out",
                    str(run),
                    "--seed",
                    "8",
                ]
            )
            == 0
        )
        enh = tmp_path / f"{mode}_enh"
        ok &= (
            cli_main(
                [
                    "enhance",
                    "--model",
                    str(run / "model.ckpt"),
                    "--input",
                    str(records[0].input_path),
                    "--out",
                    str(enh),
                    "--dump-stages",
                ]
            )
            == 0
        )
        for k in (1, 2, 3):
            ok &= (enh / f"stage{k}_t.png").exists()
            ok &= (enh / f"stage{k}_u.png").exists()
    _report(8, "warm-start ablation", ok)
