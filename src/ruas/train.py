"""Post-search weight training and evaluation.

End-to-end: one joint optimization of all weights on the task loss plus
lambda times the scene loss.  Hierarchical: unsupervised scene pre-training
first, then full fine-tuning on the task loss alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import SGD, Tensor
from .config import TrainConfig  # noqa: F401  (ruas.train.TrainConfig)
from .scene import scene_loss
from .task import task_loss


@dataclass
class TrainReport:
    curves: dict
    aborted: bool = False


def _snapshot(params):
    return [p.data.copy() for p in params]


def _restore(params, snap):
    for p, s in zip(params, snap):
        p.data = s.copy()


def _full_loss(model, y, lam):
    out = model.forward(y)
    lt = task_loss(out["x"], out["u"], tv_weight=model.tv_weight)
    if lam == 0:
        return lt
    ls = scene_loss(out["t"], y, model.scene_cfg)
    return ad.add(lt, ad.mul(ls, lam))


def _run_epochs(params, records, loss_fn, cfg, epochs, curve):
    """SGD sweeps on ``loss_fn(y)``; returns False if a non-finite loss
    forced an abort."""
    if not params:
        return True
    opt = SGD(params, cfg.lr, cfg.momentum, cfg.weight_decay, clip_norm=cfg.grad_clip)
    last_good = _snapshot(params)
    for _ in range(epochs):
        total = 0.0
        for rec in records:
            y = Tensor(rec.input())
            loss = loss_fn(y)
            value = float(loss.data)
            if not np.isfinite(value):
                _restore(params, last_good)
                return False
            opt.backward_step(loss)
            total += value
        curve.append(total / len(records))
        last_good = _snapshot(params)
    return True


def train_end_to_end(model, records, cfg):
    """Joint momentum-SGD over all weights on l_t + lambda * l_s."""
    curve = []
    loss_fn = lambda y: _full_loss(model, y, cfg.lambda_weight)
    ok = _run_epochs(model.parameters(), records, loss_fn, cfg, cfg.epochs, curve)
    return TrainReport(curves={"joint": curve}, aborted=not ok)


def pretrain_scene(model, records, cfg):
    """Unsupervised scene pre-training: ``cfg.pretrain_epochs`` sweeps over
    the scene cell's weights alone, on ``model.scene_loss``; the model may
    be derived or the supernet."""
    curve = []
    ok = _run_epochs(
        model.omega_s(), records, model.scene_loss, cfg, cfg.pretrain_epochs, curve
    )
    return TrainReport(curves={"scene": curve}, aborted=not ok)


def train_hierarchical(model, records, cfg):
    """Scene pre-training on the unsupervised loss, then task fine-tuning."""
    report = pretrain_scene(model, records, cfg)
    fine_curve = []
    if not report.aborted:
        loss_fn = lambda y: _full_loss(model, y, 0.0)
        report.aborted = not _run_epochs(
            model.parameters(), records, loss_fn, cfg, cfg.epochs, fine_curve
        )
    report.curves["fine"] = fine_curve
    return report


def train_model(model, records, cfg):
    """Train ``model`` with the strategy that ``cfg.strategy`` names."""
    trainer = train_hierarchical if cfg.strategy == "hierarchical" else train_end_to_end
    return trainer(model, records, cfg)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model, records):
    """Per-image PSNR/SSIM against references, plus means over scored rows."""
    from .io_metrics import psnr, ssim

    rows = []
    for rec in records:
        y = Tensor(rec.input())
        with ad.no_grad():
            x = model.enhance(y)
        ref = rec.reference()
        if ref is None:
            rows.append({"id": rec.id, "psnr": None, "ssim": None})
        else:
            rows.append(
                {
                    "id": rec.id,
                    "psnr": psnr(x.data, ref),
                    "ssim": ssim(x.data, ref),
                }
            )
    scored = [r for r in rows if r["psnr"] is not None]
    means = {
        "psnr": float(np.mean([r["psnr"] for r in scored])) if scored else None,
        "ssim": float(np.mean([r["ssim"] for r in scored])) if scored else None,
    }
    return rows, means


def metrics_csv(rows, means):
    lines = ["id,psnr_db,ssim"]
    for r in rows:
        p = "" if r["psnr"] is None else f"{r['psnr']:.4f}"
        s = "" if r["ssim"] is None else f"{r['ssim']:.6f}"
        lines.append(f"{r['id']},{p},{s}")
    if means["psnr"] is not None:
        lines.append(f"mean,{means['psnr']:.4f},{means['ssim']:.6f}")
    return "\n".join(lines) + "\n"
