"""Cooperative differentiable architecture search, plus the independent and
global baseline strategies used for strategy comparisons.

Every strategy is the same bilevel problem: a phase pairs architecture
logits (alpha) with weights (omega), updates alpha with a one-step
finite-difference hypergradient of its validation loss, then steps omega on
its training loss.  The strategies differ only in their phases and in
whether the phases interleave or run one after the other.  Cooperative
interleaves a scene phase, whose validation loss includes the task loss
(the coupling term), with a task phase; independent runs the scene phase
to the end and then the task phase; global is one joint phase.  Outside
global, the task phase steps no scene weight, so its losses take the scene
output computed once per (train, val) pair without a tape.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import SGD, Tensor, backward
from .config import SearchConfig  # noqa: F401  (ruas.search.SearchConfig)
from .errors import NumericError
from .model import RuasModel
from .scene import scene_loss
from .search_space import arch_dump, discretize


# ---------------------------------------------------------------------------
# one-step finite-difference hypergradient


def _check_finite(arrays, context):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite gradient during {context}")


def hypergrad_onestep(alphas, omegas, loss_val_fn, loss_tr_fn, lr_omega, fd_step=1e-2):
    """Gradient of L_val(alpha; omega - lr * grad_omega L_tr) w.r.t. alpha.

    The second-order term is approximated by central finite differences of
    grad_alpha L_tr at omega +/- eps * grad_omega' L_val, with eps set to
    fd_step / ||grad_omega' L_val||.  Returns one array per alpha parameter.

    Each backward pass differentiates only what it reads: the inner training
    gradient only omega, the validation pass at the virtual step alpha and
    omega, and the two probes (and the direct gradient when lr_omega is 0)
    only alpha.  Any other parameter the losses reach, such as the task
    cell behind the scene phase's coupling term, is a constant to them.
    """
    alphas, omegas = list(alphas), list(omegas)

    if lr_omega == 0.0:
        g = backward(loss_val_fn(), alphas)
        _check_finite(g, "direct validation gradient")
        return g

    # gradient of the training loss at the current weights
    g_tr = backward(loss_tr_fn(), omegas)
    _check_finite(g_tr, "inner training gradient")

    saved = [w.data.copy() for w in omegas]
    try:
        # virtual inner step, then validation gradients at the stepped weights
        for w, g in zip(omegas, g_tr):
            w.data = w.data - lr_omega * g
        g_val = backward(loss_val_fn(), alphas + omegas)
        g_val_alpha, g_val_omega = g_val[: len(alphas)], g_val[len(alphas) :]
        _check_finite(g_val, "validation gradient at virtual step")

        norm = np.sqrt(sum(float(np.sum(g * g)) for g in g_val_omega))
        if norm < 1e-12:
            return g_val_alpha
        eps = fd_step / norm

        for w, s, g in zip(omegas, saved, g_val_omega):
            w.data = s + eps * g
        ga_plus = backward(loss_tr_fn(), alphas)

        for w, s, g in zip(omegas, saved, g_val_omega):
            w.data = s - eps * g
        ga_minus = backward(loss_tr_fn(), alphas)
        _check_finite(ga_plus + ga_minus, "finite-difference probe")
    finally:
        for w, s in zip(omegas, saved):
            w.data = s

    return [
        gva - lr_omega * (gp - gm) / (2.0 * eps)
        for gva, gp, gm in zip(g_val_alpha, ga_plus, ga_minus)
    ]


# ---------------------------------------------------------------------------
# the search loop


def _combined_loss(model, y, beta):
    """Scene loss plus ``beta`` times the task loss on the scene output; one
    taped scene pass feeds both terms."""
    u, t, _ = model.scene_out(y)
    s = scene_loss(t, y, model.scene_cfg)
    if beta == 0:
        return s
    return ad.add(s, ad.mul(model.task_loss_on(u), beta))


def _eval_val_losses(model, val_records, beta):
    with ad.no_grad():
        ls, lt = 0.0, 0.0
        for rec in val_records:
            y = Tensor(rec.input())
            u, t, _ = model.scene_out(y)
            ls += float(scene_loss(t, y, model.scene_cfg).data)
            lt += float(model.task_loss_on(u).data)
        n = len(val_records)
        ls, lt = ls / n, lt / n
        return {"scene_val": ls, "task_val": lt, "combined": ls + beta * lt}


@dataclass
class SearchResult:
    scene_ops: list
    task_ops: list
    history: list
    momentum: float
    model: RuasModel

    def history_csv(self):
        lines = ["stage,epoch,scene_val,task_val,combined"]
        for row in self.history:
            lines.append(
                f"{row['stage']},{row['epoch']},{row['scene_val']:.8f},"
                f"{row['task_val']:.8f},{row['combined']:.8f}"
            )
        return "\n".join(lines) + "\n"

    def arch_dot(self):
        """Both searched cells in Graphviz dot, scene first."""
        scene, task = arch_dump(self.model.alpha_s), arch_dump(self.model.alpha_t)
        return f"# scene cell\n{scene}# task cell\n{task}"


@dataclass
class Phase:
    """One (alpha, omega) pair of the bilevel problem.

    ``loss_input`` maps an input image tensor to the losses' input, once
    per (train, val) pair; ``val_loss`` and ``tr_loss`` map that to a
    scalar loss.
    """

    alphas: list
    omegas: list
    val_loss: Callable
    tr_loss: Callable
    opt_alpha: SGD
    opt_omega: SGD
    loss_input: Callable = lambda y: y


def _stages(model, cfg, momentum):
    """The strategy as a list of stages; each stage is a list of phases.

    Stages run one after the other, each over every epoch; the phases of a
    stage take turns on every (train, val) pair.
    """

    def phase(alphas, omegas, val_loss, tr_loss, **kw):
        clip = cfg.grad_clip
        return Phase(
            alphas,
            omegas,
            val_loss,
            tr_loss,
            SGD(alphas, cfg.lr_alpha, momentum, clip_norm=clip),
            SGD(omegas, cfg.lr_omega, momentum, cfg.weight_decay, clip_norm=clip),
            **kw,
        )

    alpha_s, alpha_t = model.alpha_s.parameters(), model.alpha_t.parameters()
    omega_s, omega_t = model.omega_s(), model.omega_t()
    combined = lambda y: _combined_loss(model, y, cfg.beta)
    if cfg.strategy == "global":
        joint = lambda y: _combined_loss(model, y, 1.0)
        return [[phase(alpha_s + alpha_t, omega_s + omega_t, combined, joint)]]

    # the task side steps no scene weight, so it sees the scene output as a
    # constant, computed once per pair without a tape
    def frozen_scene_out(y):
        with ad.no_grad():
            u, _, _ = model.scene_out(y)
        return u

    task_loss = model.task_loss_on
    task = phase(alpha_t, omega_t, task_loss, task_loss, loss_input=frozen_scene_out)
    if cfg.strategy == "independent":
        # scene first with no coupling, then the task side on the frozen scene
        scene = phase(alpha_s, omega_s, model.scene_loss, model.scene_loss)
        return [[scene], [task]]
    # cooperative: the scene logits see the task validation loss through beta
    return [[phase(alpha_s, omega_s, combined, model.scene_loss), task]]


def _batches(data, epoch):
    """Pair train and validation records, cycling the shorter list."""
    return [(tr, data.val[(i + epoch) % len(data.val)]) for i, tr in enumerate(data.train)]


def run_search(data, cfg, seed, scene_cfg=None, tv_weight=0.05):
    """Build a fresh supernet and run the configured strategy.

    Every phase takes ``cfg.inner_steps`` (alpha, omega) updates per
    (train, val) pair; alpha updates start after the warm-up epochs.
    History gets one row per stage and epoch, tagged with both; epochs
    restart at 0 in each stage.
    """
    rng = np.random.default_rng(seed)
    model = RuasModel.supernet(rng, scene_cfg=scene_cfg, tv_weight=tv_weight)
    momentum = cfg.momentum if cfg.momentum is not None else float(rng.uniform(0.5, 0.999))
    history = []
    for stage_index, stage in enumerate(_stages(model, cfg, momentum)):
        for epoch in range(cfg.epochs):
            warm = epoch < cfg.warmup_epochs
            for tr_rec, val_rec in _batches(data, epoch):
                y_tr = Tensor(tr_rec.input())
                y_val = Tensor(val_rec.input())
                for ph in stage:
                    x_tr = ph.loss_input(y_tr)
                    x_val = None if warm else ph.loss_input(y_val)
                    for _ in range(cfg.inner_steps):
                        if not warm:
                            grads = hypergrad_onestep(
                                ph.alphas,
                                ph.omegas,
                                lambda: ph.val_loss(x_val),
                                lambda: ph.tr_loss(x_tr),
                                cfg.lr_omega,
                                cfg.fd_step,
                            )
                            for a, g in zip(ph.alphas, grads):
                                a.grad = g
                            ph.opt_alpha.step()
                        ph.opt_omega.backward_step(ph.tr_loss(x_tr))
            row = {"stage": stage_index, "epoch": epoch}
            history.append(row | _eval_val_losses(model, data.val, cfg.beta))
    return SearchResult(
        scene_ops=discretize(model.alpha_s),
        task_ops=discretize(model.alpha_t),
        history=history,
        momentum=momentum,
        model=model,
    )
