"""Finite-difference gradient checks over every differentiable primitive
and the composed scene forward pass.  Used by the gradcheck subcommand and
the acceptance suite."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .model import DEFAULT_SCENE_OPS, SCENE_WIDTH
from .scene import SceneConfig, scene_forward, scene_loss
from .search_space import (
    SEARCH_OPS,
    DiscreteCell,
    lookup_op,
    make_op_params,
    mixed_forward,
)

TOLERANCE = 1e-3


def _rand(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def primitive_checks(seed=7):
    """(name, max relative error) for every differentiable primitive."""
    rng = np.random.default_rng(seed)
    checks = []

    x = _rand(rng, 1, 3, 6, 6)
    other = Tensor(rng.uniform(-1, 1, size=(1, 3, 6, 6)))
    checks.append(("add", grad_check(lambda t: ad.reduce_sum(ad.add(t, other)), x)))
    checks.append(("sub", grad_check(lambda t: ad.reduce_sum(ad.sub(t, other)), x)))
    checks.append(("mul", grad_check(lambda t: ad.reduce_sum(ad.mul(t, other)), x)))

    denom = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    checks.append(("div_num", grad_check(lambda t: ad.reduce_sum(ad.div(t, denom)), x)))
    num = Tensor(rng.uniform(-1, 1, size=(1, 3, 6, 6)))
    d = _rand(rng, 1, 3, 6, 6, lo=0.1, hi=1.0)
    checks.append(("div_den", grad_check(lambda t: ad.reduce_sum(ad.div(num, t)), d)))

    checks.append(("neg", grad_check(lambda t: ad.reduce_sum(ad.neg(t)), x)))
    # keep values away from the relu/clamp kinks so central differences hold
    xk = Tensor(
        rng.choice([-1.0, 1.0], size=(1, 3, 6, 6)) * rng.uniform(0.2, 1.0, (1, 3, 6, 6)),
        requires_grad=True,
    )
    checks.append(("relu", grad_check(lambda t: ad.reduce_sum(ad.relu(t)), xk)))
    checks.append(
        ("clamp", grad_check(lambda t: ad.reduce_sum(ad.clamp(t, -0.5, 0.5)), xk))
    )
    checks.append(("abs", grad_check(lambda t: ad.reduce_sum(ad.absolute(t)), xk)))

    w = _rand(rng, 2, 3, 3, 3)
    b = _rand(rng, 2)
    xc = Tensor(rng.uniform(-1, 1, size=(1, 3, 6, 6)))
    for dil in (1, 2):
        checks.append(
            (
                f"conv2d_x_d{dil}",
                grad_check(lambda t: ad.reduce_sum(ad.conv2d(t, w, b, dilation=dil)), x),
            )
        )
        checks.append(
            (
                f"conv2d_w_d{dil}",
                grad_check(lambda t: ad.reduce_sum(ad.conv2d(xc, t, b, dilation=dil)), w),
            )
        )
        checks.append(
            (
                f"conv2d_b_d{dil}",
                grad_check(lambda t: ad.reduce_sum(ad.conv2d(xc, w, t, dilation=dil)), b),
            )
        )

    logits = _rand(rng, 7)
    probe = Tensor(rng.uniform(-1, 1, size=7))
    checks.append(
        ("softmax", grad_check(lambda t: ad.reduce_sum(ad.mul(ad.softmax(t), probe)), logits))
    )

    checks.append(("reduce_sum", grad_check(ad.reduce_sum, x)))
    checks.append(("reduce_mean", grad_check(ad.reduce_mean, x)))
    checks.append(("reduce_l1", grad_check(ad.reduce_l1, xk)))
    checks.append(("reduce_l2sq", grad_check(ad.reduce_l2sq, x)))

    # distinct values keep the sliding-max argmax stable under perturbation
    vals = rng.permutation(np.linspace(-1.0, 1.0, 36)).reshape(1, 1, 6, 6)
    xm = Tensor(vals, requires_grad=True)
    checks.append(
        ("sliding_max", grad_check(lambda t: ad.reduce_sum(ad.sliding_max(t, 3)), xm))
    )
    checks.append(
        ("spatial_diff", grad_check(lambda t: ad.reduce_l2sq(ad.spatial_diff(t, 3)), x))
    )
    kernel = rng.uniform(-1, 1, size=5)
    blur = lambda t: ad.correlate1d(ad.correlate1d(t, kernel, 2), kernel, 3)
    checks.append(("correlate1d", grad_check(lambda t: ad.reduce_l2sq(blur(t)), x)))
    checks.append(
        ("concat", grad_check(lambda t: ad.reduce_l2sq(ad.concat([t, other])), x))
    )
    checks.append(
        ("channels", grad_check(lambda t: ad.reduce_l2sq(ad.channels(t, 1, 3)), x))
    )
    # a 72 px input puts the conv's column matrix over the band gate, so the
    # forward values the central differences read are computed band by band
    xb = Tensor(rng.uniform(-1, 1, size=(1, 3, 72, 72)))
    wb, bb = _rand(rng, 3, 3, 3, 3), Tensor(rng.uniform(-1, 1, size=3))
    checks.append(
        ("conv2d_w_banded", grad_check(lambda t: ad.reduce_l2sq(ad.conv2d(xb, t, bb)), wb))
    )
    return checks


def mixed_edge_checks(seed=7):
    """Gradient of the fused mixed edge w.r.t. its logits, its input and the
    weight and bias of every conv candidate."""
    rng = np.random.default_rng(seed)
    weights = [make_op_params(k, 3, rng, f"op{i}") for i, k in enumerate(SEARCH_OPS)]
    for params in weights:
        if params:
            params["bias"].data = rng.uniform(-0.1, 0.1, 3)
    x = _rand(rng, 1, 3, 6, 6, lo=0.1, hi=1.0)
    logits = _rand(rng, len(SEARCH_OPS))

    def loss(_):
        return ad.reduce_l2sq(mixed_forward(x, [(SEARCH_OPS, weights, logits)]))

    # the edge crosses relu kinks; a fine step keeps each central difference
    # on one side of them, as in the scene composite check
    checks = [
        ("mixed_forward_logits", grad_check(loss, logits, h=1e-6)),
        ("mixed_forward_x", grad_check(loss, x, h=1e-6)),
    ]
    for kind, params in zip(SEARCH_OPS, weights):
        for key, p in params.items():
            checks.append((f"mixed_forward[{kind.name}.{key}]", grad_check(loss, p, h=1e-6)))
    return checks


def scene_composite_checks(seed=7):
    """Gradient of scene_forward + scene loss w.r.t. every cell parameter."""
    rng = np.random.default_rng(seed)
    cfg = SceneConfig(stages=3)
    cell = DiscreteCell(SCENE_WIDTH, [lookup_op(n) for n in DEFAULT_SCENE_OPS], rng)
    y = Tensor(rng.uniform(0.05, 1.0, size=(1, 3, 8, 8)))
    checks = []

    def loss_fn(_):
        _, t, _ = scene_forward(y, cfg, cell.forward)
        return scene_loss(t, y, cfg)

    # the composite crosses clamp/relu/max kinks; a finer step keeps the
    # central difference on one side of each kink (error scales with h)
    for p in cell.parameters():
        checks.append((f"scene_composite[{p.name}]", grad_check(loss_fn, p, h=1e-6)))
    return checks


def run_all(seed=7):
    checks = primitive_checks(seed)
    checks += mixed_edge_checks(seed)
    checks += scene_composite_checks(seed)
    return checks
