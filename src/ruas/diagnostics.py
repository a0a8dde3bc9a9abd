"""Finite-difference gradient checks over every differentiable primitive
and the composed scene forward pass.  Used by the gradcheck subcommand and
the acceptance suite."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .model import DEFAULT_SCENE_OPS, SCENE_WIDTH
from .scene import SceneConfig, scene_forward, scene_loss
from .search_space import SEARCH_OPS, DiscreteCell, lookup_op, make_op_params, mixed_forward

TOLERANCE = 1e-3


def _rand(rng, *shape, lo=-1.0, hi=1.0, grad=True):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=grad)


def _summed(op):
    return lambda t: ad.reduce_sum(op(t))


def _squared(op):
    return lambda t: ad.reduce_l2sq(op(t))


def primitive_checks(seed=7):
    """(name, max relative error) for every differentiable primitive."""
    rng = np.random.default_rng(seed)
    x, other = _rand(rng, 1, 3, 6, 6), _rand(rng, 1, 3, 6, 6, grad=False)
    denom, num = _rand(rng, 1, 3, 6, 6, lo=0.1, grad=False), _rand(rng, 1, 3, 6, 6, grad=False)
    d = _rand(rng, 1, 3, 6, 6, lo=0.1)
    # keep values away from the relu/clamp kinks so central differences hold
    signs = rng.choice([-1.0, 1.0], size=(1, 3, 6, 6))
    xk = Tensor(signs * rng.uniform(0.2, 1.0, (1, 3, 6, 6)), requires_grad=True)
    w, b, xc = _rand(rng, 2, 3, 3, 3), _rand(rng, 2), _rand(rng, 1, 3, 6, 6, grad=False)
    logits, probe = _rand(rng, 7), _rand(rng, 7, grad=False)
    # distinct values keep the sliding-max argmax stable under perturbation
    vals = rng.permutation(np.linspace(-1.0, 1.0, 36)).reshape(1, 1, 6, 6)
    xm = Tensor(vals, requires_grad=True)
    kernel = rng.uniform(-1, 1, size=5)
    # a 72 px input puts the conv's column matrix over the band gate, so the
    # forward values the central differences read are computed band by band
    xb = _rand(rng, 1, 3, 72, 72, grad=False)
    wb, bb = _rand(rng, 3, 3, 3, 3), _rand(rng, 3, grad=False)

    rows = [
        ("add", _summed(lambda t: ad.add(t, other)), x),
        ("sub", _summed(lambda t: ad.sub(t, other)), x),
        ("mul", _summed(lambda t: ad.mul(t, other)), x),
        ("div_num", _summed(lambda t: ad.div(t, denom)), x),
        ("div_den", _summed(lambda t: ad.div(num, t)), d),
        ("neg", _summed(ad.neg), x),
        ("relu", _summed(ad.relu), xk),
        ("clamp", _summed(lambda t: ad.clamp(t, -0.5, 0.5)), xk),
        ("abs", _summed(ad.absolute), xk),
    ]
    for dil in (1, 2):
        rows += [
            (f"conv2d_x_d{dil}", _summed(lambda t, k=dil: ad.conv2d(t, w, b, dilation=k)), x),
            (f"conv2d_w_d{dil}", _summed(lambda t, k=dil: ad.conv2d(xc, t, b, dilation=k)), w),
            (f"conv2d_b_d{dil}", _summed(lambda t, k=dil: ad.conv2d(xc, w, t, dilation=k)), b),
        ]
    rows += [
        ("softmax", _summed(lambda t: ad.mul(ad.softmax(t), probe)), logits),
        ("reduce_sum", ad.reduce_sum, x),
        ("reduce_mean", ad.reduce_mean, x),
        ("reduce_l1", ad.reduce_l1, xk),
        ("reduce_l2sq", ad.reduce_l2sq, x),
        ("sliding_max", _summed(lambda t: ad.sliding_max(t, 3)), xm),
        ("spatial_diff", _squared(lambda t: ad.spatial_diff(t, 3)), x),
        (
            "correlate1d",
            _squared(lambda t: ad.correlate1d(ad.correlate1d(t, kernel, 2), kernel, 3)),
            x,
        ),
        ("concat", _squared(lambda t: ad.concat([t, other])), x),
        ("channels", _squared(lambda t: ad.channels(t, 1, 3)), x),
        ("conv2d_w_banded", _squared(lambda t: ad.conv2d(xb, t, bb)), wb),
    ]
    return [(name, grad_check(f, t)) for name, f, t in rows]


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

    rows = [("mixed_forward_logits", loss, logits), ("mixed_forward_x", loss, x)] + [
        (f"mixed_forward[{kind.name}.{key}]", loss, p)
        for kind, params in zip(SEARCH_OPS, weights)
        for key, p in params.items()
    ]
    # the edge crosses relu kinks; a fine step keeps each central difference
    # on one side of them, as in the scene composite check
    return [(name, grad_check(f, t, h=1e-6)) for name, f, t in rows]


def scene_composite_checks(seed=7):
    """Gradient of scene_forward + scene loss w.r.t. every cell parameter."""
    rng = np.random.default_rng(seed)
    cfg = SceneConfig(stages=3)
    cell = DiscreteCell(SCENE_WIDTH, [lookup_op(n) for n in DEFAULT_SCENE_OPS], rng)
    y = Tensor(rng.uniform(0.05, 1.0, size=(1, 3, 8, 8)))

    def loss(_):
        _, t, _ = scene_forward(y, cfg, cell.forward)
        return scene_loss(t, y, cfg)

    rows = [(f"scene_composite[{p.name}]", loss, p) for p in cell.parameters()]
    # the composite crosses clamp/relu/max kinks; a finer step keeps the
    # central difference on one side of each kink (error scales with h)
    return [(name, grad_check(f, t, h=1e-6)) for name, f, t in rows]


def run_all(seed=7):
    return primitive_checks(seed) + mixed_edge_checks(seed) + scene_composite_checks(seed)
