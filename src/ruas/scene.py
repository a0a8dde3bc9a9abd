"""Retinex-inspired unrolled scene recovery.

The illumination map t starts from a local spatial max of the observation,
is refined for K stages by subtracting a learned correction (the cell),
and the scene feature is recovered as u = y / t.  Training is unsupervised:
fidelity to the observation plus a relative-total-variation structure prior
on the final illumination.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .config import SceneConfig  # noqa: F401  (ruas.scene.SceneConfig)
from .errors import ConfigError, ShapeError


def init_illumination(y, cfg):
    """t0: per-channel sliding spatial max of y, clamped to [t_floor, 1]."""
    return ad.clamp(ad.sliding_max(y, cfg.window), cfg.t_floor, 1.0)


def warm_start(t_k, u_k, y, cfg, t0=None):
    """Per-stage illumination re-initialization.

    fixed: always restart from t0.  no_rectify: sliding max of the current
    estimate.  rectify: sliding max minus gamma * (u_k - y), suppressing
    over-brightened pixels.
    """
    if cfg.warm_start == "fixed":
        if t0 is None:
            raise ConfigError("fixed warm start requires t0")
        return t0
    local = ad.sliding_max(t_k, cfg.window)
    if cfg.warm_start == "no_rectify":
        return ad.clamp(local, cfg.t_floor, 1.0)
    residual = ad.sub(u_k, y)
    return ad.clamp(ad.sub(local, ad.mul(residual, cfg.gamma)), cfg.t_floor, 1.0)


def stage(t_in, u_in, y, cfg, cell_fn, t0, divide=True):
    """One unrolled update: warm start, learned correction, and division
    unless ``divide`` is False, when the update's u is None."""
    t_hat = warm_start(t_in, u_in, y, cfg, t0=t0)
    t_out = ad.clamp(ad.sub(t_hat, cell_fn(t_hat)), cfg.t_floor, 1.0)
    return t_out, ad.div(y, t_out) if divide else None


def scene_forward(y, cfg, cell_fn, stages=None):
    """Run all K stages; returns (u_K, t_K, stages).

    ``cell_fn`` maps an illumination tensor to the learned correction; it
    closes over either a mixed cell + logits (search) or a discrete cell.
    Each stage's (t_k, u_k) is appended to the list ``stages`` if one is
    given; otherwise a stage's maps are freed once the next stage is made.
    A u_k is computed only where it is read: by the rectify warm start, in
    ``stages`` and as u_K.  ``t_floor`` is at least the division guard, so
    none of the divisions skipped could have raised.
    """
    if y.data.ndim != 4:
        raise ShapeError(f"expected a 4-d image tensor, got shape {y.data.shape}")
    t0 = init_illumination(y, cfg)
    rectify = cfg.warm_start == "rectify"
    t, u = t0, ad.div(y, t0) if rectify else None
    for k in range(1, cfg.stages + 1):
        divide = rectify or stages is not None or k == cfg.stages
        t, u = stage(t, u, y, cfg, cell_fn, t0, divide)
        if stages is not None:
            stages.append((t, u))
    return u, t, stages


def gaussian_kernel_1d(sigma):
    radius = int(np.ceil(2.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2.0 * sigma**2))
    return k / k.sum()


def _gaussian_depthwise(t, sigma):
    """Separable Gaussian windowing: the 1-D kernel down, then across."""
    k1 = gaussian_kernel_1d(sigma)
    return ad.correlate1d(ad.correlate1d(t, k1, 2), k1, 3)


def rtv(t, sigma=1.5, eps=1e-3):
    """Relative total variation of an illumination map.

    Windowed total variation divided by windowed inherent variation, summed
    over pixels and both spatial axes: textured regions (sign-alternating
    gradients) score high, clean structure scores low.
    """
    if sigma <= 0:
        raise ConfigError("rtv sigma must be positive")
    total = None
    for axis in (3, 2):  # x then y differences
        d = ad.spatial_diff(t, axis)
        windowed_tv = _gaussian_depthwise(ad.absolute(d), sigma)
        inherent = ad.absolute(_gaussian_depthwise(d, sigma))
        term = ad.reduce_sum(ad.div(windowed_tv, ad.add(inherent, eps)))
        total = term if total is None else ad.add(total, term)
    return total


def scene_loss(t_K, y, cfg):
    """Unsupervised objective: ||t_K - y||^2 + eta * RTV(t_K)."""
    if t_K.data.shape != y.data.shape:
        raise ShapeError(
            f"shape mismatch between t_K {t_K.data.shape} and y {y.data.shape}"
        )
    fidelity = ad.reduce_l2sq(ad.sub(t_K, y))
    if cfg.rtv_weight == 0:
        return fidelity
    return ad.add(fidelity, ad.mul(rtv(t_K, cfg.rtv_sigma, cfg.rtv_eps), cfg.rtv_weight))
