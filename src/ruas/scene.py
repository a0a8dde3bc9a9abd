"""Retinex-inspired unrolled scene recovery.

The illumination map t starts from a local spatial max of the observation,
is refined for K stages by subtracting a learned correction (the cell),
and the scene feature is recovered as u = y / t.  Training is unsupervised:
fidelity to the observation plus a relative-total-variation structure prior
on the final illumination.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

WARM_START_MODES = ("fixed", "no_rectify", "rectify")
_REAL_FIELDS = ("gamma", "t_floor", "rtv_weight", "rtv_sigma", "rtv_eps")


@dataclass
class SceneConfig:
    stages: int = 3  # K
    window: int = 3  # spatial extent of the local-max region
    gamma: float = 0.5  # residual rectification strength, in (0, 1]
    warm_start: str = "no_rectify"
    t_floor: float = 1e-3
    rtv_weight: float = 0.1  # eta
    rtv_sigma: float = 1.5
    rtv_eps: float = 1e-3

    def __post_init__(self):
        if isinstance(self.stages, bool) or not isinstance(self.stages, int):
            raise ConfigError(f"stage count K must be an integer, got {self.stages!r}")
        if isinstance(self.window, bool) or not isinstance(self.window, int):
            raise ConfigError(f"window must be an integer, got {self.window!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if self.stages < 1:
            raise ConfigError("stage count K must be >= 1")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError("gamma must lie in (0, 1]")
        if not (0.0 < self.t_floor < 1.0):
            raise ConfigError("t_floor must lie in (0, 1)")
        if self.window % 2 == 0 or self.window < 1:
            raise ConfigError("window must be odd and positive")
        if self.warm_start not in WARM_START_MODES:
            raise ConfigError(
                f"warm_start must be one of {WARM_START_MODES}, got {self.warm_start!r}"
            )
        if self.rtv_sigma <= 0:
            raise ConfigError("rtv_sigma must be positive")
        if self.rtv_eps <= 0:
            raise ConfigError("rtv_eps must be positive")
        if self.rtv_weight < 0:
            raise ConfigError("rtv_weight must be nonnegative")


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


def stage(t_in, u_in, y, cfg, cell_fn, t0):
    """One unrolled update: warm start, learned correction, division."""
    t_hat = warm_start(t_in, u_in, y, cfg, t0=t0)
    t_out = ad.clamp(ad.sub(t_hat, cell_fn(t_hat)), cfg.t_floor, 1.0)
    u_out = ad.div(y, t_out)
    return t_out, u_out


def scene_forward(y, cfg, cell_fn):
    """Run all K stages; returns (u_K, t_K, trajectory of (t_k, u_k)).

    ``cell_fn`` maps an illumination tensor to the learned correction; it
    closes over either a mixed cell + logits (search) or a discrete cell.
    """
    if y.data.ndim != 4:
        raise ShapeError(f"expected a 4-d image tensor, got shape {y.data.shape}")
    t0 = init_illumination(y, cfg)
    t = t0
    u = ad.div(y, t0)
    trajectory = []
    for _ in range(cfg.stages):
        t, u = stage(t, u, y, cfg, cell_fn, t0)
        trajectory.append((t, u))
    return u, t, trajectory


def gaussian_kernel_1d(sigma):
    radius = int(np.ceil(2.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2.0 * sigma**2))
    return k / k.sum()


def _gaussian_depthwise(t, sigma):
    """Separable Gaussian windowing as two fixed depthwise convolutions."""
    c = t.data.shape[1]
    k1 = gaussian_kernel_1d(sigma)
    m = k1.size
    # depthwise realized as a block-diagonal dense kernel; widths here are tiny
    wv = np.zeros((c, c, m, 1))
    wh = np.zeros((c, c, 1, m))
    for i in range(c):
        wv[i, i, :, 0] = k1
        wh[i, i, 0, :] = k1
    # same padding needs odd extents on both axes; (m,1) and (1,m) kernels are
    # emulated by embedding into (m,m) kernels with a single nonzero column/row
    wfull_v = np.zeros((c, c, m, m))
    wfull_h = np.zeros((c, c, m, m))
    mid = m // 2
    wfull_v[:, :, :, mid] = wv[:, :, :, 0]
    wfull_h[:, :, mid, :] = wh[:, :, 0, :]
    out = ad.conv2d(t, Tensor(wfull_v))
    return ad.conv2d(out, Tensor(wfull_h))


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
