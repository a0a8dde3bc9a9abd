"""Low-level task module: noise estimation, the removal gate, and the
searched noise-removal cell, plus the three enhancement variants.

RUAS_S runs the scene module only; RUAS always runs removal; RUAS_A runs
removal only when the estimated noise level exceeds the gate threshold.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigError, ShapeError
from .search_space import init_conv_weights

ESTIMATOR_WIDTHS = (3, 6, 6, 6, 6, 3)


class NoiseEstimator:
    """Five 3x3 conv layers (3->6->6->6->6->3) with ReLU after every layer.

    The trailing ReLU keeps the noise map nonnegative.
    """

    def __init__(self, rng, name="psi_e"):
        self.layers = []
        for i in range(len(ESTIMATOR_WIDTHS) - 1):
            w, b = init_conv_weights(
                ESTIMATOR_WIDTHS[i + 1], ESTIMATOR_WIDTHS[i], 3, rng, f"{name}.layer{i}"
            )
            self.layers.append((w, b))

    def parameters(self):
        return [p for pair in self.layers for p in pair]

    def forward(self, u):
        x = u
        for w, b in self.layers:
            x = ad.relu(ad.conv2d(x, w, b))
        return x


def noise_gate(theta, eps):
    """True (skip removal) when mean absolute noise level is at most eps.

    The l1 norm is normalized by the pixel count so the threshold does not
    depend on image resolution.
    """
    if eps < 0:
        raise ConfigError("gate threshold must be nonnegative")
    level = float(np.abs(theta.data).sum()) / theta.data.size
    return level <= eps


class NoiseRemover:
    """Searched removal network around the task cell.

    Input is the channel concatenation (u, theta) projected to the cell
    width by a fixed 1x1 conv; the cell output is projected back to three
    channels and added residually to u, then clamped to [0, 1].
    """

    def __init__(self, rng, width=6, name="psi_r"):
        self.width = width
        self.proj_in_w, self.proj_in_b = init_conv_weights(width, 6, 1, rng, f"{name}.proj_in")
        self.proj_out_w, self.proj_out_b = init_conv_weights(3, width, 1, rng, f"{name}.proj_out")

    def parameters(self):
        return [self.proj_in_w, self.proj_in_b, self.proj_out_w, self.proj_out_b]

    def forward(self, u, theta, cell_fn):
        if u.data.shape != theta.data.shape:
            raise ShapeError(
                f"u {u.data.shape} and theta {theta.data.shape} must share shape"
            )
        z = ad.concat([u, theta], axis=1)
        z = ad.conv2d(z, self.proj_in_w, self.proj_in_b)
        z = cell_fn(z)
        correction = ad.conv2d(z, self.proj_out_w, self.proj_out_b)
        return ad.clamp(ad.add(u, correction), 0.0, 1.0)


def task_loss(x, u_K, theta=None, tv_weight=0.05):
    """Unsupervised removal objective.

    Noise-weighted self-fidelity (squared error scaled by 1/(1 + theta), so
    noisier pixels lean on the smoothness term) plus anisotropic total
    variation of the output.  theta enters as a fixed weight map.
    """
    if x.data.shape != u_K.data.shape:
        raise ShapeError(
            f"shape mismatch between x {x.data.shape} and u_K {u_K.data.shape}"
        )
    diff = ad.sub(x, u_K)
    sq = ad.mul(diff, diff)
    if theta is not None:
        weight = 1.0 / (1.0 + np.maximum(theta.data, 0.0))
        sq = ad.mul(sq, Tensor(weight))
    fidelity = ad.reduce_sum(sq)
    tv = ad.add(
        ad.reduce_l1(ad.spatial_diff(x, 3)), ad.reduce_l1(ad.spatial_diff(x, 2))
    )
    return ad.add(fidelity, ad.mul(tv, tv_weight))
