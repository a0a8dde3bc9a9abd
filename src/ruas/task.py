"""Low-level task module: the noise estimate, the removal gate, and the
searched noise-removal cell, plus the three enhancement variants.

RUAS_S runs the scene module only; RUAS always runs removal; RUAS_A runs
removal only when the estimated noise sigma of the input exceeds the gate
threshold.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError
from .search_space import init_conv_weights

# Immerkaer's mask: the difference of two Laplacians, blind to a locally
# linear image, so its response on a smooth scene is mostly noise
_IMMERKAER = np.array([[1.0, -2.0, 1.0], [-2.0, 4.0, -2.0], [1.0, -2.0, 1.0]])


def estimate_noise_sigma(y):
    """Noise sigma of the (n, c, h, w) array ``y`` by Immerkaer's "Fast noise
    variance estimation" (1996): sqrt(pi/2)/6 times the mean absolute
    response of the 3x3 mask over the interior pixels, averaged over batch
    and channels.  A map with a side under 3 px has no interior: 0.0.
    """
    y = np.asarray(y, dtype=np.float64)
    h, w = y.shape[-2:]
    if h < 3 or w < 3:
        return 0.0
    response = sum(
        m * y[..., i : h - 2 + i, j : w - 2 + j]
        for (i, j), m in np.ndenumerate(_IMMERKAER)
    )
    return math.sqrt(math.pi / 2) / 6 * float(np.abs(response).mean())


def noise_gate(sigma, eps):
    """True (skip removal) when the noise sigma is at most eps."""
    if eps < 0:
        raise ConfigError("gate threshold must be nonnegative")
    return sigma <= eps


class NoiseRemover:
    """Searched removal network around the task cell.

    A fixed 1x1 conv projects u to the cell width; the cell output is
    projected back to three channels and added residually to u, then
    clamped to [0, 1].
    """

    def __init__(self, rng, width=6, name="psi_r"):
        # drawn as a 6-channel projection and cut to the 3 channels of u, so
        # the seeded draws of this and every later weight stay as they were
        self.proj_in_w, self.proj_in_b = init_conv_weights(width, 6, 1, rng, f"{name}.proj_in")
        self.proj_in_w.data = self.proj_in_w.data[:, :3].copy()
        self.proj_out_w, self.proj_out_b = init_conv_weights(3, width, 1, rng, f"{name}.proj_out")

    def parameters(self):
        return [self.proj_in_w, self.proj_in_b, self.proj_out_w, self.proj_out_b]

    def forward(self, u, cell_fn, arch=None):
        """The removal of ``u`` through ``cell_fn(z, arch)``, a cell's
        ``forward`` under the logits ``arch`` (None for a derived cell).

        The projection ``z`` is passed straight into that call and named
        nowhere here, so without a tape the cell frees it once its first
        node's edges are made.
        """
        z = cell_fn(ad.conv2d(u, self.proj_in_w, self.proj_in_b), arch)
        correction = ad.conv2d(z, self.proj_out_w, self.proj_out_b)
        return ad.clamp(ad.add(u, correction), 0.0, 1.0)


def task_loss(x, u_K, tv_weight=0.05):
    """Unsupervised removal objective: squared self-fidelity plus
    anisotropic total variation of the output."""
    if x.data.shape != u_K.data.shape:
        raise ShapeError(
            f"shape mismatch between x {x.data.shape} and u_K {u_K.data.shape}"
        )
    diff = ad.sub(x, u_K)
    fidelity = ad.reduce_sum(ad.mul(diff, diff))
    tv = ad.add(
        ad.reduce_l1(ad.spatial_diff(x, 3)), ad.reduce_l1(ad.spatial_diff(x, 2))
    )
    return ad.add(fidelity, ad.mul(tv, tv_weight))
