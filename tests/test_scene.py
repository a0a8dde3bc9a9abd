"""Unrolled Retinex scene module: warm starts, stages, the RTV prior, loss."""

import tracemalloc

import numpy as np
import pytest

from ruas import autodiff as ad
from ruas.autodiff import Tensor, backward
from ruas.errors import ConfigError, ShapeError
from ruas.scene import (
    SceneConfig,
    gaussian_kernel_1d,
    init_illumination,
    rtv,
    scene_forward,
    scene_loss,
    stage,
    warm_start,
)
from ruas.search_space import DiscreteCell, OPS_BY_NAME


def zero_cell(t):
    return Tensor(np.zeros_like(t.data))


def test_scene_config_validation():
    with pytest.raises(ConfigError):
        SceneConfig(stages=0)
    with pytest.raises(ConfigError):
        SceneConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        SceneConfig(gamma=1.5)
    with pytest.raises(ConfigError):
        SceneConfig(t_floor=0.0)
    with pytest.raises(ConfigError, match=r"t_floor must be in \[1e-12, 1\)"):
        SceneConfig(t_floor=1e-13)  # y / t0 would trip the division guard
    with pytest.raises(ConfigError):
        SceneConfig(window=4)
    with pytest.raises(ConfigError):
        SceneConfig(warm_start="warm")
    with pytest.raises(ConfigError):
        SceneConfig(rtv_sigma=0.0)
    for eps in (0, 0.0, -1e-3):
        with pytest.raises(ConfigError, match=r"rtv_eps must be in \[1e-12, inf\)"):
            SceneConfig(rtv_eps=eps)
    with pytest.raises(ConfigError, match="rtv_weight must be nonnegative"):
        SceneConfig(rtv_weight=-0.1)
    for stages in (2.5, 3.0, True, "3", None):
        with pytest.raises(ConfigError, match="integer"):
            SceneConfig(stages=stages)
    for window in (3.0, True, "3", None):
        with pytest.raises(ConfigError, match="window must be an integer"):
            SceneConfig(window=window)
    for field in ("gamma", "t_floor", "rtv_weight", "rtv_sigma", "rtv_eps"):
        for value in ("0.5", True, None, [0.5]):
            with pytest.raises(ConfigError, match=f"{field} must be a real number"):
                SceneConfig(**{field: value})
    SceneConfig(gamma=1, rtv_sigma=2, rtv_weight=0, rtv_eps=np.float64(1e-3))
    SceneConfig(t_floor=ad.DIV_GUARD)


def test_init_illumination_constant_and_impulse():
    cfg = SceneConfig()
    const = Tensor(np.full((1, 3, 5, 5), 0.4))
    np.testing.assert_allclose(init_illumination(const, cfg).data, 0.4)
    imp = np.zeros((1, 3, 7, 7))
    imp[0, :, 3, 3] = 1.0
    t0 = init_illumination(Tensor(imp), cfg).data
    assert t0[0, 0, 3, 3] == 1.0
    np.testing.assert_allclose(t0[0, 0, 2:5, 2:5], 1.0)
    # outside the dilated impulse the zeros clamp up to the floor
    np.testing.assert_allclose(t0[0, 0, 0, 0], cfg.t_floor)


def test_warm_start_modes(rng):
    cfg = SceneConfig(gamma=1.0)
    y = Tensor(rng.uniform(0.1, 0.9, size=(1, 3, 6, 6)))
    t = Tensor(rng.uniform(0.2, 0.9, size=(1, 3, 6, 6)))
    t0 = init_illumination(y, cfg)

    fixed_cfg = SceneConfig(warm_start="fixed")
    assert warm_start(t, y, y, fixed_cfg, t0=t0) is t0
    with pytest.raises(ConfigError):
        warm_start(t, y, y, fixed_cfg)  # fixed requires t0

    # zero residual: rectify coincides with no_rectify exactly
    rect = warm_start(t, y, y, SceneConfig(warm_start="rectify"), t0=t0)
    plain = warm_start(t, y, y, SceneConfig(warm_start="no_rectify"), t0=t0)
    np.testing.assert_array_equal(rect.data, plain.data)

    # hand computation: local max 0.9, residual 0.2, gamma 1 -> 0.7
    tc = Tensor(np.full((1, 3, 5, 5), 0.9))
    u = Tensor(np.full((1, 3, 5, 5), 0.5))
    yc = Tensor(np.full((1, 3, 5, 5), 0.3))
    out = warm_start(tc, u, yc, SceneConfig(warm_start="rectify", gamma=1.0))
    np.testing.assert_allclose(out.data, 0.7)


def test_rectify_never_exceeds_no_rectify_for_nonneg_residual(rng):
    # overexposure-prone input: bright blob on a dark field
    y = np.full((1, 3, 12, 12), 0.05)
    y[0, :, 4:8, 4:8] = 0.9
    yt = Tensor(y)
    cfg_r = SceneConfig(warm_start="rectify")
    cfg_n = SceneConfig(warm_start="no_rectify")
    t = init_illumination(yt, cfg_r)
    u = ad.div(yt, t)  # u >= y since t <= 1
    assert np.all(u.data >= y - 1e-12)
    t_rect = warm_start(t, u, yt, cfg_r).data
    t_plain = warm_start(t, u, yt, cfg_n).data
    assert np.all(t_rect <= t_plain + 1e-12)
    assert t_rect.mean() <= t_plain.mean()


def test_stage_with_zero_cell_and_fixed_warm_start(rng):
    cfg = SceneConfig(warm_start="fixed")
    y = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    t0 = init_illumination(y, cfg)
    t1, u1 = stage(t0, ad.div(y, t0), y, cfg, zero_cell, t0)
    np.testing.assert_allclose(t1.data, t0.data)
    np.testing.assert_allclose(u1.data, y.data / t0.data)


def test_unit_illumination_returns_input():
    cfg = SceneConfig()
    y = Tensor(np.ones((1, 3, 5, 5)))
    u, t, _ = scene_forward(y, cfg, zero_cell)
    np.testing.assert_allclose(t.data, 1.0)
    np.testing.assert_allclose(u.data, 1.0)


@pytest.mark.parametrize(
    "warm, record, divisions",
    [("fixed", False, 1), ("no_rectify", False, 1), ("rectify", False, 4),
     ("no_rectify", True, 3), ("rectify", True, 4)],
)
def test_scene_forward_divides_only_for_the_maps_it_reads(rng, monkeypatch, warm, record, divisions):
    """u_k is computed for the rectify warm start, a recorded stage and u_K:
    K = 3 stages take 1, 3 or 4 divisions, not 4 every time."""
    calls = []
    div = ad.div
    monkeypatch.setattr(ad, "div", lambda a, b: calls.append(b) or div(a, b))
    y = Tensor(rng.uniform(0.05, 1.0, size=(1, 3, 8, 8)))
    u, t, _ = scene_forward(y, SceneConfig(warm_start=warm), zero_cell, [] if record else None)
    assert len(calls) == divisions
    np.testing.assert_array_equal(u.data, y.data / t.data)


def test_scene_forward_shape_check():
    with pytest.raises(ShapeError):
        scene_forward(Tensor(np.ones((3, 5, 5))), SceneConfig(), zero_cell)


def test_scene_forward_matches_hand_unrolled_composition(rng):
    """K=1 with a real cell equals the straight-line composition of the ops."""
    cfg = SceneConfig(stages=1, warm_start="no_rectify")
    cell = DiscreteCell(3, [OPS_BY_NAME["3-C"]] * 7, rng)
    y = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 8, 8)))
    u, t, traj = scene_forward(y, cfg, cell.forward, [])
    t0 = ad.clamp(ad.sliding_max(y, 3), cfg.t_floor, 1.0)
    t_hat = ad.clamp(ad.sliding_max(t0, 3), cfg.t_floor, 1.0)
    t1 = ad.clamp(ad.sub(t_hat, cell.forward(t_hat)), cfg.t_floor, 1.0)
    np.testing.assert_allclose(t.data, t1.data, atol=1e-9)
    np.testing.assert_allclose(u.data, y.data / t1.data, atol=1e-9)
    assert len(traj) == 1


def test_monotone_brightening_and_reconstruction(rng):
    cfg = SceneConfig()
    cell = DiscreteCell(3, [OPS_BY_NAME["3-RC"]] * 7, rng)
    for _ in range(10):
        y = Tensor(rng.uniform(0.05, 1.0, size=(1, 3, 8, 8)))
        _, _, traj = scene_forward(y, cfg, cell.forward, [])
        for t_k, u_k in traj:
            assert np.all(u_k.data >= y.data - 1e-12)  # t <= 1 everywhere
            np.testing.assert_allclose(u_k.data * t_k.data, y.data, atol=1e-6)


# ---------------------------------------------------------------------------
# RTV prior


def rtv_oracle(t, sigma, eps):
    """Scalar-loop reimplementation of the windowed relative TV measure.

    Each Gaussian window is clipped to the map, where zero padding would add
    nothing, so the oracle stays small however wide the window is.
    """
    k1 = gaussian_kernel_1d(sigma)
    r = len(k1) // 2
    n, c, h, w = t.shape
    total = 0.0
    for axis in (3, 2):
        d = np.zeros_like(t)
        if axis == 3:
            d[..., :-1] = t[..., 1:] - t[..., :-1]
        else:
            d[:, :, :-1, :] = t[:, :, 1:, :] - t[:, :, :-1, :]
        for ni in range(n):
            for ci in range(c):
                for i in range(h):
                    lo_i, hi_i = max(0, i - r), min(h, i + r + 1)
                    for j in range(w):
                        lo_j, hi_j = max(0, j - r), min(w, j + r + 1)
                        G = np.outer(
                            k1[lo_i - i + r : hi_i - i + r], k1[lo_j - j + r : hi_j - j + r]
                        )
                        win = d[ni, ci, lo_i:hi_i, lo_j:hi_j]
                        D = (np.abs(win) * G).sum()
                        L = abs((win * G).sum())
                        total += D / (L + eps)
    return total


def test_rtv_constant_is_zero():
    assert float(rtv(Tensor(np.full((1, 3, 6, 6), 0.7))).data) == 0.0


def test_rtv_prefers_structure_over_texture(rng):
    # clean step edge vs sign-alternating noise of equal total |gradient|
    step = np.zeros((1, 1, 8, 8))
    step[..., 4:] = 1.0
    noise = np.zeros((1, 1, 8, 8))
    noise[..., ::2] = rng.uniform(0.4, 0.6, size=noise[..., ::2].shape)
    d_step = np.abs(np.diff(step, axis=3)).sum()
    d_noise = np.abs(np.diff(noise, axis=3)).sum()
    noise *= d_step / d_noise  # equalize total gradient energy
    assert float(rtv(Tensor(step)).data) < float(rtv(Tensor(noise)).data)


def test_rtv_matches_scalar_oracle(rng):
    # batches of two, a non-square map, and sigma 4, whose 17-tap window is
    # longer than either side of the map
    for shape, sigma in [((1, 2, 6, 6), 1.5), ((2, 2, 7, 5), 1.5), ((2, 1, 7, 5), 4.0)]:
        for _ in range(5):
            t = rng.uniform(0.0, 1.0, size=shape)
            got = float(rtv(Tensor(t), sigma=sigma, eps=1e-3).data)
            want = rtv_oracle(t, sigma, 1e-3)
            assert abs(got - want) / max(1.0, abs(want)) < 1e-6


def test_rtv_wide_sigma_is_bounded_by_the_map(rng):
    # sigma 1000 is a 4,001-tap window; dense (m, m) kernels over a 16 px
    # map would ask for gigabytes, the separable taps that reach the map
    # for a few kilobytes
    t = rng.uniform(0.0, 1.0, size=(1, 3, 16, 16))
    tracemalloc.start()
    try:
        tt = Tensor(t, requires_grad=True)
        value = rtv(tt, sigma=1000.0, eps=1e-3)
        backward(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    want = rtv_oracle(t, 1000.0, 1e-3)
    assert abs(float(value.data) - want) / max(1.0, abs(want)) < 1e-6


def test_rtv_rejects_bad_sigma(rng):
    with pytest.raises(ConfigError):
        rtv(Tensor(np.ones((1, 1, 5, 5))), sigma=-1.0)


# ---------------------------------------------------------------------------
# loss


def test_scene_loss_zero_fidelity(rng):
    y = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    cfg = SceneConfig(rtv_weight=0.0)
    assert float(scene_loss(y, y, cfg).data) == 0.0


def test_scene_loss_termwise(rng):
    t = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 6, 6)))
    y = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 6, 6)))
    cfg = SceneConfig(rtv_weight=1.0)
    fid = float(np.sum((t.data - y.data) ** 2))
    prior = float(rtv(t, cfg.rtv_sigma, cfg.rtv_eps).data)
    got = float(scene_loss(t, y, cfg).data)
    assert abs(got - (fid + prior)) < 1e-9


def test_scene_loss_shape_check(rng):
    with pytest.raises(ShapeError):
        scene_loss(
            Tensor(np.ones((1, 3, 5, 5))), Tensor(np.ones((1, 3, 6, 6))), SceneConfig()
        )
