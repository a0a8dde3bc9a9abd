"""The noise estimate, the removal gate, the remover, and variant dispatch."""

import math

import numpy as np
import pytest

from ruas import autodiff as ad
from ruas.autodiff import Tensor
from ruas.config import TaskConfig
from ruas.errors import ConfigError, ShapeError
from ruas.io_metrics import random_clean_image, synth_lowlight
from ruas.model import DEFAULT_TASK_OPS, RuasModel
from ruas.search_space import DiscreteCell, OPS_BY_NAME
from ruas.task import NoiseRemover, estimate_noise_sigma, noise_gate, task_loss

MASK = ((1, -2, 1), (-2, 4, -2), (1, -2, 1))


def noise_sigma_oracle(y):
    n, c, h, w = y.shape
    total = 0.0
    for b in range(n):
        for ch in range(c):
            for r in range(1, h - 1):
                for q in range(1, w - 1):
                    acc = 0.0
                    for i in range(3):
                        for j in range(3):
                            acc += MASK[i][j] * y[b, ch, r - 1 + i, q - 1 + j]
                    total += abs(acc)
    return math.sqrt(math.pi / 2) * total / (6 * n * c * (h - 2) * (w - 2))


@pytest.mark.parametrize("shape", [(1, 3, 3, 3), (2, 3, 7, 9), (1, 1, 12, 5)])
def test_noise_sigma_matches_loop_oracle(rng, shape):
    y = rng.uniform(0, 1, size=shape)
    assert abs(estimate_noise_sigma(y) - noise_sigma_oracle(y)) < 1e-12


@pytest.mark.parametrize("sigma", [0.01, 0.03, 0.1])
def test_noise_sigma_of_gaussian_noise_on_a_flat_map(rng, sigma):
    y = 0.5 + rng.normal(0.0, sigma, size=(1, 3, 256, 256))
    assert abs(estimate_noise_sigma(y) - sigma) < 0.05 * sigma


@pytest.mark.parametrize("shape", [(1, 3, 1, 1), (1, 3, 2, 2), (1, 3, 1, 64), (2, 3, 64, 2)])
def test_noise_sigma_without_interior_is_zero(rng, shape):
    assert estimate_noise_sigma(rng.uniform(0, 1, size=shape)) == 0.0


def test_noise_gate_thresholding():
    assert noise_gate(0.005, 0.01)
    assert noise_gate(0.01, 0.01)
    assert not noise_gate(0.05, 0.01)
    with pytest.raises(ConfigError):
        noise_gate(0.005, -0.1)


def test_noise_gate_resolution_independent(rng):
    # the same noise sigma at two resolutions gives the same decision
    for size in (16, 128):
        sigma = estimate_noise_sigma(0.5 + rng.normal(0.0, 0.02, size=(1, 3, size, size)))
        assert not noise_gate(sigma, 0.01)
        assert noise_gate(sigma, 0.04)


@pytest.mark.parametrize("size", [32, 64])
def test_default_gate_separates_clean_from_noisy_inputs(size):
    """ruas_a at the default gate_eps skips every noise-free 8-bit input and
    no input with sigma 0.03 noise (the synthetic datasets' level)."""
    rng = np.random.default_rng(size)
    model = RuasModel(np.random.default_rng(0), variant="ruas_a")
    assert model.gate_eps == TaskConfig().gate_eps
    for _ in range(6):
        clean = random_clean_image(rng, size=size)
        for sigma in (0.0, 0.03):
            dark, _ = synth_lowlight(clean, rng, noise_sigma=sigma)
            y = Tensor(np.round(dark * 255.0) / 255.0)
            with ad.no_grad():
                assert model.forward(y)["gate_skip"] is (sigma == 0.0)


def make_remover_parts(rng, zero_fusion=False):
    remover = NoiseRemover(rng, width=6)
    cell = DiscreteCell(6, [OPS_BY_NAME["3-C"]] * 7, rng)
    if zero_fusion:
        cell.fusion_w.data = np.zeros_like(cell.fusion_w.data)
    return remover, cell


def test_remover_identity_under_zero_cell(rng):
    remover, cell = make_remover_parts(rng, zero_fusion=True)
    u = Tensor(rng.uniform(-0.2, 1.4, size=(1, 3, 6, 6)))
    out = remover.forward(u, cell.forward)
    np.testing.assert_allclose(out.data, np.clip(u.data, 0, 1))


def test_remover_output_in_unit_range(rng):
    remover, cell = make_remover_parts(rng)
    u = Tensor(rng.uniform(0, 2.0, size=(1, 3, 6, 6)))
    out = remover.forward(u, cell.forward).data
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_remover_matches_straight_line_oracle(rng):
    remover, cell = make_remover_parts(rng)
    u = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    got = remover.forward(u, cell.forward).data
    proj = remover.proj_in_w.data[:, :, 0, 0]
    z = Tensor(np.einsum("oc,nchw->nohw", proj, u.data) + remover.proj_in_b.data[:, None, None])
    corr = ad.conv2d(cell.forward(z), remover.proj_out_w, remover.proj_out_b)
    want = np.clip(u.data + corr.data, 0, 1)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_remover_shape_check(rng):
    remover, cell = make_remover_parts(rng)
    for shape in ((1, 4, 6, 6), (3, 6, 6)):
        with pytest.raises(ShapeError):
            remover.forward(Tensor(np.ones(shape)), cell.forward)


def test_task_loss_trivials(rng):
    u = Tensor(rng.uniform(0, 1, size=(1, 3, 6, 6)))
    assert float(task_loss(u, u, tv_weight=0.0).data) == 0.0


def test_task_loss_termwise_oracle(rng):
    x = Tensor(rng.uniform(0, 1, size=(1, 3, 6, 6)))
    u = Tensor(rng.uniform(0, 1, size=(1, 3, 6, 6)))
    mu = 0.05
    got = float(task_loss(x, u, tv_weight=mu).data)
    fid = float(np.sum((x.data - u.data) ** 2))
    dx = np.abs(np.diff(x.data, axis=3)).sum()
    dy = np.abs(np.diff(x.data, axis=2)).sum()
    assert abs(got - (fid + mu * (dx + dy))) < 1e-9


# ---------------------------------------------------------------------------
# variant dispatch


def test_variant_validation(rng):
    with pytest.raises(ConfigError):
        RuasModel(rng, variant="ruas_x")


def test_ruas_s_path(rng):
    model = RuasModel(rng, variant="ruas_s")
    assert model.task_cell is None
    y = Tensor(rng.uniform(0, 0.5, size=(1, 3, 8, 8)))
    out = model.forward(y)
    np.testing.assert_allclose(out["x"].data, np.clip(out["u"].data, 0, 1))
    assert out["noise_sigma"] is None and out["gate_skip"] is None


def test_ruas_path_always_removes(rng):
    model = RuasModel(rng, variant="ruas")
    assert model.task_cell is not None
    out = model.forward(Tensor(rng.uniform(0, 0.5, size=(1, 3, 8, 8))))
    assert out["x"].data.shape == (1, 3, 8, 8)
    assert out["noise_sigma"] is None and out["gate_skip"] is None


def test_ruas_a_gate_both_ways(rng):
    """ruas_a is ruas, skipped when the input's noise sigma is at most gate_eps."""
    model = RuasModel(np.random.default_rng(0), variant="ruas_a")
    y = Tensor(rng.uniform(0, 0.5, size=(1, 3, 8, 8)))
    sigma = estimate_noise_sigma(y.data)
    assert sigma > 0

    model.gate_eps = sigma
    out = model.forward(y)
    assert out["noise_sigma"] == sigma and out["gate_skip"] is True
    np.testing.assert_array_equal(out["x"].data, np.clip(out["u"].data, 0, 1))

    model.gate_eps = 0.0
    out = model.forward(y)
    assert out["gate_skip"] is False
    always = RuasModel(np.random.default_rng(0), variant="ruas").forward(y)["x"]
    np.testing.assert_array_equal(out["x"].data, always.data)


def test_enhance_output_unit_range(rng, tiny_dataset):
    _, records = tiny_dataset
    for variant in ("ruas_s", "ruas", "ruas_a"):
        model = RuasModel(np.random.default_rng(0), variant=variant)
        x = model.enhance(Tensor(records[0].input())).data
        assert x.min() >= 0.0 and x.max() <= 1.0


# ---------------------------------------------------------------------------
# banded noise removal

# task-cell ops (None: the supernet's mixed cell); edges 0->1, 1->2, 2->3,
# 3->4, 0->4, 1->4, 2->4
BAND_CELLS = {
    "default": DEFAULT_TASK_OPS,
    "all-3-2-RDC": ("3-2-RDC",) * 7,
    "skip-heavy": ("SC", "3-C", "SC", "SC", "1-RC", "SC", "3-2-RDC"),
    "mixed": None,
}


def _band_model(cell, variant="ruas"):
    """A model on the task cell ``cell`` whose convs all shape the output."""
    rng = np.random.default_rng(11)
    if BAND_CELLS[cell] is None:
        model = RuasModel.supernet(rng).set_variant(variant)
        for logits in model.alpha_t.logits:
            logits.data = rng.normal(size=logits.data.shape)
    else:
        model = RuasModel(rng, variant=variant, task_ops=BAND_CELLS[cell])
    for c in (model.scene_cell, model.task_cell):
        c.fusion_w.data = rng.uniform(-0.3, 0.3, c.fusion_w.data.shape)
    return model


def _one_pass(model, u):
    return model.remover.forward(u, model.task_cell.forward, model.alpha_t).data


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("h", [129, 200, 272, 300])
@pytest.mark.parametrize("cell", BAND_CELLS)
def test_banded_removal_is_the_one_pass_bit_for_bit(cell, h):
    """Bands of 128 rows with the cell's radius of halo rows per side; the
    last band is short at every height but 256 + 16.  At 144 px a batch of
    two runs through every band at once."""
    model = _band_model(cell)
    rng = np.random.default_rng(h)
    for n, w in ((1, 64), (2, 144), (1, 256)):
        u = rng.uniform(-0.2, 1.2, size=(n, 3, h, w))
        u[:, :, ::7, ::5] = -0.0
        u = Tensor(u)
        with ad.no_grad():
            _assert_same_bits(model.task_out(u).data, _one_pass(model, u))


@pytest.mark.parametrize("variant", ["ruas", "ruas_a"])
@pytest.mark.parametrize("cell", BAND_CELLS)
def test_banded_forward_is_the_one_pass_bit_for_bit(cell, variant):
    model = _band_model(cell, variant)
    rng = np.random.default_rng(5)
    clean = random_clean_image(rng, size=272)[..., :144]
    y, _ = synth_lowlight(clean, rng, noise_sigma=0.03)
    with ad.no_grad():
        out = model.forward(Tensor(y))
        assert out["gate_skip"] is (None if variant == "ruas" else False)
        _assert_same_bits(out["x"].data, _one_pass(model, out["u"]))


@pytest.mark.parametrize(
    "shape, taped, passes",
    [
        ((272, 144), False, 3),
        ((129, 64), False, 2),
        ((128, 256), False, 1),
        ((272, 144), True, 1),
        ((200, 97), False, 1),
        ((200, 130), False, 1),
    ],
)
def test_removal_bands_only_untaped_maps_of_whole_pixel_blocks(shape, taped, passes):
    """A taped pass, a map of at most 128 rows and a width that is not a
    multiple of 16 (97 and 130 px) run the remover once, on the whole map."""
    model = _band_model("default")
    calls = []
    forward = model.remover.forward
    model.remover.forward = lambda u, *a: calls.append(u.data.shape[2]) or forward(u, *a)
    u = Tensor(np.random.default_rng(0).uniform(0.0, 1.0, size=(1, 3, *shape)))
    if taped:
        assert model.task_out(u).requires_grad
    else:
        with ad.no_grad():
            model.task_out(u)
    assert len(calls) == passes
    if passes == 1:
        assert calls == [shape[0]]
