"""Autodiff engine: primitives against loop oracles, tape mechanics, SGD."""

import tracemalloc

import numpy as np
import pytest

from ruas import autodiff as ad
from ruas.autodiff import SGD, Parameter, Tensor, backward, grad_check
from ruas.diagnostics import TOLERANCE, primitive_checks
from ruas.errors import (
    ConfigError,
    ContractError,
    DomainError,
    NumericError,
    ShapeError,
)
from ruas.model import RuasModel


# ---------------------------------------------------------------------------
# loop oracles


def conv2d_oracle(x, w, b=None, dilation=1):
    """Scalar-loop stride-1 same-padding cross-correlation."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    eff = dilation * (k - 1) + 1
    pad = eff // 2
    xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    out = np.zeros((n, cout, h, wd))
    for ni in range(n):
        for oc in range(cout):
            for i in range(h):
                for j in range(wd):
                    s = 0.0
                    for ic in range(cin):
                        for ki in range(k):
                            for kj in range(k):
                                s += (
                                    xp[ni, ic, i + ki * dilation, j + kj * dilation]
                                    * w[oc, ic, ki, kj]
                                )
                    out[ni, oc, i, j] = s + (b[oc] if b is not None else 0.0)
    return out


def conv2d_grad_oracle(x, w, g, dilation=1):
    """Scalar-loop gradients of sum(g * conv2d(x, w)) w.r.t. x and w."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    pad = dilation * (k - 1) // 2
    xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for ni in range(n):
        for oc in range(cout):
            for i in range(h):
                for j in range(wd):
                    for ic in range(cin):
                        for ki in range(k):
                            for kj in range(k):
                                pi, pj = i + ki * dilation, j + kj * dilation
                                gxp[ni, ic, pi, pj] += g[ni, oc, i, j] * w[oc, ic, ki, kj]
                                gw[oc, ic, ki, kj] += g[ni, oc, i, j] * xp[ni, ic, pi, pj]
    return gxp[:, :, pad : pad + h, pad : pad + wd], gw


def sliding_max_oracle(x, window):
    n, c, h, w = x.shape
    r = window // 2
    out = np.empty_like(x)
    for ni in range(n):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    lo_i, hi_i = max(0, i - r), min(h, i + r + 1)
                    lo_j, hi_j = max(0, j - r), min(w, j + r + 1)
                    out[ni, ci, i, j] = x[ni, ci, lo_i:hi_i, lo_j:hi_j].max()
    return out


def sliding_max_grad_oracle(x, window, g):
    """Scalar-loop gradient of sum(g * sliding_max(x)): each output's gradient
    goes to the first maximum of its window in row-major order."""
    n, c, h, w = x.shape
    r = window // 2
    gx = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    best = None
                    for p in range(max(0, i - r), min(h, i + r + 1)):
                        for q in range(max(0, j - r), min(w, j + r + 1)):
                            if best is None or x[ni, ci, p, q] > x[ni, ci, best[0], best[1]]:
                                best = (p, q)
                    gx[ni, ci, best[0], best[1]] += g[ni, ci, i, j]
    return gx


def correlate1d_oracle(x, kernel, axis):
    """Scalar-loop depthwise correlation along ``axis``, zero outside the map:
    out[i] = sum over in-map j of kernel[j - i + m // 2] * x[j]."""
    xs = np.moveaxis(x, axis, -1)
    out = np.zeros_like(xs)
    r, extent = len(kernel) // 2, xs.shape[-1]
    for idx in np.ndindex(xs.shape[:-1]):
        for i in range(extent):
            for j in range(extent):
                if 0 <= j - i + r < len(kernel):
                    out[idx + (i,)] += kernel[j - i + r] * xs[idx + (j,)]
    return np.moveaxis(out, -1, axis)


def correlate1d_grad_oracle(kernel, axis, g):
    """Scalar-loop gradient of sum(g * correlate1d(x)) w.r.t. x."""
    gs = np.moveaxis(g, axis, -1)
    gx = np.zeros_like(gs)
    r, extent = len(kernel) // 2, gs.shape[-1]
    for idx in np.ndindex(gs.shape[:-1]):
        for i in range(extent):
            for j in range(extent):
                if 0 <= j - i + r < len(kernel):
                    gx[idx + (j,)] += kernel[j - i + r] * gs[idx + (i,)]
    return np.moveaxis(gx, -1, axis)


# ---------------------------------------------------------------------------
# forward values


# (n, c_in, c_out, h, w, k, dilation): batches of two, non-square images,
# every kernel size in the operator table, and a 3-18-DC whose reach (18
# pixels each side) exceeds the 8 px image, so every tap but the centre
# reads padding
CONV_CASES = [
    (1, 2, 3, 6, 6, 3, 1),
    (1, 2, 3, 6, 6, 3, 2),
    (2, 2, 3, 6, 5, 1, 1),
    (2, 3, 2, 7, 5, 3, 1),
    (2, 2, 3, 5, 8, 5, 1),
    (2, 2, 2, 9, 6, 7, 1),
    (2, 2, 3, 6, 7, 3, 2),
    (2, 3, 2, 7, 6, 5, 2),
    (2, 2, 2, 8, 8, 3, 18),
]


def _conv_case(rng, n, cin, cout, h, w, k):
    return (
        rng.normal(size=(n, cin, h, w)),
        rng.normal(size=(cout, cin, k, k)),
        rng.normal(size=cout),
    )


def test_conv2d_matches_loop_oracle(rng):
    for n, cin, cout, h, w, k, dil in CONV_CASES:
        x, wk, b = _conv_case(rng, n, cin, cout, h, w, k)
        got = ad.conv2d(Tensor(x), Tensor(wk), Tensor(b), dilation=dil).data
        want = conv2d_oracle(x, wk, b, dilation=dil)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_conv2d_gradients_match_loop_oracle(rng):
    for n, cin, cout, h, w, k, dil in CONV_CASES:
        x, wk, b = _conv_case(rng, n, cin, cout, h, w, k)
        g = rng.normal(size=(n, cout, h, w))
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, wk, b))
        backward(ad.reduce_sum(ad.mul(ad.conv2d(xt, wt, bt, dilation=dil), Tensor(g))))
        want_x, want_w = conv2d_grad_oracle(x, wk, g, dilation=dil)
        np.testing.assert_allclose(xt.grad, want_x, atol=1e-9)
        np.testing.assert_allclose(wt.grad, want_w, atol=1e-9)
        np.testing.assert_allclose(bt.grad, g.sum(axis=(0, 2, 3)), atol=1e-9)


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_conv2d_bands_match_loop_oracle(rng, monkeypatch, rows):
    """Every conv banded: ``rows`` output rows per forward band, which does
    not divide most heights and is shorter than the 3-18-DC reach."""
    monkeypatch.setattr(ad, "BAND_MIN_BYTES", 0)
    monkeypatch.setattr(ad, "BAND_ALIGN", 1)
    for n, cin, cout, h, w, k, dil in CONV_CASES:
        monkeypatch.setattr(ad, "BAND_BYTES", rows * n * cin * k * k * w * 8)
        assert ad._band_rows(n, cin, k, h, w) == (h if k == 1 else rows)
        x, wk, b = _conv_case(rng, n, cin, cout, h, w, k)
        g = rng.normal(size=(n, cout, h, w))
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, wk, b))
        out = ad.conv2d(xt, wt, bt, dilation=dil)
        np.testing.assert_allclose(out.data, conv2d_oracle(x, wk, b, dilation=dil), atol=1e-9)
        backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
        want_x, want_w = conv2d_grad_oracle(x, wk, g, dilation=dil)
        np.testing.assert_allclose(xt.grad, want_x, atol=1e-9)
        np.testing.assert_allclose(wt.grad, want_w, atol=1e-9)
        np.testing.assert_allclose(bt.grad, g.sum(axis=(0, 2, 3)), atol=1e-9)


def _one_matmul_conv(monkeypatch, *args):
    with monkeypatch.context() as m:
        m.setattr(ad, "BAND_MIN_BYTES", np.inf)
        return ad._raw_conv(*args)


# (n, c_in, c_out, k, dilation, h, w) at photo sizes: c_out 12 is a stacked
# mixed-edge forward, c_in 12 its input gradient; 97 rows is a height no
# band size divides, and widths 98 and 255 need bands of 8 and 16 rows to
# hold whole 16-pixel blocks
REAL_BAND_CASES = [
    (1, 3, 3, 3, 1, 64, 64),
    (1, 3, 3, 5, 2, 256, 256),
    (1, 6, 6, 3, 2, 256, 256),
    (1, 6, 6, 3, 1, 96, 98),
    (1, 6, 6, 3, 1, 256, 255),
    (1, 6, 12, 3, 1, 97, 64),
    (1, 12, 6, 3, 2, 97, 96),
    (2, 6, 6, 5, 1, 64, 64),
    (1, 3, 3, 3, 18, 97, 112),
    (1, 12, 6, 5, 18, 64, 80),
]


@pytest.mark.parametrize("case", REAL_BAND_CASES, ids=lambda c: "-".join(map(str, c)))
def test_banded_conv_is_byte_identical_to_one_matmul(rng, monkeypatch, case):
    n, c, o, k, dil, h, w = case
    monkeypatch.setattr(ad, "BAND_MIN_BYTES", 0)
    assert ad._band_rows(n, c, k, h, w) < h
    x, wk, b = rng.normal(size=(n, c, h, w)), rng.normal(size=(o, c, k, k)), rng.normal(size=o)
    banded = ad._raw_conv(x, wk, dil, b)
    np.testing.assert_array_equal(banded, _one_matmul_conv(monkeypatch, x, wk, dil, b))


@pytest.mark.parametrize(
    "n, c, k, h, w",
    [(1, 6, 3, 97, 97), (1, 12, 7, 64, 64), (1, 24, 1, 256, 256)],
    ids=["pixels-not-whole-blocks", "deep-products", "1x1"],
)
def test_conv_that_bands_would_change_takes_one_matmul(rng, monkeypatch, n, c, k, h, w):
    """Bands that end inside a BLAS register block, products deeper than its
    K block and 1x1 convs run as one matmul."""
    assert n * c * k * k * h * w * 8 > ad.BAND_MIN_BYTES
    assert ad._band_rows(n, c, k, h, w) == h
    x, wk = rng.normal(size=(n, c, h, w)), rng.normal(size=(6, c, k, k))
    np.testing.assert_array_equal(ad._raw_conv(x, wk, 1), _one_matmul_conv(monkeypatch, x, wk, 1))


def test_search_convs_at_32px_take_one_matmul(rng, monkeypatch):
    """The search workload's convs stay below the band gate: the largest is
    the input gradient of the task cell's stacked width-12 3x3 group."""
    seen = []
    band_rows = ad._band_rows

    def spy(n, c, k, h, w):
        rows = band_rows(n, c, k, h, w)
        seen.append((n * c * k * k * h * w * 8, (c, k), rows == h))
        return rows

    monkeypatch.setattr(ad, "_band_rows", spy)
    model = RuasModel.supernet(rng)
    y = Tensor(rng.uniform(0.05, 1.0, size=(1, 3, 32, 32)))
    task = model.task_loss_on(model.scene_out(y)[0])
    backward(ad.add(model.scene_loss(y), task))
    assert all(one for _, _, one in seen)
    assert max(seen) == (884_736, (12, 3), True)


def test_conv2d_same_padding_preserves_shape(rng):
    x = Tensor(rng.normal(size=(2, 3, 9, 7)))
    for k, dil in [(1, 1), (3, 1), (5, 1), (7, 1), (3, 2), (3, 6), (5, 2), (7, 2)]:
        w = Tensor(rng.normal(size=(4, 3, k, k)))
        assert ad.conv2d(x, w, dilation=dil).data.shape == (2, 4, 9, 7)


def test_conv2d_rejects_bad_inputs(rng):
    x = Tensor(rng.normal(size=(1, 3, 5, 5)))
    with pytest.raises(ConfigError):
        ad.conv2d(x, Tensor(rng.normal(size=(2, 3, 2, 2))))  # even kernel
    with pytest.raises(ShapeError):
        ad.conv2d(x, Tensor(rng.normal(size=(2, 4, 3, 3))))  # channel mismatch
    with pytest.raises(ConfigError):
        ad.conv2d(x, Tensor(rng.normal(size=(2, 3, 3, 3))), dilation=0)
    w = Tensor(rng.normal(size=(2, 3, 3, 3)))
    for bias_shape in [(1,), (3,), (2, 1), ()]:
        with pytest.raises(ShapeError, match="bias"):
            ad.conv2d(x, w, Tensor(rng.normal(size=bias_shape)))


def test_sliding_max_matches_loop_oracle(rng):
    for _ in range(10):
        x = rng.normal(size=(1, 2, 7, 5))
        got = ad.sliding_max(Tensor(x), 3).data
        np.testing.assert_array_equal(got, sliding_max_oracle(x, 3))


@pytest.mark.parametrize("window", [1, 3, 5, 7])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_sliding_max_gradient_matches_loop_oracle(rng, window, ties):
    # inputs quantised to five levels put several maxima in most windows,
    # which pins the first-maximum rule
    for shape in [(2, 2, 7, 5), (1, 3, 4, 9), (2, 1, 6, 6)]:
        x = rng.integers(-2, 3, size=shape) / 2.0 if ties else rng.normal(size=shape)
        g = rng.normal(size=shape)
        xt = Tensor(x, requires_grad=True)
        out = ad.sliding_max(xt, window)
        backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
        np.testing.assert_array_equal(out.data, sliding_max_oracle(x, window))
        np.testing.assert_array_equal(xt.grad, sliding_max_grad_oracle(x, window, g))


# (shape, kernel length, axis): batches of two, non-square maps, and kernels
# longer than the axis they run along, whose outer taps read only padding
CORRELATE_CASES = [
    ((1, 2, 6, 6), 3, 2),
    ((2, 3, 7, 5), 5, 2),
    ((2, 3, 7, 5), 5, 3),
    ((2, 2, 4, 9), 7, 2),
    ((2, 2, 9, 4), 11, 3),
    ((2, 1, 3, 5), 17, 2),
    ((1, 2, 5, 1), 3, 3),
]


@pytest.mark.parametrize(
    "shape,m,axis",
    CORRELATE_CASES,
    ids=[f"{'x'.join(map(str, s))}-m{m}-axis{ax}" for s, m, ax in CORRELATE_CASES],
)
def test_correlate1d_matches_loop_oracle(rng, shape, m, axis):
    x, kernel, g = rng.normal(size=shape), rng.normal(size=m), rng.normal(size=shape)
    xt = Tensor(x, requires_grad=True)
    out = ad.correlate1d(xt, kernel, axis)
    backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
    np.testing.assert_allclose(out.data, correlate1d_oracle(x, kernel, axis), atol=1e-9)
    np.testing.assert_allclose(xt.grad, correlate1d_grad_oracle(kernel, axis, g), atol=1e-9)


def test_correlate1d_long_kernel_is_bounded_by_the_map(rng):
    # a 200,001-tap kernel on a 16 px map: only the 31 central taps can
    # reach the map, and the padded buffer would be 25 MB if built whole
    kernel = rng.uniform(0.0, 1.0, 200_001)
    x = rng.normal(size=(1, 1, 16, 16))
    g = rng.normal(size=x.shape)
    tracemalloc.start()
    try:
        xt = Tensor(x, requires_grad=True)
        out = ad.correlate1d(ad.correlate1d(xt, kernel, 2), kernel, 3)
        backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    want = correlate1d_oracle(correlate1d_oracle(x, kernel, 2), kernel, 3)
    np.testing.assert_allclose(out.data, want, atol=1e-9)
    want_g = correlate1d_grad_oracle(kernel, 2, correlate1d_grad_oracle(kernel, 3, g))
    np.testing.assert_allclose(xt.grad, want_g, atol=1e-9)


def test_correlate1d_rejects_bad_inputs(rng):
    x = Tensor(rng.normal(size=(1, 2, 5, 5)))
    with pytest.raises(ConfigError):
        ad.correlate1d(x, np.ones(3), 1)
    with pytest.raises(ConfigError):
        ad.correlate1d(x, np.ones(4), 2)  # even length
    with pytest.raises(ConfigError):
        ad.correlate1d(x, np.ones((3, 3)), 3)
    with pytest.raises(ShapeError):
        ad.correlate1d(Tensor(rng.normal(size=(2, 5, 5))), np.ones(3), 2)
    with pytest.raises(ShapeError):
        ad.correlate1d(Tensor(np.zeros((1, 1, 0, 4))), np.ones(3), 2)


def test_sliding_max_constant_and_impulse():
    const = np.full((1, 1, 4, 4), 0.4)
    np.testing.assert_array_equal(ad.sliding_max(Tensor(const), 3).data, const)
    imp = np.zeros((1, 1, 5, 5))
    imp[0, 0, 2, 2] = 1.0
    out = ad.sliding_max(Tensor(imp), 3).data
    want = np.zeros((1, 1, 5, 5))
    want[0, 0, 1:4, 1:4] = 1.0
    np.testing.assert_array_equal(out, want)


def test_sliding_max_rejects_even_window(rng):
    with pytest.raises(ConfigError):
        ad.sliding_max(Tensor(rng.normal(size=(1, 1, 4, 4))), 2)


def test_spatial_diff_forward_difference(rng):
    x = rng.normal(size=(1, 2, 4, 5))
    dx = ad.spatial_diff(Tensor(x), 3).data
    np.testing.assert_allclose(dx[..., :-1], x[..., 1:] - x[..., :-1])
    np.testing.assert_array_equal(dx[..., -1], 0.0)
    dy = ad.spatial_diff(Tensor(x), 2).data
    np.testing.assert_allclose(dy[:, :, :-1, :], x[:, :, 1:, :] - x[:, :, :-1, :])
    with pytest.raises(ConfigError):
        ad.spatial_diff(Tensor(x), 1)


def test_softmax_properties(rng):
    out = ad.softmax(Tensor(np.zeros(3))).data
    np.testing.assert_allclose(out, np.ones(3) / 3)
    big = ad.softmax(Tensor(np.array([1000.0, 0.0]))).data
    np.testing.assert_allclose(big, [1.0, 0.0], atol=1e-9)
    z = rng.normal(size=7)
    a = ad.softmax(Tensor(z)).data
    b = ad.softmax(Tensor(z + 17.0)).data
    assert abs(a.sum() - 1.0) < 1e-9
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_reductions(rng):
    assert float(ad.reduce_l2sq(Tensor([3.0, 4.0])).data) == 25.0
    assert float(ad.reduce_l1(Tensor(np.zeros(5))).data) == 0.0
    x = rng.normal(size=(2, 3))
    assert abs(float(ad.reduce("mean", Tensor(x)).data) - x.mean()) < 1e-12
    with pytest.raises(ConfigError):
        ad.reduce("median", Tensor(x))


def test_div_guard():
    with pytest.raises(DomainError):
        ad.div(Tensor([1.0]), Tensor([1e-13]))


def test_broadcasting_gradients(rng):
    # scalar times image: the scalar's gradient sums over all elements
    a = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
    s = Tensor(np.array(2.0), requires_grad=True)
    backward(ad.reduce_sum(ad.mul(a, s)))
    np.testing.assert_allclose(s.grad, a.data.sum())
    np.testing.assert_allclose(a.grad, np.full_like(a.data, 2.0))


# ---------------------------------------------------------------------------
# tape mechanics


def test_fanin_adjoint_additivity(rng):
    x = Tensor(rng.normal(size=(4,)), requires_grad=True)
    backward(ad.reduce_l2sq(x))
    single = x.grad.copy()
    x.grad = None
    backward(ad.add(ad.reduce_l2sq(x), ad.reduce_l2sq(x)))
    np.testing.assert_allclose(x.grad, 2.0 * single)


def test_repeated_backward_accumulates(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    backward(ad.reduce_sum(x))
    backward(ad.reduce_sum(x))
    np.testing.assert_allclose(x.grad, 2.0 * np.ones(3))


def test_backward_requires_scalar(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    with pytest.raises(ContractError):
        backward(ad.mul(x, 2.0))


def test_interior_nodes_keep_no_grad(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    mid = ad.mul(x, x)
    backward(ad.reduce_sum(mid))
    assert mid.grad is None
    assert x.grad is not None


def test_no_grad_skips_tape(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    with ad.no_grad():
        out = ad.reduce_sum(ad.mul(x, x))
    assert not out.requires_grad
    y = ad.mul(x, x)
    assert y.requires_grad  # tape resumes outside the block


def test_backward_wrt_differentiates_only_the_requested_leaves(rng, monkeypatch):
    x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
    w = Parameter(rng.normal(size=(3, 2, 3, 3)), "w")
    b = Parameter(rng.normal(size=(1, 3, 1, 1)), "b")

    def loss():
        return ad.reduce_sum(ad.mul(ad.relu(ad.conv2d(x, w)), ad.mul(b, b)))

    backward(loss())
    want = x.grad
    x.grad = w.grad = b.grad = None

    wgrads = []
    raw = ad._raw_conv_wgrad
    monkeypatch.setattr(ad, "_raw_conv_wgrad", lambda *a: wgrads.append(1) or raw(*a))
    backward(loss(), wrt=[x])
    assert np.array_equal(x.grad, want)
    assert w.grad is None and b.grad is None
    assert wgrads == []

    backward(loss(), wrt=[w])
    assert w.grad is not None and len(wgrads) == 1


def test_backward_wrt_unreached_leaf_is_a_no_op(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    other = Tensor(rng.normal(size=(3,)), requires_grad=True)
    backward(ad.reduce_l2sq(x), wrt=[other])
    assert x.grad is None and other.grad is None


@pytest.mark.parametrize("fails", [False, True])
def test_backward_wrt_restores_requires_grad(rng, fails):
    a = Parameter(rng.normal(size=(3,)), "a")
    b = Parameter(rng.normal(size=(3,)), "b")
    const_side = ad.relu(b)  # reached by b alone: a constant when only a is requested
    prod = ad.mul(a, const_side)

    def bw(g):
        if fails:
            raise NumericError("backward failed")
        yield prod, np.full(prod.data.shape, float(g))

    loss = ad._make(prod.data.sum(), (prod,), bw)
    nodes = [a, b, const_side, prod, loss]
    assert all(t.requires_grad for t in nodes)
    if fails:
        with pytest.raises(NumericError):
            backward(loss, wrt=[a])
    else:
        backward(loss, wrt=[a])
        np.testing.assert_array_equal(a.grad, const_side.data)
        assert b.grad is None
    assert all(t.requires_grad for t in nodes)


def test_clamp_gradient_dead_outside_interval():
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    backward(ad.reduce_sum(ad.clamp(x, 0.0, 1.0)))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# gradients vs finite differences (primitive-by-primitive suite lives in
# ruas.diagnostics; here we spot-check the shared entry point)


def test_grad_check_on_quadratic(rng):
    x = Tensor(rng.normal(size=(5,)), requires_grad=True)
    assert grad_check(ad.reduce_l2sq, x) < 1e-6


def test_grad_check_conv(rng):
    w = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(1, 2, 5, 5)))
    err = grad_check(lambda t: ad.reduce_sum(ad.conv2d(x, t, dilation=2)), w)
    assert err < 1e-3


# ---------------------------------------------------------------------------
# optimizer


def test_gradcheck_covers_a_banded_conv():
    assert dict(primitive_checks())["conv2d_w_banded"] < TOLERANCE
    assert ad._band_rows(1, 3, 3, 72, 72) < 72  # the row's input is banded


def test_sgd_momentum_update_math():
    p = Parameter(np.array([1.0, 2.0]), "p")
    opt = SGD([p], lr=0.1, momentum=0.5, weight_decay=0.0)
    p.grad = np.array([1.0, 1.0])
    opt.step()
    np.testing.assert_allclose(p.data, [0.9, 1.9])
    p.grad = np.array([1.0, 1.0])
    opt.step()  # velocity is now 0.5*1 + 1 = 1.5
    np.testing.assert_allclose(p.data, [0.75, 1.75])
    assert p.grad is None  # cleared after the step


def test_sgd_weight_decay():
    p = Parameter(np.array([10.0]), "p")
    opt = SGD([p], lr=0.1, weight_decay=0.1)
    p.grad = np.zeros(1)
    opt.step()
    np.testing.assert_allclose(p.data, [9.9])


def test_sgd_clip_norm():
    p = Parameter(np.zeros(2), "p")
    opt = SGD([p], lr=1.0, clip_norm=1.0)
    p.grad = np.array([3.0, 4.0])  # norm 5, rescaled to 1
    opt.step()
    np.testing.assert_allclose(p.data, [-0.6, -0.8])


@pytest.mark.parametrize("clip_norm", [None, 1.0])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sgd_nonfinite_grad_norm_raises(clip_norm, bad):
    # NaN > clip_norm is False, so a NaN norm used to slip through the clip
    p = Parameter(np.array([1.0, 2.0]), "p")
    opt = SGD([p], lr=0.1, momentum=0.5, clip_norm=clip_norm)
    p.grad = np.array([bad, 0.0])
    with pytest.raises(NumericError):
        opt.step()
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


def test_sgd_missing_grad_raises():
    p = Parameter(np.zeros(2), "p")
    opt = SGD([p], lr=0.1)
    with pytest.raises(ContractError):
        opt.step()


def test_sgd_backward_step_treats_unused_param_as_zero_grad():
    used = Parameter(np.array([1.0, 2.0]), "used")
    unused = Parameter(np.array([10.0]), "unused")
    used.grad = np.array([5.0, 5.0])  # stale; cleared before back-propagation
    opt = SGD([used, unused], lr=0.1, weight_decay=0.1)
    opt.backward_step(ad.reduce_sum(used))
    np.testing.assert_allclose(used.data, [0.89, 1.88])
    np.testing.assert_allclose(unused.data, [9.9])  # weight decay only
    assert used.grad is None and unused.grad is None


def test_sgd_validates_config():
    p = Parameter(np.zeros(1), "p")
    with pytest.raises(ConfigError):
        SGD([p], lr=-1.0)
    with pytest.raises(ConfigError):
        SGD([p], lr=0.1, momentum=1.0)
    with pytest.raises(ConfigError):
        SGD([p], lr=0.1, clip_norm=0.0)
