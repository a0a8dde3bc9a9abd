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
from ruas.model import DEFAULT_SCENE_OPS, RuasModel
from ruas.search_space import DiscreteCell, lookup_op


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
# 1x1 to 7x7 kernels, and a dilation-18 3x3 whose reach (18 pixels each
# side) exceeds the 8 px image, so every tap but the centre reads padding;
# these are raw conv2d shapes, wider than the operator table, whose
# largest reach is 2 pixels (3-2-DC)
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
    not divide most heights and is shorter than the dilation-18 reach."""
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


@pytest.mark.parametrize("size", [(128, 128), (97, 130)], ids=["128x128", "97x130"])
def test_model_forward_is_byte_identical_to_one_matmul_convs(monkeypatch, size):
    """A whole derived forward pass, with its convs banded wherever the
    gate allows and their biases added after the last band, equals the pass
    whose every conv is one matmul."""
    rng = np.random.default_rng(3)
    model = RuasModel(rng)
    for p in model.parameters():
        if p.name.endswith("fusion.weight"):  # zero at init
            p.data = rng.uniform(-0.05, 0.05, p.data.shape)
    y = Tensor(rng.uniform(0.0, 1.0, size=(1, 3) + size))
    banded = []
    band_rows = ad._band_rows

    def spy(n, c, k, h, w):
        rows = band_rows(n, c, k, h, w)
        banded.append(rows < h)
        return rows

    monkeypatch.setattr(ad, "_band_rows", spy)
    with ad.no_grad():
        got = model.forward(y)["x"].data
    assert any(banded) == (size[0] * size[1] % ad.BAND_ALIGN == 0)
    monkeypatch.setattr(ad, "BAND_MIN_BYTES", np.inf)
    with ad.no_grad():
        want = model.forward(y)["x"].data
    assert got.tobytes() == want.tobytes()


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


# batches and channels, and maps narrower, shorter or smaller than a window,
# where a shift reaches past the edge and the max runs over the map alone
SLIDING_MAX_SHAPES = [(1, 2, 7, 5), (2, 3, 6, 6), (2, 2, 2, 9), (1, 3, 9, 1), (3, 1, 1, 1)]


def test_sliding_max_matches_loop_oracle(rng):
    """Distinct values, values quantised to five levels (ties in most
    windows, signed zeros among them) and maps with -inf entries."""
    for window in (1, 3, 5, 7):
        for shape in SLIDING_MAX_SHAPES:
            ties = rng.integers(-2, 3, size=shape) / 2.0
            with_inf = np.where(rng.uniform(size=shape) < 0.3, -np.inf, rng.normal(size=shape))
            for x in (rng.normal(size=shape), ties * np.sign(rng.normal(size=shape)), with_inf):
                got = ad.sliding_max(Tensor(x), window).data
                np.testing.assert_array_equal(got, sliding_max_oracle(x, window))


@pytest.mark.parametrize("window", [1, 3, 5, 7])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_sliding_max_gradient_matches_loop_oracle(rng, window, ties):
    # inputs quantised to five levels put several maxima in most windows,
    # which pins the first-maximum rule
    for shape in [(2, 2, 7, 5), (1, 3, 4, 9), (2, 1, 6, 6), (1, 2, 2, 3)]:
        x = rng.integers(-2, 3, size=shape) / 2.0 if ties else rng.normal(size=shape)
        g = rng.normal(size=shape)
        xt = Tensor(x, requires_grad=True)
        out = ad.sliding_max(xt, window)
        backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
        np.testing.assert_array_equal(out.data, sliding_max_oracle(x, window))
        np.testing.assert_array_equal(xt.grad, sliding_max_grad_oracle(x, window, g))


def test_sliding_max_wide_window_is_bounded_by_the_map(rng):
    """A window wider than twice the map covers all of it from every pixel:
    window 201 on an 8 px map is window 15, and its backward pass allocates
    for the 15 px window (a 208 px padded map would be 676x the input)."""
    x = rng.integers(-2, 3, size=(1, 1, 8, 8)) / 2.0  # ties pin the first-max rule
    g = rng.normal(size=x.shape)
    grads = []
    for window in (15, 201):
        xt = Tensor(x, requires_grad=True)
        loss = ad.reduce_sum(ad.mul(ad.sliding_max(xt, window), Tensor(g)))
        tracemalloc.start()
        try:
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * x.nbytes
        grads.append(xt.grad)
    np.testing.assert_array_equal(grads[1], grads[0])
    np.testing.assert_array_equal(grads[1], sliding_max_grad_oracle(x, 15, g))



def sliding_max_grad_reference(x, window, g):
    """The gradient of sum(g * sliding_max(x)) by a scan of every window
    offset, as the backward pass once took it: each output's first maximum
    in row-major order is the lowest offset of the padded window equal to
    it, and a NaN window, equal nowhere, sends its gradient to offset 0."""
    n, c, h, w = x.shape
    r = min(window // 2, max(h, w) - 1)
    window = 2 * r + 1
    out = ad.sliding_max(Tensor(x), window).data
    xp = np.full((n, c, h + 2 * r, w + 2 * r), -np.inf)
    xp[:, :, r : r + h, r : r + w] = x
    first = np.zeros(out.shape, dtype=np.intp)
    for o in range(window * window - 1, -1, -1):
        i, j = divmod(o, window)
        first[xp[:, :, i : i + h, j : j + w] == out] = o
    hp, wp = xp.shape[2:]
    corner = (np.arange(n * c).reshape(n, c, 1, 1) * hp + np.arange(h)[:, None]) * wp
    offsets = (np.arange(window)[:, None] * wp + np.arange(window)).ravel()
    src = corner + np.arange(w) + offsets[first]
    gp = np.bincount(src.ravel(), weights=g.ravel(), minlength=xp.size)
    return gp.reshape(xp.shape)[:, :, r : r + h, r : r + w]


@pytest.mark.parametrize("shape", [(1, 3, 64, 64), (2, 3, 17, 23), (1, 1, 1, 5), (1, 2, 3, 1)])
@pytest.mark.parametrize("window", [1, 3, 5, 7, 15, 31, 201])
def test_sliding_max_gradient_matches_the_window_scan(rng, shape, window):
    """The separable first-maximum search gives the window scan's gradient
    bit for bit, signs of zero included, on values rounded to halves (ties
    in most windows) and on a map holding one NaN."""
    ties = np.round(rng.normal(size=shape) * 2) / 2
    with_nan = ties.copy()
    with_nan.flat[rng.integers(ties.size)] = np.nan
    g = np.round(rng.normal(size=shape) * 2) / 2 * np.sign(rng.normal(size=shape))
    for x in (ties, with_nan):
        xt = Tensor(x, requires_grad=True)
        backward(ad.reduce_sum(ad.mul(ad.sliding_max(xt, window), Tensor(g))))
        want = sliding_max_grad_reference(x, window, g)
        np.testing.assert_array_equal(xt.grad, want)
        np.testing.assert_array_equal(np.signbit(xt.grad), np.signbit(want))


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


def channels_oracle(x, lo, hi):
    """Scalar-loop copy of channels lo..hi-1."""
    n, _, h, w = x.shape
    out = np.zeros((n, hi - lo, h, w))
    for idx in np.ndindex(out.shape):
        out[idx] = x[idx[0], lo + idx[1], idx[2], idx[3]]
    return out


def channels_grad_oracle(shape, lo, g):
    """Scalar-loop gradient of sum(g * channels(x, lo, hi)) w.r.t. x."""
    gx = np.zeros(shape)
    for idx in np.ndindex(g.shape):
        gx[idx[0], lo + idx[1], idx[2], idx[3]] += g[idx]
    return gx


@pytest.mark.parametrize(
    "shape, lo, hi", [((1, 6, 4, 5), 0, 3), ((2, 12, 3, 3), 6, 12), ((1, 3, 2, 7), 1, 2)]
)
def test_channels_match_loop_oracle(rng, shape, lo, hi):
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    out = ad.channels(x, lo, hi)
    np.testing.assert_array_equal(out.data, channels_oracle(x.data, lo, hi))
    g = rng.normal(size=out.data.shape)
    backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
    np.testing.assert_array_equal(x.grad, channels_grad_oracle(shape, lo, g))
    assert dict(primitive_checks())["channels"] < TOLERANCE


@pytest.mark.parametrize("lo, hi", [(2, 2), (-1, 2), (0, 4)])
def test_channels_rejects_empty_or_outside_ranges(rng, lo, hi):
    with pytest.raises(ShapeError):
        ad.channels(Tensor(rng.normal(size=(1, 3, 2, 2))), lo, hi)


def _channel_grads(rng, slices):
    """The gradient of an interior (n, 4, h, w) node read only through
    ``channels`` at ``slices``, each slice's gradient holding -0.0 entries;
    and those gradients."""
    x = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
    y = ad.mul(x, Tensor(np.ones(x.data.shape)))
    gs = [np.round(rng.normal(size=(2, hi - lo, 3, 3))) * -1.0 for lo, hi in slices]
    assert all(np.any((g == 0) & np.signbit(g)) for g in gs)
    loss = ad.reduce_sum(ad.mul(ad.channels(y, *slices[0]), Tensor(gs[0])))
    for (lo, hi), g in zip(slices[1:], gs[1:]):
        loss = ad.add(loss, ad.reduce_sum(ad.mul(ad.channels(y, lo, hi), Tensor(g))))
    backward(loss)
    return x.grad, gs


def test_channels_lone_slice_keeps_its_signed_zeros(rng):
    """A slice that is its tensor's only gradient reads as the zero map that
    holds it, -0.0 included."""
    grad, (g,) = _channel_grads(rng, [(1, 3)])
    want = np.zeros(grad.shape)
    want[:, 1:3] = g
    np.testing.assert_array_equal(grad, want)
    np.testing.assert_array_equal(np.signbit(grad), np.signbit(want))


def test_channels_slices_of_one_tensor_sum_as_zero_maps(rng):
    """Two slices of one tensor give 0 + g on each, as the sum of their two
    zero maps does: no -0.0 is left."""
    grad, (g0, g1) = _channel_grads(rng, [(2, 4), (0, 2)])
    np.testing.assert_array_equal(grad, np.concatenate([0.0 + g1, 0.0 + g0], axis=1))
    assert not np.signbit(grad[grad == 0]).any()


def test_stacked_cell_node_backward_makes_one_zero_map(rng, monkeypatch):
    """A derived cell's stacked node, (1, 12, 64, 64) at width 6, gets its
    two edges' gradients in one zero map: three stacked nodes, three maps."""
    kinds = [lookup_op(name) for name in DEFAULT_SCENE_OPS]
    cell = DiscreteCell(6, kinds, rng)
    x = Tensor(rng.normal(size=(1, 6, 64, 64)), requires_grad=True)
    loss = ad.reduce_l2sq(cell.forward(x))
    made = []
    zeros = np.zeros

    def counting_zeros(shape, *args, **kwargs):
        made.append(tuple(np.atleast_1d(shape)))
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", counting_zeros)
    backward(loss)
    monkeypatch.undo()
    assert made.count((1, 12, 64, 64)) == 3


def test_fanin_never_writes_into_a_yielded_array(rng):
    """A backward that yields one array to two parents, then a third
    contribution to one of them: the array keeps its values."""
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    p, q = ad.mul(x, Tensor(2.0)), ad.mul(x, Tensor(3.0))
    shared = rng.normal(size=(3, 4))
    kept = shared.copy()

    def bw(g):
        yield p, shared
        yield q, shared

    both = ad._make(p.data + q.data, (p, q), bw)
    backward(ad.add(ad.reduce_sum(both), ad.reduce_sum(p)))
    np.testing.assert_array_equal(shared, kept)
    np.testing.assert_array_equal(x.grad, 2.0 * (shared + 1.0) + 3.0 * shared)


def test_fill_keeps_only_taped_parts_as_parents(rng):
    """Parts filled one call at a time give concat's values and gradients,
    and an untaped part, or any part under no_grad, is not kept."""
    a = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 1, 3, 4)))
    c = Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True)
    out = Tensor(np.empty((2, 6, 3, 4)))
    for part, lo in ((c, 3), (a, 0), (b, 2)):
        assert ad.fill(out, [part], lo) is out
    want = np.concatenate([a.data, b.data, c.data], axis=1)
    np.testing.assert_array_equal(out.data, want)
    np.testing.assert_array_equal(ad.concat([a, b, c]).data, want)
    assert out._parents == (c, a)
    g = rng.normal(size=want.shape)
    backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
    np.testing.assert_array_equal(a.grad, g[:, :2])
    np.testing.assert_array_equal(c.grad, g[:, 3:])
    with ad.no_grad():
        untaped = ad.concat([a, b, c])
    assert untaped._parents == () and untaped._backward is None
    with pytest.raises(ShapeError):
        ad.fill(Tensor(np.empty((2, 6, 3, 4))), [a], 5)


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


@pytest.mark.parametrize(
    "op",
    [
        lambda t: ad.reduce_sum(ad.relu(t)),
        lambda t: ad.reduce_sum(ad.clamp(t, -0.5, 0.5)),
        lambda t: ad.reduce_sum(ad.absolute(t)),
        ad.reduce_l1,
    ],
    ids=["relu", "clamp", "absolute", "reduce_l1"],
)
def test_masks_are_those_of_the_forward_input(rng, op):
    """An optimizer step rebinds a parameter's data between a forward pass
    and a later backward (the one-step hypergradient does); the gradient
    still follows the input the forward pass saw."""
    data = rng.choice([-1.0, 1.0], size=(2, 3)) * rng.uniform(0.2, 1.0, (2, 3))
    want = Parameter(data.copy(), "want")
    backward(op(want))
    p = Parameter(data.copy(), "p")
    loss = op(p)
    p.data = p.data + 1.0  # moves every sign and most clamp masks
    backward(loss)
    np.testing.assert_array_equal(p.grad, want.grad)
    assert np.any(want.grad != 0)


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
