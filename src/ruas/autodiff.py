"""Minimal reverse-mode automatic differentiation on numpy arrays.

Tensors record the primitives applied to them; ``backward`` on a scalar
loss replays the tape in reverse topological order, accumulating adjoints
additively at fan-in nodes.  ``backward(loss, wrt=params)`` differentiates
only into ``params``: every tape node that no requested tensor reaches reads
as a constant for that pass, so the gradients nothing requested depends on
(a conv weight gradient, say) are never computed.

Only the primitives needed by the unrolled enhancement models live here:
convolution (plain and dilated, stride 1, "same" zero padding), depthwise
1-D correlation with a fixed kernel, elementwise arithmetic, channel slices
and fills, sliding spatial max, softmax, reductions, and a momentum-SGD
optimizer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    NumericError,
    ShapeError,
)

DIV_GUARD = 1e-12

_GRAD_ENABLED = True


class no_grad:
    """Context manager that skips tape construction inside its block."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def grad_enabled():
    """Whether ops are recorded on the tape: False inside ``no_grad``."""
    return _GRAD_ENABLED


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode AD."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None


class Parameter(Tensor):
    """A trainable tensor with a unique name path inside its model."""

    __slots__ = ("name",)

    def __init__(self, data, name=""):
        super().__init__(data, requires_grad=True)
        self.name = name


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _taped(parents):
    """Whether an op on ``parents`` is recorded on the tape."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(data, parents, backward_fn):
    """Build an op output; backward_fn(g) yields (parent, contribution) pairs."""
    out = Tensor(data)
    if _taped(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g):
        yield a, _unbroadcast(g, a.data.shape)
        yield b, _unbroadcast(g, b.data.shape)

    return _make(a.data + b.data, (a, b), bw)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g):
        yield a, _unbroadcast(g, a.data.shape)
        yield b, _unbroadcast(-g, b.data.shape)

    return _make(a.data - b.data, (a, b), bw)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g):
        yield a, _unbroadcast(g * b.data, a.data.shape)
        yield b, _unbroadcast(g * a.data, b.data.shape)

    return _make(a.data * b.data, (a, b), bw)


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if np.any(np.abs(b.data) < DIV_GUARD):
        raise DomainError(
            f"division by near-zero denominator (|b| < {DIV_GUARD}); clamp first"
        )

    def bw(g):
        yield a, _unbroadcast(g / b.data, a.data.shape)
        yield b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)

    return _make(a.data / b.data, (a, b), bw)


def neg(a):
    a = _as_tensor(a)

    def bw(g):
        yield a, -g

    return _make(-a.data, (a,), bw)


# relu, clamp, absolute and reduce_l1 compute only their value in
# the forward pass; the backward derives its mask or sign from the input
# array captured at forward time (the array, not the tensor: an optimizer
# step rebinds a parameter's ``.data``), so a pass without a tape builds
# neither


def relu(a):
    a = _as_tensor(a)
    xd = a.data

    def bw(g):
        yield a, g * (xd > 0)

    return _make(np.maximum(xd, 0.0), (a,), bw)


def clamp(a, lo, hi):
    """Clip to [lo, hi]; gradient passes through inside the interval."""
    a = _as_tensor(a)
    xd = a.data

    def bw(g):
        yield a, g * ((xd >= lo) & (xd <= hi))

    return _make(np.clip(xd, lo, hi), (a,), bw)


def absolute(a):
    a = _as_tensor(a)
    xd = a.data

    def bw(g):
        yield a, g * np.sign(xd)  # subgradient 0 at 0

    return _make(np.abs(xd), (a,), bw)


# ---------------------------------------------------------------------------
# structural primitives


class _Slots(list):
    """The backward of a tensor that ``fill`` wrote, a list of (part, lo,
    hi): each taped part's gradient is the output's at its channels."""

    def __call__(self, g):
        for part, lo, hi in self:
            yield part, g[:, lo:hi]


def fill(out, parts, lo):
    """Copy ``parts`` into the channels (axis 1) of ``out`` from ``lo`` on,
    in order, and return ``out``.

    ``out`` is a tensor of a preallocated array, ``Tensor(np.empty(shape))``,
    and its fills make it one tape node whose parents are the taped parts in
    fill order.  An untaped part is not kept, so a caller that drops it frees
    it once it is copied.
    """
    for part in parts:
        part = _as_tensor(part)
        hi = lo + part.data.shape[1]
        if out.data[:, lo:hi].shape != part.data.shape:
            raise ShapeError(
                f"no slot for shape {part.data.shape} at channel {lo} of {out.data.shape}"
            )
        out.data[:, lo:hi] = part.data
        if _taped([part]):
            if out._backward is None:
                out.requires_grad, out._backward = True, _Slots()
            out._parents += (part,)
            out._backward.append((part, lo, hi))
        lo = hi
    return out


def concat(tensors):
    """The channel (axis 1) concatenation of ``tensors``: one ``fill``."""
    tensors = [_as_tensor(t) for t in tensors]
    n, _, *rest = tensors[0].data.shape
    width = sum(t.data.shape[1] for t in tensors)
    return fill(Tensor(np.empty((n, width, *rest))), tensors, 0)


def channels(a, lo, hi):
    """Channels lo..hi-1 (axis 1) of ``a``, as a view of its data."""
    a = _as_tensor(a)
    if a.data.ndim < 2 or not 0 <= lo < hi <= a.data.shape[1]:
        raise ShapeError(f"no channels {lo}..{hi} in shape {a.data.shape}")
    shape = a.data.shape

    def bw(g):
        yield a, _ChannelSlice(g, lo, hi, shape)

    return _make(a.data[:, lo:hi], (a,), bw)


class _ChannelSlice:
    """A gradient that is ``g`` at channels lo..hi-1 of a ``shape`` array and
    zero elsewhere, as ``channels``' backward yields it: ``backward`` writes
    the slices of one tensor into one zero map."""

    __slots__ = ("g", "lo", "hi", "shape")

    def __init__(self, g, lo, hi, shape):
        self.g, self.lo, self.hi, self.shape = g, lo, hi, shape

    def add_to(self, z):
        z[:, self.lo : self.hi] += self.g
        return z


def _dense(contrib):
    """A gradient contribution as an array: a ``_ChannelSlice`` as the zero
    map it stands for."""
    if not isinstance(contrib, _ChannelSlice):
        return contrib
    z = np.zeros(contrib.shape)
    z[:, contrib.lo : contrib.hi] = contrib.g
    return z


def spatial_diff(a, axis):
    """Forward difference along a spatial axis (2 or 3), zero at the far edge."""
    a = _as_tensor(a)
    if axis not in (2, 3):
        raise ConfigError("spatial_diff supports axes 2 and 3 only")
    d = np.zeros_like(a.data)
    src = [slice(None)] * a.data.ndim
    dst = [slice(None)] * a.data.ndim
    src[axis] = slice(1, None)
    dst[axis] = slice(None, -1)
    src, dst = tuple(src), tuple(dst)
    d[dst] = a.data[src] - a.data[dst]

    def bw(g):
        gx = np.zeros_like(g)
        gx[src] += g[dst]
        gx[dst] -= g[dst]
        yield a, gx

    return _make(d, (a,), bw)


def sliding_max(a, window):
    """Per-channel sliding spatial max with an odd square window, same size.

    The gradient of each output goes to the first maximum of its window in
    row-major order.  A window wider than twice the map covers all of it
    from every pixel, so its radius is cut to ``max(h, w) - 1``.
    """
    a = _as_tensor(a)
    if window % 2 == 0 or window < 1:
        raise ConfigError(f"window must be odd and positive, got {window}")
    if a.data.ndim != 4 or a.data.shape[2] == 0 or a.data.shape[3] == 0:
        raise ShapeError(f"expected nonempty 4-d input, got shape {a.data.shape}")
    n, c, h, w = a.data.shape
    r = min(window // 2, max(h, w) - 1)
    xd = a.data
    rowmax = _running_max(xd, r, 3)
    out_data = _running_max(rowmax, r, 2)

    def bw(g):
        # an output's first maximum in row-major order lies in the first row
        # of its window whose row max is the output, at that row's first
        # column equal to its row max: a pass per window row and one per
        # window column find it, where a scan of the window takes window²
        hp, wp = h + 2 * r, w + 2 * r
        rows = _first_equal(_padded_inf(rowmax, r, 2), out_data, 2)
        cols = np.zeros((n, c, hp, w), dtype=np.intp)
        cols[:, :, r : r + h] = _first_equal(_padded_inf(xd, r, 3), rowmax, 3)
        # each output's window starts at padded row ``top``
        top = np.arange(n * c).reshape(n, c, 1, 1) * hp + np.arange(h)[:, None]
        first = cols.ravel()[(top + rows) * w + np.arange(w)] + rows * wp
        first *= out_data == out_data  # a NaN window's gradient goes to offset 0
        # bincount adds the outputs' gradients at their first maxima in the
        # outputs' row-major order, as a loop over outputs would
        src = first + top * wp + np.arange(w)
        gp = np.bincount(src.ravel(), weights=g.ravel(), minlength=n * c * hp * wp)
        yield a, gp.reshape(n, c, hp, wp)[:, :, r : r + h, r : r + w]

    return _make(out_data, (a,), bw)


def _running_max(x, r, axis):
    """The max of ``x`` over i - r..i + r along ``axis``, inside the map.

    A square window's max is a row max followed by a column max (van Herk
    1992), so a 3 x 3 window takes four maxima and no padded copy.  Shifts
    past the map edge are skipped.  ``np.maximum`` returns its second
    argument of two equal values, so the later of equal elements wins, as
    it does in a row-major walk of the window (this only shows in the sign
    of a zero).
    """
    out = x.copy()
    lead = (slice(None),) * axis
    for s in range(1, min(r, x.shape[axis] - 1) + 1):
        lo, hi = lead + (slice(None, -s),), lead + (slice(s, None),)
        np.maximum(x[lo], out[hi], out=out[hi])
        np.maximum(out[lo], x[hi], out=out[lo])
    return out


def _padded_inf(x, r, axis):
    """``x`` with ``r`` entries of -inf before and after it along ``axis``."""
    shape = list(x.shape)
    shape[axis] += 2 * r
    xp = np.full(shape, -np.inf)
    xp[(slice(None),) * axis + (slice(r, r + x.shape[axis]),)] = x
    return xp


def _first_equal(xp, m, axis):
    """The first k at which ``xp`` shifted by k along ``axis`` equals ``m``,
    for k below the window ``xp.shape[axis] - m.shape[axis] + 1``; the last
    k where none does.

    Each shift is a count, not a masked write: k is the number of shifts
    before the last at which a position has not yet found a match.
    """
    extent = m.shape[axis]
    steps = xp.shape[axis] - extent
    lead = (slice(None),) * axis
    eq = np.empty(m.shape, dtype=bool)
    found = np.zeros(m.shape, dtype=bool)
    matched = np.zeros(m.shape, dtype=np.intp)
    for k in range(steps):
        np.equal(xp[lead + (slice(k, k + extent),)], m, out=eq)
        found |= eq
        matched += found
    return steps - matched


def correlate1d(a, kernel, axis):
    """Depthwise "same" correlation of every channel with a fixed 1-D kernel.

    ``out[..., i, ...] = sum_k kernel[k] * a[..., i + k - m // 2, ...]`` along
    ``axis`` (2 or 3) for an odd kernel length m, with zeros outside the map.
    The kernel is a constant: only ``a`` receives a gradient.
    """
    a = _as_tensor(a)
    kernel = np.asarray(kernel, dtype=np.float64)
    if axis not in (2, 3):
        raise ConfigError("correlate1d supports axes 2 and 3 only")
    if kernel.ndim != 1 or kernel.size % 2 == 0:
        raise ConfigError(f"kernel must be 1-d of odd length, got shape {kernel.shape}")
    if a.data.ndim != 4 or a.data.shape[axis] == 0:
        raise ShapeError(f"expected nonempty 4-d input, got shape {a.data.shape}")

    def bw(g):
        yield a, _raw_correlate1d(g, kernel[::-1], axis)

    return _make(_raw_correlate1d(a.data, kernel, axis), (a,), bw)


def _raw_correlate1d(x, kernel, axis):
    """Sum of the kernel's shifted slices of one zero-padded copy of ``x``.

    A tap shifted by the whole axis or more reads only padding and is
    skipped, so work and memory are bounded by the map, not by the kernel.
    """
    r = kernel.size // 2
    extent = x.shape[axis]
    pad = min(r, extent - 1)
    xp = np.zeros(x.shape[:axis] + (extent + 2 * pad,) + x.shape[axis + 1 :])
    lead = (slice(None),) * axis
    xp[lead + (slice(pad, pad + extent),)] = x
    out = np.zeros_like(x)
    tap = np.empty_like(x)
    for lo in range(2 * pad + 1):
        np.multiply(xp[lead + (slice(lo, lo + extent),)], kernel[r - pad + lo], out=tap)
        out += tap
    return out


def conv2d(x, w, b=None, dilation=1):
    """Stride-1 cross-correlation with "same" zero padding.

    x: (n, c_in, h, w); w: (c_out, c_in, k, k) with k odd; b: (c_out,) or None.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if w.data.ndim != 4 or w.data.shape[2] != w.data.shape[3]:
        raise ConfigError(f"kernel must be (c_out, c_in, k, k), got {w.data.shape}")
    k = w.data.shape[2]
    if k % 2 == 0:
        raise ConfigError(f"kernel size must be odd, got {k}")
    if x.data.ndim != 4:
        raise ShapeError(f"input must be 4-d, got shape {x.data.shape}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"channel mismatch: input has {x.data.shape[1]} channels, "
            f"kernel expects {w.data.shape[1]}"
        )
    if dilation < 1:
        raise ConfigError(f"dilation must be positive, got {dilation}")
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != (w.data.shape[0],):
            raise ShapeError(
                f"bias must have shape ({w.data.shape[0]},), got {b.data.shape}"
            )

    out_data = _raw_conv(x.data, w.data, dilation, None if b is None else b.data)
    parents = [x, w] if b is None else [x, w, b]

    def bw(g):
        if x.requires_grad:
            wt = np.ascontiguousarray(w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
            yield x, _raw_conv(g, wt, dilation)
        if w.requires_grad:
            yield w, _raw_conv_wgrad(x.data, g, k, dilation)
        if b is not None and b.requires_grad:
            yield b, g.sum(axis=(0, 2, 3))

    return _make(out_data, parents, bw)


# A k x k conv (k > 1) whose column matrix is over BAND_MIN_BYTES builds and
# multiplies it one band of output rows at a time, each band's columns about
# BAND_BYTES, so that they stay in a core's L2 cache (Goto & van de Geijn
# 2008).  Smaller matrices, and 1x1 convs, whose columns are their input, take
# one matmul, where per-band calls would cost more than they save.  A band
# must not change a bit of the output, and a BLAS matmul gives each output
# entry the arithmetic of the whole-image product only when
#   - every band is a whole number of BAND_ALIGN-pixel blocks
#     (``whole_blocks``): GEMM kernels compute output pixels in register
#     blocks of up to 16, and the partial block at the end of a product is
#     summed by other code;
#   - the dot products are at most BAND_MAX_DEPTH long: a large product
#     splits them into blocks (384 long in OpenBLAS's AVX-512 kernels) that
#     the small-matrix kernel a band takes does not split.
# A conv that misses either condition takes one matmul.
BAND_MIN_BYTES = 1 << 20
BAND_BYTES = 256 << 10
BAND_ALIGN = 16
BAND_MAX_DEPTH = 384


def whole_blocks(pixels):
    """Whether a product over ``pixels`` output pixels is a whole number of
    BAND_ALIGN-pixel blocks, so that splitting it into such runs leaves
    every output bit as it was."""
    return pixels % BAND_ALIGN == 0


def _band_rows(n, c, k, h, w):
    """Output rows per column band of a conv; ``h`` means one band."""
    depth = c * k * k
    row_bytes = n * depth * w * 8
    if (
        k == 1
        or row_bytes * h <= BAND_MIN_BYTES
        or depth > BAND_MAX_DEPTH
        or not whole_blocks(h * w)
    ):
        return h
    unit = BAND_ALIGN // math.gcd(w, BAND_ALIGN)  # rows of whole pixel blocks
    return max(unit, BAND_BYTES // row_bytes // unit * unit)


def _padded(xd, r):
    """``xd`` with ``r`` zeros around each map; ``xd`` itself when r is 0."""
    if r == 0:
        return xd
    n, c, h, w = xd.shape
    xp = np.zeros((n, c, h + 2 * r, w + 2 * r))
    xp[:, :, r : r + h, r : r + w] = xd
    return xp


def _shifted(xp, k, dilation, lo, rows, w, bands=1):
    """A (bands, n, c, k, k, rows, w) view of the padded input ``xp`` whose
    [b, :, :, i, j] slab is the input of output rows lo + b * rows onwards
    shifted by (i, j) * dilation.

    ``xp`` is a fresh C-ordered array (k > 1), and NumPy checks that the
    view stays inside its buffer.
    """
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    return np.ndarray(
        (bands, n, c, k, k, rows, w),
        xp.dtype,
        xp,
        lo * sh,
        (rows * sh, sn, sc, sh * dilation, sw * dilation, sh, sw),
    )


def _band_columns(xp, k, dilation, lo, rows, w):
    """The (n, c*k*k, rows*w) columns of output rows lo..lo+rows.

    ``xp`` is the input padded for a "same" k x k kernel.  Row (ci, i, j)
    holds the input shifted by (i, j) * dilation, so a convolution is one
    matmul against it (Chellapilla, Puri & Simard 2006).
    """
    n, c = xp.shape[:2]
    if k == 1:
        return xp[:, :, lo : lo + rows].reshape(n, c, rows * w)
    # the reshape of the shifted view is the one copy
    return _shifted(xp, k, dilation, lo, rows, w)[0].reshape(n, c * k * k, rows * w)


def _raw_conv(xd, wd, dilation, bias=None):
    """Convolution of ``xd`` with ``wd`` plus ``bias``, one column band at a
    time.

    The bias is added once, to the whole output, after the last band: per
    band it would be a broadcast over ``o`` output planes h * w * 8 bytes
    apart, once per band.  The full bands read one strided view of ``xp``
    and write one view of ``out``, so each is one column copy into a reused
    buffer and one matmul.
    """
    n, c, h, w = xd.shape
    o, _, k, _ = wd.shape
    wm = wd.reshape(o, -1)
    # the output is allocated before the padded copy, which is freed on
    # return: a stacked conv's output lives on as its edges' outputs, and
    # above the hole the copy leaves it raised the heap's peak by about one
    # output in a no_grad forward
    out = np.empty((n, o, h, w))
    xp = _padded(xd, dilation * (k - 1) // 2)
    step = _band_rows(n, c, k, h, w)
    full = h // step if step < h else 0
    if full:
        bands = _shifted(xp, k, dilation, 0, step, w, full)
        out_bands = out[:, :, : full * step].reshape(n, o, full, step * w)
        cols = np.empty((n, c * k * k, step * w))
        cols_view = cols.reshape(n, c, k, k, step, w)
        for i in range(full):
            np.copyto(cols_view, bands[i])
            np.matmul(wm, cols, out=out_bands[:, :, i])
    lo = full * step
    if lo < h:  # the one matmul, or a partial last band
        rows = h - lo
        band = out[:, :, lo:].reshape(n, o, rows * w)
        np.matmul(wm, _band_columns(xp, k, dilation, lo, rows, w), out=band)
    if bias is not None:
        out += bias[:, None, None]
    return out


def _raw_conv_wgrad(xd, go, k, dilation):
    n, c, h, w = xd.shape
    o = go.shape[1]
    # the columns are rebuilt here rather than kept on the tape, where they
    # would hold k*k copies of every conv input until backward
    cols = _band_columns(_padded(xd, dilation * (k - 1) // 2), k, dilation, 0, h, w)
    cols = cols.transpose(1, 0, 2).reshape(c * k * k, n * h * w)
    # one product over batch and pixels, computed as (c*k*k, o) and returned
    # transposed so that seeded runs stay byte-identical: NumPy's sums over
    # a gradient, such as the norm SGD.step takes, follow its memory layout
    gw = np.matmul(cols, go.transpose(0, 2, 3, 1).reshape(n * h * w, o))
    return gw.T.reshape(o, c, k, k)


# ---------------------------------------------------------------------------
# softmax and reductions


def softmax(logits):
    logits = _as_tensor(logits)
    if logits.data.size == 0:
        raise ConfigError("softmax of an empty vector")
    if not np.all(np.isfinite(logits.data)):
        raise DomainError("softmax requires finite logits")
    z = logits.data - logits.data.max()
    e = np.exp(z)
    y = e / e.sum()

    def bw(g):
        yield logits, y * (g - np.dot(g.ravel(), y.ravel()))

    return _make(y, (logits,), bw)


def reduce_sum(a):
    a = _as_tensor(a)

    def bw(g):
        yield a, np.full_like(a.data, float(g))

    return _make(a.data.sum(), (a,), bw)


def reduce_mean(a):
    a = _as_tensor(a)
    n = a.data.size

    def bw(g):
        yield a, np.full_like(a.data, float(g) / n)

    return _make(a.data.mean(), (a,), bw)


def reduce_l1(a):
    a = _as_tensor(a)
    xd = a.data

    def bw(g):
        yield a, float(g) * np.sign(xd)

    return _make(np.abs(xd).sum(), (a,), bw)


def reduce_l2sq(a):
    a = _as_tensor(a)

    def bw(g):
        yield a, 2.0 * float(g) * a.data

    return _make((a.data * a.data).sum(), (a,), bw)


REDUCERS = {
    "sum": reduce_sum,
    "mean": reduce_mean,
    "l1": reduce_l1,
    "l2sq": reduce_l2sq,
}


def reduce(op, a):
    if op not in REDUCERS:
        raise ConfigError(f"unknown reduction {op!r}; expected one of {sorted(REDUCERS)}")
    return REDUCERS[op](a)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss, wrt=None):
    """Populate adjoints of every requires_grad ancestor of a scalar loss.

    With ``wrt`` (an iterable of tensors), only those leaves receive a
    ``.grad``: a node on no path from a ``wrt`` tensor to the loss reads as a
    constant for this pass, so the primitives skip the gradients no requested
    leaf depends on, such as the weight gradient of a convolution whose
    weight is not requested.  The values that are computed are the ones a
    full pass computes.  Repeated calls without clearing gradients
    accumulate additively.
    """
    if loss.data.ndim != 0:
        raise ContractError(
            f"backward expects a scalar loss, got shape {loss.data.shape}"
        )
    if not loss.requires_grad:
        return

    # a depth-first walk that appends each node after its parents; a None
    # on the stack stands above a node whose parents are all appended
    topo = []
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if node is None:
            topo.append(stack.pop())
            continue
        if node in seen or not node.requires_grad:
            continue
        seen.add(node)
        stack += (node, None)
        stack += node._parents

    # parents come before their children in topo, so one forward walk marks
    # every node that a requested tensor reaches; the rest are constants
    constants = []
    if wrt is not None:
        marked = set(wrt)
        for node in topo:
            if node in marked or not marked.isdisjoint(node._parents):
                marked.add(node)
            else:
                constants.append(node)
        if loss not in marked:
            return
    for node in constants:
        node.requires_grad = False
    try:
        # adjoints of interior nodes live in a per-pass map; only leaves
        # (tensors created by the user) accumulate into .grad.  A fan-in
        # adds in place into an adjoint this pass allocated (``owned``),
        # never into an array a backward closure yielded, which may be
        # another node's too; the sums are the ones a new array per sum
        # would hold (Griewank & Walther 2008, "Evaluating Derivatives")
        adjoint = {loss: np.ones((), dtype=np.float64)}
        owned = set()
        for node in reversed(topo):
            g = adjoint.pop(node, None)
            if g is None:
                continue
            g = _dense(g)
            if node._backward is None:
                node.grad = np.array(g, copy=True) if node.grad is None else node.grad + g
                continue
            for parent, contrib in node._backward(g):
                if not parent.requires_grad:
                    continue
                if parent._backward is None:
                    contrib = _dense(contrib)
                    parent.grad = (
                        np.array(contrib, copy=True)
                        if parent.grad is None
                        else parent.grad + contrib
                    )
                    continue
                cur = adjoint.get(parent)
                if cur is None:
                    if not isinstance(contrib, _ChannelSlice):
                        contrib = np.asarray(contrib, dtype=np.float64)
                    adjoint[parent] = contrib
                elif _disjoint_slices(cur, contrib):
                    # two slices: each is 0 + g in one zero map, as the sum
                    # of their two zero maps would hold it
                    adjoint[parent] = contrib.add_to(cur.add_to(np.zeros(cur.shape)))
                    owned.add(parent)
                else:
                    if parent in owned:
                        cur += _dense(contrib)  # a 0-d sum is a NumPy scalar: rebound
                    else:
                        cur = _dense(cur) + _dense(contrib)
                        owned.add(parent)
                    adjoint[parent] = cur
    finally:
        for node in constants:
            node.requires_grad = True


def _disjoint_slices(a, b):
    """Whether ``a`` and ``b`` are ``_ChannelSlice``s of disjoint channels."""
    return (
        isinstance(a, _ChannelSlice)
        and isinstance(b, _ChannelSlice)
        and (a.hi <= b.lo or b.hi <= a.lo)
    )


def gradients(loss, params):
    """The gradients of ``loss`` w.r.t. ``params`` alone, one array per
    parameter, which is also its new ``.grad``: the old ones are cleared
    first, and a parameter off every gradient path gets zeros."""
    for p in params:
        p.grad = None
    backward(loss, wrt=params)
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
    return [p.grad for p in params]


# ---------------------------------------------------------------------------
# optimizer and gradient checking


class SGD:
    """Momentum SGD with classic (coupled) weight decay.

    v <- momentum * v + (grad + weight_decay * param)
    param <- param - lr * v ; gradients are cleared after the step.

    With ``clip_norm`` set, the joint gradient vector is rescaled to that
    l2 norm when it exceeds it (before momentum).  The losses here are
    pixel sums, so raw gradient magnitudes scale with image area; clipping
    keeps one bad batch from throwing the iterate into a clamped region
    where the gradient dies.  A non-finite gradient norm raises
    ``NumericError`` and leaves the weights as they were, clip or not.
    """

    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0, clip_norm=None):
        if lr < 0:
            raise ConfigError("learning rate must be nonnegative")
        if not (0.0 <= momentum < 1.0):
            raise ConfigError("momentum must lie in [0, 1)")
        if weight_decay < 0:
            raise ConfigError("weight decay must be nonnegative")
        if clip_norm is not None and clip_norm <= 0:
            raise ConfigError("clip_norm must be positive")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p in self.params:
            if p.grad is None:
                name = getattr(p, "name", "<unnamed>")
                raise ContractError(
                    f"parameter {name} has no gradient; run backward first"
                )
        total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in self.params))
        if not np.isfinite(total):
            raise NumericError(f"non-finite gradient norm {total}; no step taken")
        if self.clip_norm is not None and total > self.clip_norm:
            scale = self.clip_norm / total
            for p in self.params:
                p.grad = p.grad * scale
        for p, v in zip(self.params, self._velocity):
            v *= self.momentum
            v += p.grad + self.weight_decay * p.data
            p.data = p.data - self.lr * v
        self.zero_grad()

    def backward_step(self, loss):
        """Clear the gradients, back-propagate ``loss``, then step.

        A parameter off every gradient path of ``loss`` (an operator behind a
        dead ReLU, say) steps on a zero gradient: weight decay and momentum
        only.
        """
        gradients(loss, self.params)
        self.step()

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def grad_check(f, x, h=1e-4):
    """Max relative error between analytic and central-difference gradients.

    The error is |analytic - numeric| / max(1, |numeric|), maximized over
    the coordinates of ``x``.
    """
    x.grad = None
    backward(f(x))
    analytic = np.array(x.grad, copy=True)

    numeric = np.zeros_like(x.data)
    flat = x.data.ravel()
    nflat = numeric.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x).data)
        flat[i] = orig - h
        fm = float(f(x).data)
        flat[i] = orig
        nflat[i] = (fp - fm) / (2 * h)

    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
