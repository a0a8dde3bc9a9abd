"""Minimal reverse-mode automatic differentiation on numpy arrays.

Tensors record the primitives applied to them; ``backward`` on a scalar
loss replays the tape in reverse topological order, accumulating adjoints
additively at fan-in nodes.  ``backward(loss, wrt=params)`` differentiates
only into ``params``: every tape node that no requested tensor reaches reads
as a constant for that pass, so the gradients nothing requested depends on
(a conv weight gradient, say) are never computed.

Only the primitives needed by the unrolled enhancement models live here:
convolution (plain and dilated, stride 1, "same" zero padding), depthwise
1-D correlation with a fixed kernel, elementwise arithmetic, sliding spatial
max, softmax, reductions, and a momentum-SGD optimizer.
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


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode AD."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A trainable tensor with a unique name path inside its model."""

    __slots__ = ("name",)

    def __init__(self, data, name=""):
        super().__init__(data, requires_grad=True)
        self.name = name


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data, parents, backward_fn):
    """Build an op output; backward_fn(g) yields (parent, contribution) pairs."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
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


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0

    def bw(g):
        yield a, g * mask

    return _make(a.data * mask, (a,), bw)


def clamp(a, lo, hi):
    """Clip to [lo, hi]; gradient passes through inside the interval."""
    a = _as_tensor(a)
    mask = (a.data >= lo) & (a.data <= hi)

    def bw(g):
        yield a, g * mask

    return _make(np.clip(a.data, lo, hi), (a,), bw)


def absolute(a):
    a = _as_tensor(a)
    s = np.sign(a.data)  # subgradient 0 at 0

    def bw(g):
        yield a, g * s

    return _make(np.abs(a.data), (a,), bw)


# ---------------------------------------------------------------------------
# structural primitives


def concat(tensors, axis=1):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]

    def bw(g):
        offs = np.cumsum([0] + sizes)
        for t, lo, hi in zip(tensors, offs[:-1], offs[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            yield t, g[tuple(sl)]

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


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
    row-major order.
    """
    a = _as_tensor(a)
    if window % 2 == 0 or window < 1:
        raise ConfigError(f"window must be odd and positive, got {window}")
    if a.data.ndim != 4 or a.data.shape[2] == 0 or a.data.shape[3] == 0:
        raise ShapeError(f"expected nonempty 4-d input, got shape {a.data.shape}")
    r = window // 2
    n, c, h, w = a.data.shape
    xp = np.full((n, c, h + 2 * r, w + 2 * r), -np.inf)
    xp[:, :, r : r + h, r : r + w] = a.data
    shifts = [xp[:, :, i : i + h, j : j + w] for i in range(window) for j in range(window)]
    out_data = shifts[0].copy()
    for s in shifts[1:]:
        np.maximum(out_data, s, out=out_data)

    def bw(g):
        first = np.zeros(out_data.shape, dtype=np.intp)
        for o in range(len(shifts) - 1, -1, -1):
            first[shifts[o] == out_data] = o
        # flat index into ``xp`` of each output's first maximum; bincount
        # adds the outputs' gradients in their row-major order, as a loop
        # over outputs would
        hp, wp = xp.shape[2:]
        corner = (np.arange(n * c).reshape(n, c, 1, 1) * hp + np.arange(h)[:, None]) * wp
        offsets = (np.arange(window)[:, None] * wp + np.arange(window)).ravel()
        src = corner + np.arange(w) + offsets[first]
        gp = np.bincount(src.ravel(), weights=g.ravel(), minlength=xp.size)
        yield a, gp.reshape(xp.shape)[:, :, r : r + h, r : r + w]

    return _make(out_data, (a,), bw)


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
#   - every band is a whole number of BAND_ALIGN-pixel blocks: GEMM kernels
#     compute output pixels in register blocks of up to 16, and the partial
#     block at the end of a product is summed by other code;
#   - the dot products are at most BAND_MAX_DEPTH long: a large product
#     splits them into blocks (384 long in OpenBLAS's AVX-512 kernels) that
#     the small-matrix kernel a band takes does not split.
# A conv that misses either condition takes one matmul.
BAND_MIN_BYTES = 1 << 20
BAND_BYTES = 256 << 10
BAND_ALIGN = 16
BAND_MAX_DEPTH = 384


def _band_rows(n, c, k, h, w):
    """Output rows per column band of a conv; ``h`` means one band."""
    depth = c * k * k
    row_bytes = n * depth * w * 8
    if (
        k == 1
        or row_bytes * h <= BAND_MIN_BYTES
        or depth > BAND_MAX_DEPTH
        or h * w % BAND_ALIGN
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


def _band_columns(xp, k, dilation, lo, rows, w):
    """The (n, c*k*k, rows*w) columns of output rows lo..lo+rows.

    ``xp`` is the input padded for a "same" k x k kernel, a fresh C-ordered
    array when k > 1.  Row (ci, i, j) holds the input shifted by
    (i, j) * dilation, so a convolution is one matmul against it
    (Chellapilla, Puri & Simard 2006).
    """
    n, c = xp.shape[:2]
    if k == 1:
        return xp[:, :, lo : lo + rows].reshape(n, c, rows * w)
    # a view of ``xp``'s buffer whose (i, j) slab is the padded input shifted
    # by (i, j) * dilation (NumPy checks it stays inside the buffer); the
    # reshape is the one copy
    sn, sc, sh, sw = xp.strides
    view = np.ndarray(
        (n, c, k, k, rows, w),
        xp.dtype,
        xp,
        lo * sh,
        (sn, sc, sh * dilation, sw * dilation, sh, sw),
    )
    return view.reshape(n, c * k * k, rows * w)


def _columns(xd, k, dilation):
    """The (n, c*k*k, h*w) column matrix of the whole of ``xd``.

    The columns are rebuilt for the weight gradient rather than kept on the
    tape, where they would hold k*k copies of every conv input until backward.
    """
    h, w = xd.shape[2:]
    return _band_columns(_padded(xd, dilation * (k - 1) // 2), k, dilation, 0, h, w)


def _raw_conv(xd, wd, dilation, bias=None):
    """Convolution of ``xd`` with ``wd`` plus ``bias``, one column band at a
    time; the bias is added to each band while it is still in cache."""
    n, c, h, w = xd.shape
    o, _, k, _ = wd.shape
    wm = wd.reshape(o, -1)
    xp = _padded(xd, dilation * (k - 1) // 2)
    out = np.empty((n, o, h, w))
    step = _band_rows(n, c, k, h, w)
    for lo in range(0, h, step):
        rows = min(step, h - lo)
        band = out[:, :, lo : lo + rows].reshape(n, o, rows * w)
        np.matmul(wm, _band_columns(xp, k, dilation, lo, rows, w), out=band)
        if bias is not None:
            band += bias[:, None]
    return out


def _raw_conv_wgrad(xd, go, k, dilation):
    n, c, h, w = xd.shape
    o = go.shape[1]
    cols = _columns(xd, k, dilation).transpose(1, 0, 2).reshape(c * k * k, n * h * w)
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
    s = np.sign(a.data)

    def bw(g):
        yield a, float(g) * s

    return _make(np.abs(a.data).sum(), (a,), bw)


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

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    # parents come before their children in topo, so one forward walk marks
    # every node that a requested tensor reaches; the rest are constants
    constants = []
    if wrt is not None:
        marked = {id(t) for t in wrt}
        for node in topo:
            if id(node) in marked or any(id(p) in marked for p in node._parents):
                marked.add(id(node))
            else:
                constants.append(node)
        if id(loss) not in marked:
            return
    for node in constants:
        node.requires_grad = False
    try:
        # adjoints of interior nodes live in a per-pass map; only leaves
        # (tensors created by the user) accumulate into .grad
        adjoint = {id(loss): np.ones((), dtype=np.float64)}
        for node in reversed(topo):
            g = adjoint.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.grad = np.array(g, copy=True) if node.grad is None else node.grad + g
                continue
            for parent, contrib in node._backward(g):
                if not parent.requires_grad:
                    continue
                if parent._backward is None:
                    parent.grad = (
                        np.array(contrib, copy=True)
                        if parent.grad is None
                        else parent.grad + contrib
                    )
                elif id(parent) in adjoint:
                    adjoint[id(parent)] = adjoint[id(parent)] + contrib
                else:
                    adjoint[id(parent)] = np.asarray(contrib, dtype=np.float64)
    finally:
        for node in constants:
            node.requires_grad = True


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
        self.zero_grad()
        backward(loss, wrt=self.params)
        for p in self.params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
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
