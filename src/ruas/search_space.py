"""Candidate operator registry and the 5-node distillation cell, whose
edges hold every search candidate (the softmax-mixed supernet) or one
operator each (the derived cell).

The cell is a DAG: node 0 is the input, nodes 1..4 are produced by chain
edges (i, i+1), and nodes 0..2 additionally feed the output node through
distill edges (i, 4).  The output node concatenates the three distill
results with the chain input to node 4 and fuses them back to the cell
width with a fixed (non-searched) 1x1 convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class OpKind:
    name: str
    kernel: int  # 0 for skip
    dilation: int
    residual: bool
    skip: bool = False

    def __str__(self):
        return self.name


def _conv(name, k, d=1, residual=False):
    return OpKind(name, k, d, residual)


SKIP = OpKind("SC", 0, 1, False, skip=True)

# full operator table, in table order
ALL_OPS = (
    _conv("1-C", 1),
    _conv("3-C", 3),
    _conv("5-C", 5),
    _conv("7-C", 7),
    _conv("1-RC", 1, residual=True),
    _conv("3-RC", 3, residual=True),
    _conv("3-2-DC", 3, 2),
    _conv("3-6-DC", 3, 6),
    _conv("3-12-DC", 3, 12),
    _conv("3-18-DC", 3, 18),
    _conv("5-2-DC", 5, 2),
    _conv("7-2-DC", 7, 2),
    _conv("3-2-RDC", 3, 2, residual=True),
    SKIP,
)

OPS_BY_NAME = {op.name: op for op in ALL_OPS}


def lookup_op(name):
    """The table operator called ``name``."""
    try:
        return OPS_BY_NAME[name]
    except (KeyError, TypeError):
        known = ", ".join(OPS_BY_NAME)
        raise ConfigError(f"unknown operator {name!r}; known: {known}") from None


# the candidates of every searched edge, in the scene and the task cell alike
SEARCH_OPS = tuple(
    lookup_op(n) for n in ("1-C", "3-C", "1-RC", "3-RC", "3-2-DC", "3-2-RDC", "SC")
)


def init_conv_weights(c_out, c_in, k, rng, name):
    """Uniform +/- 1/sqrt(fan_in) weights, zero bias."""
    bound = 1.0 / np.sqrt(c_in * k * k)
    w = Parameter(rng.uniform(-bound, bound, size=(c_out, c_in, k, k)), f"{name}.weight")
    b = Parameter(np.zeros(c_out), f"{name}.bias")
    return w, b


def make_op_params(kind, width, rng, name):
    """Parameters for one candidate operator; skip connections have none."""
    if kind.skip:
        return {}
    w, b = init_conv_weights(width, width, kind.kernel, rng, name)
    return {"weight": w, "bias": b}


def _op_weight(kind, params):
    """The conv weight of operator ``kind``, checked against its kernel size."""
    if "weight" not in params:
        raise ConfigError(f"operator {kind.name} requires conv weights")
    w = params["weight"]
    if w.data.ndim != 4 or w.data.shape[2:] != (kind.kernel, kind.kernel):
        raise ConfigError(
            f"weights of shape {w.data.shape} do not match operator {kind.name}"
        )
    return w


def _check_residual(kind, c_in, c_out):
    if kind.residual and c_in != c_out:
        raise ShapeError("residual operator requires c_in == c_out")


def apply_op(kind, x, params):
    """Run one candidate operator.

    Every convolutional candidate is followed by ReLU; residual variants add
    their input afterwards so the edge output is not sign-constrained.
    """
    if kind.skip:
        return x
    w = _op_weight(kind, params)
    y = ad.relu(ad.conv2d(x, w, params.get("bias"), dilation=kind.dilation))
    if kind.residual:
        _check_residual(kind, x.data.shape[1], w.data.shape[0])
        y = ad.add(y, x)
    return y


def mixed_forward(x, edge_logits, edge_weights, registry):
    """Softmax-weighted sum of every candidate operator on one edge.

    This is DARTS's continuous relaxation (Liu et al. 2019) as one tape
    node.  The conv candidates are grouped by (kernel, dilation): a group
    builds the input columns once and runs one matmul against its
    candidates' kernels stacked along the output channels, and its backward
    pass is one weight-gradient product and one input-gradient convolution.
    Each candidate is ``apply_op``'s operator, summed in registry order.
    """
    if edge_logits.data.shape != (len(registry),):
        raise ConfigError(
            f"expected {len(registry)} logits, got shape {edge_logits.data.shape}"
        )
    if x.data.ndim != 4:
        raise ShapeError(f"input must be 4-d, got shape {x.data.shape}")
    mix = ad.softmax(edge_logits)
    xd = x.data
    n, c, h, w = xd.shape

    # (kernel, dilation) -> [(registry index, weight, bias, rows in the group)]
    groups = {}
    parents = [x, mix]
    for i, kind in enumerate(registry):
        if kind.skip:
            continue
        wt = _op_weight(kind, edge_weights[i])
        o = wt.data.shape[0]
        if wt.data.shape[1] != c:
            raise ShapeError(
                f"channel mismatch: input has {c} channels, "
                f"operator {kind.name} expects {wt.data.shape[1]}"
            )
        _check_residual(kind, c, o)
        b = edge_weights[i].get("bias")
        if b is not None and b.data.shape != (o,):
            raise ShapeError(f"bias must have shape ({o},), got {b.data.shape}")
        members = groups.setdefault((kind.kernel, kind.dilation), [])
        lo = members[-1][3].stop if members else 0
        members.append((i, wt, b, slice(lo, lo + o)))
        parents += [wt] if b is None else [wt, b]

    outs = [xd] * len(registry)  # a skip candidate outputs its input
    masks = {}
    for (k, dil), members in groups.items():
        stacked = np.concatenate([wt.data.reshape(-1, c * k * k) for _, wt, *_ in members])
        y = np.matmul(stacked, ad._columns(xd, k, dil)).reshape(n, -1, h, w)
        for i, _, b, rows in members:
            pre = y[:, rows] if b is None else y[:, rows] + b.data[None, :, None, None]
            masks[i] = pre > 0
            outs[i] = pre * masks[i]
            if registry[i].residual:
                outs[i] = outs[i] + xd
    if len({o.shape for o in outs}) > 1:
        raise ShapeError("mixed edge candidates disagree on output channels")

    m = mix.data
    out = None
    for i, o in enumerate(outs):
        term = o * m[i]
        out = term if out is None else out + term

    def bw(g):
        if mix.requires_grad:
            yield mix, np.array([np.vdot(g, o) for o in outs])
        if x.requires_grad:
            # skip and residual candidates pass g * m_i straight to the input
            direct = [m[i] for i, kind in enumerate(registry) if kind.skip or kind.residual]
            gx = g * sum(direct)
        for (k, dil), members in groups.items():
            # gradient at the group's pre-activations, stacked like its output
            gpre = np.empty((n, members[-1][3].stop, h, w))
            for i, _, b, rows in members:
                np.multiply(g * m[i], masks[i], out=gpre[:, rows])
                if b is not None and b.requires_grad:
                    yield b, gpre[:, rows].sum(axis=(0, 2, 3))
            if any(wt.requires_grad for _, wt, *_ in members):
                gw = ad._raw_conv_wgrad(xd, gpre, k, dil)
                for _, wt, _, rows in members:
                    if wt.requires_grad:
                        yield wt, gw[rows]
            if x.requires_grad:
                flipped = np.concatenate(
                    [wt.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3) for _, wt, *_ in members],
                    axis=1,
                )
                gx = gx + ad._raw_conv(gpre, flipped, dil)
        if x.requires_grad:
            yield x, gx

    return ad._make(out, parents, bw)


@dataclass(frozen=True)
class CellSpec:
    width: int
    node_count: int = 5

    @property
    def chain_edges(self):
        return [(i, i + 1) for i in range(self.node_count - 1)]

    @property
    def distill_edges(self):
        return [(i, self.node_count - 1) for i in range(self.node_count - 2)]

    @property
    def edges(self):
        return self.chain_edges + self.distill_edges


class ArchParams:
    """Per-edge operator logits for one searchable cell."""

    def __init__(self, spec, rng=None, init_scale=1e-3, name="alpha"):
        self.spec = spec
        n = len(SEARCH_OPS)
        self.logits = []
        for e, (i, j) in enumerate(spec.edges):
            init = np.zeros(n) if rng is None else rng.normal(0.0, init_scale, n)
            self.logits.append(Parameter(init, f"{name}.edge{e}_{i}to{j}"))

    def parameters(self):
        return list(self.logits)

    def mixture_weights(self):
        return [np.asarray(ad.softmax(l).data) for l in self.logits]


def discretize(arch):
    """Argmax operator per edge; ties break toward the lowest candidate index."""
    choices = []
    for logits in arch.logits:
        if not np.all(np.isfinite(logits.data)):
            raise ConfigError("cannot discretize non-finite logits")
        choices.append(SEARCH_OPS[int(np.argmax(logits.data))])
    return choices


class Cell:
    """The cell; each edge holds one or several candidate operators.

    ``forward(x, arch)`` mixes every edge's candidates under ``arch``'s
    logits (search); ``forward(x)`` runs each edge's single candidate (the
    derived cell).  Every candidate has its own parameters.
    """

    def __init__(self, spec, edge_ops, rng, name="cell", fusion_init="random"):
        if len(edge_ops) != len(spec.edges):
            raise ConfigError(
                f"need {len(spec.edges)} operator choices, got {len(edge_ops)}"
            )
        self.spec = spec
        self.edge_ops = list(edge_ops)
        self.edge_params = [
            [
                make_op_params(kind, spec.width, rng, f"{name}.edge{e}.{kind.name}")
                for kind in ops
            ]
            for e, ops in enumerate(self.edge_ops)
        ]
        self.fusion_w, self.fusion_b = init_conv_weights(
            spec.width, 4 * spec.width, 1, rng, f"{name}.fusion"
        )
        # a zeroed fusion makes the whole cell start as a zero correction, so
        # the unrolled illumination stays near its local-max warm start until
        # training moves it; a random fusion can knock t into the clamp floor
        # on the first forward pass, where the gradient is dead
        if fusion_init == "zeros":
            self.fusion_w.data = np.zeros_like(self.fusion_w.data)
        elif fusion_init != "random":
            raise ConfigError(f"unknown fusion_init {fusion_init!r}")

    def parameters(self):
        out = [p for per_op in self.edge_params for ps in per_op for p in ps.values()]
        return out + [self.fusion_w, self.fusion_b]

    def _edge(self, e, x, arch):
        ops, params = self.edge_ops[e], self.edge_params[e]
        if arch is not None:
            return mixed_forward(x, arch.logits[e], params, ops)
        if len(ops) != 1:
            raise ConfigError(f"edge {e} mixes {len(ops)} operators and needs logits")
        return apply_op(ops[0], x, params[0])

    def forward(self, x, arch=None):
        if x.data.shape[1] != self.spec.width:
            raise ShapeError(
                f"cell expects {self.spec.width} channels, got {x.data.shape[1]}"
            )
        nodes = [x]
        n_chain = len(self.spec.chain_edges)
        for e in range(n_chain):
            nodes.append(self._edge(e, nodes[e], arch))
        distill = [
            self._edge(n_chain + d, nodes[i], arch)
            for d, (i, _) in enumerate(self.spec.distill_edges)
        ]
        merged = ad.concat(distill + [nodes[-1]], axis=1)
        return ad.conv2d(merged, self.fusion_w, self.fusion_b)


class MixedCell(Cell):
    """The searchable cell: every edge holds every search candidate."""

    def __init__(self, spec, rng, name="cell", fusion_init="random"):
        super().__init__(spec, [SEARCH_OPS] * len(spec.edges), rng, name, fusion_init)


class DiscreteCell(Cell):
    """A derived cell with one fixed operator per edge."""

    def __init__(self, spec, kinds, rng, name="cell", fusion_init="random"):
        super().__init__(spec, [(kind,) for kind in kinds], rng, name, fusion_init)


def count_params(parameters):
    return int(sum(p.data.size for p in parameters))


def conv_flops(c_out, c_in, k, h, w):
    """Multiply-adds of one stride-1 same-padding convolution."""
    return h * w * c_out * c_in * k * k


def cell_flops(cell, h, w):
    """Multiply-adds of one cell forward pass, counting every candidate."""
    width = cell.spec.width
    total = conv_flops(width, 4 * width, 1, h, w)
    for ops in cell.edge_ops:
        total += sum(conv_flops(width, width, k.kernel, h, w) for k in ops if not k.skip)
    return total


def arch_dump(spec, kinds_or_arch):
    """DOT-style text, one line per edge, for reports and artifacts."""
    lines = []
    if isinstance(kinds_or_arch, ArchParams):
        arch = kinds_or_arch
        choices = discretize(arch)
        weights = arch.mixture_weights()
        for (i, j), kind, wvec in zip(spec.edges, choices, weights):
            wtxt = ",".join(f"{v:.4f}" for v in wvec)
            lines.append(f"edge {i}->{j} op={kind.name} w={wtxt}")
    else:
        for (i, j), kind in zip(spec.edges, kinds_or_arch):
            lines.append(f"edge {i}->{j} op={kind.name}")
    return "\n".join(lines) + "\n"
