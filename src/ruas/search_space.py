"""The table of the seven search candidates and the 5-node distillation
cell, whose edges hold every candidate (the softmax-mixed supernet) or one
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
    dilation: int = 1
    residual: bool = False
    skip: bool = False

    def __str__(self):
        return self.name


# the operator table: the candidates of every searched edge, in the scene and
# the task cell alike, in table order
SEARCH_OPS = (
    OpKind("1-C", 1),
    OpKind("3-C", 3),
    OpKind("1-RC", 1, residual=True),
    OpKind("3-RC", 3, residual=True),
    OpKind("3-2-DC", 3, 2),
    OpKind("3-2-RDC", 3, 2, residual=True),
    OpKind("SC", 0, skip=True),
)

OPS_BY_NAME = {op.name: op for op in SEARCH_OPS}


def lookup_op(name):
    """The table operator called ``name``."""
    try:
        return OPS_BY_NAME[name]
    except (KeyError, TypeError):
        known = ", ".join(OPS_BY_NAME)
        raise ConfigError(f"unknown operator {name!r}; known: {known}") from None


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
    return _activate(kind, x, ad.conv2d(x, w, params.get("bias"), dilation=kind.dilation))


def _activate(kind, x, pre):
    """The output of operator ``kind`` from its conv output ``pre`` on ``x``."""
    if kind.residual:
        _check_residual(kind, x.data.shape[1], pre.data.shape[1])
        return ad.relu_add(pre, x)
    return ad.relu(pre)


def _derived_edges(x, kinds, params):
    """The outputs of derived edges that all read ``x``, one per operator.

    The conv operators are grouped by (kernel, dilation), and a group of two
    or more runs one ``conv2d`` of its kernels and biases stacked along the
    output channels: one column build of ``x`` per band forward, and one
    weight-gradient product backward.  Each operator then takes its own
    channels of the stacked output through its ReLU and residual.  A lone
    conv is ``apply_op``.
    """
    outs = [x] * len(kinds)  # a skip outputs its input
    groups = {}
    for i, kind in enumerate(kinds):
        if not kind.skip:
            groups.setdefault((kind.kernel, kind.dilation), []).append(i)
    for (_, dil), members in groups.items():
        if len(members) == 1:
            i = members[0]
            outs[i] = apply_op(kinds[i], x, params[i])
            continue
        ws = [_op_weight(kinds[i], params[i]) for i in members]
        bs = [params[i]["bias"] for i in members]
        pre = ad.conv2d(x, ad.concat(ws, axis=0), ad.concat(bs, axis=0), dilation=dil)
        lo = 0
        for i, w in zip(members, ws):
            hi = lo + w.data.shape[0]
            outs[i] = _activate(kinds[i], x, ad.channels(pre, lo, hi))
            lo = hi
    return outs


def mixed_forward(x, edge_logits, edge_weights, registry):
    """Softmax-weighted sum of every candidate operator on one edge.

    This is DARTS's continuous relaxation (Liu et al. 2019) as one tape
    node.  The conv candidates are grouped by (kernel, dilation): a group
    runs one convolution of its candidates' kernels stacked along the output
    channels, which builds the input columns once per band, and its backward
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
        stacked = np.concatenate([wt.data for _, wt, *_ in members])
        y = ad._raw_conv(xd, stacked, dil)
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
    derived cell), the convs out of one node that share (kernel, dilation)
    as one stacked conv.  Every candidate has its own parameters.
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

    def _edges_from(self, edges, x, arch):
        """The outputs of ``edges``, which all read the node ``x``."""
        if arch is not None:
            return [
                mixed_forward(x, arch.logits[e], self.edge_params[e], self.edge_ops[e])
                for e in edges
            ]
        for e in edges:
            if len(self.edge_ops[e]) != 1:
                raise ConfigError(
                    f"edge {e} mixes {len(self.edge_ops[e])} operators and needs logits"
                )
        kinds = [self.edge_ops[e][0] for e in edges]
        return _derived_edges(x, kinds, [self.edge_params[e][0] for e in edges])

    def forward(self, x, arch=None):
        if x.data.shape[1] != self.spec.width:
            raise ShapeError(
                f"cell expects {self.spec.width} channels, got {x.data.shape[1]}"
            )
        # walk the source nodes in order; every edge out of node i is run
        # together, once the chain edge into node i has made it
        edges = self.spec.edges
        outs = [None] * len(edges)
        nodes = [x]
        for i in range(self.spec.node_count - 1):
            out_edges = [e for e, (src, _) in enumerate(edges) if src == i]
            for e, y in zip(out_edges, self._edges_from(out_edges, nodes[i], arch)):
                outs[e] = y
            nodes.append(outs[i])  # chain edge e = i makes node i + 1
        distill = outs[len(self.spec.chain_edges) :]
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


def arch_dump(arch):
    """DOT-style text, one line per edge of ``arch``'s cell: the derived
    operator and the mixture weights, for reports and artifacts."""
    lines = []
    for (i, j), kind, wvec in zip(arch.spec.edges, discretize(arch), arch.mixture_weights()):
        wtxt = ",".join(f"{v:.4f}" for v in wvec)
        lines.append(f"edge {i}->{j} op={kind.name} w={wtxt}")
    return "\n".join(lines) + "\n"
