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

    @property
    def reach(self):
        """Pixels past itself, per side, that an output pixel reads."""
        return 0 if self.skip else self.dilation * (self.kernel - 1) // 2


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


def mixed_forward(x, edges):
    """The outputs of cell edges that all read ``x``, stacked along channels.

    ``edges`` holds one (kinds, params, logits) triple per edge, as a
    ``Cell`` builds them: the edge's candidate operators, their parameter
    dicts from ``make_op_params`` (a (c, c, k, k) weight of the candidate's
    kernel and a (c,) bias, for ``x`` of shape (n, c, h, w)), and one logit
    per candidate, or None for a derived edge of one candidate.  The node
    checks none of this; ``Cell.forward`` checks its input and logits.

    Every conv candidate is followed by ReLU, and a residual candidate adds
    its input afterwards, so its output is not sign-constrained; a skip
    outputs its input.  An edge with logits is DARTS's continuous relaxation
    (Liu et al. 2019): the softmax-weighted sum of its candidates, in their
    order.

    This is one tape node.  The conv candidates of all the edges are grouped
    by (kernel, dilation), and a group runs one convolution of its kernels
    and biases stacked along the output channels, which builds the input
    columns once per band; its backward pass is one weight-gradient product
    and one input-gradient convolution.  ReLU and residual run in place on
    the group's output, which is the node's output when the edges are the
    derived members of one group.
    """
    xd = x.data
    n, c, h, w = xd.shape
    # (kernel, dilation) -> [(edge, candidate, weight, bias, rows in the group)]
    groups = {}
    mixes, parents = [], [x]
    for e, (kinds, params, logits) in enumerate(edges):
        mixes.append(None if logits is None else ad.softmax(logits))
        parents += [] if logits is None else [mixes[-1]]
        for i, kind in enumerate(kinds):
            if not kind.skip:
                members = groups.setdefault((kind.kernel, kind.dilation), [])
                rows = slice(len(members) * c, (len(members) + 1) * c)
                members.append((e, i, params[i]["weight"], params[i]["bias"], rows))
                parents += [params[i]["weight"], params[i]["bias"]]

    # the residual masks are taken before the input is added; a plain
    # candidate's mask is that of its output, read in backward
    taped = ad._taped(parents)
    cands = [[xd] * len(kinds) for kinds, _, _ in edges]
    masks = {}
    for (_, dil), members in groups.items():
        stacked = np.concatenate([wt.data for _, _, wt, _, _ in members])
        bias = np.concatenate([b.data for _, _, _, b, _ in members])
        y = ad._raw_conv(xd, stacked, dil, bias)
        for e, i, _, _, rows in members:
            out = y[:, rows]
            np.maximum(out, 0.0, out=out)
            if edges[e][0][i].residual:
                if taped:
                    masks[e, i] = out > 0
                out += xd
            cands[e][i] = out

    outs = [cands[e][0] for e in range(len(edges))]
    for e, mix in enumerate(mixes):
        if mix is not None:
            outs[e] = acc = cands[e][0] * mix.data[0]
            term = np.empty_like(acc)
            for o, m in zip(cands[e][1:], mix.data[1:]):
                acc += np.multiply(o, m, out=term)
    if len(outs) == 1:
        out = outs[0]
    elif all(m is None for m in mixes) and [len(m) for m in groups.values()] == [len(edges)]:
        out = y  # derived edges of one group: its output, in edge order
    else:
        out = np.concatenate(outs, axis=1)
    for e, mix in enumerate(mixes):
        if mix is None:  # hold the output, not the group's conv output
            cands[e][0] = out[:, e * c : (e + 1) * c]

    def group_grads(key, ge):
        """Yield the gradients of group ``key``'s parameters; return its
        input-gradient term."""
        k, dil = key
        members = groups[key]
        # the gradient at the group's pre-activations, stacked like its output
        gpre = np.empty((n, members[-1][4].stop, h, w))
        for e, i, _, b, rows in members:
            mask = masks[e, i] if (e, i) in masks else cands[e][i] > 0
            g = ge[e] if mixes[e] is None else ge[e] * mixes[e].data[i]
            np.multiply(g, mask, out=gpre[:, rows])
            if b.requires_grad:
                yield b, gpre[:, rows].sum(axis=(0, 2, 3))
        if any(wt.requires_grad for _, _, wt, _, _ in members):
            gw = ad._raw_conv_wgrad(xd, gpre, k, dil)
            for _, _, wt, _, rows in members:
                if wt.requires_grad:
                    yield wt, gw[rows]
        if x.requires_grad:
            flipped = np.concatenate(
                [wt.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3) for _, _, wt, _, _ in members],
                axis=1,
            )
            return ad._raw_conv(gpre, flipped, dil)

    def bw(g):
        ge = [g[:, e * c : (e + 1) * c] for e in range(len(edges))]
        for e, mix in enumerate(mixes):
            if mix is not None and mix.requires_grad:
                yield mix, np.array([np.vdot(ge[e], o) for o in cands[e]])
        # the input gradient comes in the terms, and the order, of one tape
        # node per operator: edges from last to first, each with its skip or
        # residual term, then the conv term of every group whose first member
        # it holds; a mixed edge sums its terms into one
        for e in reversed(range(len(edges))):
            kinds, mix = edges[e][0], mixes[e]
            direct = [i for i, kind in enumerate(kinds) if kind.skip or kind.residual]
            terms = []
            if x.requires_grad and (direct or mix is not None):
                terms.append(ge[e] if mix is None else ge[e] * sum(mix.data[i] for i in direct))
            for key, members in groups.items():
                if members[0][0] == e:
                    terms.append((yield from group_grads(key, ge)))
            if x.requires_grad:
                for term in terms if mix is None else [sum(terms[1:], terms[0])]:
                    yield x, term

    return ad._make(out, parents, bw)


# the cell's wiring, which its parameters, logits, fusion width and forward
# pass all read: chain edges (i, i + 1), then distill edges into the last node
NODES = 5
CHAIN_EDGES = tuple((i, i + 1) for i in range(NODES - 1))
DISTILL_EDGES = tuple((i, NODES - 1) for i in range(NODES - 2))
EDGES = CHAIN_EDGES + DISTILL_EDGES


class ArchParams:
    """Per-edge operator logits for one searchable cell, normal with std 1e-3."""

    def __init__(self, rng, name="alpha"):
        self.logits = [
            Parameter(rng.normal(0.0, 1e-3, len(SEARCH_OPS)), f"{name}.edge{e}_{i}to{j}")
            for e, (i, j) in enumerate(EDGES)
        ]

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
    derived cell), the edges out of one node as one ``mixed_forward`` node,
    whose convs that share (kernel, dilation) are one stacked conv.  Every
    candidate has its own parameters.  The edge nodes check nothing: the
    candidates are built width-preserving, and ``forward`` checks its input
    and logits once per call.
    """

    def __init__(self, width, edge_ops, rng, name="cell", fusion_init="random"):
        if len(edge_ops) != len(EDGES):
            raise ConfigError(f"need {len(EDGES)} operator choices, got {len(edge_ops)}")
        self.width = width
        self.edge_ops = list(edge_ops)
        self.edge_params = [
            [
                make_op_params(kind, width, rng, f"{name}.edge{e}.{kind.name}")
                for kind in ops
            ]
            for e, ops in enumerate(self.edge_ops)
        ]
        # the fusion reads the distill outputs and the chain input to the last node
        self.fusion_w, self.fusion_b = init_conv_weights(
            width, (NODES - 1) * width, 1, rng, f"{name}.fusion"
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

    def radius(self):
        """Pixels past itself, per side, that an output pixel reads: the
        longest reach along ``EDGES`` into the last node, each edge counted
        at its widest candidate's.  The 1x1 fusion adds none."""
        reach = [0] * NODES
        for (i, j), ops in zip(EDGES, self.edge_ops):
            reach[j] = max(reach[j], reach[i] + max(kind.reach for kind in ops))
        return reach[-1]

    def _next_node(self, i, x, arch, merged):
        """Run the edges out of node ``i``, which all read ``x``; copy the
        output the fusion reads (the distill edge's, or the chain edge's for
        the last source node) into channel slot i of ``merged``; return node
        i + 1, the chain edge's output.  A mixed edge is one edge node; the
        derived edges but skips are one in all, split by channels when it
        holds two, and a derived skip outputs ``x``.  Without a tape node
        i + 1 is then a copy of its slice, so the stacked conv output is
        freed before node i + 1's conv allocates its own.
        """
        edges = [e for e, (src, _) in enumerate(EDGES) if src == i]
        c = self.width
        split = False
        if arch is not None:
            outs = [
                mixed_forward(x, [(self.edge_ops[e], self.edge_params[e], arch.logits[e])])
                for e in edges
            ]
        else:
            outs = [x] * len(edges)
            conv = [e for e in edges if not self.edge_ops[e][0].skip]
            if conv:
                y = mixed_forward(x, [(self.edge_ops[e], self.edge_params[e], None) for e in conv])
                split = len(conv) > 1
                for pos, e in enumerate(conv):
                    part = ad.channels(y, pos * c, (pos + 1) * c) if split else y
                    outs[edges.index(e)] = part
        ad.fill(merged, outs[-1:], i * c)
        if split and not outs[0].requires_grad:
            return ad.Tensor(outs[0].data.copy())
        return outs[0]

    def forward(self, x, arch=None):
        """The cell's output for ``x``, under ``arch``'s logits if mixed.

        Each source node's edges run as soon as the node is made, and what
        it sends to the fusion is copied into the fusion input at once.
        Without a tape each node is freed once the next is made, the input
        too: no name for ``x`` is kept past node 0, so a caller that passes
        a temporary frees it there.
        """
        width = self.width
        if x.data.ndim != 4 or x.data.shape[1] != width:
            raise ShapeError(f"cell expects an (n, {width}, h, w) input, got shape {x.data.shape}")
        mixed = any(len(ops) > 1 for ops in self.edge_ops)
        if (arch is None) == mixed:
            which = "a mixed cell needs" if mixed else "a derived cell takes no"
            raise ConfigError(f"{which} logits")
        if arch is not None:
            got = [l.data.shape for l in arch.logits]
            want = [(len(ops),) for ops in self.edge_ops]
            if got != want:
                raise ConfigError(f"expected logits of shapes {want}, got {got}")
        n, _, h, w = x.data.shape
        merged = ad.Tensor(np.empty((n, (NODES - 1) * width, h, w)))
        node, x = x, None
        for i in range(NODES - 1):
            node = self._next_node(i, node, arch, merged)
        return ad.conv2d(merged, self.fusion_w, self.fusion_b)


class MixedCell(Cell):
    """The searchable cell: every edge holds every search candidate."""

    def __init__(self, width, rng, name="cell", fusion_init="random"):
        super().__init__(width, [SEARCH_OPS] * len(EDGES), rng, name, fusion_init)


class DiscreteCell(Cell):
    """A derived cell with one fixed operator per edge."""

    def __init__(self, width, kinds, rng, name="cell", fusion_init="random"):
        super().__init__(width, [(kind,) for kind in kinds], rng, name, fusion_init)


def count_params(parameters):
    return int(sum(p.data.size for p in parameters))


def arch_dump(arch):
    """DOT-style text, one line per cell edge: the operator ``arch`` derives
    and its mixture weights, for reports and artifacts."""
    lines = []
    for (i, j), kind, wvec in zip(EDGES, discretize(arch), arch.mixture_weights()):
        wtxt = ",".join(f"{v:.4f}" for v in wvec)
        lines.append(f"edge {i}->{j} op={kind.name} w={wtxt}")
    return "\n".join(lines) + "\n"
