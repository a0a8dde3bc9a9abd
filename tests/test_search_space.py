"""Operator registry, cell wiring, mixing, discretization, and cost models."""

import tracemalloc

import numpy as np
import pytest

from ruas import autodiff as ad
from ruas import search_space
from ruas.autodiff import Parameter, Tensor, backward
from ruas.errors import ConfigError, ShapeError
from ruas.model import DEFAULT_SCENE_OPS, DEFAULT_TASK_OPS, RuasModel
from ruas.scene import SceneConfig, scene_forward
from ruas.search_space import (
    SEARCH_OPS,
    ArchParams,
    CHAIN_EDGES,
    DISTILL_EDGES,
    EDGES,
    NODES,
    DiscreteCell,
    MixedCell,
    OPS_BY_NAME,
    arch_dump,
    count_params,
    discretize,
    lookup_op,
    make_op_params,
    mixed_forward,
)


def _cell(mixed, rng):
    """A 3-wide 3-C discrete cell, or a mixed cell with its logits."""
    if mixed:
        return MixedCell(3, rng), ArchParams(rng)
    return DiscreteCell(3, [OPS_BY_NAME["3-C"]] * 7, rng), None


def test_registry_contents():
    low = [op.name for op in SEARCH_OPS]
    assert low == ["1-C", "3-C", "1-RC", "3-RC", "3-2-DC", "3-2-RDC", "SC"]
    # (kernel, dilation, residual, skip) of each, in table order
    assert [(op.kernel, op.dilation, op.residual, op.skip) for op in SEARCH_OPS] == [
        (1, 1, False, False),
        (3, 1, False, False),
        (1, 1, True, False),
        (3, 1, True, False),
        (3, 2, False, False),
        (3, 2, True, False),
        (0, 1, False, True),
    ]


@pytest.mark.parametrize(
    "name",
    ["bogus", "", None, ["3-C"], "3-18-DC"],
    ids=["bogus", "empty", "none", "list", "removed"],
)
def test_lookup_op_rejects_unknown_names(name):
    assert lookup_op("3-2-DC") is OPS_BY_NAME["3-2-DC"]
    with pytest.raises(ConfigError) as exc:
        lookup_op(name)
    known = "1-C, 3-C, 1-RC, 3-RC, 3-2-DC, 3-2-RDC, SC"
    assert str(exc.value) == f"unknown operator {name!r}; known: {known}"


def reference_op(kind, x, params):
    """Reference operator from autodiff primitives: a skip outputs its
    input; a conv is followed by ReLU, and a residual conv adds its input
    afterwards."""
    if kind.skip:
        return x
    out = ad.relu(ad.conv2d(x, params["weight"], params.get("bias"), dilation=kind.dilation))
    return ad.add(out, x) if kind.residual else out


def apply_op(kind, x, params):
    """One operator on ``x`` as a derived cell runs it: a skip passes ``x``
    itself, and any other operator is a one-edge node."""
    return x if kind.skip else mixed_forward(x, [((kind,), [params], None)])


def test_apply_op_skip_is_identity(rng):
    x = Tensor(rng.normal(size=(1, 3, 6, 6)))
    out = apply_op(OPS_BY_NAME["SC"], x, {})
    assert out is x
    # a derived cell's skip edges pass their node along, with no tape node
    cell = DiscreteCell(3, [OPS_BY_NAME["SC"]] * 7, rng)
    merged = Tensor(np.empty((1, 12, 6, 6)))
    assert cell._next_node(0, x, None, merged) is x
    np.testing.assert_array_equal(merged.data[:, :3], x.data)


def test_apply_op_residual_adds_input(rng):
    kind = OPS_BY_NAME["3-RC"]
    params = make_op_params(kind, 3, rng, "op")
    x = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    out = apply_op(kind, x, params).data
    plain = apply_op(OPS_BY_NAME["3-C"], x, params).data
    np.testing.assert_allclose(out, plain + x.data)


def test_apply_op_relu_nonnegative(rng):
    kind = OPS_BY_NAME["3-C"]
    params = make_op_params(kind, 3, rng, "op")
    x = Tensor(rng.normal(size=(1, 3, 6, 6)))
    assert apply_op(kind, x, params).data.min() >= 0.0


def mixed_edge(x, edge_logits, edge_weights, registry):
    """One mixed edge through the edge node."""
    return mixed_forward(x, [(registry, edge_weights, edge_logits)])


def test_mixed_forward_one_hot_equals_selected(rng):
    registry = SEARCH_OPS
    weights = [make_op_params(k, 3, rng, f"op{i}") for i, k in enumerate(registry)]
    x = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    for pick in range(len(registry)):
        logits = np.full(len(registry), -40.0)
        logits[pick] = 40.0  # softmax is one-hot to machine precision
        mixed = mixed_edge(x, Tensor(logits), weights, registry).data
        direct = reference_op(registry[pick], x, weights[pick]).data
        np.testing.assert_allclose(mixed, direct, atol=1e-6)


def composite_mixed_forward(x, edge_logits, edge_weights, registry):
    """Reference mixed edge built from autodiff primitives: each candidate's
    ``reference_op`` output times its softmax entry, summed in registry order."""
    mix = ad.softmax(edge_logits)

    def entry(i):
        def bw(g):
            gv = np.zeros_like(mix.data)
            gv[i] = float(g)
            yield mix, gv

        return ad._make(mix.data[i], (mix,), bw)

    out = None
    for i, kind in enumerate(registry):
        wi = ad.mul(reference_op(kind, x, edge_weights[i]), entry(i))
        out = wi if out is None else ad.add(out, wi)
    return out


def _ops(*names):
    return tuple(OPS_BY_NAME[n] for n in names)


MIXED_CASES = {
    "search-ops": (SEARCH_OPS, (1, 3, 6, 6), True),
    "subset-reordered": (_ops("SC", "3-2-RDC", "3-C", "1-RC", "3-2-DC"), (1, 3, 6, 6), True),
    "no-skip-no-residual": (_ops("3-2-DC", "1-C", "3-C"), (1, 3, 6, 6), True),
    "batch-2": (SEARCH_OPS, (2, 3, 6, 6), True),
    "non-square": (SEARCH_OPS, (1, 3, 5, 9), True),
    "width-6": (SEARCH_OPS, (1, 6, 8, 8), True),
    "constant-input": (SEARCH_OPS, (1, 3, 6, 6), False),
}


def _edge_run(forward, registry, shape, x_grad, seed):
    """Output, the parents of its tape node and theirs, leaves (input,
    logits, conv parameters) and their gradients for sum(probe * edge(x)),
    every input seeded."""
    rng = np.random.default_rng(seed)
    weights = [make_op_params(k, shape[1], rng, f"op{i}") for i, k in enumerate(registry)]
    for params in weights:
        if params:
            params["bias"].data = rng.normal(0.0, 0.1, shape[1])
    x = Tensor(rng.normal(size=shape), requires_grad=x_grad)
    logits = Parameter(rng.normal(size=len(registry)), "logits")
    probe = Tensor(rng.normal(size=shape))
    out = forward(x, logits, weights, registry)
    # taken before the backward sweep cuts them
    parents = out._parents, [p._parents for p in out._parents]
    leaves = [x, logits] + [p for params in weights for p in params.values()]
    backward(ad.reduce_sum(ad.mul(out, probe)), [t for t in leaves if t.requires_grad])
    return out.data, parents, leaves, [t.grad for t in leaves]


@pytest.mark.parametrize("case", list(MIXED_CASES))
def test_fused_mixed_edge_matches_composite(case):
    registry, shape, x_grad = MIXED_CASES[case]
    want, _, _, want_grads = _edge_run(composite_mixed_forward, registry, shape, x_grad, 11)
    got, (parents, grand), leaves, got_grads = _edge_run(mixed_edge, registry, shape, x_grad, 11)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    assert (got_grads[0] is None) == (not x_grad)
    for g, w in zip(got_grads, want_grads):
        if w is None:
            assert g is None
        else:
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-9)
    # one tape node per edge: its parents are the input, the softmax of the
    # logits and the conv parameters, with no node in between
    x, logits, *params = leaves
    assert parents[0] is x and grand[1] == (logits,)
    assert [id(p) for p in parents[2:]] == [id(p) for p in params]


def per_edge_cell_forward(cell, x):
    """Reference derived cell: a DAG walk that runs ``reference_op`` per edge."""
    nodes = [x]
    ops = [edge[0] for edge in cell.edge_ops]
    params = [edge[0] for edge in cell.edge_params]
    for e, (i, _) in enumerate(CHAIN_EDGES):
        nodes.append(reference_op(ops[e], nodes[i], params[e]))
    n_chain = len(CHAIN_EDGES)
    distill = [
        reference_op(ops[n_chain + d], nodes[i], params[n_chain + d])
        for d, (i, _) in enumerate(DISTILL_EDGES)
    ]
    return ad.conv2d(ad.concat(distill + [nodes[-1]]), cell.fusion_w, cell.fusion_b)


# the ops of edges 0->1, 1->2, 2->3, 3->4, 0->4, 1->4, 2->4: nodes 0, 1 and 2
# each feed edges e and e + 4
GROUPED_ARCHS = {
    "default": DEFAULT_SCENE_OPS,
    # the two edges out of a node differ in kernel, in dilation, or neither (1x1)
    "kernel-dilation-differ": ("3-C", "3-2-DC", "1-RC", "3-C", "1-C", "3-C", "1-C"),
    "skip-on-either-edge": ("SC", "3-RC", "SC", "1-C", "3-C", "SC", "SC"),
    "residual-on-both": ("3-RC", "3-2-RDC", "1-RC", "3-RC", "3-RC", "3-2-RDC", "1-RC"),
    "plain-on-both": ("3-C", "3-2-DC", "1-C", "1-C", "3-C", "3-2-DC", "1-C"),
}
_draw = np.random.default_rng(2024)
for _i in range(12):
    GROUPED_ARCHS[f"random-{_i}"] = tuple(
        SEARCH_OPS[j].name for j in _draw.integers(len(SEARCH_OPS), size=7)
    )


def _cell_run(forward, cell, x, probe):
    """Output of ``forward(cell, x)`` and the gradients of sum(probe * out)
    w.r.t. the input and every cell parameter."""
    leaves = [x] + cell.parameters()
    out = forward(cell, x)
    return out.data, backward(ad.reduce_sum(ad.mul(out, probe)), leaves)


@pytest.mark.parametrize(
    "shape", [(1, 3, 9, 7), (2, 6, 8, 8), (1, 6, 64, 64)], ids=["3-wide", "batch-2", "banded"]
)
@pytest.mark.parametrize("arch", list(GROUPED_ARCHS))
def test_grouped_derived_cell_matches_per_edge_ops(arch, shape):
    """A derived cell runs the edges out of each node that share (kernel,
    dilation) as one stacked conv; its output equals the per-edge walk's
    bit for bit, and its gradients agree to rounding (the stacked input
    gradient sums over both edges' channels in one product)."""
    rng = np.random.default_rng(7)
    kinds = [OPS_BY_NAME[n] for n in GROUPED_ARCHS[arch]]
    cell = DiscreteCell(shape[1], kinds, rng)
    for p in cell.parameters():
        p.data = rng.normal(0.0, 0.3, p.data.shape)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    probe = Tensor(rng.normal(size=shape))
    want, want_grads = _cell_run(per_edge_cell_forward, cell, x, probe)
    got, got_grads = _cell_run(lambda c, t: c.forward(t), cell, x, probe)
    np.testing.assert_array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def _unstacked_archs(count, seed):
    """Seeded random archs in which no two convs out of one node share
    (kernel, dilation), so that no conv is stacked."""
    draw = np.random.default_rng(seed)
    archs = []
    while len(archs) < count:
        kinds = [SEARCH_OPS[j] for j in draw.integers(len(SEARCH_OPS), size=7)]
        # nodes 0, 1 and 2 each feed edges i and i + 4
        if all(
            a.skip or b.skip or (a.kernel, a.dilation) != (b.kernel, b.dilation)
            for a, b in zip(kinds[:3], kinds[4:])
        ):
            archs.append(kinds)
    return archs


@pytest.mark.parametrize(
    "shape", [(1, 3, 9, 7), (2, 6, 8, 8), (1, 6, 64, 64)], ids=["3-wide", "batch-2", "banded"]
)
def test_unstacked_derived_cell_is_the_per_edge_walk(shape):
    """With no stacked group, a derived cell does the per-edge walk's
    arithmetic: its output and every gradient equal the walk's bit for bit.
    This pins the order in which the edge nodes yield their input-gradient
    terms, which decides how the input's gradient is summed."""
    for kinds in _unstacked_archs(25, 11):
        rng = np.random.default_rng(7)
        cell = DiscreteCell(shape[1], kinds, rng)
        for p in cell.parameters():
            p.data = rng.normal(0.0, 0.3, p.data.shape)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        probe = Tensor(rng.normal(size=shape))
        want, want_grads = _cell_run(per_edge_cell_forward, cell, x, probe)
        got, got_grads = _cell_run(lambda c, t: c.forward(t), cell, x, probe)
        np.testing.assert_array_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("arch", ["default", "skip-on-either-edge"])
def test_derived_cell_tape_has_one_node_per_source_node(arch, rng, monkeypatch):
    """A derived cell forward makes one edge node per source node that has a
    conv edge, whose parents are its input and the weights and biases of its
    edges in edge order; no weight is concatenated."""
    kinds = [OPS_BY_NAME[n] for n in GROUPED_ARCHS[arch]]
    cell = DiscreteCell(3, kinds, rng)
    nodes, fills = [], []
    node, fill = search_space.mixed_forward, ad.fill
    monkeypatch.setattr(
        search_space, "mixed_forward", lambda x, edges: nodes.append((x, node(x, edges))) or nodes[-1][1]
    )
    monkeypatch.setattr(
        ad, "fill", lambda out, parts, lo: fills.append((list(parts), lo)) or fill(out, parts, lo)
    )
    x = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=True)
    cell.forward(x)
    want = []
    for i in range(NODES - 1):
        edges = [e for e, (src, _) in enumerate(EDGES) if src == i and not kinds[e].skip]
        if edges:
            want.append([p for e in edges for p in cell.edge_params[e][0].values()])
    assert len(nodes) == len(want) and nodes[0][0] is x
    for (inp, out), params in zip(nodes, want):
        assert out._parents[0] is inp
        assert [id(p) for p in out._parents[1:]] == [id(p) for p in params]
    # the fusion's input is filled once per source node, one edge output in
    # its slot each, and no part is a parameter
    assert [lo for _, lo in fills] == [3 * i for i in range(NODES - 1)]
    assert all(len(parts) == 1 and not isinstance(parts[0], Parameter) for parts, _ in fills)


def test_edge_node_masks_are_those_of_the_forward_input(rng):
    """An optimizer step rebinds a tensor's data between a forward pass and
    a later backward (the one-step hypergradient does); the node's input
    gradient still follows the input the forward pass saw, for a stacked
    residual and plain pair of derived edges and for a mixed edge."""
    pair = _ops("3-RC", "3-C")
    derived = [((k,), [make_op_params(k, 3, rng, f"e{e}")], None) for e, k in enumerate(pair)]
    weights = [make_op_params(k, 3, rng, f"op{i}") for i, k in enumerate(SEARCH_OPS)]
    mixed = [(SEARCH_OPS, weights, Tensor(rng.normal(size=len(SEARCH_OPS))))]
    data = rng.normal(size=(1, 3, 6, 6))
    for edges, width in ((derived, 6), (mixed, 3)):
        probe = Tensor(rng.normal(size=(1, width, 6, 6)))
        want = Parameter(data.copy(), "want")
        backward(ad.reduce_sum(ad.mul(mixed_forward(want, edges), probe)), [want])
        p = Parameter(data.copy(), "p")
        loss = ad.reduce_sum(ad.mul(mixed_forward(p, edges), probe))
        p.data = p.data + 1.0  # moves most ReLU masks
        backward(loss, [p])
        np.testing.assert_array_equal(p.grad, want.grad)


def test_edge_node_stacks_mixed_and_derived_edges():
    """One node over two mixed edges and a derived one, whose convs share
    groups across edges, equals one node per edge with the outputs stacked,
    to rounding: a taller stack of kernels may take other BLAS blocking, and
    a shared group sums its edges' input gradients in one product."""

    def run(split):
        rng = np.random.default_rng(5)
        edges = []
        for e, kinds in enumerate((SEARCH_OPS, _ops("3-RC"), SEARCH_OPS)):
            params = [make_op_params(k, 3, rng, f"e{e}.{i}") for i, k in enumerate(kinds)]
            for ps in params:
                if ps:
                    ps["bias"].data = rng.normal(0.0, 0.1, 3)
            logits = Parameter(rng.normal(size=len(kinds)), f"e{e}") if len(kinds) > 1 else None
            edges.append((kinds, params, logits))
        x = Tensor(rng.normal(size=(2, 3, 7, 6)), requires_grad=True)
        if split:
            out = ad.concat([mixed_forward(x, [edge]) for edge in edges])
        else:
            out = mixed_forward(x, edges)
        leaves = [x] + [l for *_, l in edges if l is not None]
        leaves += [p for _, params, _ in edges for ps in params for p in ps.values()]
        probe = Tensor(rng.normal(size=(2, 9, 7, 6)))
        return out.data, backward(ad.reduce_sum(ad.mul(out, probe)), leaves)

    (want, want_grads), (got, got_grads) = run(split=True), run(split=False)
    for g, w in zip([got] + got_grads, [want] + want_grads):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_derived_cell_at_64px_runs_one_conv_per_group(rng, monkeypatch):
    """In the default cells, nodes 0, 1 and 2 each feed two edges of one
    (kernel, dilation): a cell forward is 3 stacked convs, node 3's lone
    3-C and the fusion, 5 in all where one conv per edge made 8.  A whole
    ruas forward (3 scene stages, the task cell and the remover's two
    projections) then makes 22, not 34."""
    calls = []
    raw_conv = ad._raw_conv
    monkeypatch.setattr(ad, "_raw_conv", lambda xd, wd, *a: calls.append(wd) or raw_conv(xd, wd, *a))
    model = RuasModel(rng)
    y = Tensor(rng.uniform(0.05, 1.0, size=(1, 3, 64, 64)))
    with ad.no_grad():
        model.scene_cell.forward(Tensor(rng.normal(size=(1, 3, 64, 64))))
        assert [w.shape[:3] for w in calls] == [(6, 3, 3)] * 3 + [(3, 3, 3), (3, 12, 1)]
        calls.clear()
        model.forward(y)
    assert len(calls) == 22


@pytest.mark.parametrize("size", [96, 128])
def test_no_grad_forward_holds_only_what_its_output_needs(rng, size):
    """The tracemalloc peak of a no-grad ruas forward stays under 600 bytes
    per input pixel; it was 792 when the pass kept every scene stage's maps,
    three zero channels for the remover and every node of a cell until the
    fusion."""
    model = RuasModel(rng)
    y = Tensor(rng.uniform(0.05, 1.0, size=(1, 3, size, size)))
    tracemalloc.start()
    try:
        with ad.no_grad():
            model.forward(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600 * size * size


@pytest.mark.parametrize("size", [128, 256])
def test_no_grad_forward_frees_stacked_outputs_and_the_projection(rng, size):
    """At most 460 bytes per pixel: 545 / 533 at 128 / 256 px while a
    derived node's chain slice kept the whole stacked conv output alive
    through the next node's conv, and the remover's projection lived until
    the task cell returned.  What is left is the fusion input, one stacked
    output, its input node, that node's padded copy and the scene's (t, u)."""
    model = RuasModel(rng)
    for cell in (model.scene_cell, model.task_cell):
        cell.fusion_w.data = rng.uniform(-0.3, 0.3, cell.fusion_w.data.shape)
    y = Tensor(rng.uniform(0.05, 1.0, size=(1, 3, size, size)))
    tracemalloc.start()
    try:
        with ad.no_grad():
            model.forward(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 460 * size * size


@pytest.mark.parametrize("size, bound", [(256, 300), (384, 280)])
def test_no_grad_forward_removes_noise_in_row_bands(rng, size, bound):
    """With the remover run on bands of 128 rows, the tracemalloc peak of a
    no-grad ruas forward is 278 and 266 bytes per pixel at 256 and 384 px,
    where it was 437 and about 434 with the remover run in one pass."""
    model = RuasModel(rng)
    for cell in (model.scene_cell, model.task_cell):
        cell.fusion_w.data = rng.uniform(-0.3, 0.3, cell.fusion_w.data.shape)
    y = Tensor(rng.uniform(0.05, 1.0, size=(1, 3, size, size)))
    tracemalloc.start()
    try:
        with ad.no_grad():
            model.forward(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * size * size


# (task-cell ops or None for a mixed cell, radius); edges 0->1, 1->2, 2->3,
# 3->4, 0->4, 1->4, 2->4.  The skip-heavy cell's longest reach is through
# its last distill edge, not the chain.
RADIUS_CELLS = {
    "default": (DEFAULT_TASK_OPS, 5),
    "all-3-2-RDC": (("3-2-RDC",) * 7, 8),
    "skip-heavy": (("SC", "3-C", "SC", "SC", "1-RC", "SC", "3-2-RDC"), 3),
    "mixed": (None, 8),
}


@pytest.mark.parametrize("name", RADIUS_CELLS)
def test_cell_radius_is_the_reach_of_an_impulse(name):
    """Raising one pixel of the input changes output pixels exactly
    ``radius()`` rows or columns away and none farther."""
    ops, want = RADIUS_CELLS[name]
    rng = np.random.default_rng(7)
    if ops is None:
        cell, arch = MixedCell(6, rng), ArchParams(rng)
        for logits in arch.logits:
            logits.data = rng.normal(size=logits.data.shape)
    else:
        cell, arch = DiscreteCell(6, [lookup_op(n) for n in ops], rng), None
    size, at = 31, 15
    x = rng.uniform(0.0, 1.0, size=(1, 6, size, size))
    kicked = x.copy()
    kicked[:, :, at, at] += 10.0
    with ad.no_grad():
        base, moved = (cell.forward(Tensor(v), arch).data for v in (x, kicked))
    rows, cols = np.nonzero((base != moved).any(axis=(0, 1)))
    assert cell.radius() == want
    assert max(np.abs(rows - at).max(), np.abs(cols - at).max()) == want


# edges 0->1, 1->2, 2->3, 3->4, 0->4, 1->4, 2->4.  Scene cell: a skip chain
# out of node 0 beside a conv, two convs of different (kernel, dilation) out
# of node 1 and a stacked pair out of node 2.  Task cell: stacked pairs out
# of nodes 0 and 2, a skip chain beside one conv out of node 1, and node 3's
# lone conv.
SPLIT_SCENE_OPS = ("SC", "3-RC", "1-RC", "3-C", "3-C", "3-2-RDC", "1-C")
SPLIT_TASK_OPS = ("3-2-RDC", "SC", "3-RC", "1-C", "3-2-DC", "1-RC", "3-C")


@pytest.mark.parametrize("warm", ["fixed", "no_rectify", "rectify"])
@pytest.mark.parametrize("ops", ["default", "split"])
def test_no_grad_forward_equals_the_taped_forward(rng, warm, ops):
    """Without a tape a cell copies its chain slices and frees what the
    taped pass keeps as views, and the scene skips the u_k nothing reads;
    every output and recorded stage is bit-identical to the taped pass's.
    A batch of two makes the slices strided, and at 40x48 the task cell's
    3x3 convs run in row bands."""
    kw = {} if ops == "default" else {"scene_ops": SPLIT_SCENE_OPS, "task_ops": SPLIT_TASK_OPS}
    model = RuasModel(rng, scene_cfg=SceneConfig(warm_start=warm), **kw)
    for cell in (model.scene_cell, model.task_cell):
        cell.fusion_w.data = rng.uniform(-0.3, 0.3, cell.fusion_w.data.shape)
    y = Tensor(rng.uniform(0.05, 1.0, size=(2, 3, 40, 48)))
    taped_stages, free_stages = [], []
    taped = model.forward(y, stages=taped_stages)
    assert taped["x"].requires_grad
    with ad.no_grad():
        free = model.forward(y, stages=free_stages)
        bare = model.forward(y)
    for got in (free, bare):
        for key in ("x", "u", "t"):
            np.testing.assert_array_equal(got[key].data, taped[key].data)
    for (t, u), (want_t, want_u) in zip(free_stages, taped_stages, strict=True):
        np.testing.assert_array_equal(t.data, want_t.data)
        np.testing.assert_array_equal(u.data, want_u.data)


def test_forward_appends_each_scene_stage_to_the_list_it_is_given(rng):
    model = RuasModel(rng)
    y = Tensor(rng.uniform(0.05, 1.0, size=(1, 3, 16, 16)))
    stages = []
    with ad.no_grad():
        out = model.forward(y, stages=stages)
        _, _, want = scene_forward(y, model.scene_cfg, model.scene_cell.forward, [])
    assert len(stages) == len(want) == model.scene_cfg.stages
    for (t, u), (want_t, want_u) in zip(stages, want):
        np.testing.assert_array_equal(t.data, want_t.data)
        np.testing.assert_array_equal(u.data, want_u.data)
    assert stages[-1][0] is out["t"] and stages[-1][1] is out["u"]


def test_cell_spec_edges():
    assert CHAIN_EDGES == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert DISTILL_EDGES == ((0, 4), (1, 4), (2, 4))
    assert EDGES == CHAIN_EDGES + DISTILL_EDGES
    assert len(EDGES) == 7


def test_discretize_argmax_and_ties(rng):
    arch = ArchParams(rng)
    for logits in arch.logits:
        logits.data = np.zeros_like(logits.data)
    kinds = discretize(arch)
    assert all(k.name == "1-C" for k in kinds)  # ties break to lowest index
    arch.logits[2].data[4] = 1.0
    assert discretize(arch)[2].name == "3-2-DC"
    arch.logits[0].data[0] = np.nan
    with pytest.raises(ConfigError):
        discretize(arch)


def test_all_skip_cell_with_averaging_fusion_is_identity(rng):
    cell = DiscreteCell(3, [OPS_BY_NAME["SC"]] * 7, rng)
    # the fusion conv averages its four input blocks channel-wise
    w = np.zeros_like(cell.fusion_w.data)
    for o in range(3):
        for m in range(4):
            w[o, o + m * 3, 0, 0] = 0.25
    cell.fusion_w.data = w
    cell.fusion_b.data = np.zeros_like(cell.fusion_b.data)
    x = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 5, 5)))
    np.testing.assert_allclose(cell.forward(x).data, x.data, atol=1e-12)


def test_zero_fusion_cell_outputs_zero(rng):
    x = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    for mixed in (False, True):
        cell, arch = _cell(mixed, rng)
        cell.fusion_w.data = np.zeros_like(cell.fusion_w.data)
        np.testing.assert_array_equal(cell.forward(x, arch).data, 0.0)


def test_cell_channel_check(rng):
    for mixed in (False, True):
        cell, arch = _cell(mixed, rng)
        for shape in ((1, 4, 5, 5), (3, 5, 5)):
            with pytest.raises(ShapeError, match=r"\(n, 3, h, w\)"):
                cell.forward(Tensor(rng.normal(size=shape)), arch)


def test_mixed_cell_needs_logits(rng):
    """The edge nodes do not check their logits, so ``Cell.forward`` does:
    a mixed cell needs one logit per candidate on every edge, and a derived
    cell takes none."""
    x = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    cell, arch = _cell(True, rng)
    with pytest.raises(ConfigError, match="a mixed cell needs logits"):
        cell.forward(x)
    derived, _ = _cell(False, rng)
    with pytest.raises(ConfigError, match="a derived cell takes no logits"):
        derived.forward(x, arch)
    arch.logits[2].data = np.zeros(3)  # zip would drop the last 4 candidates
    with pytest.raises(ConfigError, match=r"expected logits of shapes"):
        cell.forward(x, arch)


def test_discrete_cell_requires_full_choice_list(rng):
    with pytest.raises(ConfigError):
        DiscreteCell(3, [OPS_BY_NAME["3-C"]] * 5, rng)


def test_mixed_logit_gradients_flow(rng):
    cell = MixedCell(3, rng)
    arch = ArchParams(rng)
    x = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    backward(ad.reduce_l2sq(cell.forward(x, arch)), arch.logits)
    assert all(l.grad is not None for l in arch.logits)
    assert any(np.abs(l.grad).max() > 0 for l in arch.logits)


def test_count_params_and_flops(rng):
    # one 3x3 conv per edge: 7 * (3*3*9 + 3) weights+biases, plus 1x1 fusion
    cell = DiscreteCell(3, [OPS_BY_NAME["3-C"]] * 7, rng)
    expected = 7 * (3 * 3 * 9 + 3) + (3 * 12 * 1 * 1 + 3)
    assert count_params(cell.parameters()) == expected
    # three stages of the cell: per pixel, its seven 3x3 convs and the fusion
    scene_only = lambda ops: RuasModel(rng, variant="ruas_s", scene_ops=ops)
    assert scene_only(["3-C"] * 7).flops(8, 8) == 3 * 8 * 8 * (7 * 3 * 3 * 9 + 3 * 12)
    # skip edges contribute nothing
    assert scene_only(["SC"] * 7).flops(8, 8) == 3 * 8 * 8 * 3 * 12


def test_mixed_cell_flops_count_every_candidate(rng):
    # 1-C, 3-C, 1-RC, 3-RC, 3-2-DC and 3-2-RDC; the skip costs nothing
    taps = 1 + 9 + 1 + 9 + 9 + 9
    assert sum(k.kernel**2 for k in SEARCH_OPS if not k.skip) == taps
    mixed_cell = lambda c: 7 * c * c * taps + c * 4 * c  # and the 1x1 fusion
    # three stages of the 3-wide scene cell, the 6-wide task cell, and the
    # remover's 1x1 projections 3 -> 6 and 6 -> 3
    supernet = RuasModel.supernet(rng)
    assert supernet.flops(8, 8) == 8 * 8 * (3 * mixed_cell(3) + mixed_cell(6) + 18 + 18)


def test_flops_follow_the_variant_that_runs():
    """A ruas model run as ruas_s counts no removal, as a native ruas_s does;
    the supernet run as ruas_s counts every candidate of its scene cell."""
    native = RuasModel(np.random.default_rng(0), variant="ruas_s")
    assert RuasModel(np.random.default_rng(0)).flops(32, 32) == 4_359_168
    assert RuasModel(np.random.default_rng(0)).set_variant("ruas_s").flops(32, 32) == 1_852_416
    assert native.flops(32, 32) == 1_852_416
    supernet = RuasModel.supernet(np.random.default_rng(0)).set_variant("ruas_s")
    assert supernet.flops(32, 32) == 3 * 32 * 32 * (7 * 3 * 3 * 38 + 3 * 12)


@pytest.mark.parametrize("variant", ["ruas", "ruas_a"])
def test_flops_count_the_remover_projection_it_runs(variant):
    """The remover projects the 3 channels of u to the 6-wide task cell:
    18 multiply-adds per pixel, not the 36 of a 6-channel projection."""
    model = RuasModel(np.random.default_rng(0), variant=variant)
    assert model.remover.proj_in_w.data.shape == (6, 3, 1, 1)
    assert model.flops(64, 64) == 17_436_672


def test_arch_dump_formats(rng):
    arch = ArchParams(rng)
    text = arch_dump(arch)
    lines = text.strip().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("edge 0->1 op=")
