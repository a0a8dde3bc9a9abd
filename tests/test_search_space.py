"""Operator registry, cell wiring, mixing, discretization, and cost models."""

import numpy as np
import pytest

from ruas import autodiff as ad
from ruas.autodiff import Parameter, Tensor, backward
from ruas.errors import ConfigError, ShapeError
from ruas.model import DEFAULT_SCENE_OPS, DEFAULT_TASK_OPS, RuasModel
from ruas.search_space import (
    ALL_OPS,
    SEARCH_OPS,
    ArchParams,
    CellSpec,
    DiscreteCell,
    MixedCell,
    OPS_BY_NAME,
    apply_op,
    arch_dump,
    cell_flops,
    cell_param_count,
    conv_flops,
    count_params,
    discretize,
    lookup_op,
    make_op_params,
    mixed_forward,
)


def _cell(mixed, rng, fusion_init="random"):
    """A 3-wide 3-C discrete cell, or a mixed cell with its logits."""
    spec = CellSpec(width=3)
    if mixed:
        return MixedCell(spec, rng, fusion_init=fusion_init), ArchParams(spec, rng)
    return DiscreteCell(spec, [OPS_BY_NAME["3-C"]] * 7, rng, fusion_init=fusion_init), None


def test_registry_contents():
    low = [op.name for op in SEARCH_OPS]
    assert low == ["1-C", "3-C", "1-RC", "3-RC", "3-2-DC", "3-2-RDC", "SC"]


@pytest.mark.parametrize(
    "name", ["bogus", "", None, ["3-C"]], ids=["bogus", "empty", "none", "list"]
)
def test_lookup_op_rejects_unknown_names(name):
    assert lookup_op("3-2-DC") is OPS_BY_NAME["3-2-DC"]
    with pytest.raises(ConfigError) as exc:
        lookup_op(name)
    assert repr(name) in str(exc.value) and "3-18-DC" in str(exc.value)


def test_full_table_size():
    assert len(ALL_OPS) == 14
    assert OPS_BY_NAME["3-2-DC"].dilation == 2
    assert OPS_BY_NAME["3-18-DC"].dilation == 18
    assert OPS_BY_NAME["SC"].skip


def test_apply_op_skip_is_identity(rng):
    x = Tensor(rng.normal(size=(1, 3, 6, 6)))
    out = apply_op(OPS_BY_NAME["SC"], x, {})
    assert out is x


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


def test_apply_op_kernel_mismatch(rng):
    params = make_op_params(OPS_BY_NAME["3-C"], 3, rng, "op")
    with pytest.raises(ConfigError):
        apply_op(OPS_BY_NAME["1-C"], Tensor(rng.normal(size=(1, 3, 6, 6))), params)


def test_mixed_forward_one_hot_equals_selected(rng):
    registry = SEARCH_OPS
    weights = [make_op_params(k, 3, rng, f"op{i}") for i, k in enumerate(registry)]
    x = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    for pick in range(len(registry)):
        logits = np.full(len(registry), -40.0)
        logits[pick] = 40.0  # softmax is one-hot to machine precision
        mixed = mixed_forward(x, Tensor(logits), weights, registry).data
        direct = apply_op(registry[pick], x, weights[pick]).data
        np.testing.assert_allclose(mixed, direct, atol=1e-6)


def test_mixed_forward_logit_count_checked(rng):
    registry = SEARCH_OPS
    weights = [make_op_params(k, 3, rng, f"op{i}") for i, k in enumerate(registry)]
    x = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    with pytest.raises(ConfigError):
        mixed_forward(x, Tensor(np.zeros(3)), weights, registry)


def composite_mixed_forward(x, edge_logits, edge_weights, registry):
    """Reference mixed edge built from autodiff primitives: each candidate's
    ``apply_op`` output times its softmax entry, summed in registry order."""
    mix = ad.softmax(edge_logits)

    def entry(i):
        def bw(g):
            gv = np.zeros_like(mix.data)
            gv[i] = float(g)
            yield mix, gv

        return ad._make(mix.data[i], (mix,), bw)

    out = None
    for i, kind in enumerate(registry):
        wi = ad.mul(apply_op(kind, x, edge_weights[i]), entry(i))
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
    """Output, leaves (input, logits, conv parameters) and their gradients
    for sum(probe * edge(x)), every input seeded."""
    rng = np.random.default_rng(seed)
    weights = [make_op_params(k, shape[1], rng, f"op{i}") for i, k in enumerate(registry)]
    for params in weights:
        if params:
            params["bias"].data = rng.normal(0.0, 0.1, shape[1])
    x = Tensor(rng.normal(size=shape), requires_grad=x_grad)
    logits = Parameter(rng.normal(size=len(registry)), "logits")
    probe = Tensor(rng.normal(size=shape))
    out = forward(x, logits, weights, registry)
    backward(ad.reduce_sum(ad.mul(out, probe)))
    leaves = [x, logits] + [p for params in weights for p in params.values()]
    return out, leaves, [t.grad for t in leaves]


@pytest.mark.parametrize("case", list(MIXED_CASES))
def test_fused_mixed_edge_matches_composite(case):
    registry, shape, x_grad = MIXED_CASES[case]
    want, _, want_grads = _edge_run(composite_mixed_forward, registry, shape, x_grad, 11)
    got, leaves, got_grads = _edge_run(mixed_forward, registry, shape, x_grad, 11)
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-9)
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
    assert got._parents[0] is x and got._parents[1]._parents == (logits,)
    assert [id(p) for p in got._parents[2:]] == [id(p) for p in params]


def test_mixed_forward_checks_its_candidates(rng):
    registry = SEARCH_OPS
    x = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    logits = Tensor(np.zeros(len(registry)))

    def weights():
        return [make_op_params(k, 3, rng, f"op{i}") for i, k in enumerate(registry)]

    missing = weights()
    missing[1] = {}
    with pytest.raises(ConfigError, match="requires conv weights"):
        mixed_forward(x, logits, missing, registry)
    wrong_kernel = weights()
    wrong_kernel[0] = make_op_params(OPS_BY_NAME["3-C"], 3, rng, "op0")
    with pytest.raises(ConfigError, match="do not match operator 1-C"):
        mixed_forward(x, logits, wrong_kernel, registry)
    wide = weights()
    wide[3]["weight"] = Parameter(rng.normal(size=(4, 3, 3, 3)), "wide")
    wide[3]["bias"] = Parameter(np.zeros(4), "wide.bias")
    with pytest.raises(ShapeError, match="c_in == c_out"):
        mixed_forward(x, logits, wide, registry)
    narrow_in = weights()
    narrow_in[1]["weight"] = Parameter(rng.normal(size=(3, 2, 3, 3)), "narrow")
    with pytest.raises(ShapeError, match="channel mismatch"):
        mixed_forward(x, logits, narrow_in, registry)
    bad_bias = weights()
    bad_bias[4]["bias"] = Parameter(np.zeros(1), "bias")
    with pytest.raises(ShapeError, match="bias"):
        mixed_forward(x, logits, bad_bias, registry)
    plain = _ops("3-C", "1-C")
    mismatched = [make_op_params(k, 3, rng, f"op{i}") for i, k in enumerate(plain)]
    mismatched[1]["weight"] = Parameter(rng.normal(size=(4, 3, 1, 1)), "four")
    mismatched[1]["bias"] = Parameter(np.zeros(4), "four.bias")
    with pytest.raises(ShapeError, match="output channels"):
        mixed_forward(x, Tensor(np.zeros(2)), mismatched, plain)
    with pytest.raises(ShapeError, match="4-d"):
        mixed_forward(Tensor(np.ones((3, 6, 6))), logits, weights(), registry)


def test_cell_spec_edges():
    spec = CellSpec(width=3)
    assert spec.chain_edges == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert spec.distill_edges == [(0, 4), (1, 4), (2, 4)]
    assert len(spec.edges) == 7


def test_discretize_argmax_and_ties(rng):
    spec = CellSpec(width=3)
    arch = ArchParams(spec)  # zero logits everywhere
    kinds = discretize(arch)
    assert all(k.name == "1-C" for k in kinds)  # ties break to lowest index
    arch.logits[2].data[4] = 1.0
    assert discretize(arch)[2].name == "3-2-DC"
    arch.logits[0].data[0] = np.nan
    with pytest.raises(ConfigError):
        discretize(arch)


def test_all_skip_cell_with_averaging_fusion_is_identity(rng):
    spec = CellSpec(width=3)
    cell = DiscreteCell(spec, [OPS_BY_NAME["SC"]] * 7, rng)
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
        cell, arch = _cell(mixed, rng, fusion_init="zeros")
        np.testing.assert_array_equal(cell.forward(x, arch).data, 0.0)
        with pytest.raises(ConfigError):
            _cell(mixed, rng, fusion_init="ones")


def test_cell_channel_check(rng):
    for mixed in (False, True):
        cell, arch = _cell(mixed, rng)
        with pytest.raises(ShapeError):
            cell.forward(Tensor(rng.normal(size=(1, 4, 5, 5))), arch)


def test_mixed_cell_needs_logits(rng):
    cell, _ = _cell(True, rng)
    with pytest.raises(ConfigError):
        cell.forward(Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6))))


def test_discrete_cell_requires_full_choice_list(rng):
    with pytest.raises(ConfigError):
        DiscreteCell(CellSpec(width=3), [OPS_BY_NAME["3-C"]] * 5, rng)


def test_mixed_logit_gradients_flow(rng):
    spec = CellSpec(width=3)
    cell = MixedCell(spec, rng)
    arch = ArchParams(spec, rng)
    x = Tensor(rng.uniform(0.1, 1.0, size=(1, 3, 6, 6)))
    backward(ad.reduce_l2sq(cell.forward(x, arch)))
    assert all(l.grad is not None for l in arch.logits)
    assert any(np.abs(l.grad).max() > 0 for l in arch.logits)


def test_count_params_and_flops(rng):
    spec = CellSpec(width=3)
    # one 3x3 conv per edge: 7 * (3*3*9 + 3) weights+biases, plus 1x1 fusion
    cell = DiscreteCell(spec, [OPS_BY_NAME["3-C"]] * 7, rng)
    expected = 7 * (3 * 3 * 9 + 3) + (3 * 12 * 1 * 1 + 3)
    assert count_params(cell.parameters()) == expected
    assert conv_flops(3, 3, 3, 8, 8) == 8 * 8 * 3 * 3 * 9
    # skip edges contribute nothing
    skip_cell = DiscreteCell(spec, [OPS_BY_NAME["SC"]] * 7, rng)
    assert cell_flops(skip_cell, 8, 8) == conv_flops(3, 12, 1, 8, 8)


@pytest.mark.parametrize(
    "scene_ops, task_ops",
    [
        (DEFAULT_SCENE_OPS, DEFAULT_TASK_OPS),
        (
            ("SC", "3-RC", "SC", "7-C", "1-C", "3-18-DC", "SC"),
            ("5-2-DC", "SC", "SC", "1-RC", "7-2-DC", "SC", "3-C"),
        ),
    ],
    ids=["default", "with-skips"],
)
def test_cell_param_count_matches_the_built_model(rng, scene_ops, task_ops):
    model = RuasModel(rng, variant="ruas", scene_ops=scene_ops, task_ops=task_ops)
    scene = cell_param_count(model.scene_spec, [lookup_op(n) for n in scene_ops])
    task = cell_param_count(model.task_spec, [lookup_op(n) for n in task_ops])
    assert scene == model.scene_param_count()
    assert task + count_params(model.remover.parameters()) == count_params(model.omega_t())


def test_mixed_cell_flops_count_every_candidate(rng):
    spec = CellSpec(width=6)
    cell = MixedCell(spec, rng)
    per_edge = sum(conv_flops(6, 6, k.kernel, 8, 8) for k in SEARCH_OPS if not k.skip)
    # 1-C, 3-C, 1-RC, 3-RC, 3-2-DC and 3-2-RDC; the skip costs nothing
    assert per_edge == 8 * 8 * 6 * 6 * (1 + 9 + 1 + 9 + 9 + 9)
    assert cell_flops(cell, 8, 8) == 7 * per_edge + conv_flops(6, 24, 1, 8, 8)


def test_flops_follow_the_variant_that_runs():
    """A ruas model run as ruas_s counts no removal, as a native ruas_s does;
    the supernet run as ruas_s counts every candidate of its scene cell."""
    native = RuasModel(np.random.default_rng(0), variant="ruas_s")
    assert RuasModel(np.random.default_rng(0)).flops(32, 32) == 4_377_600
    assert RuasModel(np.random.default_rng(0)).set_variant("ruas_s").flops(32, 32) == 1_852_416
    assert native.flops(32, 32) == 1_852_416
    supernet = RuasModel.supernet(np.random.default_rng(0)).set_variant("ruas_s")
    assert supernet.flops(32, 32) == 3 * cell_flops(supernet.scene_cell, 32, 32)


def test_arch_dump_formats(rng):
    spec = CellSpec(width=3)
    arch = ArchParams(spec, rng)
    text = arch_dump(spec, arch)
    lines = text.strip().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("edge 0->1 op=")
    plain = arch_dump(spec, [OPS_BY_NAME["SC"]] * 7)
    assert all("op=SC" in line for line in plain.strip().splitlines())
