"""Bilevel search: hypergradient vs a closed-form quadratic oracle, the search loop."""

import numpy as np
import pytest

from ruas import autodiff as ad
from ruas import search
from ruas.autodiff import Parameter, Tensor
from ruas.errors import ConfigError
from ruas.io_metrics import split_records
from ruas.model import SCENE_WIDTH, TASK_WIDTH, RuasModel
from ruas.search import SearchConfig, hypergrad_onestep, run_search
from ruas.search_space import ArchParams, MixedCell
from ruas.task import NoiseRemover


# ---------------------------------------------------------------------------
# closed-form oracle on diagonal quadratics
#
#   L_tr(w, a)  = sum(0.5 * ca * w^2 - cb * a * w)
#   L_val(w, a) = sum(0.5 * cc * w^2 + cd * w + 0.5 * ce * a^2 + cf * a)
#
# With w' = w - lr * (ca*w - cb*a), the exact bilevel gradient is
#   dL_val/da = ce*a + cf + lr * cb * (cc*w' + cd)
# and central differences are exact on quadratics, so the one-step
# approximation must agree to rounding error.


def quadratic_problem(rng, dim=4):
    coef = {k: rng.uniform(0.5, 2.0, size=dim) for k in ("ca", "cb", "cc", "cd", "ce", "cf")}
    w = Parameter(rng.normal(size=dim), "w")
    a = Parameter(rng.normal(size=dim), "a")

    def loss_tr():
        quad = ad.mul(Tensor(0.5 * coef["ca"]), ad.mul(w, w))
        cross = ad.mul(Tensor(coef["cb"]), ad.mul(a, w))
        return ad.reduce_sum(ad.sub(quad, cross))

    def loss_val():
        terms = ad.add(
            ad.add(
                ad.mul(Tensor(0.5 * coef["cc"]), ad.mul(w, w)),
                ad.mul(Tensor(coef["cd"]), w),
            ),
            ad.add(
                ad.mul(Tensor(0.5 * coef["ce"]), ad.mul(a, a)),
                ad.mul(Tensor(coef["cf"]), a),
            ),
        )
        return ad.reduce_sum(terms)

    def exact(lr):
        g_tr = coef["ca"] * w.data - coef["cb"] * a.data
        w_step = w.data - lr * g_tr
        return coef["ce"] * a.data + coef["cf"] + lr * coef["cb"] * (
            coef["cc"] * w_step + coef["cd"]
        )

    return w, a, loss_tr, loss_val, exact


def test_hypergrad_matches_closed_form(rng):
    for _ in range(20):
        w, a, loss_tr, loss_val, exact = quadratic_problem(rng)
        lr = float(rng.uniform(0.01, 0.3))
        (got,) = hypergrad_onestep([a], [w], loss_val, loss_tr, lr)
        want = exact(lr)
        rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert rel.max() < 1e-6


def test_hypergrad_restores_weights(rng):
    w, a, loss_tr, loss_val, _ = quadratic_problem(rng)
    before = w.data.copy()
    hypergrad_onestep([a], [w], loss_val, loss_tr, 0.1)
    np.testing.assert_array_equal(w.data, before)


def test_hypergrad_zero_inner_lr_is_direct_gradient(rng):
    w, a, loss_tr, loss_val, exact = quadratic_problem(rng)
    (got,) = hypergrad_onestep([a], [w], loss_val, loss_tr, 0.0)
    np.testing.assert_allclose(got, exact(0.0), atol=1e-12)


def test_hypergrad_coupling_term_matters(rng):
    # the one-step gradient must differ from the naive direct gradient
    w, a, loss_tr, loss_val, exact = quadratic_problem(rng)
    lr = 0.2
    (got,) = hypergrad_onestep([a], [w], loss_val, loss_tr, lr)
    direct = exact(0.0)
    assert np.abs(got - direct).max() > 1e-3


# ---------------------------------------------------------------------------
# config and the search loop


def test_search_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(beta=-1.0)
    with pytest.raises(ConfigError):
        SearchConfig(lr_omega=-1e-3)
    with pytest.raises(ConfigError):
        SearchConfig(strategy="greedy")
    with pytest.raises(ConfigError):
        SearchConfig(epochs=0)
    with pytest.raises(ConfigError):
        SearchConfig(grad_clip=0.0)
    for steps in (0, -1):
        with pytest.raises(ConfigError, match="inner_steps"):
            SearchConfig(inner_steps=steps)
    for step in (0.0, -1e-2):
        with pytest.raises(ConfigError, match="fd_step"):
            SearchConfig(fd_step=step)


def small_split(records):
    return split_records(records[:4], val_fraction=0.25)


def test_run_search_deterministic(tiny_dataset):
    _, records = tiny_dataset
    data = small_split(records)
    cfg = SearchConfig(epochs=2, warmup_epochs=1, lr_omega=3e-5, lr_alpha=3e-4)
    r1 = run_search(data, cfg, seed=7)
    r2 = run_search(data, cfg, seed=7)
    assert r1.history == r2.history
    assert [k.name for k in r1.scene_ops] == [k.name for k in r2.scene_ops]
    assert [k.name for k in r1.task_ops] == [k.name for k in r2.task_ops]
    assert r1.momentum == r2.momentum
    r3 = run_search(data, cfg, seed=8)
    assert r3.history != r1.history


def test_search_result_shape_and_csv(tiny_dataset):
    _, records = tiny_dataset
    data = small_split(records)
    cfg = SearchConfig(epochs=1, warmup_epochs=1, lr_omega=3e-5)
    res = run_search(data, cfg, seed=1)
    assert len(res.scene_ops) == 7 and len(res.task_ops) == 7
    assert len(res.history) == 1
    keys = {"stage", "epoch", "scene_val", "task_val", "combined"}
    assert set(res.history[0]) == keys
    assert 0.5 <= res.momentum < 0.999
    csv = res.history_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "stage,epoch,scene_val,task_val,combined"
    assert lines[1].startswith("0,0,")
    assert len(lines) == 2


def test_independent_history_covers_both_phases(tiny_dataset):
    _, records = tiny_dataset
    data = small_split(records)
    cfg = SearchConfig(
        strategy="independent", epochs=2, warmup_epochs=1, lr_omega=3e-5
    )
    res = run_search(data, cfg, seed=3)
    assert len(res.history) == 4  # scene epochs then task epochs
    assert [row["stage"] for row in res.history] == [0, 0, 1, 1]
    assert [row["epoch"] for row in res.history] == [0, 1, 0, 1]
    rows = [line.split(",")[:2] for line in res.history_csv().splitlines()[1:]]
    assert rows == [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]


def test_global_search_runs(tiny_dataset):
    _, records = tiny_dataset
    data = small_split(records)
    cfg = SearchConfig(strategy="global", epochs=2, warmup_epochs=1, lr_omega=3e-5)
    res = run_search(data, cfg, seed=3)
    assert len(res.history) == 2
    assert all(np.isfinite(row["combined"]) for row in res.history)


@pytest.mark.parametrize("strategy", ["independent", "global"])
def test_inner_steps_apply_to_every_strategy(tiny_dataset, strategy):
    _, records = tiny_dataset
    data = small_split(records)
    histories = [
        run_search(
            data,
            SearchConfig(
                strategy=strategy, epochs=1, warmup_epochs=1, lr_omega=3e-5, inner_steps=n
            ),
            seed=3,
        ).history
        for n in (1, 2)
    ]
    assert histories[0] != histories[1]


# ---------------------------------------------------------------------------
# the task phase sees the scene output as a constant


def test_frozen_scene_task_grads_equal_full_tape(tiny_dataset):
    _, records = tiny_dataset
    model = RuasModel.supernet(np.random.default_rng(11))
    y = Tensor(records[0].input())
    task_params = model.alpha_t.parameters() + model.omega_t()
    scene_params = model.alpha_s.parameters() + model.omega_s()

    full = model.task_loss_on(model.scene_out(y)[0])
    want = ad.backward(full, task_params + scene_params)
    assert any(np.any(g) for g in want[len(task_params) :])

    with ad.no_grad():
        u, _, _ = model.scene_out(y)
    frozen = model.task_loss_on(u)
    got = ad.backward(frozen, task_params + scene_params)
    assert float(frozen.data) == float(full.data)
    for p, g, w in zip(task_params, got, want):
        assert np.array_equal(g, w), p.name
    assert not any(np.any(g) for g in got[len(task_params) :])


def test_alpha_only_pass_matches_full_pass_and_skips_weight_gradients(
    tiny_dataset, monkeypatch
):
    _, records = tiny_dataset
    model = RuasModel.supernet(np.random.default_rng(11))
    y = Tensor(records[0].input())
    alphas = model.alpha_s.parameters() + model.alpha_t.parameters()
    omegas = model.omega_s() + model.omega_t()

    def loss():
        task = model.task_loss_on(model.scene_out(y)[0])
        return ad.add(model.scene_loss(y), task)

    want = ad.backward(loss(), alphas + omegas)[: len(alphas)]
    for p in omegas:
        p.grad = None

    wgrads = []
    raw = ad._raw_conv_wgrad
    monkeypatch.setattr(ad, "_raw_conv_wgrad", lambda *a: wgrads.append(1) or raw(*a))
    ad.backward(loss(), alphas)
    for a, g in zip(alphas, want):
        assert np.array_equal(a.grad, g), a.name
    assert [w.name for w in omegas if w.grad is not None] == []
    assert wgrads == []


def test_task_phase_takes_one_scene_pass_per_pair_input(tiny_dataset, monkeypatch):
    """In a cooperative run the task phase calls ``scene_out`` once for each
    image of a (train, val) pair, never inside its losses, and none of its
    backward passes reaches a scene parameter."""
    _, records = tiny_dataset
    data = small_split(records)
    cfg = SearchConfig(epochs=2, warmup_epochs=1, lr_omega=3e-5)
    where = [None]  # which part of the task phase is running
    calls = {"input": 0, "loss": 0}
    seen = {"task_backward": 0, "leaked": []}
    last_task_loss = [None]
    scene_params = []

    scene_out = RuasModel.scene_out

    def counting_scene_out(self, y):
        if where[0] is not None:
            calls[where[0]] += 1
        return scene_out(self, y)

    def tagged(fn, tag):
        def wrapped(x):
            where[0] = tag
            try:
                out = fn(x)
            finally:
                where[0] = None
            if tag == "loss":
                last_task_loss[0] = out
            return out

        return wrapped

    stages = search._stages

    def tagging_stages(model, cfg, momentum):
        out = stages(model, cfg, momentum)
        scene_params.extend(model.alpha_s.parameters() + model.omega_s())
        (_, task), = out
        task.loss_input = tagged(task.loss_input, "input")
        task.val_loss = tagged(task.val_loss, "loss")
        task.tr_loss = tagged(task.tr_loss, "loss")
        return out

    backward = ad.backward

    def checking_backward(loss, params):
        if loss is last_task_loss[0]:
            # every tensor on the tape, which the sweep is about to cut
            tape, stack = set(), [loss]
            while stack:
                node = stack.pop()
                if node not in tape:
                    tape.add(node)
                    stack += node._parents
            seen["task_backward"] += 1
            seen["leaked"] += [p.name for p in scene_params if p in tape]
        return backward(loss, params)

    monkeypatch.setattr(RuasModel, "scene_out", counting_scene_out)
    monkeypatch.setattr(search, "_stages", tagging_stages)
    # the hypergradient calls search's name, SGD.backward_step autodiff's
    monkeypatch.setattr(search, "backward", checking_backward)
    monkeypatch.setattr(ad, "backward", checking_backward)
    run_search(data, cfg, seed=5)

    pairs = len(data.train)
    # warm-up epoch: the training image only; then the training and val image
    assert calls == {"input": pairs + 2 * pairs, "loss": 0}
    # every task step back-propagates at least its omega update
    assert seen["task_backward"] >= cfg.epochs * pairs
    assert seen["leaked"] == []


def _scene_passes_per_loss(data, cfg, monkeypatch):
    """``scene_out`` calls inside each loss evaluation of the first phase, in
    call order, over one seeded run."""
    counts = []
    inside = [False]
    scene_out = RuasModel.scene_out

    def counting_scene_out(self, y):
        if inside[0]:
            counts[-1] += 1
        return scene_out(self, y)

    def counted(fn):
        def wrapped(x):
            counts.append(0)
            inside[0] = True
            try:
                return fn(x)
            finally:
                inside[0] = False

        return wrapped

    stages = search._stages

    def counting_stages(model, cfg, momentum):
        out = stages(model, cfg, momentum)
        phase = out[0][0]
        phase.val_loss, phase.tr_loss = counted(phase.val_loss), counted(phase.tr_loss)
        return out

    monkeypatch.setattr(RuasModel, "scene_out", counting_scene_out)
    monkeypatch.setattr(search, "_stages", counting_stages)
    run_search(data, cfg, seed=5)
    return counts


@pytest.mark.parametrize("strategy", ["cooperative", "global"])
def test_scene_phase_losses_take_one_scene_pass_each(tiny_dataset, monkeypatch, strategy):
    """The coupling term of the cooperative scene phase, and the joint losses
    of global, reuse their loss's taped scene output: one unrolling per loss
    evaluation, so five per pair outside warm-up."""
    _, records = tiny_dataset
    data = small_split(records)
    cfg = SearchConfig(strategy=strategy, epochs=2, warmup_epochs=1, lr_omega=3e-5)
    counts = _scene_passes_per_loss(data, cfg, monkeypatch)

    pairs = len(data.train)
    # warm-up epoch: the weight step alone; then the inner training gradient,
    # the validation loss at the virtual step, two probes and the weight step
    assert len(counts) == pairs + 5 * pairs
    assert counts == [1] * len(counts)


def test_supernet_draws_cells_then_logits_then_remover():
    """Every seeded search artifact rests on this order of draws: scene cell,
    task cell, scene logits, task logits, remover."""
    rng = np.random.default_rng(4)
    cells = [MixedCell(SCENE_WIDTH, rng), MixedCell(TASK_WIDTH, rng)]
    for cell in cells:  # RuasModel zeroes its cells' fusion weights
        cell.fusion_w.data = np.zeros_like(cell.fusion_w.data)
    parts = [
        *cells,
        ArchParams(rng),
        ArchParams(rng),
        NoiseRemover(rng, width=TASK_WIDTH),
    ]
    model = RuasModel.supernet(np.random.default_rng(4))
    got = [model.scene_cell, model.task_cell, model.alpha_s, model.alpha_t, model.remover]
    want = [p.data for part in parts for p in part.parameters()]
    got = [p.data for part in got for p in part.parameters()]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
