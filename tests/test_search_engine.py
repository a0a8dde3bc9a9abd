"""Bilevel search: hypergradient vs a closed-form quadratic oracle, the search loop."""

import numpy as np
import pytest

from ruas import autodiff as ad
from ruas.autodiff import Parameter, Tensor
from ruas.errors import ConfigError
from ruas.io_metrics import split_records
from ruas.search import SearchConfig, hypergrad_onestep, run_search


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
    assert set(res.history[0]) == {"scene_val", "task_val", "combined"}
    assert 0.5 <= res.momentum < 0.999
    csv = res.history_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "epoch,scene_val,task_val,combined"
    assert lines[1].startswith("0,")
    assert len(lines) == 2


def test_independent_history_covers_both_phases(tiny_dataset):
    _, records = tiny_dataset
    data = small_split(records)
    cfg = SearchConfig(
        strategy="independent", epochs=2, warmup_epochs=1, lr_omega=3e-5
    )
    res = run_search(data, cfg, seed=3)
    assert len(res.history) == 4  # scene epochs then task epochs


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
