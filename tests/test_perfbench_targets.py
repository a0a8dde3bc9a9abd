"""Every name the perfbench tracer wraps still exists in `ruas`, and the
program's calls go through it.

The tracer (perfbench/tracer.py) resolves each TARGETS entry when a traced
benchmark run starts; a refactor that renames or removes one of them would
break that run, and one that routes the program around a wrapped name would
leave its span at zero; nothing else would notice either.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

import ruas

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TARGETS = runpy.run_path(str(TRACER))["TARGETS"]  # run_path writes no bytecode


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_resolves(module, attr):
    owner = getattr(ruas, module)
    for part in attr.split("."):  # a function, or Class.method
        owner = getattr(owner, part)
    assert callable(owner)


def test_tracer_sees_every_reverse_sweep():
    """Installed on ``ruas``, the tracer counts one ``autodiff.backward``
    span for an optimizer step and four for a one-step hypergradient: the
    program's sweeps all go through the name it wraps."""
    tracer = runpy.run_path(str(TRACER))["Tracer"](ruas)
    ad = ruas.autodiff
    w = ad.Parameter(np.array([0.5, -1.0]), "w")
    a = ad.Parameter(np.array([2.0, 0.3]), "a")

    def loss_tr():
        return ad.reduce_sum(ad.mul(ad.mul(a, w), w))

    def loss_val():
        return ad.reduce_l2sq(ad.sub(w, a))

    tracer.install()
    try:
        ad.SGD([w], lr=0.1).backward_step(loss_tr())
        steps = tracer.calls("autodiff.backward")
        ruas.search.hypergrad_onestep([a], [w], loss_val, loss_tr, lr_omega=0.1)
    finally:
        tracer.uninstall()
    assert (steps, tracer.calls("autodiff.backward") - steps) == (1, 4)
