"""Every name the perfbench tracer wraps still exists in `ruas`.

The tracer (perfbench/tracer.py) resolves each TARGETS entry when a traced
benchmark run starts; a refactor that renames or removes one of them would
break that run, and nothing else would notice.
"""

import runpy
from pathlib import Path

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
