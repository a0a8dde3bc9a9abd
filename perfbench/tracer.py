"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of the `ruas` modules with
timing wrappers, everywhere a module holds them (so `backward` imported into
`search.py` and `train.py` is wrapped too), and restores the originals on
`uninstall`.  Each wrapped call is a span; a span's self time is its
duration minus the time of the wrapped calls made inside it.  Counts that
ratios need (multiply-adds, zero gradients, decoded files, warnings) are
taken at the same boundaries.
"""

from __future__ import annotations

import sys
import time
import warnings

import numpy as np

# public op functions of ruas.autodiff; their calls make up ops_per_item
AUTODIFF_OPS = (
    "add", "sub", "mul", "div", "neg", "relu", "clamp", "absolute", "concat",
    "spatial_diff", "sliding_max", "conv2d", "softmax", "reduce_sum",
    "reduce_mean", "reduce_l1", "reduce_l2sq", "reduce",
)
ELEMENTWISE = ("add", "sub", "mul", "div", "neg", "relu", "clamp", "absolute")

# (module, attribute) pairs to wrap; "Class.method" wraps a method
TARGETS = [("autodiff", op) for op in AUTODIFF_OPS] + [
    ("autodiff", "backward"),
    ("autodiff", "SGD.step"),
    ("search_space", "mixed_forward"),
    ("search_space", "MixedCell.forward"),
    ("search_space", "DiscreteCell.forward"),
    ("scene", "scene_forward"),
    ("scene", "warm_start"),
    ("scene", "rtv"),
    ("scene", "scene_loss"),
    ("task", "NoiseRemover.forward"),
    ("task", "task_loss"),
    ("search", "hypergrad_onestep"),
    ("io_metrics", "load_png"),
    ("io_metrics", "save_png"),
    ("model", "RuasModel.forward"),
    ("model", "load_checkpoint"),
    ("model", "save_checkpoint"),
]


def _shape(x):
    return np.shape(getattr(x, "data", x))


class Tracer:
    """Wraps the TARGETS of an imported `ruas` package while installed."""

    def __init__(self, package):
        self.stats = {}  # span name -> [calls, inclusive s, self s]
        self.conv_madds = 0
        self.sgd_params = 0
        self.sgd_zero_grad = 0
        self.png_paths = []
        self.png_warnings = 0
        self._stack = []
        self._shown = set()  # warning locations already shown
        self._patches = []
        for mod_name, attr in TARGETS:
            module = getattr(package, mod_name)
            name = f"{mod_name}.{attr}"
            self.stats[name] = [0, 0.0, 0.0]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patches.append((owner, meth, self._wrap(name, getattr(owner, meth))))
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(name, fn)
            for mod in _package_modules(package):
                for key, value in vars(mod).items():
                    if value is fn:
                        self._patches.append((mod, key, wrapped))
        self._originals = [(o, k, getattr(o, k)) for o, k, _ in self._patches]

    def install(self):
        for owner, key, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, original in self._originals:
            setattr(owner, key, original)

    def _wrap(self, name, fn):
        stat = self.stats[name]
        before = {
            "autodiff.conv2d": self._count_conv,
            "autodiff.SGD.step": self._count_sgd,
            "io_metrics.load_png": self._count_png,
        }.get(name)
        call = self._call_counting_warnings if name == "io_metrics.load_png" else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                if call is not None:
                    return call(fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_conv(self, x, w, *rest, **kw):
        n, c_in, h, wd = _shape(x)
        c_out, _, k, _ = _shape(w)
        self.conv_madds += n * c_out * h * wd * c_in * k * k

    def _count_sgd(self, opt):
        for p in opt.params:
            self.sgd_params += 1
            if p.grad is not None and not np.any(p.grad):
                self.sgd_zero_grad += 1

    def _count_png(self, path):
        self.png_paths.append(path)

    def _call_counting_warnings(self, fn, args, kwargs):
        """Count the decoder's warnings, then show each new location once, as
        Python's default filter would, so they stay visible."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.png_warnings += len(caught)
        for w in caught:
            where = (w.category, w.filename, w.lineno)
            if where not in self._shown:
                self._shown.add(where)
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    def calls(self, name):
        return self.stats[name][0]

    def seconds(self, name):
        return self.stats[name][1]

    def op_calls(self):
        return sum(self.stats[f"autodiff.{op}"][0] for op in AUTODIFF_OPS)

    def table(self):
        """Rows of (span, calls, inclusive s, self s), busiest first."""
        rows = [(k, v[0], v[1], v[2]) for k, v in self.stats.items() if v[0]]
        return sorted(rows, key=lambda r: -r[2])


def _package_modules(package):
    prefix = package.__name__
    return [
        m for k, m in list(sys.modules.items())
        if m is not None and (k == prefix or k.startswith(prefix + "."))
    ]
