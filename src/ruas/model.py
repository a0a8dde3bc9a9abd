"""Model composition: the full enhancement pipeline, as the search supernet
(mixed cells) or as a derived model (one operator per edge), plus its
checkpoint format."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from . import autodiff as ad
from .config import VARIANTS, SceneConfig, TaskConfig
from .errors import ConfigError, DataIOError
from .io_metrics import write_file
from .scene import scene_forward, scene_loss
from .search_space import (
    ArchParams,
    DiscreteCell,
    MixedCell,
    count_params,
    lookup_op,
)
from .task import NoiseRemover, estimate_noise_sigma, noise_gate, task_loss

SCENE_WIDTH = 3
TASK_WIDTH = 6

# fallback derived architecture when no search result is supplied; 3x3-heavy,
# residual on the chain, distillation through plain convs
DEFAULT_SCENE_OPS = ("3-RC", "3-2-RDC", "3-RC", "3-C", "3-C", "3-2-DC", "3-C")
DEFAULT_TASK_OPS = ("3-RC", "3-2-RDC", "3-RC", "3-C", "3-C", "3-2-DC", "3-C")

# output rows per band of a no-grad noise removal; bands of 64 rows took
# about 8% more time at 256 px for a little less memory
TASK_BAND_ROWS = 128


class RuasModel:
    """The nested scene-plus-task unrolling, run as one of the three variants.

    A derived model holds one operator per cell edge.  The search supernet,
    built by ``supernet``, holds a MixedCell on both sides: every edge mixes
    every search candidate under the logits ``alpha_s`` (scene) and
    ``alpha_t`` (task), which are None on a derived model.
    """

    def __init__(
        self,
        rng,
        variant="ruas",
        scene_cfg=None,
        scene_ops=DEFAULT_SCENE_OPS,
        task_ops=DEFAULT_TASK_OPS,
        gate_eps=0.01,
        tv_weight=0.05,
    ):
        if variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
        self.variant = variant
        self.scene_cfg = scene_cfg or SceneConfig()
        self.gate_eps = gate_eps
        self.tv_weight = tv_weight
        self.scene_ops = _op_names(scene_ops)
        self.task_ops = _op_names(task_ops)
        self.scene_cell = _cell(SCENE_WIDTH, self.scene_ops, rng, "sm.cell")
        self.task_cell = None
        self.remover = None
        if variant in ("ruas", "ruas_a"):
            self.task_cell = _cell(TASK_WIDTH, self.task_ops, rng, "tm.cell")
        # a mixed cell's logits are drawn after both cells, before the remover
        self.alpha_s = _logits(self.scene_cell, rng, "alpha_s")
        self.alpha_t = _logits(self.task_cell, rng, "alpha_t")
        if self.task_cell is not None:
            self.remover = NoiseRemover(rng, width=TASK_WIDTH, name="tm.psi_r")

    @classmethod
    def supernet(cls, rng, scene_cfg=None, tv_weight=0.05):
        """The search supernet: a ``ruas`` model whose op lists are None, so
        that both cells mix every candidate.  It draws from ``rng`` in the
        order scene cell, task cell, alpha_s, alpha_t, remover."""
        return cls(rng, scene_cfg=scene_cfg, scene_ops=None, task_ops=None, tv_weight=tv_weight)

    @classmethod
    def from_config(cls, rng, task, scene_cfg):
        """The model a TaskConfig describes; a null op list takes the default
        cell."""
        return cls(
            rng,
            variant=task.variant,
            scene_cfg=scene_cfg,
            scene_ops=DEFAULT_SCENE_OPS if task.scene_ops is None else task.scene_ops,
            task_ops=DEFAULT_TASK_OPS if task.task_ops is None else task.task_ops,
            gate_eps=task.gate_eps,
            tv_weight=task.tv_weight,
        )

    # ------------------------------------------------------------------
    def omega_s(self):
        return self.scene_cell.parameters()

    def omega_t(self):
        if self.task_cell is None:
            return []
        return self.task_cell.parameters() + self.remover.parameters()

    def parameters(self):
        return self.omega_s() + self.omega_t()

    def set_variant(self, variant):
        """Run as ``variant`` (None: keep the current one) from now on; a
        variant can drop the modules this model has but not add any, and
        ``ruas_s`` drops the task cell, the remover and ``alpha_t``."""
        if variant is None or variant == self.variant:
            return self
        if variant != "ruas_s" and self.task_cell is None:
            raise ConfigError(
                f"model (hash {self.config_hash()}, variant {self.variant!r}) "
                f"lacks modules for variant {variant!r}"
            )
        if variant == "ruas_s":
            # what does not run is not a parameter, nor saved in a checkpoint
            self.task_cell = self.remover = self.alpha_t = None
        self.variant = variant
        return self

    def scene_out(self, y, stages=None):
        """``scene_forward`` of ``y`` with the scene cell: (u_K, t_K, stages)."""
        cell_fn = lambda t: self.scene_cell.forward(t, self.alpha_s)
        return scene_forward(y, self.scene_cfg, cell_fn, stages)

    def task_out(self, u):
        """Noise removal of the scene output ``u``.

        Without a tape, a map over TASK_BAND_ROWS rows whose rows are whole
        pixel blocks (``ad.whole_blocks``) is removed in bands of
        TASK_BAND_ROWS output rows, each read with the task cell's radius of
        rows more per side, clipped at the border.  Every op of the remover
        is local, and every product of a band holds whole blocks as the
        image's does, so the output is bit-identical to one pass, which
        every other map takes; the peak memory is then a band's.
        """
        remove = lambda v: self.remover.forward(v, self.task_cell.forward, self.alpha_t)
        h, w = u.data.shape[2:]
        if ad.grad_enabled() or h <= TASK_BAND_ROWS or not ad.whole_blocks(w):
            return remove(u)
        r = self.task_cell.radius()
        out = np.empty(u.data.shape)
        for lo in range(0, h, TASK_BAND_ROWS):
            hi = min(lo + TASK_BAND_ROWS, h)
            top = max(lo - r, 0)
            band = ad.Tensor(u.data[:, :, top : hi + r])
            out[:, :, lo:hi] = remove(band).data[:, :, lo - top : hi - top]
        return ad.Tensor(out)

    def forward(self, y, stages=None):
        """Full pipeline; returns a dict of the output ``x``, the scene's
        ``u`` and ``t`` and the ``ruas_a`` gate's ``noise_sigma`` and
        ``gate_skip``.  Each scene stage's (t_k, u_k) is appended to the
        list ``stages`` if one is given, and kept nowhere otherwise."""
        u, t, _ = self.scene_out(y, stages)
        out = {"u": u, "t": t, "noise_sigma": None, "gate_skip": None}
        if self.variant == "ruas_a":
            out["noise_sigma"] = estimate_noise_sigma(y.data)
            out["gate_skip"] = noise_gate(out["noise_sigma"], self.gate_eps)
        if self.variant == "ruas_s" or out["gate_skip"]:
            out["x"] = ad.clamp(u, 0.0, 1.0)
        else:
            out["x"] = self.task_out(u)
        return out

    def enhance(self, y):
        return self.forward(y)["x"]

    # the unsupervised objectives; in search, training and validation alike
    def scene_loss(self, y):
        _, t, _ = self.scene_out(y)
        return scene_loss(t, y, self.scene_cfg)

    def task_loss_on(self, u):
        """Task loss on a given scene output ``u``."""
        return task_loss(self.task_out(u), u, tv_weight=self.tv_weight)

    # ------------------------------------------------------------------
    def scene_param_count(self):
        return count_params(self.omega_s())

    def flops(self, h, w):
        """Multiply-add count of one forward pass at resolution h x w: every
        entry of a conv weight the model holds is one multiply-add per pixel
        (stride 1, same padding), and the scene cell runs once per stage."""
        convs = lambda params: count_params(p for p in params if p.data.ndim == 4)
        return h * w * (self.scene_cfg.stages * convs(self.omega_s()) + convs(self.omega_t()))

    # ------------------------------------------------------------------
    def config_dict(self):
        return {
            "variant": self.variant,
            "scene_ops": self.scene_ops,
            "task_ops": self.task_ops,
            "gate_eps": self.gate_eps,
            "tv_weight": self.tv_weight,
            "scene_cfg": dataclasses.asdict(self.scene_cfg),
        }

    def config_hash(self):
        blob = json.dumps(self.config_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _op_names(ops):
    return None if ops is None else tuple(str(o) for o in ops)


def _cell(width, ops, rng, name):
    """The derived cell of the operators ``ops``; a MixedCell when None."""
    if ops is None:
        return MixedCell(width, rng, name=name, fusion_init="zeros")
    kinds = [lookup_op(n) for n in ops]
    return DiscreteCell(width, kinds, rng, name=name, fusion_init="zeros")


def _logits(cell, rng, name):
    """The per-edge logits that a mixed ``cell`` runs under; None otherwise."""
    return ArchParams(rng, name=name) if isinstance(cell, MixedCell) else None


# ---------------------------------------------------------------------------
# checkpoint format: magic, u32 header length, JSON header, raw float64 blobs

_MAGIC = b"RUASCKPT"


def save_checkpoint(model, path):
    if model.scene_ops is None or model.task_ops is None:
        # the loader would rebuild a None op list as the default cell
        raise ConfigError(
            "cannot checkpoint the search supernet: its cells mix every candidate;"
            " save a model derived from its logits instead"
        )
    params = model.parameters()
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate parameter names; cannot checkpoint")
    header = {
        "config": model.config_dict(),
        "config_hash": model.config_hash(),
        "params": [{"name": p.name, "shape": list(p.data.shape)} for p in params],
    }
    blob = json.dumps(header).encode()
    parts = [_MAGIC, len(blob).to_bytes(4, "little"), blob]
    parts += [np.ascontiguousarray(p.data, dtype=np.float64).tobytes() for p in params]
    write_file(path, b"".join(parts))


def load_checkpoint(path):
    """Rebuild a RuasModel from a checkpoint file.

    The file is untrusted: every defect in it, a non-finite parameter value
    included, raises DataIOError.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataIOError(f"cannot read checkpoint {path}: {exc}") from exc
    start = len(_MAGIC) + 4
    if len(blob) < start or blob[: len(_MAGIC)] != _MAGIC:
        raise DataIOError(f"{path} is not a checkpoint file")
    end = start + int.from_bytes(blob[len(_MAGIC) : start], "little")
    if end > len(blob):
        raise DataIOError(f"checkpoint header runs past the end of {path}")
    try:
        header = json.loads(blob[start:end].decode())
        cfg = header["config"]
        task = TaskConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(TaskConfig)})
        model = RuasModel.from_config(
            np.random.default_rng(0), task, SceneConfig(**cfg["scene_cfg"])
        )
        if model.config_hash() != header["config_hash"]:
            raise DataIOError(f"checkpoint config hash mismatch in {path}")
        by_name = {p.name: p for p in model.parameters()}
        stored = [(meta["name"], tuple(meta["shape"])) for meta in header["params"]]
        names = [name for name, _ in stored]
        if len(names) != len(set(names)) or set(names) != set(by_name):
            raise DataIOError(f"parameters in {path} do not match the model's")
    except (ValueError, KeyError, TypeError, RecursionError, ConfigError) as exc:
        raise DataIOError(f"bad checkpoint header in {path}: {exc!r}") from exc
    for name, shape in stored:
        if by_name[name].data.shape != shape:
            raise DataIOError(
                f"shape mismatch for {name}: {by_name[name].data.shape} vs {shape}"
            )
    if len(blob) - end != 8 * sum(p.data.size for p in by_name.values()):
        raise DataIOError(f"checkpoint {path} is truncated or has trailing bytes")
    for name, _ in stored:
        p = by_name[name]
        n = p.data.size
        data = np.frombuffer(blob, np.float64, n, end)
        if not np.all(np.isfinite(data)):
            raise DataIOError(f"non-finite values in parameter {name} of {path}")
        p.data = data.reshape(p.data.shape).copy()
        end += 8 * n
    return model
