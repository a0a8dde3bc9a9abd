"""The benchmark's workloads.

Each workload drives the public API that one `ruas` command calls, as a
closed loop with a single caller: the next item starts when the previous one
ends.  Inputs come only from the seed.  A workload repeats identical rounds
(same inputs, same model seed), so every round after the first must
reproduce the first one exactly; that, and the per-item output checks, feed
the failure count.

Items are timed from outside the program: training and search call
`rec.input()` once per step, so the records handed to the program stamp the
clock, and step times come from consecutive stamps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import photo_png

clock = time.perf_counter


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


@dataclass
class Round:
    wall_s: float  # wall time of the round's calls into the program
    items_ms: list  # latency of each item, in order
    phases: list  # phase label of each item
    result: object = None  # what the output checks need
    pixels: int = 0  # input pixels of the round (enhance only)
    failed: int = 0
    speed: float = 1.0  # machine slowness around the round, see run.MachineProbe


@dataclass
class Quality:
    psnr_db: float
    extra: dict = field(default_factory=dict)  # workload-named metrics


class TimedRecord:
    """Hands one dataset record to the program and stamps each input()."""

    def __init__(self, rec, log, kind):
        self.rec = rec
        self.id = rec.id
        self._log = log
        self._kind = kind

    def input(self):
        self._log.append((self._kind, clock()))
        return self.rec.input()


def _decoded(ruas, root, count, size, seed):
    """A synthetic paired set written the way the README makes one, read
    back through `load_dataset` and decoded once, as the first epoch would."""
    ruas.io_metrics.make_synthetic_dataset(root, count, size=size, seed=seed)
    records = ruas.io_metrics.load_dataset(root)
    for rec in records:
        rec.input()
        rec.reference()
    return records


def _check_finite(values, what):
    if not np.all(np.isfinite(np.asarray(values, dtype=np.float64))):
        raise CheckFailed(f"{what} is not finite")


def _check_same(a, b, what):
    if not all(np.array_equal(x, y) for x, y in zip(a, b)) or len(a) != len(b):
        raise CheckFailed(f"{what} differs from the first round")


# seed offset for held-out evaluation images, so they never equal inputs
EVAL_SEED = 1_000_003


class Search32:
    """`ruas search --strategy cooperative` on 32x32 pairs.

    Why: at 32 px a step's cost is per-op Python/NumPy overhead in the 7-op
    mixed edges and the four forward/backward passes of the one-step
    hypergradient; no other workload reaches the mixed edges or the
    hypergradient.  Item: one cooperative step (scene and task alpha and
    omega updates).  Round: one epoch over 2 training pairs, then the
    validation pass `run_search` makes; warm-up epochs are off so every
    step runs the hypergradient.
    """

    name = "search32"
    items_per_round = 2

    def setup(self, ruas, seed, work):
        self.ruas, self.seed = ruas, seed
        # split_records keeps a quarter for validation: 2 train, 1 val
        records = _decoded(ruas, work / "data", 3, 32, seed)
        data = ruas.io_metrics.split_records(records, rng=np.random.default_rng(seed))
        self.events = []
        self.data = ruas.io_metrics.SplitDataset(
            train=[TimedRecord(r, self.events, "train") for r in data.train],
            val=[TimedRecord(r, self.events, "val") for r in data.val],
        )
        self.eval_records = _decoded(ruas, work / "eval", 8, 32, seed + EVAL_SEED)
        self.cfg = ruas.search.SearchConfig(
            epochs=1, warmup_epochs=0, lr_omega=3e-5, lr_alpha=3e-4
        )
        self.first = None
        # warm-up: one step on a one-pair training split
        warm = ruas.io_metrics.SplitDataset(train=self.data.train[:1], val=self.data.val)
        ruas.search.run_search(warm, self.cfg, seed)

    def round(self):
        self.events.clear()
        t0 = clock()
        result = self.ruas.search.run_search(self.data, self.cfg, self.seed)
        t1 = clock()
        # a step runs from its training input() to the next one; the epoch's
        # validation pass starts at the first "val" stamp not right after a
        # "train" stamp
        starts, ends = [], []
        prev = None
        for kind, t in self.events:
            if kind == "train":
                if starts and len(ends) < len(starts):
                    ends.append(t)
                starts.append(t)
            elif prev == "val" and len(ends) < len(starts):
                ends.append(t)
            prev = kind
        ends += [t1] * (len(starts) - len(ends))
        items = [(e - s) * 1e3 for s, e in zip(starts, ends)]
        return Round(t1 - t0, items, ["step"] * len(items), result)

    def check(self, rnd):
        """Raises CheckFailed, which fails every step of the round."""
        res = rnd.result
        if len(rnd.items_ms) != self.items_per_round:
            raise CheckFailed(f"{len(rnd.items_ms)} steps, expected {self.items_per_round}")
        _check_finite([v for row in res.history for v in row.values()], "search history")
        state = [p.data for p in res.model.alpha_s.parameters() + res.model.alpha_t.parameters()]
        state += [p.data for p in res.model.omega_s() + res.model.omega_t()]
        _check_finite([np.sum(s) for s in state], "searched parameters")
        if self.first is None:
            self.first, self.first_state = res, state
        else:
            _check_same(state, self.first_state, "searched parameters")

    def quality(self):
        """PSNR of the searched supernet (scene then task cell) on held-out
        pairs, and the final combined validation loss of the search."""
        ad, io = self.ruas.autodiff, self.ruas.io_metrics
        model = self.first.model
        scores = []
        with ad.no_grad():
            for rec in self.eval_records:
                u, _, _ = model.scene_out(ad.Tensor(rec.input()))
                scores.append(io.psnr(model.task_out(u).data, rec.reference()))
        val_loss = self.first.history[-1]["combined"]
        return Quality(float(np.mean(scores)), {"search_val_loss": (val_loss, "loss")})


class Train64:
    """`ruas train --strategy hierarchical` of the discrete `ruas` model.

    Why: on 64x64 images conv forward/backward and the RTV prior dominate,
    and no search code runs.  RTV runs only in scene pre-training (fine-tuning
    uses lambda = 0), so the two phases separate its cost.  Item: one SGD
    step on one image.  Round: a fresh model, one pre-training epoch and two
    fine-tuning epochs over 8 images; with 8 slower and 16 faster steps the
    median falls inside the fine-tuning steps rather than between phases.
    """

    name = "train64"
    items_per_round = 24

    def setup(self, ruas, seed, work):
        self.ruas, self.seed = ruas, seed
        records = _decoded(ruas, work / "data", 8, 64, seed)
        self.events = []
        self.records = [TimedRecord(r, self.events, "train") for r in records]
        self.eval_records = _decoded(ruas, work / "eval", 8, 64, seed + EVAL_SEED)
        self.cfg = ruas.train.TrainConfig(
            strategy="hierarchical", epochs=2, pretrain_epochs=1, lr=3e-5
        )
        self.first = None
        # model build and checkpoint round trip, then warm-up on half the set
        built = ruas.model.RuasModel(np.random.default_rng(seed))
        path = work / "init.ckpt"
        ruas.model.save_checkpoint(built, path)
        model = ruas.model.load_checkpoint(path)
        _check_same(
            [p.data for p in model.parameters()],
            [p.data for p in built.parameters()],
            "checkpoint round trip",
        )
        ruas.train.train_hierarchical(model, records[:4], self.cfg)

    def round(self):
        self.events.clear()
        t0 = clock()
        model = self.ruas.model.RuasModel(np.random.default_rng(self.seed))
        report = self.ruas.train.train_hierarchical(model, self.records, self.cfg)
        t1 = clock()
        stamps = [t for _, t in self.events] + [t1]
        items = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        n_scene = len(self.records) * self.cfg.pretrain_epochs
        phases = ["scene"] * n_scene + ["fine"] * (len(items) - n_scene)
        return Round(t1 - t0, items, phases, (model, report))

    def check(self, rnd):
        """Raises CheckFailed, which fails every step of the round."""
        model, report = rnd.result
        if report.aborted:
            raise CheckFailed("training aborted on a non-finite loss")
        if len(rnd.items_ms) != self.items_per_round:
            raise CheckFailed(f"{len(rnd.items_ms)} steps, expected {self.items_per_round}")
        curves = [np.asarray(c) for c in report.curves.values()]
        _check_finite(np.concatenate(curves), "training curve")
        state = curves + [p.data for p in model.parameters()]
        if self.first is None:
            self.first, self.first_state = model, state
        else:
            _check_same(state, self.first_state, "trained model")

    def quality(self):
        """Mean PSNR from `evaluate` on held-out pairs."""
        _, means = self.ruas.train.evaluate(self.first, self.eval_records)
        return Quality(means["psnr"])


# (size, noise sigma) of each enhance_photo input.  Under the encoder rule,
# noise-free dark images come out Paeth-heavy and noisy ones Avg-heavy, so
# the mix reaches every unfilter path of the decoder.  The Paeth share of a
# noise-free image varies with its content more at large sizes (256 px: 0.57
# +- 0.23 over 20 seeds) than at small ones (64 px: 0.87 +- 0.08), and Paeth
# rows cost most to decode, so the noise-free images are the small ones and
# a round costs about the same whatever the seed.  Seven images put the
# median and the 90th percentile inside one image's samples (the 128 and the
# 256 px one) rather than between two.  512 and 1024 px are left out: one
# Paeth-heavy 512 px image takes about 11 s to decode.
PHOTO_MIX = (
    (64, 0.0), (64, 0.0), (64, 0.0),
    (128, 0.01), (160, 0.03), (192, 0.01), (256, 0.01),
)

# the enhancement model is one fixed checkpoint, as a deployment ships one;
# the workload seed varies the photos
MODEL_SEED = 0


class EnhancePhoto:
    """`ruas enhance`: load_checkpoint, then load_png -> RuasModel.forward
    under no_grad -> save_png per image.

    Why: the only workload that reaches the decoder's Sub/Avg/Paeth paths
    (`save_png` writes filter 0 only) and the forward-only conv path at up to
    256 px; no backward pass, RTV or search runs.  Item: one image.  Round:
    the 7 images of PHOTO_MIX, written per row with the filter a photo
    encoder would pick.
    """

    name = "enhance_photo"
    items_per_round = len(PHOTO_MIX)

    def setup(self, ruas, seed, work):
        self.ruas = ruas
        io = ruas.io_metrics
        rng = np.random.default_rng(seed)
        self.inputs, self.sources, self.refs = [], [], []
        for i, (size, sigma) in enumerate(PHOTO_MIX):
            clean = io.random_clean_image(rng, size=size)
            dark, _ = io.synth_lowlight(clean, rng, noise_sigma=sigma)
            pix = _to_bytes(dark)
            png, _ = photo_png.encode(pix)
            path = work / "input" / f"img{i:02d}.png"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(png)
            self.inputs.append(path)
            self.sources.append(pix.transpose(2, 0, 1)[None] / 255.0)
            self.refs.append(_to_bytes(clean).transpose(2, 0, 1)[None] / 255.0)
        photo_png.self_check(io.load_png, work, np.random.default_rng(seed))
        self.out_dir = work / "enhanced"
        ckpt = work / "model.ckpt"
        model_rng = np.random.default_rng(MODEL_SEED)
        built = ruas.model.RuasModel(model_rng)
        # a trained model has no zero-initialised fusion convs; small seeded
        # weights make every conv of the forward pass shape the output
        for p in built.parameters():
            if p.name.endswith("fusion.weight"):
                p.data = model_rng.uniform(-0.05, 0.05, p.data.shape)
        ruas.model.save_checkpoint(built, ckpt)
        self.model = ruas.model.load_checkpoint(ckpt)
        self.first = None
        # warm-up: the largest forward pass, one decode and one write
        with ruas.autodiff.no_grad():
            self.model.forward(ruas.autodiff.Tensor(self.sources[-1]))
        io.save_png(io.load_png(self.inputs[0]), self.out_dir / "warmup.png")

    def round(self):
        ad, io = self.ruas.autodiff, self.ruas.io_metrics
        items, outputs = [], []
        t0 = clock()
        for path in self.inputs:
            s = clock()
            y = io.load_png(path)
            with ad.no_grad():
                x = self.model.forward(ad.Tensor(y))["x"].data
            out = self.out_dir / path.name
            io.save_png(x, out)
            items.append((clock() - s) * 1e3)
            outputs.append((y, x, out))
        wall = clock() - t0
        pixels = sum(s * s for s, _ in PHOTO_MIX)
        return Round(wall, items, ["image"] * len(items), outputs, pixels)

    def check(self, rnd):
        """Returns how many images failed; raises CheckFailed, which fails
        the whole round, when the round differs from the first."""
        failed = 0
        scores = []
        for i, (y, x, out) in enumerate(rnd.result):
            try:
                scores.append(self._check_image(i, y, x, out))
            except CheckFailed as exc:
                print(f"check failed: {out.name}: {exc}", flush=True)
                failed += 1
        if not failed:
            if self.first is None:
                self.first = scores
            elif scores != self.first:
                raise CheckFailed("enhanced outputs differ from the first round")
        return failed

    def _check_image(self, i, y, x, out):
        if not np.array_equal(y, self.sources[i]):
            raise CheckFailed("decoded pixels differ from the source pixels")
        _check_finite(x, "enhanced output")
        if x.min() < 0.0 or x.max() > 1.0:
            raise CheckFailed("enhanced output leaves [0, 1]")
        back = self.ruas.io_metrics.load_png(out)
        if not np.array_equal(back, np.round(x * 255.0) / 255.0):
            raise CheckFailed("written PNG does not decode to the rounded output")
        return self.ruas.io_metrics.psnr(x, self.refs[i])

    def quality(self):
        """Mean PSNR of the enhanced outputs against the clean references."""
        return Quality(float(np.mean(self.first)))


def _to_bytes(img):
    """(1, 3, h, w) floats in [0, 1] -> (h, w, 3) uint8, as save_png rounds."""
    return np.clip(np.round(img[0] * 255.0), 0, 255).astype(np.uint8).transpose(1, 2, 0)


WORKLOADS = {w.name: w for w in (Search32, Train64, EnhancePhoto)}
