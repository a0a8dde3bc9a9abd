"""SHA-256 digests of the artifacts of a fixed set of seeded `ruas` runs.

    python3 tools/artifact_digests.py --src CHECKOUT --out DIR

runs the `ruas` command of CHECKOUT/src on 8 synthetic 32 px image pairs
(dataset seed 3, run seed 3, 2 search epochs with 1 warm-up, 2+2 training
epochs at lr 3e-5):

- `search` with each strategy;
- `train` with each strategy, on the default cells, on the cells the
  cooperative search derived, and on the fixed cells of `FIXED_ARCH`;
- `enhance --dump-stages` and `eval` of every trained checkpoint;
- a seeded set of PNG files of random residual bytes that the tool writes
  itself (each row filter alone and a per-row mix; 8- and 16-bit RGB and
  RGBA; square, tall and wide shapes): the raw float64 bytes `load_png`
  returns for each, and `enhance` of each with one trained checkpoint.
  `save_png` writes filter 0 only, so these are the files that reach the
  decoder's Sub/Up/Avg/Paeth paths;
- `enhance --dump-stages` of every trained checkpoint on three seeded
  low-light images of 128x128, 97x130 and 272x144 px.  The other inputs are
  at most 48 px, where every conv is one matmul; at 128x128 the 3x3 convs
  run in row bands, 97x130, whose pixel count is not a multiple of 16,
  takes one matmul per conv at a size that would otherwise band, and the
  noise removal of 272x144 runs in three row bands, the last one short;
- `enhance --variant ruas_a` and `enhance --variant ruas_s --dump-stages`
  of the checkpoint trained hierarchically on `FIXED_ARCH`, on the 32 px
  inputs, the three large images and a noise-free 64 px low-light image.
  Every other `enhance` runs the checkpoint's own variant, `ruas`; the
  noisy inputs take `ruas_a`'s removal path, and the noise-free one its
  gate;
- the raw float64 bytes of `RuasModel.forward(y)["x"]` under `no_grad`
  for every trained checkpoint, on the three large images and the first
  32 px input.  Every PNG above rounds the forward to 8 bits, so these are
  the rows a last-bit change of the forward moves;
- `compare-strategies`, `fixed-op`, `ablate-k --k-list 1,2` and
  `gradcheck --out`, whose tables read the cell wiring, the parameter
  counts and the multiply-add counts;
- `train --strategy hierarchical` and `search --strategy cooperative`
  under `WIDE_CONFIG`, whose 7 px window and rectified warm start put the
  sliding max and its backward at a radius no other run reaches.

Every file goes under DIR, which must be empty or new (a temporary
directory when --out is not given).  The manifest printed is one `# env`
line (the Python, NumPy and BLAS of the interpreter that ran the commands,
as `perfbench/run.py` prints them) and then one `sha256  path` line per
file, with paths relative to DIR in sorted order, so that the manifests of
two checkouts can be diffed:

    diff <(python3 tools/artifact_digests.py --src A --out /tmp/a) \\
         <(python3 tools/artifact_digests.py --src B --out /tmp/b)

Each commit keeps its manifest as `tools/manifest.sha256`, and

    python3 tools/artifact_digests.py --check tools/manifest.sha256

runs this checkout's `ruas` (or CHECKOUT's, with --src) and compares: it
exits 0 when every row matches, 1 listing the rows that differ, and 2
without comparing when the `# env` line differs, because another Python,
NumPy or BLAS build can round differently.  The line does not name the
CPU, and OpenBLAS picks its kernels by CPU, so rows that differ on another
machine may be the machine's.  A change that moves artifacts on purpose
regenerates the file:

    python3 tools/artifact_digests.py > tools/manifest.sha256

BLAS runs on one thread, so the digests do not depend on the thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

SEED = "3"
CONFIG = {
    "search": {"epochs": 2, "warmup_epochs": 1, "lr_omega": 3e-5, "lr_alpha": 3e-4},
    "train": {"epochs": 2, "pretrain_epochs": 2, "lr": 3e-5},
}
# CONFIG leaves the scene at its defaults: window 3, no rectification
WIDE_CONFIG = {**CONFIG, "scene": {"window": 7, "warm_start": "rectify"}}
SEARCH_STRATEGIES = ("cooperative", "independent", "global")
TRAIN_STRATEGIES = ("hierarchical", "end_to_end")
# hand-written cells whose derived edges cover the cases the edge node
# sums its input-gradient terms for in its own order, so that the trained
# checkpoints pin that order whatever the search derives: a chain skip (0->1
# in the scene cell, 1->2 in the task cell), two residual edges of different
# (kernel, dilation) out of one node (1->2 and 1->4 in the scene cell), and
# stacked pairs of a residual and a plain edge (2->3 and 2->4 in the scene
# cell; 0->1 and 0->4, and 2->3 and 2->4, in the task cell).  Edge order:
# 0->1, 1->2, 2->3, 3->4, 0->4, 1->4, 2->4.
FIXED_ARCH = {
    "scene": {"ops": ["SC", "3-RC", "1-RC", "3-C", "3-C", "3-2-RDC", "1-C"]},
    "task": {"ops": ["3-2-RDC", "SC", "3-RC", "1-C", "3-2-DC", "1-RC", "3-C"]},
}

# (bit depth, PNG color type) per format, (h, w) per shape; a filter index
# of 5 gives each row a random filter.  The decoder's Avg/Paeth wavefronts
# run in strips of at most min(h, w) rows, so the tall shape takes three.
PNG_FORMATS = {"rgb8": (8, 2), "rgba8": (8, 6), "rgb16": (16, 2), "rgba16": (16, 6)}
PNG_SHAPES = {"square": (32, 32), "tall": (48, 16), "wide": (16, 48)}
PNG_FILTERS = ("none", "sub", "up", "avg", "paeth", "mixed")
# (h, w) of the `enhance` inputs large enough for the convs to band; the
# script also writes the noise-free input that `ruas_a`'s gate skips
LARGE_SHAPES = ((128, 128), (97, 130))
# (h, w) of the `enhance` inputs whose noise removal runs in row bands, drawn
# after every other input so that adding one moves none
BANDED_SHAPES = ((272, 144),)
LARGE = f"""
import pathlib
import numpy as np
from ruas.io_metrics import random_clean_image, save_png, synth_lowlight
rng = np.random.default_rng({SEED})
out = pathlib.Path("large")
out.mkdir()
for h, w in {LARGE_SHAPES}:
    clean = random_clean_image(rng, size=max(h, w))[:, :h, :w]
    dark, _ = synth_lowlight(clean, rng, noise_sigma=0.01)
    save_png(dark, out / f"{{h}}x{{w}}.png")
gated = pathlib.Path("gated")
gated.mkdir()
dark, _ = synth_lowlight(random_clean_image(rng, size=64), rng, noise_sigma=0.0)
save_png(dark, gated / "clean.png")
for h, w in {BANDED_SHAPES}:
    clean = random_clean_image(rng, size=max(h, w))[..., :h, :w]
    dark, _ = synth_lowlight(clean, rng, noise_sigma=0.01)
    save_png(dark, out / f"{{h}}x{{w}}.png")
"""
DECODE = """
import pathlib
from ruas.io_metrics import load_png
out = pathlib.Path("decoded")
out.mkdir()
for path in sorted(pathlib.Path("png").glob("*.png")):
    (out / f"{path.stem}.f64").write_bytes(load_png(path).tobytes())
"""
FORWARD = """
import pathlib
from ruas import autodiff as ad
from ruas.io_metrics import load_png
from ruas.model import load_checkpoint
inputs = sorted(pathlib.Path("large").glob("*.png"))
inputs += sorted(pathlib.Path("data/input").glob("*.png"))[:1]
for ckpt in sorted(pathlib.Path("train").glob("*/model.ckpt")):
    model = load_checkpoint(ckpt)
    out = pathlib.Path("forward") / ckpt.parent.name
    out.mkdir(parents=True)
    for path in inputs:
        with ad.no_grad():
            x = model.forward(ad.Tensor(load_png(path)))["x"].data
        (out / f"{path.stem}.f64").write_bytes(x.astype("<f8", copy=False).tobytes())
"""

ENV = """
import json, platform
import numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": np.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
}))
"""


def _chunk(ctype, body):
    crc = zlib.crc32(ctype + body)
    return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)


def write_pngs(out):
    """Write the seeded random-residual PNG set under ``out``."""
    out.mkdir()
    rng = random.Random(int(SEED))
    for fmt, (depth, color) in PNG_FORMATS.items():
        bpp = (3 if color == 2 else 4) * depth // 8
        for shape, (h, w) in PNG_SHAPES.items():
            for ftype, name in enumerate(PNG_FILTERS):
                scan = b"".join(
                    bytes([rng.randrange(5) if ftype == 5 else ftype]) + rng.randbytes(w * bpp)
                    for _ in range(h)
                )
                ihdr = struct.pack(">IIBBBBB", w, h, depth, color, 0, 0, 0)
                (out / f"{fmt}-{shape}-{name}.png").write_bytes(
                    b"\x89PNG\r\n\x1a\n"
                    + _chunk(b"IHDR", ihdr)
                    + _chunk(b"IDAT", zlib.compress(scan, 6))
                    + _chunk(b"IEND", b"")
                )


def run_all(src, out):
    """Run the seeded command set with the `ruas` package under ``src``;
    return the interpreter's environment line."""
    env = {
        **os.environ,
        "PYTHONPATH": str(src),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    env.pop("RUAS_SEED", None)

    def python(*args):
        done = subprocess.run(
            [sys.executable, *args], cwd=out, env=env, capture_output=True, text=True
        )
        if done.returncode:
            raise SystemExit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
        return done.stdout

    def ruas(*args):
        python("-m", "ruas.cli", *args)

    python(
        "-c",
        "from ruas.io_metrics import make_synthetic_dataset as m;"
        f" m('data', 8, size=32, seed={SEED})",
    )
    (out / "cfg.json").write_text(json.dumps(CONFIG, indent=2) + "\n")
    common = ("--config", "cfg.json", "--data", "data", "--seed", SEED)
    for strategy in SEARCH_STRATEGIES:
        ruas("search", *common, "--strategy", strategy, "--out", f"search/{strategy}")
    python("-c", LARGE)
    (out / "fixed_arch.json").write_text(json.dumps(FIXED_ARCH, indent=2) + "\n")
    archs = (
        ("default", ()),
        ("searched", ("--arch", "search/cooperative/alpha_final.json")),
        ("fixed", ("--arch", "fixed_arch.json")),
    )
    for cells, arch in archs:
        for strategy in TRAIN_STRATEGIES:
            name = f"{cells}-{strategy}"
            ruas("train", *common, *arch, "--strategy", strategy, "--out", f"train/{name}")
            model = f"train/{name}/model.ckpt"
            ruas("enhance", "--model", model, "--input", "data/input", "--dump-stages",
                 "--out", f"enhance/{name}")
            ruas("enhance", "--model", model, "--input", "large", "--dump-stages",
                 "--out", f"enhance-large/{name}")
            ruas("eval", *common, "--model", model, "--out", f"eval/{name}")
    model = "train/fixed-hierarchical/model.ckpt"
    for variant, dump in (("ruas_a", ()), ("ruas_s", ("--dump-stages",))):
        for inputs in ("data/input", "large", "gated"):
            ruas("enhance", "--model", model, "--input", inputs, "--variant", variant, *dump,
                 "--out", f"enhance-{variant}/{Path(inputs).name}")
    write_pngs(out / "png")
    python("-c", DECODE)
    python("-c", FORWARD)
    ruas("enhance", "--model", "train/default-hierarchical/model.ckpt", "--input", "png",
         "--out", "enhance/png")
    ruas("compare-strategies", *common, "--out", "compare")
    ruas("fixed-op", *common, "--out", "fixed-op")
    ruas("ablate-k", *common, "--k-list", "1,2", "--out", "ablate-k")
    ruas("gradcheck", "--seed", SEED, "--out", "gradcheck")
    (out / "wide.json").write_text(json.dumps(WIDE_CONFIG, indent=2) + "\n")
    wide = ("--config", "wide.json", *common[2:])
    ruas("train", *wide, "--strategy", "hierarchical", "--out", "wide/train-hierarchical")
    ruas("search", *wide, "--strategy", "cooperative", "--out", "wide/search-cooperative")
    return "# env " + python("-c", ENV).strip()


def digests(out):
    """``sha256  path`` of every file under ``out``, sorted by path."""
    rows = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rows.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return rows


def check(manifest, lines):
    """Compare the manifest ``lines`` made now with the file ``manifest``:
    0 when they match, 1 listing the rows that differ, 2 when the
    environment line differs."""
    want = manifest.read_text().splitlines()
    if want[:1] != lines[:1]:
        print(f"environment differs from {manifest}'s; not compared:", file=sys.stderr)
        print(f"  {manifest}: {(want or [''])[0]}\n  here: {lines[0]}", file=sys.stderr)
        return 2
    got, want = _by_path(lines), _by_path(want)
    paths = got.keys() | want.keys()
    moved = sorted(p for p in paths if got.get(p) != want.get(p))
    for path in moved:
        print(f"differs: {path}  {want.get(path, '(absent)')} -> {got.get(path, '(absent)')}")
    print(f"{len(moved)} of {len(paths)} rows differ from {manifest}")
    return 1 if moved else 0


def _by_path(manifest):
    """{path: sha256} of the rows under a manifest's environment line."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in manifest[1:])}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ruas is run (default: this tool's)")
    ap.add_argument("--out", help="new or empty output directory (default: a temporary one)")
    ap.add_argument("--check", metavar="FILE", type=Path,
                    help="compare with the manifest FILE instead of printing one")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve() / "src"
    if not (src / "ruas" / "__init__.py").is_file():
        raise SystemExit(f"no ruas package under {src}")
    if args.check is not None and not args.check.is_file():
        raise SystemExit(f"no manifest {args.check}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.out or tmp).resolve()
        if out.exists() and any(out.iterdir()):
            raise SystemExit(f"{out} is not empty")
        out.mkdir(parents=True, exist_ok=True)
        lines = [run_all(src, out), *digests(out)]
    if args.check is not None:
        return check(args.check, lines)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
