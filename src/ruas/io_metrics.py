"""Image I/O, synthetic low-light data generation, and reference metrics.

PNG support is deliberately small: 8- or 16-bit truecolor, with or without
alpha (alpha is dropped on load), no interlacing.  That covers every file
the pipeline reads or writes while keeping the decoder auditable.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataIOError, ShapeError

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


# ---------------------------------------------------------------------------
# PNG codec


def _paeth(a, b, c):
    p = a.astype(np.int32) + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def load_png(path):
    """Decode a PNG into a (1, 3, h, w) float array in [0, 1].

    Accepts 8- or 16-bit RGB or RGBA; alpha is dropped.  Anything else is a
    DataIOError naming the path.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    if raw[:8] != _PNG_SIG:
        raise DataIOError(f"{path}: not a PNG file")

    pos = 8
    ihdr = None
    idat = []
    while pos + 8 <= len(raw):
        length, ctype = struct.unpack(">I4s", raw[pos : pos + 8])
        body = raw[pos + 8 : pos + 8 + length]
        if len(body) != length:
            raise DataIOError(f"{path}: truncated chunk {ctype!r}")
        if ctype == b"IHDR":
            ihdr = body
        elif ctype == b"IDAT":
            idat.append(body)
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if ihdr is None or not idat:
        raise DataIOError(f"{path}: missing IHDR or IDAT")

    w, h, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if depth not in (8, 16):
        raise DataIOError(f"{path}: unsupported bit depth {depth}")
    if color not in (2, 6):
        raise DataIOError(f"{path}: unsupported color type {color} (need RGB or RGBA)")
    if interlace != 0:
        raise DataIOError(f"{path}: interlaced PNG not supported")
    channels = 3 if color == 2 else 4
    bps = depth // 8
    bpp = channels * bps
    stride = w * bpp

    try:
        data = zlib.decompress(b"".join(idat))
    except zlib.error as exc:
        raise DataIOError(f"{path}: corrupt image data: {exc}") from exc
    if len(data) != h * (stride + 1):
        raise DataIOError(f"{path}: unexpected decompressed size")

    rows = np.frombuffer(data, dtype=np.uint8).reshape(h, stride + 1)
    out = np.zeros((h, stride), dtype=np.uint8)
    zero = np.zeros(stride, dtype=np.uint8)
    for r in range(h):
        ftype = rows[r, 0]
        cur = rows[r, 1:].copy()
        prev = out[r - 1] if r > 0 else zero
        if ftype == 0:
            line = cur
        elif ftype == 1:
            line = cur
            for i in range(bpp, stride):
                line[i] = (line[i] + line[i - bpp]) & 0xFF
        elif ftype == 2:
            line = (cur.astype(np.int32) + prev).astype(np.uint8)
        elif ftype == 3:
            line = cur
            line[:bpp] = (line[:bpp] + prev[:bpp] // 2) & 0xFF
            for i in range(bpp, stride):
                line[i] = (line[i] + ((int(line[i - bpp]) + int(prev[i])) >> 1)) & 0xFF
        elif ftype == 4:
            line = cur
            for i in range(bpp):
                line[i] = (line[i] + prev[i]) & 0xFF
            for i in range(bpp, stride):
                pa = _paeth(
                    np.uint8(line[i - bpp]), np.uint8(prev[i]), np.uint8(prev[i - bpp])
                )
                line[i] = (line[i] + int(pa)) & 0xFF
        else:
            raise DataIOError(f"{path}: unknown filter type {ftype}")
        out[r] = line

    if depth == 8:
        img = out.reshape(h, w, channels).astype(np.float64) / 255.0
    else:
        img16 = out.reshape(h, w, channels, 2)
        vals = img16[..., 0].astype(np.uint16) << 8 | img16[..., 1]
        img = vals.astype(np.float64) / 65535.0
    img = img[:, :, :3]  # drop alpha
    return img.transpose(2, 0, 1)[None, ...]


def save_png(img, path):
    """Write a (1, 3, h, w) or (3, h, w) float array in [0, 1] as 8-bit RGB."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 4:
        arr = arr[0]
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ShapeError(f"expected (3, h, w) image, got shape {arr.shape}")
    h, w = arr.shape[1], arr.shape[2]
    pix = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    rows = pix.transpose(1, 2, 0).reshape(h, w * 3)
    scanlines = b"".join(b"\x00" + rows[r].tobytes() for r in range(h))

    def chunk(ctype, body):
        crc = zlib.crc32(ctype + body)
        return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    payload = (
        _PNG_SIG
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(scanlines, 6))
        + chunk(b"IEND", b"")
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)


# ---------------------------------------------------------------------------
# metrics


def psnr(a, b):
    """Peak signal-to-noise ratio in dB on unit-range images, capped at 99."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return 99.0
    return min(99.0, 10.0 * np.log10(1.0 / mse))


def _gaussian_window(size=11, sigma=1.5):
    xs = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(xs**2) / (2 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def ssim(a, b, window=11, sigma=1.5):
    """Structural similarity, per channel then averaged, valid windows only."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"ssim shape mismatch: {a.shape} vs {b.shape}")
    while a.ndim > 3:
        a, b = a[0], b[0]
    if a.ndim == 2:
        a, b = a[None], b[None]
    if a.shape[1] < window or a.shape[2] < window:
        raise ConfigError(
            f"image {a.shape[1]}x{a.shape[2]} smaller than ssim window {window}"
        )
    k = _gaussian_window(window, sigma)
    c1, c2 = 0.01**2, 0.03**2
    vals = []
    for c in range(a.shape[0]):
        wa = sliding_window_view(a[c], (window, window))
        wb = sliding_window_view(b[c], (window, window))
        mu_a = np.tensordot(wa, k, axes=([2, 3], [0, 1]))
        mu_b = np.tensordot(wb, k, axes=([2, 3], [0, 1]))
        ex_aa = np.tensordot(wa * wa, k, axes=([2, 3], [0, 1]))
        ex_bb = np.tensordot(wb * wb, k, axes=([2, 3], [0, 1]))
        ex_ab = np.tensordot(wa * wb, k, axes=([2, 3], [0, 1]))
        var_a = ex_aa - mu_a**2
        var_b = ex_bb - mu_b**2
        cov = ex_ab - mu_a * mu_b
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# synthetic data


def _smooth_field(rng, h, w, coarse=4):
    """Bilinear upsampling of a coarse random grid to (h, w), range [0, 1]."""
    grid = rng.uniform(0.0, 1.0, size=(coarse, coarse))
    ys = np.linspace(0, coarse - 1, h)
    xs = np.linspace(0, coarse - 1, w)
    y0 = np.floor(ys).astype(int).clip(0, coarse - 2)
    x0 = np.floor(xs).astype(int).clip(0, coarse - 2)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    g00 = grid[np.ix_(y0, x0)]
    g01 = grid[np.ix_(y0, x0 + 1)]
    g10 = grid[np.ix_(y0 + 1, x0)]
    g11 = grid[np.ix_(y0 + 1, x0 + 1)]
    return (
        g00 * (1 - fy) * (1 - fx)
        + g01 * (1 - fy) * fx
        + g10 * fy * (1 - fx)
        + g11 * fy * fx
    )


def synth_lowlight(
    clean,
    rng,
    gamma_range=(1.5, 2.5),
    noise_sigma=0.03,
    illum_range=(0.1, 0.6),
):
    """Darken a clean image: gamma curve, smooth illumination field, noise.

    dark = clip(clean**gamma * s + n, 0, 1) with s a smooth random field in
    ``illum_range`` shared across channels and n ~ N(0, noise_sigma).
    """
    clean = np.asarray(clean, dtype=np.float64)
    if np.min(clean) < 0 or np.max(clean) > 1:
        raise ConfigError("clean image must lie in [0, 1]")
    h, w = clean.shape[-2], clean.shape[-1]
    gamma = rng.uniform(*gamma_range)
    lo, hi = illum_range
    s = lo + (hi - lo) * _smooth_field(rng, h, w)
    dark = clean**gamma * s
    if noise_sigma > 0:
        dark = dark + rng.normal(0.0, noise_sigma, size=clean.shape)
    return np.clip(dark, 0.0, 1.0), clean


def random_clean_image(rng, size=64):
    """Piecewise-smooth test scene: smooth background plus colored shapes."""
    img = np.zeros((3, size, size))
    for c in range(3):
        img[c] = 0.3 + 0.5 * _smooth_field(rng, size, size, coarse=3)
    yy, xx = np.mgrid[0:size, 0:size]
    for _ in range(rng.integers(3, 6)):
        color = rng.uniform(0.2, 1.0, size=3)
        if rng.uniform() < 0.5:
            cy, cx = rng.uniform(0, size, size=2)
            rad = rng.uniform(size * 0.08, size * 0.25)
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 < rad**2
        else:
            y0, x0 = rng.integers(0, size - 8, size=2)
            hh, ww = rng.integers(6, size // 2, size=2)
            mask = (yy >= y0) & (yy < y0 + hh) & (xx >= x0) & (xx < x0 + ww)
        for c in range(3):
            img[c][mask] = color[c]
    return np.clip(img, 0.0, 1.0)[None, ...]


# ---------------------------------------------------------------------------
# dataset plumbing


@dataclass
class ImageRecord:
    id: str
    input_path: Path
    reference_path: Path | None = None
    _input: np.ndarray | None = None
    _reference: np.ndarray | None = None

    def input(self):
        if self._input is None:
            self._input = load_png(self.input_path)
        return self._input

    def reference(self):
        if self.reference_path is None:
            return None
        if self._reference is None:
            self._reference = load_png(self.reference_path)
        return self._reference


@dataclass
class SplitDataset:
    train: list
    val: list

    def __post_init__(self):
        if not self.train or not self.val:
            raise ConfigError("both train and validation splits must be nonempty")
        tr = {r.id for r in self.train}
        va = {r.id for r in self.val}
        if tr & va:
            raise ConfigError(f"train/val splits overlap: {sorted(tr & va)[:5]}")


def load_dataset(root):
    """Read records from root/input/*.png with optional root/reference/ pairs."""
    root = Path(root)
    input_dir = root / "input"
    if not input_dir.is_dir():
        raise ConfigError(f"dataset directory {input_dir} does not exist")
    records = []
    for p in sorted(input_dir.glob("*.png")):
        ref = root / "reference" / p.name
        records.append(
            ImageRecord(p.stem, p, ref if ref.exists() else None)
        )
    if not records:
        raise ConfigError(f"no PNG files found under {input_dir}")
    return records


def split_records(records, val_fraction=0.25, rng=None):
    recs = list(records)
    if rng is not None:
        perm = rng.permutation(len(recs))
        recs = [recs[i] for i in perm]
    n_val = max(1, int(round(len(recs) * val_fraction)))
    if n_val >= len(recs):
        raise ConfigError("dataset too small to split")
    return SplitDataset(train=recs[n_val:], val=recs[:n_val])


def make_synthetic_dataset(
    out_dir, count, size=64, seed=0, noise_sigma=0.03, gamma_range=(1.5, 2.5)
):
    """Generate a paired low-light dataset on disk; deterministic per seed."""
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    records = []
    for i in range(count):
        clean = random_clean_image(rng, size=size)
        dark, _ = synth_lowlight(
            clean, rng, gamma_range=gamma_range, noise_sigma=noise_sigma
        )
        name = f"img{i:04d}.png"
        ipath = out_dir / "input" / name
        rpath = out_dir / "reference" / name
        save_png(dark, ipath)
        save_png(clean, rpath)
        records.append(ImageRecord(f"img{i:04d}", ipath, rpath))
    return records
