"""Image I/O, synthetic low-light data generation, and reference metrics.

PNG support is deliberately small: 8- or 16-bit truecolor, with or without
alpha (alpha is dropped on load), no interlacing, all five row filters.
That covers every file the pipeline reads or writes while keeping the
decoder auditable.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .autodiff import _raw_correlate1d
from .errors import ConfigError, DataIOError, NumericError, ShapeError

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


# ---------------------------------------------------------------------------
# PNG codec


# Largest width x height the decoder accepts (4096 x 4096).  It is checked
# before inflating, so a header cannot declare an image too large to hold;
# inflating then stops one byte past the size the header declares.
MAX_PIXELS = 1 << 24


def _chunks(raw, path):
    """Yield (type, body) of each chunk after the signature, checking CRCs."""
    pos = 8
    while pos + 8 <= len(raw):
        length, ctype = struct.unpack(">I4s", raw[pos : pos + 8])
        end = pos + 8 + length
        if end + 4 > len(raw):
            raise DataIOError(f"{path}: truncated chunk {ctype!r}")
        (crc,) = struct.unpack(">I", raw[end : end + 4])
        if zlib.crc32(raw[pos + 4 : end]) != crc:
            raise DataIOError(f"{path}: CRC mismatch in chunk {ctype!r}")
        yield ctype, raw[pos + 8 : end]
        pos = end + 4


def _unfilter_plain(rows, out, prev, bpp, start, stop):
    """Undo None, Sub and Up on rows start..stop-1, one row at a time;
    returns the last decoded row (``prev`` when the range is empty)."""
    for r in range(start, stop):
        ftype = rows[r, 0]
        cur = rows[r, 1:]
        if ftype == 0:
            out[r] = cur
        elif ftype == 1:  # uint8 sums wrap modulo 256, as the filter needs
            out[r] = np.cumsum(cur.reshape(-1, bpp), axis=0, dtype=np.uint8).ravel()
        else:
            np.add(cur, prev, out=out[r])
        prev = out[r]
    return prev


# Predictors of the left (a), upper (b) and upper-left (c) pixel bytes, all
# uint8 arrays of one shape; each returns the uint8 prediction.


def _avg_predictor(a, b, c):
    """floor((a + b) / 2) without leaving uint8: (a & b) + ((a ^ b) >> 1)."""
    pred = a & b
    half = a ^ b
    half >>= 1
    pred += half
    return pred


def _paeth_predictor(a, b, c):
    """Whichever of a, b, c is nearest a + b - c, ties to a then b (PNG
    spec, section 9.4)."""
    pa = np.subtract(b, c, dtype=np.int16)  # p - a
    pb = np.subtract(a, c, dtype=np.int16)  # p - b
    pc = np.add(pa, pb)  # p - c
    np.abs(pa, out=pa)
    np.abs(pb, out=pb)
    np.abs(pc, out=pc)
    pred = np.where(pb <= pc, b, c)
    np.copyto(pred, a, where=pa <= np.minimum(pb, pc))
    return pred


# filter type and predictor of each row kind that reads the row above
_PREDICTORS = (
    (2, lambda a, b, c: b),
    (3, _avg_predictor),
    (4, _paeth_predictor),
)


def _unfilter_wavefront(rows, out, prev, bpp):
    """Undo the filters of every row of ``rows`` by anti-diagonal wavefronts;
    ``prev`` is the decoded row above the first.  Returns the last row.

    Pixel (r, p) reads only (r, p - 1), (r - 1, p) and (r - 1, p - 1), so
    the pixels of one diagonal r + p = d depend only on diagonals d - 1 and
    d - 2 and decode together.  The rows go through in strips of at most
    min(h, w) rows.  A strip lives in a skewed uint8 buffer ``sk`` that
    holds pixel (r, p) at sk[r + p + 2, r + 1]: diagonal d is the
    contiguous run sk[d + 2], its left and upper neighbours are slices of
    sk[d + 1] and its upper-left ones of sk[d].  Column 0 holds the row
    above the strip, and the slots of pixel (r, -1) stay zero.  The buffer
    has (s + w + 1)(s + 1) pixels for s strip rows, about twice the strip
    at most, and a strip takes s + w - 1 steps.  None and Sub rows read
    nothing above them and are decoded before the steps.  Each step
    evaluates the Up, Avg and Paeth predictors each only over the span of
    the active rows that use it, and adds it only on those rows.
    """
    h, w = rows.shape[0], (rows.shape[1] - 1) // bpp
    s = min(h, w)
    sk = np.zeros((s + w + 1, s + 1, bpp), dtype=np.uint8)
    # pixel (r, p) of the strip, as a writable view of its slot in sk
    grid = as_strided(sk[2:, 1:], (s, w, bpp), ((s + 2) * bpp, (s + 1) * bpp, 1))
    above = sk[1 : w + 1, 0]
    for top in range(0, h, s):
        m = min(s, h - top)
        ftypes = rows[top : top + m, 0]
        grid[:m] = rows[top : top + m, 1:].reshape(m, w, bpp)
        for r in np.flatnonzero(ftypes == 1).tolist():  # Sub reads its own row only
            grid[r] = np.cumsum(grid[r], axis=0, dtype=np.uint8)
        above[:] = prev.reshape(w, bpp)
        groups = []
        for ftype, predict in _PREDICTORS:
            uses = ftypes == ftype
            if uses.any():
                # rows in [r0, r1) using it: slots[count[r0]:count[r1]]
                count = np.concatenate([[0], np.cumsum(uses)]).tolist()
                slots = (np.flatnonzero(uses) + 1).tolist()
                keep = np.concatenate([[0], uses * 255]).astype(np.uint8)
                mask = np.repeat(keep[:, None], bpp, axis=1)
                groups.append((predict, count, slots, mask))
        for d in range(m + w - 1):
            r0, r1 = max(0, d - w + 1), min(m, d + 1)
            cur, left, up = sk[d + 2], sk[d + 1], sk[d]
            for predict, count, slots, mask in groups:
                lo, hi = count[r0], count[r1]
                if lo == hi:
                    continue
                j0, j1 = slots[lo], slots[hi - 1] + 1
                x = cur[j0:j1]
                pred = predict(left[j0:j1], left[j0 - 1 : j1 - 1], up[j0 - 1 : j1 - 1])
                if j1 - j0 == hi - lo:
                    x += pred
                else:
                    x += pred & mask[j0:j1]
        out[top : top + m].reshape(m, w, bpp)[...] = grid[:m]
        prev = out[top + m - 1]
    return prev


def _unfilter(rows, bpp):
    """Decoded (h, stride) bytes of (h, stride + 1) filtered scanlines.

    Rows before the first Avg/Paeth row and after the last one go row at a
    time; the span between them goes by wavefronts.
    """
    h, stride = rows.shape[0], rows.shape[1] - 1
    out = np.empty((h, stride), dtype=np.uint8)
    wave = np.flatnonzero(rows[:, 0] >= 3)
    first, last = (int(wave[0]), int(wave[-1]) + 1) if wave.size else (h, h)
    prev = _unfilter_plain(rows, out, np.zeros(stride, dtype=np.uint8), bpp, 0, first)
    if wave.size:
        prev = _unfilter_wavefront(rows[first:last], out[first:last], prev, bpp)
    _unfilter_plain(rows, out, prev, bpp, last, h)
    return out


def load_png(path):
    """Decode a PNG into a (1, 3, h, w) float array in [0, 1].

    Accepts 8- or 16-bit RGB or RGBA, non-interlaced, with any of the five
    row filters; alpha is dropped.  Chunk CRCs, the IHDR fields and a size
    limit of MAX_PIXELS are checked.  Anything else is a DataIOError naming
    the path.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    if raw[:8] != _PNG_SIG:
        raise DataIOError(f"{path}: not a PNG file")

    ihdr = None
    idat = []
    for ctype, body in _chunks(raw, path):
        if ctype == b"IHDR":
            ihdr = body
        elif ctype == b"IDAT":
            idat.append(body)
        elif ctype == b"IEND":
            break
    if ihdr is None or not idat:
        raise DataIOError(f"{path}: missing IHDR or IDAT")
    if len(ihdr) != 13:
        raise DataIOError(f"{path}: IHDR has length {len(ihdr)}, not 13")

    w, h, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if w == 0 or h == 0:
        raise DataIOError(f"{path}: empty image {w}x{h}")
    if w * h > MAX_PIXELS:
        raise DataIOError(f"{path}: {w}x{h} exceeds the {MAX_PIXELS}-pixel limit")
    if comp != 0 or filt != 0:
        raise DataIOError(f"{path}: unknown compression {comp} or filter method {filt}")
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

    size = h * (stride + 1)
    inflater = zlib.decompressobj()
    try:
        data = inflater.decompress(b"".join(idat), max_length=size + 1)
    except zlib.error as exc:
        raise DataIOError(f"{path}: corrupt image data: {exc}") from exc
    if len(data) != size or not inflater.eof:
        raise DataIOError(f"{path}: image data does not inflate to the declared size")

    rows = np.frombuffer(data, dtype=np.uint8).reshape(h, stride + 1)
    if rows[:, 0].max() > 4:
        raise DataIOError(f"{path}: unknown filter type {rows[:, 0].max()}")
    out = _unfilter(rows, bpp)

    # alpha is dropped while the samples are still integers, and the one
    # float array is scaled in place: the result views exactly its own floats
    if depth == 8:
        img = out.reshape(h, w, channels)[:, :, :3].astype(np.float64)
        img /= 255.0
    else:
        img16 = out.reshape(h, w, channels, 2)[:, :, :3]
        img = (img16[..., 0].astype(np.uint16) << 8 | img16[..., 1]).astype(np.float64)
        img /= 65535.0
    return img.transpose(2, 0, 1)[None, ...]


def output_dir(path):
    """Make the directory ``path`` and its missing parents; return it as a
    Path.  A file in the way, or no permission, raises DataIOError naming
    the path."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataIOError(f"cannot create output directory {path}: {exc}") from exc
    return path


def write_file(path, data):
    """Write ``data``, bytes or text, to ``path`` in a directory made if
    missing; an OSError raises DataIOError naming the path."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data.encode() if isinstance(data, str) else data)
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc


def save_png(img, path):
    """Write a (1, 3, h, w) or (3, h, w) float array in [0, 1] as 8-bit RGB.

    Values are clipped to [0, 1]; a NaN or infinity raises NumericError, and
    a batch of several images raises ShapeError.
    """
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 4 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ShapeError(f"expected a (1, 3, h, w) or (3, h, w) image, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"cannot write {path}: the image has non-finite values")
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
    write_file(path, payload)


# ---------------------------------------------------------------------------
# metrics


def psnr(a, b):
    """Peak signal-to-noise ratio in dB on unit-range images, capped at 99.

    A NaN or infinity in either image raises NumericError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    for name, x in (("first", a), ("second", b)):
        if not np.all(np.isfinite(x)):
            raise NumericError(f"psnr of a non-finite image ({name} argument)")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return 99.0
    return min(99.0, 10.0 * np.log10(1.0 / mse))


# the side of SSIM's Gaussian window; a scored image must be at least this big
SSIM_WINDOW = 11


def ssim(a, b, window=SSIM_WINDOW, sigma=1.5):
    """Structural similarity, per channel then averaged, valid windows only.

    The Gaussian window is separable (Wang et al. 2004), so each local
    moment is a 1-D pass along h and then one along w, each cropped to where
    the whole window lies inside the image.  It scores one image pair: a
    leading axis other than 1 raises ShapeError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"ssim shape mismatch: {a.shape} vs {b.shape}")
    while a.ndim > 3:
        if a.shape[0] != 1:
            raise ShapeError(f"ssim scores one image pair, got a batch of shape {a.shape}")
        a, b = a[0], b[0]
    if a.ndim == 2:
        a, b = a[None], b[None]
    if window % 2 == 0:
        raise ConfigError(f"ssim window must be odd, got {window}")
    if a.shape[1] < window or a.shape[2] < window:
        raise ConfigError(
            f"image {a.shape[1]}x{a.shape[2]} smaller than ssim window {window}"
        )
    xs = np.arange(window) - (window - 1) / 2.0
    g = np.exp(-(xs**2) / (2 * sigma**2))
    g /= g.sum()
    r = window // 2
    h, w = a.shape[1:]
    c1, c2 = 0.01**2, 0.03**2
    vals = []
    for ac, bc in zip(a, b):
        moments = np.stack([ac, bc, ac * ac, bc * bc, ac * bc])
        moments = _raw_correlate1d(moments, g, 1)[:, r : h - r]
        mu_a, mu_b, ex_aa, ex_bb, ex_ab = _raw_correlate1d(moments, g, 2)[:, :, r : w - r]
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
    if size < 14:  # a rectangle's corner and its 6 px or wider sides must fit
        raise ConfigError(f"synthetic images need a size of at least 14 px, got {size}")
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
        """The reference image, None without one; DataIOError unless it has
        its input's size and SSIM's window fits in it."""
        if self.reference_path is None:
            return None
        if self._reference is None:
            ref, shape = load_png(self.reference_path), self.input().shape
            if ref.shape != shape or min(shape[-2:]) < SSIM_WINDOW:
                raise DataIOError(
                    f"reference {self.reference_path} has shape {ref.shape}, its input"
                    f" {self.input_path} has {shape}; both must be equal and at least"
                    f" {SSIM_WINDOW} px a side, the ssim window"
                )
            self._reference = ref
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
