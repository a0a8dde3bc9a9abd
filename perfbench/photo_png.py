"""PNG writer that filters rows the way common photo encoders do.

`ruas.io_metrics.save_png` writes every row with filter 0 (None), so files
the program writes never reach the Sub/Avg/Paeth paths of its decoder.  Real
photos do: encoders such as libpng pick, per row, the filter whose residual
bytes have the smallest sum of absolute values (bytes read as signed).  This
module applies that rule, so the benchmark can hand the decoder realistic
files and count which filters it wrote.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

FILTERS = ("none", "sub", "up", "avg", "paeth")
_SIG = b"\x89PNG\r\n\x1a\n"
_BPP = 3  # 8-bit RGB


def _residuals(rows):
    """Residual bytes of every filter for every row: (5, h, stride) uint8."""
    x = rows.astype(np.int16)
    zero_col = np.zeros((x.shape[0], _BPP), dtype=np.int16)
    a = np.concatenate([zero_col, x[:, :-_BPP]], axis=1)  # left
    b = np.concatenate([np.zeros_like(x[:1]), x[:-1]], axis=0)  # above
    c = np.concatenate([zero_col, b[:, :-_BPP]], axis=1)  # upper left
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    preds = (np.zeros_like(x), a, b, (a + b) // 2, paeth)
    return np.stack([(x - pr) & 0xFF for pr in preds]).astype(np.uint8)


def encode(pixels, force=None):
    """PNG bytes and per-filter row counts for an (h, w, 3) uint8 image.

    With ``force`` set to a filter index, every row uses that filter;
    otherwise each row takes the minimum-sum-of-absolute-differences filter
    (ties go to the lower index, as in libpng).
    """
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, ch = pixels.shape
    if ch != 3:
        raise ValueError(f"expected an RGB image, got {ch} channels")
    res = _residuals(pixels.reshape(h, w * 3))
    if force is None:
        cost = np.abs(res.view(np.int8).astype(np.int64)).sum(axis=2)
        choice = np.argmin(cost, axis=0)
    else:
        choice = np.full(h, force)
    lines = res[choice, np.arange(h)]
    scan = np.concatenate([choice.astype(np.uint8)[:, None], lines], axis=1)

    def chunk(ctype, body):
        crc = zlib.crc32(ctype + body)
        return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    png = (
        _SIG
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(scan.tobytes(), 6))
        + chunk(b"IEND", b"")
    )
    counts = np.bincount(choice, minlength=len(FILTERS))
    return png, dict(zip(FILTERS, (int(n) for n in counts)))


def scan(png):
    """Width, height and per-filter row counts of an 8-bit RGB PNG."""
    pos, idat, w = 8, [], None
    while pos + 8 <= len(png):
        length, ctype = struct.unpack(">I4s", png[pos : pos + 8])
        body = png[pos + 8 : pos + 8 + length]
        if ctype == b"IHDR":
            w, _, depth, color = struct.unpack(">IIBB", body[:10])
            if (depth, color) != (8, 2):
                raise ValueError("scan reads 8-bit RGB only")
        elif ctype == b"IDAT":
            idat.append(body)
        pos += 12 + length
    data = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    filters = data.reshape(-1, w * 3 + 1)[:, 0]
    counts = np.bincount(filters, minlength=len(FILTERS))
    return w, filters.size, dict(zip(FILTERS, (int(n) for n in counts)))


def self_check(load_png, tmp_dir, rng):
    """Confirm that ``load_png`` returns the exact source bytes per filter.

    Random bytes make every filter wrap around modulo 256.  Raises
    RuntimeError naming the first filter that decodes wrongly.
    """
    src = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    for f, name in enumerate(FILTERS):
        png, counts = encode(src, force=f)
        if counts[name] != src.shape[0]:
            raise RuntimeError(f"writer did not force filter {name}")
        path = tmp_dir / f"selfcheck_{name}.png"
        path.write_bytes(png)
        got = load_png(path)[0].transpose(1, 2, 0)
        if not np.array_equal(got, src / 255.0):
            raise RuntimeError(f"load_png decodes filter {name} wrongly")
