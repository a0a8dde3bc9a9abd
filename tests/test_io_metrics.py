"""PNG codec, metrics against loop oracles, synthetic data, dataset plumbing."""

import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ruas.errors import ConfigError, DataIOError, NumericError, RuasError, ShapeError
from ruas.io_metrics import (
    MAX_PIXELS,
    ImageRecord,
    load_dataset,
    load_png,
    make_synthetic_dataset,
    psnr,
    random_clean_image,
    save_png,
    split_records,
    ssim,
    synth_lowlight,
)
from ruas.model import RuasModel, save_checkpoint


# ---------------------------------------------------------------------------
# PNG codec


def test_png_round_trip_exact(rng, tmp_path):
    img = rng.integers(0, 256, size=(3, 12, 10)).astype(np.float64) / 255.0
    path = tmp_path / "rt.png"
    save_png(img, path)
    back = load_png(path)
    np.testing.assert_allclose(back[0], img, atol=1e-12)


def _chunk(ctype, body):
    crc = zlib.crc32(ctype + body)
    return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)


def _png(ihdr, idat):
    """PNG bytes from a raw IHDR body and the compressed IDAT body."""
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


def _ihdr(w, h, depth=8, color=2, comp=0, filt=0, interlace=0):
    return struct.pack(">IIBBBBB", w, h, depth, color, comp, filt, interlace)


def test_png_reads_filtered_and_16bit_files(rng, tmp_path):
    # cross-check against Pillow-independent encodings: write raw scanlines
    # with every filter type and a 16-bit variant by hand
    h, w = 6, 5
    pix = rng.integers(0, 256, size=(h, w * 3), dtype=np.uint8)

    # filter type 2 (up): row minus previous row
    lines = []
    prev = np.zeros(w * 3, dtype=np.uint8)
    for r in range(h):
        lines.append(b"\x02" + ((pix[r] - prev) & 0xFF).astype(np.uint8).tobytes())
        prev = pix[r]
    p = tmp_path / "up.png"
    p.write_bytes(_png(_ihdr(w, h), zlib.compress(b"".join(lines))))
    got = load_png(p)
    want = pix.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0
    np.testing.assert_allclose(got[0], want, atol=1e-12)

    # 16-bit RGB, filter 0
    pix16 = rng.integers(0, 65536, size=(h, w, 3), dtype=np.uint16)
    raw = b"".join(b"\x00" + pix16[r].astype(">u2").tobytes() for r in range(h))
    p16 = tmp_path / "deep.png"
    p16.write_bytes(_png(_ihdr(w, h, depth=16), zlib.compress(raw)))
    got16 = load_png(p16)
    want16 = pix16.transpose(2, 0, 1).astype(np.float64) / 65535.0
    np.testing.assert_allclose(got16[0], want16, atol=1e-12)


def _unfilter_oracle(scan, h, stride, bpp):
    """Scalar reconstruction of filtered scanlines (PNG spec, section 9),
    one byte at a time in plain ints: a = left, b = above, c = upper left."""
    out = []
    prev = [0] * stride
    for r in range(h):
        ftype = scan[r * (stride + 1)]
        line = list(scan[r * (stride + 1) + 1 : (r + 1) * (stride + 1)])
        for i in range(stride):
            a = line[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
            line[i] = (line[i] + pred) % 256
        out.append(line)
        prev = line
    return out


PNG_FORMATS = {
    "rgb8": (8, 2, 3),
    "rgba8": (8, 6, 4),
    "rgb16": (16, 2, 3),
    "rgba16": (16, 6, 4),
}

# (h, w): one pixel, one row, one column, tall and wide strips, and shapes
# of several wavefront strips (a strip has at most min(h, w) rows)
PNG_SHAPES = [(7, 9), (1, 1), (1, 17), (17, 1), (40, 3), (3, 40), (23, 5)]


def _filter_types(ftype, h, rng):
    """Per-row filter types: one filter, random ones ("mixed"), or ("span")
    None/Sub/Up rows before, inside and after a run that starts and ends
    with an Avg or Paeth row."""
    if ftype == "mixed":
        return rng.integers(0, 5, size=h)
    if ftype != "span":
        return np.full(h, ftype)
    types = rng.integers(0, 3, size=h)
    first, last = h // 3, h - 1 - h // 3
    types[first : last + 1] = rng.integers(0, 5, size=last + 1 - first)
    types[first], types[last] = rng.integers(3, 5, size=2)
    return types


@pytest.mark.parametrize("fmt", list(PNG_FORMATS))
@pytest.mark.parametrize(
    "ftype",
    [0, 1, 2, 3, 4, "mixed", "span"],
    ids=["none", "sub", "up", "avg", "paeth", "mixed", "span"],
)
def test_png_unfilter_matches_spec_oracle(tmp_path, fmt, ftype):
    """Random residual bytes make every filter wrap modulo 256; the decode
    must match the spec loop exactly and raise no warning."""
    depth, color, channels = PNG_FORMATS[fmt]
    bpp = channels * depth // 8
    rng = np.random.default_rng(5)
    for h, w in PNG_SHAPES:
        stride = w * bpp
        rows = rng.integers(0, 256, size=(h, stride + 1), dtype=np.uint8)
        rows[:, 0] = _filter_types(ftype, h, rng)
        scan = rows.tobytes()
        path = tmp_path / f"{fmt}-{h}x{w}.png"
        path.write_bytes(_png(_ihdr(w, h, depth, color), zlib.compress(scan)))

        vals = np.array(_unfilter_oracle(scan, h, stride, bpp))
        if depth == 8:
            want = vals.reshape(h, w, channels) / 255.0
        else:
            want = (vals[:, 0::2] * 256 + vals[:, 1::2]).reshape(h, w, channels) / 65535.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = load_png(path)
        assert got.shape == (1, 3, h, w)
        assert np.array_equal(got[0], want[:, :, :3].transpose(2, 0, 1)), (h, w)


@pytest.mark.parametrize("h, w", [(2048, 2), (2, 2048)], ids=["tall", "wide"])
def test_png_wavefront_memory_stays_near_the_image_size(tmp_path, h, w):
    """All-Paeth RGBA16 files: the wavefront buffers stay O(image bytes).
    A skew of the whole 2048x2 image would take (h + w) * h * 8 bytes,
    about 34 MB, against 98 kB of returned floats."""
    rng = np.random.default_rng(9)
    rows = rng.integers(0, 256, size=(h, w * 8 + 1), dtype=np.uint8)
    rows[:, 0] = 4
    path = tmp_path / "paeth.png"
    path.write_bytes(_png(_ihdr(w, h, 16, 6), zlib.compress(rows.tobytes())))
    tracemalloc.start()
    try:
        got = load_png(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == (1, 3, h, w)
    assert peak < 6 * got.nbytes, (peak, got.nbytes)


@pytest.mark.parametrize("fmt", list(PNG_FORMATS))
def test_png_result_holds_only_its_rgb_floats(tmp_path, fmt):
    """The decoded image is a view of one (h, w, 3) float array: an RGBA
    file's alpha is dropped while its samples are still integers, and the
    scaling to [0, 1] is in place, so decoding makes one float array."""
    depth, color, channels = PNG_FORMATS[fmt]
    h, w = 64, 48
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 256, size=(h, w * channels * depth // 8 + 1), dtype=np.uint8)
    rows[:, 0] = 0
    path = tmp_path / f"{fmt}.png"
    path.write_bytes(_png(_ihdr(w, h, depth, color), zlib.compress(rows.tobytes())))
    tracemalloc.start()
    try:
        got = load_png(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == (1, 3, h, w)
    assert got.base is not None and got.base.base is None
    assert got.base.nbytes == got.nbytes == 3 * h * w * 8
    # the float array, plus the file, the inflated rows and (16-bit) the
    # combined samples, each a fraction of it; a decode that makes two
    # float arrays of all four channels reaches 3.4x (8-bit), 4.8x (16-bit)
    assert peak < (2.5 if depth == 8 else 3.5) * got.nbytes, (peak, got.nbytes)


def test_png_errors_name_the_path(tmp_path):
    bad = tmp_path / "junk.png"
    bad.write_bytes(b"not a png at all")
    with pytest.raises(DataIOError) as exc:
        load_png(bad)
    assert "junk.png" in str(exc.value)
    with pytest.raises(DataIOError):
        load_png(tmp_path / "missing.png")


def test_png_rejects_truncated_data(rng, tmp_path):
    path = tmp_path / "ok.png"
    save_png(rng.uniform(0, 1, size=(3, 8, 8)), path)
    raw = path.read_bytes()
    (tmp_path / "cut.png").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataIOError):
        load_png(tmp_path / "cut.png")


BLANK_SCAN = bytes(4 * (3 * 3 + 1))  # a black 3x4 RGB image, filter 0


@pytest.mark.parametrize(
    "ihdr, needle",
    [
        (_ihdr(3, 4)[:12], "IHDR"),
        (_ihdr(3, 4) + b"\x00", "IHDR"),
        (_ihdr(3, 4, comp=1), "compression"),
        (_ihdr(3, 4, filt=1), "filter method"),
        (_ihdr(0, 4), "empty"),
        (_ihdr(3, 0), "empty"),
        (_ihdr(MAX_PIXELS // 4 + 1, 4), "limit"),
        (_ihdr(2**32 - 1, 2**32 - 1), "limit"),
    ],
    ids=["ihdr-short", "ihdr-long", "compression", "filter-method",
         "zero-width", "zero-height", "over-limit", "max-dims"],
)
def test_png_rejects_bad_headers(tmp_path, ihdr, needle):
    path = tmp_path / "bad.png"
    path.write_bytes(_png(ihdr, zlib.compress(BLANK_SCAN)))
    with pytest.raises(DataIOError, match=needle):
        load_png(path)


def test_png_rejects_crc_mismatch(tmp_path):
    good = _png(_ihdr(3, 4), zlib.compress(BLANK_SCAN))
    idat_crc = len(good) - 12 - 1  # last byte of the IDAT chunk's CRC
    bad = bytearray(good)
    bad[idat_crc] ^= 0x01
    path = tmp_path / "crc.png"
    path.write_bytes(bytes(bad))
    with pytest.raises(DataIOError, match="CRC"):
        load_png(path)
    path.write_bytes(good)
    assert load_png(path).shape == (1, 3, 4, 3)


@pytest.mark.parametrize(
    "idat",
    [
        zlib.compress(b"\x00" * 10_000_000),  # declares 4x3, inflates to 10 MB
        zlib.compress(BLANK_SCAN)[:-3],  # stream cut before its checksum
        zlib.compress(BLANK_SCAN[:-1]),  # one byte short
    ],
    ids=["bomb", "truncated-stream", "short"],
)
def test_png_rejects_wrong_inflated_size(tmp_path, idat):
    path = tmp_path / "size.png"
    path.write_bytes(_png(_ihdr(3, 4), idat))
    with pytest.raises(DataIOError, match="declared size"):
        load_png(path)


def test_png_rejects_unknown_filter_type(tmp_path):
    rows = np.zeros((4, 10), dtype=np.uint8)
    rows[2, 0] = 5
    path = tmp_path / "filter.png"
    path.write_bytes(_png(_ihdr(3, 4), zlib.compress(rows.tobytes())))
    with pytest.raises(DataIOError, match="filter type 5"):
        load_png(path)


def _fuzz_source():
    """IHDR body and scanlines of a 6x5 RGB image filtered Avg and Paeth."""
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 256, size=(5, 6 * 3 + 1), dtype=np.uint8)
    rows[:, 0] = [3, 4, 3, 4, 4]
    return _ihdr(6, 5), rows.tobytes()


def _load_outcome(path, data):
    path.write_bytes(data)
    try:
        load_png(path)
        return "loaded"
    except RuasError:
        return "rejected"


def test_png_single_byte_mutations_load_or_raise_ruas_error(tmp_path):
    """Seeded fuzz over every part of the file: signature, IHDR, chunk
    lengths, types, CRCs and IDAT.  The CRCs catch each one."""
    ihdr, scan = _fuzz_source()
    original = _png(ihdr, zlib.compress(scan))
    path = tmp_path / "fuzz.png"
    assert _load_outcome(path, original) == "loaded"
    rng = np.random.default_rng(13)
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(300):
        raw = bytearray(original)
        pos = int(rng.integers(0, len(raw)))
        raw[pos] = (raw[pos] + int(rng.integers(1, 256))) % 256
        outcomes[_load_outcome(path, bytes(raw))] += 1
    assert outcomes == {"loaded": 0, "rejected": 300}


def test_png_mutations_behind_valid_crcs_load_or_raise_ruas_error(tmp_path):
    """Seeded fuzz past the CRC check: mutate one byte of the IHDR body or of
    the inflated scanlines, then rebuild the file with correct CRCs, so the
    header checks, the inflate size check and the unfilter loops see it."""
    ihdr, scan = _fuzz_source()
    path = tmp_path / "fuzz.png"
    rng = np.random.default_rng(17)
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(200):
        body = bytearray(ihdr + scan)
        pos = int(rng.integers(0, len(body)))
        body[pos] = (body[pos] + int(rng.integers(1, 256))) % 256
        data = _png(bytes(body[:13]), zlib.compress(bytes(body[13:])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes[_load_outcome(path, data)] += 1
    assert outcomes["rejected"] > 0  # IHDR fields and filter types
    assert outcomes["loaded"] > 100  # residual bytes decode to other pixels


def test_save_png_shape_check(tmp_path):
    with pytest.raises(ShapeError):
        save_png(np.zeros((1, 8, 8)), tmp_path / "x.png")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_save_png_refuses_non_finite_values(tmp_path, value):
    """A NaN used to be cast to a 0 byte and written as black."""
    img = np.full((1, 3, 4, 4), 0.5)
    img[0, 1, 2, 3] = value
    with pytest.raises(NumericError, match="non-finite"):
        save_png(img, tmp_path / "x.png")
    assert not (tmp_path / "x.png").exists()


def test_unwritable_outputs_raise_data_io_error(tmp_path):
    """A PNG or checkpoint whose path is a directory, or lies under a file,
    fails with DataIOError naming the path, not a raw OSError."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    img = np.full((3, 4, 4), 0.5)
    model = RuasModel(np.random.default_rng(0), variant="ruas_s")
    for path in (tmp_path / "dir", tmp_path / "file" / "x"):
        for save in (lambda p: save_png(img, p), lambda p: save_checkpoint(model, p)):
            with pytest.raises(DataIOError, match=str(path)):
                save(path)


# ---------------------------------------------------------------------------
# metrics


def test_psnr_hand_values(rng):
    a = rng.uniform(0, 1, size=(1, 3, 8, 8))
    assert psnr(a, a) == 99.0
    b = a + 0.1  # mse exactly 0.01
    assert abs(psnr(a, b) - 20.0) < 1e-9
    with pytest.raises(ShapeError):
        psnr(a, a[..., :4])


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_psnr_refuses_non_finite_input(rng, value):
    """min(99.0, nan) is 99.0, so a NaN image used to score a perfect 99 dB."""
    a = rng.uniform(0, 1, size=(1, 3, 8, 8))
    b = a.copy()
    b[0, 0, 0, 0] = value
    with pytest.raises(NumericError, match="second"):
        psnr(a, b)
    with pytest.raises(NumericError, match="first"):
        psnr(b, a)


def test_ssim_self_similarity(rng):
    a = rng.uniform(0, 1, size=(1, 3, 16, 16))
    assert abs(ssim(a, a) - 1.0) < 1e-12
    noisy = np.clip(a + rng.normal(0, 0.2, a.shape), 0, 1)
    assert ssim(a, noisy) < 0.9


def test_ssim_window_size_check(rng):
    a = rng.uniform(0, 1, size=(1, 3, 8, 8))
    with pytest.raises(ConfigError):
        ssim(a, a)  # smaller than the 11x11 window
    with pytest.raises(ConfigError, match="odd"):
        ssim(a, a, window=4)


def test_ssim_and_save_png_refuse_a_batch(rng, tmp_path):
    """Both used to read only the first image of a batch: ssim scored 1.0 on
    a pair whose second images differ, and save_png wrote the first."""
    a = rng.uniform(0, 1, size=(2, 3, 16, 16))
    b = a.copy()
    b[1] = 1.0 - b[1]
    assert psnr(a, b) < 20.0
    with pytest.raises(ShapeError, match="batch"):
        ssim(a, b)
    with pytest.raises(ShapeError, match=r"\(2, 3, 16, 16\)"):
        save_png(a, tmp_path / "x.png")
    assert not (tmp_path / "x.png").exists()
    # one image, with or without its batch axis, and 2-d maps are scored
    assert ssim(a[:1], a[:1]) == ssim(a[0], a[0]) == ssim(a[0, 0], a[0, 0]) == 1.0
    save_png(a[:1], tmp_path / "one.png")
    assert load_png(tmp_path / "one.png").shape == (1, 3, 16, 16)


def _gaussian_window(size=11, sigma=1.5):
    """The normalised 2-D Gaussian window."""
    xs = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(xs**2) / (2 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def ssim_2d(a, b, window=11, sigma=1.5):
    """SSIM of (c, h, w) images from the 2-D window: each local moment is a
    contraction of every valid window view with the whole kernel."""
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


@pytest.mark.parametrize(
    "shape, window",
    [
        ((3, 11, 11), 11),
        ((3, 11, 40), 11),
        ((2, 40, 11), 11),
        ((1, 13, 14), 11),
        ((2, 37, 19), 11),
        ((3, 64, 64), 11),
        ((4, 23, 29), 7),
        ((1, 9, 5), 5),
        ((3, 6, 8), 1),
    ],
)
def test_ssim_matches_2d_window(rng, shape, window):
    a = rng.uniform(0, 1, size=shape)
    b = np.clip(a + rng.normal(0, 0.1, shape), 0, 1)
    assert abs(ssim(a, b, window) - ssim_2d(a, b, window)) <= 1e-12
    assert abs(ssim(a, a, window) - 1.0) <= 1e-12


def test_ssim_memory_stays_a_multiple_of_the_image(rng):
    """The separable passes hold a few image-sized maps at a time, where
    window views held 121 products per pixel (81x the image at 512 px)."""
    for px in (64, 256):
        a = rng.uniform(0, 1, size=(1, 3, px, px))
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        tracemalloc.start()
        try:
            ssim(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * a.nbytes


def ssim_oracle(a, b, window=11, sigma=1.5):
    """Per-window loop implementation of the weighted SSIM mean."""
    k = _gaussian_window(window, sigma)
    c1, c2 = 0.01**2, 0.03**2
    vals = []
    for c in range(a.shape[0]):
        hh, ww = a.shape[1], a.shape[2]
        scores = []
        for i in range(hh - window + 1):
            for j in range(ww - window + 1):
                wa = a[c, i : i + window, j : j + window]
                wb = b[c, i : i + window, j : j + window]
                mu_a = (wa * k).sum()
                mu_b = (wb * k).sum()
                var_a = (wa * wa * k).sum() - mu_a**2
                var_b = (wb * wb * k).sum() - mu_b**2
                cov = (wa * wb * k).sum() - mu_a * mu_b
                num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
                den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
                scores.append(num / den)
        vals.append(np.mean(scores))
    return float(np.mean(vals))


def test_ssim_matches_loop_oracle(rng):
    for _ in range(3):
        a = rng.uniform(0, 1, size=(2, 13, 14))
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        assert abs(ssim(a, b) - ssim_oracle(a, b)) < 1e-9


# ---------------------------------------------------------------------------
# synthetic data


def test_synth_lowlight_identity_case():
    rng = np.random.default_rng(0)
    clean = random_clean_image(rng, size=16)
    dark, ref = synth_lowlight(
        clean,
        np.random.default_rng(1),
        gamma_range=(1.0, 1.0),
        noise_sigma=0.0,
        illum_range=(1.0, 1.0),
    )
    np.testing.assert_allclose(dark, clean, atol=1e-12)
    assert ref is clean or np.array_equal(ref, clean)


def test_synth_lowlight_darkens(rng):
    clean = random_clean_image(rng, size=16)
    dark, _ = synth_lowlight(clean, np.random.default_rng(2), noise_sigma=0.0)
    assert dark.mean() < clean.mean()
    assert dark.min() >= 0.0 and dark.max() <= 1.0
    with pytest.raises(ConfigError):
        synth_lowlight(clean * 3.0, rng)


def test_synthetic_images_need_14_px(tmp_path):
    """Under 14 px a rectangle's 6 px least side leaves no room for its
    corner: such a size is refused before anything is drawn or written."""
    with pytest.raises(ConfigError, match="at least 14 px"):
        make_synthetic_dataset(tmp_path / "small", 2, size=13, seed=0)
    assert not (tmp_path / "small").exists()
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="at least 14 px"):
        random_clean_image(rng, size=13)
    assert rng.uniform() == np.random.default_rng(0).uniform()
    for seed in range(20):
        records = make_synthetic_dataset(tmp_path / f"s{seed}", 1, size=14, seed=seed)
        assert load_png(records[0].reference_path).shape == (1, 3, 14, 14)


def test_make_synthetic_dataset_deterministic(tmp_path):
    a = make_synthetic_dataset(tmp_path / "a", 3, size=16, seed=9)
    b = make_synthetic_dataset(tmp_path / "b", 3, size=16, seed=9)
    for ra, rb in zip(a, b):
        assert ra.input_path.read_bytes() == rb.input_path.read_bytes()
        assert ra.reference_path.read_bytes() == rb.reference_path.read_bytes()
    c = make_synthetic_dataset(tmp_path / "c", 3, size=16, seed=10)
    assert a[0].input_path.read_bytes() != c[0].input_path.read_bytes()


# ---------------------------------------------------------------------------
# dataset plumbing


def test_load_dataset_and_split(tiny_dataset):
    root, _ = tiny_dataset
    records = load_dataset(root)
    assert len(records) == 6
    assert all(r.reference_path is not None for r in records)
    data = split_records(records, val_fraction=0.25)
    assert len(data.val) == 2 and len(data.train) == 4
    ids_tr = {r.id for r in data.train}
    ids_va = {r.id for r in data.val}
    assert not ids_tr & ids_va


def test_load_dataset_missing_dir(tmp_path):
    with pytest.raises(ConfigError):
        load_dataset(tmp_path / "nowhere")


def test_split_too_small(tiny_dataset):
    _, records = tiny_dataset
    with pytest.raises(ConfigError):
        split_records(records[:1])


def _random_png(path, fmt, h, w, rng):
    """A filter-0 file of random samples in one of PNG_FORMATS."""
    depth, color, channels = PNG_FORMATS[fmt]
    rows = rng.integers(0, 256, size=(h, w * channels * depth // 8 + 1), dtype=np.uint8)
    rows[:, 0] = 0
    path.write_bytes(_png(_ihdr(w, h, depth, color), zlib.compress(rows.tobytes())))
    return path


@pytest.mark.parametrize("fmt", list(PNG_FORMATS))
def test_record_keeps_samples_and_returns_what_load_png_returns(tmp_path, fmt):
    """A record caches each file's samples at its bit depth, alpha dropped,
    and every call builds a fresh float image equal to ``load_png``'s, with
    its strides: NumPy's sums follow memory order."""
    rng = np.random.default_rng(21)
    h, w = 16, 12
    inp = _random_png(tmp_path / "in.png", fmt, h, w, rng)
    ref = _random_png(tmp_path / "ref.png", fmt, h, w, rng)
    rec = ImageRecord("x", inp, ref)
    for get, path in ((rec.input, inp), (rec.reference, ref)):
        first, want = get(), load_png(path)
        assert np.array_equal(first, want) and first.strides == want.strides
        first[...] = -1.0
        second = get()
        assert second is not first and np.array_equal(second, want)
    dtype = np.uint8 if PNG_FORMATS[fmt][0] == 8 else np.uint16
    for samples in (rec._input, rec._reference):
        assert samples.dtype == dtype and samples.shape == (h, w, 3)


def test_record_reference_of_another_size_is_refused(tmp_path):
    """The size check reads the cached samples and words its error as the
    float images' shapes."""
    rng = np.random.default_rng(22)
    inp = _random_png(tmp_path / "in.png", "rgb8", 16, 16, rng)
    ref = _random_png(tmp_path / "ref.png", "rgb16", 12, 16, rng)
    rec = ImageRecord("x", inp, ref)
    with pytest.raises(DataIOError) as exc:
        rec.reference()
    assert str(exc.value) == (
        f"reference {ref} has shape (1, 3, 12, 16), its input {inp} has (1, 3, 16, 16);"
        " both must be equal and at least 11 px a side, the ssim window"
    )
    assert rec._reference is None


def test_records_hold_one_byte_per_8_bit_sample(tmp_path):
    """Eight decoded 64 px pairs hold at most 1.1 bytes per sample; they held
    8.02 while each record cached its input and reference as float64."""
    make_synthetic_dataset(tmp_path, 8, size=64, seed=23)
    records = load_dataset(tmp_path)
    tracemalloc.start()
    try:
        for rec in records:
            rec.input()
            rec.reference()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * len(records) * 2 * 64 * 64 * 3
