"""PNG codec, metrics against loop oracles, synthetic data, dataset plumbing."""

import struct
import warnings
import zlib

import numpy as np
import pytest

from ruas.errors import ConfigError, DataIOError, RuasError, ShapeError
from ruas.io_metrics import (
    MAX_PIXELS,
    _gaussian_window,
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


PNG_FORMATS = {"rgb8": (8, 2, 3), "rgba8": (8, 6, 4), "rgb16": (16, 2, 3)}


@pytest.mark.parametrize("fmt", list(PNG_FORMATS))
@pytest.mark.parametrize(
    "ftype", [0, 1, 2, 3, 4, None], ids=["none", "sub", "up", "avg", "paeth", "mixed"]
)
def test_png_unfilter_matches_spec_oracle(tmp_path, fmt, ftype):
    """Random residual bytes make every filter wrap modulo 256; the decode
    must match the spec loop exactly and raise no warning."""
    depth, color, channels = PNG_FORMATS[fmt]
    bps = depth // 8
    h, w = 7, 9
    stride = w * channels * bps
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 256, size=(h, stride + 1), dtype=np.uint8)
    rows[:, 0] = rng.integers(0, 5, size=h) if ftype is None else ftype
    scan = rows.tobytes()
    path = tmp_path / f"{fmt}.png"
    path.write_bytes(_png(_ihdr(w, h, depth, color), zlib.compress(scan)))

    vals = np.array(_unfilter_oracle(scan, h, stride, channels * bps))
    if depth == 8:
        want = vals.reshape(h, w, channels) / 255.0
    else:
        want = (vals[:, 0::2] * 256 + vals[:, 1::2]).reshape(h, w, channels) / 65535.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_png(path)
    assert got.shape == (1, 3, h, w)
    assert np.array_equal(got[0], want[:, :, :3].transpose(2, 0, 1))


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


# ---------------------------------------------------------------------------
# metrics


def test_psnr_hand_values(rng):
    a = rng.uniform(0, 1, size=(1, 3, 8, 8))
    assert psnr(a, a) == 99.0
    b = a + 0.1  # mse exactly 0.01
    assert abs(psnr(a, b) - 20.0) < 1e-9
    with pytest.raises(ShapeError):
        psnr(a, a[..., :4])


def test_ssim_self_similarity(rng):
    a = rng.uniform(0, 1, size=(1, 3, 16, 16))
    assert abs(ssim(a, a) - 1.0) < 1e-12
    noisy = np.clip(a + rng.normal(0, 0.2, a.shape), 0, 1)
    assert ssim(a, noisy) < 0.9


def test_ssim_window_size_check(rng):
    a = rng.uniform(0, 1, size=(1, 3, 8, 8))
    with pytest.raises(ConfigError):
        ssim(a, a)  # smaller than the 11x11 window


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
