"""PNG codec, metrics against loop oracles, synthetic data, dataset plumbing."""

import zlib

import numpy as np
import pytest

from ruas.errors import ConfigError, DataIOError, ShapeError
from ruas.io_metrics import (
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


def test_png_reads_filtered_and_16bit_files(rng, tmp_path):
    # cross-check against Pillow-independent encodings: write raw scanlines
    # with every filter type and a 16-bit variant by hand
    import struct

    def chunk(ctype, body):
        crc = zlib.crc32(ctype + body)
        return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)

    h, w = 6, 5
    pix = rng.integers(0, 256, size=(h, w * 3), dtype=np.uint8)

    # filter type 2 (up): row minus previous row
    lines = []
    prev = np.zeros(w * 3, dtype=np.uint8)
    for r in range(h):
        lines.append(b"\x02" + ((pix[r] - prev) & 0xFF).astype(np.uint8).tobytes())
        prev = pix[r]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    payload = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(b"".join(lines)))
        + chunk(b"IEND", b"")
    )
    p = tmp_path / "up.png"
    p.write_bytes(payload)
    got = load_png(p)
    want = pix.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0
    np.testing.assert_allclose(got[0], want, atol=1e-12)

    # 16-bit RGB, filter 0
    pix16 = rng.integers(0, 65536, size=(h, w, 3), dtype=np.uint16)
    raw = b"".join(b"\x00" + pix16[r].astype(">u2").tobytes() for r in range(h))
    ihdr16 = struct.pack(">IIBBBBB", w, h, 16, 2, 0, 0, 0)
    payload16 = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr16)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )
    p16 = tmp_path / "deep.png"
    p16.write_bytes(payload16)
    got16 = load_png(p16)
    want16 = pix16.transpose(2, 0, 1).astype(np.float64) / 65535.0
    np.testing.assert_allclose(got16[0], want16, atol=1e-12)


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
