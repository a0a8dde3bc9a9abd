"""Checkpoint round trip, and the loader's answer to damaged files: every
defect ends in DataIOError (CLI exit 3), never in a raw traceback or a
silently half-loaded model."""

import hashlib
import json
import math

import numpy as np
import pytest

from ruas.cli import main
from ruas.errors import ConfigError, DataIOError, RuasError
from ruas.model import RuasModel, load_checkpoint, save_checkpoint

MAGIC = b"RUASCKPT"
START = len(MAGIC) + 4  # magic, then the u32 header length


@pytest.fixture
def saved(tmp_path):
    model = RuasModel(np.random.default_rng(3), variant="ruas_s")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    return model, path


def _split(path):
    """(header, blob bytes) of a checkpoint file."""
    raw = path.read_bytes()
    end = START + int.from_bytes(raw[len(MAGIC) : START], "little")
    return json.loads(raw[START:end]), raw[end:]


def _write(path, header, blobs):
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    path.write_bytes(MAGIC + len(text).to_bytes(4, "little") + text + blobs)


def test_round_trip(saved):
    model, path = saved
    loaded = load_checkpoint(path)
    assert [p.name for p in loaded.parameters()] == [p.name for p in model.parameters()]
    for want, got in zip(model.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(got.data, want.data)
        assert got.data.flags.writeable


def test_loaded_variant_can_drop_modules_but_not_add_them(saved, tmp_path):
    _, path = saved  # a ruas_s model: no task cell, no estimator
    model = load_checkpoint(path)
    assert model.set_variant(None) is model and model.variant == "ruas_s"
    with pytest.raises(ConfigError) as err:
        model.set_variant("ruas")
    assert f"hash {model.config_hash()}, variant 'ruas_s'" in str(err.value)
    assert "variant 'ruas'" in str(err.value)
    full = tmp_path / "full.ckpt"
    save_checkpoint(RuasModel(np.random.default_rng(3), variant="ruas_a"), full)
    assert load_checkpoint(full).set_variant("ruas_s").variant == "ruas_s"


@pytest.mark.parametrize(
    "text",
    [b"#not json", b'{"config": "\xff"}', b"[" * 100_000, b"[1, 2]", b"{}"],
    ids=["not-json", "not-utf8", "too-deep", "not-an-object", "no-keys"],
)
def test_malformed_header(saved, text):
    _, path = saved
    _, blobs = _split(path)
    _write(path, text, blobs)
    with pytest.raises(DataIOError, match="header"):
        load_checkpoint(path)


def test_header_length_past_end_of_file(saved):
    _, path = saved
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC) : START] = (2**31).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(DataIOError, match="past the end"):
        load_checkpoint(path)


def test_header_missing_a_parameter(saved):
    model, path = saved
    header, blobs = _split(path)
    dropped = header["params"].pop()
    n = model.parameters()[-1].data.size
    assert dropped["name"] == model.parameters()[-1].name
    _write(path, header, blobs[: -8 * n])
    with pytest.raises(DataIOError, match="do not match"):
        load_checkpoint(path)


@pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 8], ids=["byte", "float"])
def test_trailing_bytes(saved, extra):
    _, path = saved
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(DataIOError, match="trailing"):
        load_checkpoint(path)


def test_unknown_operator_in_header(saved):
    _, path = saved
    header, blobs = _split(path)
    header["config"]["scene_ops"][0] = "bogus"
    _write(path, header, blobs)
    with pytest.raises(DataIOError, match="bogus"):
        load_checkpoint(path)


def test_non_integer_stages_in_header(saved):
    """A header whose hash was recomputed for "stages": 2.5 still fails at
    load time, not at the first forward pass."""
    _, path = saved
    header, blobs = _split(path)
    header["config"]["scene_cfg"]["stages"] = 2.5
    text = json.dumps(header["config"], sort_keys=True).encode()
    header["config_hash"] = hashlib.sha256(text).hexdigest()[:16]
    _write(path, header, blobs)
    with pytest.raises(DataIOError, match="integer"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "field, value",
    [("rtv_eps", 0.0), ("rtv_eps", -1e-3), ("rtv_weight", -0.1)],
    ids=["zero-rtv-eps", "negative-rtv-eps", "negative-rtv-weight"],
)
def test_out_of_range_rtv_fields_in_header(saved, tmp_path, tiny_dataset, field, value):
    """A header with its hash recomputed for an out-of-range RTV setting is
    rejected at load time (CLI exit 3)."""
    _, path = saved
    header, blobs = _split(path)
    header["config"]["scene_cfg"][field] = value
    text = json.dumps(header["config"], sort_keys=True).encode()
    header["config_hash"] = hashlib.sha256(text).hexdigest()[:16]
    _write(path, header, blobs)
    with pytest.raises(DataIOError, match=field):
        load_checkpoint(path)
    _, records = tiny_dataset
    argv = ["enhance", "--model", str(path), "--input", str(records[0].input_path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize(
    "field, value",
    [("gate_eps", "a"), ("gate_eps", math.nan), ("tv_weight", "x")],
    ids=["str-gate-eps", "nan-gate-eps", "str-tv-weight"],
)
def test_mistyped_task_fields_in_header(tmp_path, tiny_dataset, field, value):
    """The task fields of a header go through TaskConfig: a mistyped or
    non-finite value under a recomputed hash fails at load time (exit 3)."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(RuasModel(np.random.default_rng(3), variant="ruas_a"), path)
    header, blobs = _split(path)
    header["config"][field] = value
    text = json.dumps(header["config"], sort_keys=True).encode()
    header["config_hash"] = hashlib.sha256(text).hexdigest()[:16]
    _write(path, header, blobs)
    with pytest.raises(DataIOError, match=f"{field} must be"):
        load_checkpoint(path)
    root, records = tiny_dataset
    enhance = ["enhance", "--model", str(path), "--input", str(records[0].input_path)]
    assert main(enhance + ["--out", str(tmp_path / "enhanced")]) == 3
    evaluate = ["eval", "--model", str(path), "--data", str(root)]
    assert main(evaluate + ["--out", str(tmp_path / "eval")]) == 3


def test_unreadable_checkpoint(tmp_path):
    with pytest.raises(DataIOError):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_corrupt_checkpoint_exits_3(saved, tmp_path, tiny_dataset):
    _, path = saved
    _, records = tiny_dataset
    path.write_bytes(path.read_bytes()[:-1])
    argv = ["enhance", "--model", str(path), "--input", str(records[0].input_path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3


def test_single_byte_mutations_load_or_raise_ruas_error(saved):
    """Seeded fuzz: a few hundred one-byte mutations, aimed at the magic,
    the length field and the header, where the parsing happens."""
    _, path = saved
    original = path.read_bytes()
    header_end = START + int.from_bytes(original[len(MAGIC) : START], "little")
    rng = np.random.default_rng(11)
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(300):
        raw = bytearray(original)
        pos = int(rng.integers(0, header_end + 64))
        raw[pos] = (raw[pos] + int(rng.integers(1, 256))) % 256
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
            outcomes["loaded"] += 1
        except RuasError:
            outcomes["rejected"] += 1
    assert outcomes["rejected"] > 200
    assert outcomes["loaded"] > 0  # blob bytes and some header whitespace load
