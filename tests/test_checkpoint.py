"""Checkpoint round trip, and the loader's answer to damaged files: every
defect ends in DataIOError (CLI exit 3), never in a raw traceback or a
silently half-loaded model."""

import hashlib
import json
import math

import numpy as np
import pytest

from ruas.cli import main
from ruas.config import VARIANTS
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
    _, path = saved  # a ruas_s model: no task cell
    model = load_checkpoint(path)
    assert model.set_variant(None) is model and model.variant == "ruas_s"
    for variant in ("ruas", "ruas_a"):
        with pytest.raises(ConfigError) as err:
            model.set_variant(variant)
        assert f"hash {model.config_hash()}, variant 'ruas_s'" in str(err.value)
        assert f"variant {variant!r}" in str(err.value)
    # ruas and ruas_a hold the same modules, so each runs as the other
    full = tmp_path / "full.ckpt"
    for saved_as, runs_as in (("ruas_a", "ruas_s"), ("ruas_a", "ruas"), ("ruas", "ruas_a")):
        save_checkpoint(RuasModel(np.random.default_rng(3), variant=saved_as), full)
        assert load_checkpoint(full).set_variant(runs_as).variant == runs_as


@pytest.mark.parametrize("runs_as", VARIANTS)
@pytest.mark.parametrize("built", VARIANTS)
def test_checkpoint_holds_the_variant_that_runs(tmp_path, built, runs_as):
    """A model saved after ``set_variant`` loads with the parameters of the
    variant it runs as, which are those of a model built as that variant;
    a ruas_s model cannot run as ruas or ruas_a."""
    model = RuasModel(np.random.default_rng(3), variant=built)
    if built == "ruas_s" and runs_as != "ruas_s":
        with pytest.raises(ConfigError):
            model.set_variant(runs_as)
        return
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.set_variant(runs_as), path)
    loaded = load_checkpoint(path)
    native = RuasModel(np.random.default_rng(3), variant=runs_as)
    assert loaded.variant == runs_as
    names = [p.name for p in loaded.parameters()]
    assert names == [p.name for p in model.parameters()]
    assert names == [p.name for p in native.parameters()]
    for want, got in zip(model.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(got.data, want.data)


@pytest.mark.parametrize("runs_as", [None, "ruas_s"])
def test_supernet_checkpoint_is_refused_before_writing(tmp_path, runs_as):
    """The loader would rebuild the supernet's None op lists as the default
    cells, so saving one fails on its cause and leaves no file."""
    model = RuasModel.supernet(np.random.default_rng(3)).set_variant(runs_as)
    path = tmp_path / "supernet.ckpt"
    with pytest.raises(ConfigError, match="supernet"):
        save_checkpoint(model, path)
    assert not path.exists()


def test_checkpoint_with_a_noise_estimator_is_refused(tmp_path, tiny_dataset):
    """A ruas_a checkpoint that holds the learned estimator's tm.psi_e.*
    parameters, which ruas_a no longer has, fails to load (exit 3)."""
    path = tmp_path / "old.ckpt"
    save_checkpoint(RuasModel(np.random.default_rng(3), variant="ruas_a"), path)
    header, blobs = _split(path)
    header["params"].append({"name": "tm.psi_e.layer0.weight", "shape": [6, 3, 3, 3]})
    _write(path, header, blobs + np.zeros(6 * 3 * 3 * 3).tobytes())
    with pytest.raises(DataIOError, match="do not match"):
        load_checkpoint(path)
    _, records = tiny_dataset
    argv = ["enhance", "--model", str(path), "--input", str(records[0].input_path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3


def test_checkpoint_with_a_six_column_projection_is_refused(tmp_path, tiny_dataset):
    """The remover's projection reads the 3 channels of u, and a checkpoint
    stores it as (6, 3, 1, 1); one that holds the 6-column weight of older
    files fails the shape check (exit 3)."""
    path = tmp_path / "old.ckpt"
    model = RuasModel(np.random.default_rng(3))
    save_checkpoint(model, path)
    header, _ = _split(path)
    name = "tm.psi_r.proj_in.weight"
    meta = next(m for m in header["params"] if m["name"] == name)
    assert meta["shape"] == [6, 3, 1, 1]
    meta["shape"] = [6, 6, 1, 1]
    by_name = {p.name: p.data for p in model.parameters()}
    by_name[name] = np.concatenate([by_name[name], np.zeros((6, 3, 1, 1))], axis=1)
    _write(path, header, b"".join(by_name[m["name"]].tobytes() for m in header["params"]))
    with pytest.raises(DataIOError, match=f"shape mismatch for {name}"):
        load_checkpoint(path)
    _, records = tiny_dataset
    argv = ["enhance", "--model", str(path), "--input", str(records[0].input_path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3


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


def test_unknown_operator_in_header(saved, tmp_path, tiny_dataset):
    """An operator outside the table, a removed one included, fails to load
    (exit 3), naming the operator."""
    _, path = saved
    header, blobs = _split(path)
    _, records = tiny_dataset
    argv = ["enhance", "--model", str(path), "--input", str(records[0].input_path)]
    for name in ("bogus", "3-6-DC"):
        header["config"]["scene_ops"][0] = name
        _write(path, header, blobs)
        with pytest.raises(DataIOError, match=repr(name)):
            load_checkpoint(path)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3


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
    [
        ("rtv_eps", 0.0),
        ("rtv_eps", -1e-3),
        ("rtv_eps", 1e-13),
        ("rtv_weight", -0.1),
        ("t_floor", 1e-13),
    ],
    ids=[
        "zero-rtv-eps",
        "negative-rtv-eps",
        "rtv-eps-below-guard",
        "negative-rtv-weight",
        "t-floor-below-guard",
    ],
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


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_parameter_is_refused(saved, tmp_path, tiny_dataset, capsys, value):
    """A non-finite weight would make `eval` score the all-NaN output as a
    perfect 99 dB and `enhance` write black images; the loader names the
    parameter instead, and neither command writes anything."""
    _, path = saved
    header, blobs = _split(path)
    offset = 0
    for meta in header["params"]:
        if meta["name"] == "sm.cell.fusion.bias":
            break
        offset += 8 * math.prod(meta["shape"])
    blobs = bytearray(blobs)
    blobs[offset : offset + 8] = np.float64(value).tobytes()
    _write(path, header, bytes(blobs))
    with pytest.raises(DataIOError, match="sm.cell.fusion.bias"):
        load_checkpoint(path)
    root, records = tiny_dataset
    enhance = ["enhance", "--model", str(path), "--input", str(records[0].input_path)]
    evaluate = ["eval", "--model", str(path), "--data", str(root)]
    for argv, out in ((enhance, tmp_path / "enhanced"), (evaluate, tmp_path / "eval")):
        assert main(argv + ["--out", str(out)]) == 3
        assert "sm.cell.fusion.bias" in capsys.readouterr().err
        assert not out.exists()
