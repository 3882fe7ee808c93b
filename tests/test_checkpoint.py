"""Binary checkpoint format: round trips, architecture checks, corruption."""

import os
import re
import struct

import numpy as np
import pytest

from contextvit.checkpoint import load_checkpoint, restore_into, save_checkpoint
from contextvit.context import ContextViT


def _save_and_load(tmp_path, model, name="m.cvck", **kw):
    path = str(tmp_path / name)
    save_checkpoint(path, model.parameters(), **kw)
    return path, load_checkpoint(path)


def test_round_trip_preserves_every_array(tmp_path, toy_model):
    _, ckpt = _save_and_load(tmp_path, toy_model, config_hash="abc123")
    assert ckpt.config_hash == "abc123"
    assert set(ckpt.params) == set(toy_model.parameters())
    for name, p in toy_model.parameters().items():
        assert np.array_equal(ckpt.params[name], p.data), name
        assert ckpt.params[name].dtype == np.float64


def test_save_load_save_is_byte_identical(tmp_path, toy_model):
    p1 = str(tmp_path / "a.cvck")
    p2 = str(tmp_path / "b.cvck")
    save_checkpoint(p1, toy_model.parameters(), config_hash="h")
    ckpt = load_checkpoint(p1)
    save_checkpoint(p2, ckpt.params, config_hash=ckpt.config_hash)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_restore_into_round_trips_weights(tmp_path, toy_model, toy_config):
    path, ckpt = _save_and_load(tmp_path, toy_model)
    other = ContextViT.create(toy_config, toy_model.kind, seed=99)
    assert not np.array_equal(
        other.parameters()["patch_projection"].data, toy_model.parameters()["patch_projection"].data
    )
    restore_into(other.parameters(), ckpt)
    for name, p in toy_model.parameters().items():
        assert np.array_equal(other.parameters()[name].data, p.data), name


def test_restore_into_different_depth_names_first_mismatch(tmp_path, toy_model, toy_config):
    path, ckpt = _save_and_load(tmp_path, toy_model)
    import dataclasses

    deeper = ContextViT.create(dataclasses.replace(toy_config, depth=3), toy_model.kind, seed=0)
    with pytest.raises(ValueError, match="missing parameter"):
        restore_into(deeper.parameters(), ckpt)


def test_restore_into_extra_entry_rejected(tmp_path, toy_model):
    path, ckpt = _save_and_load(tmp_path, toy_model)
    ckpt.params["bogus.extra"] = np.zeros(3)
    with pytest.raises(ValueError, match="unexpected parameter 'bogus.extra'"):
        restore_into(toy_model.parameters(), ckpt)


def test_restore_into_shape_mismatch_names_parameter(tmp_path, toy_model):
    path, ckpt = _save_and_load(tmp_path, toy_model)
    ckpt.params["cls_token"] = np.zeros((1, 999))
    with pytest.raises(ValueError, match="'cls_token' shape mismatch"):
        restore_into(toy_model.parameters(), ckpt)


def test_optimizer_flag_byte_is_zero_and_one_is_rejected(tmp_path, toy_model):
    """The optimizer flag byte after the parameters is always written as 0,
    and a 1 is rejected as corrupt."""
    path, _ = _save_and_load(tmp_path, toy_model)
    raw = bytearray(open(path, "rb").read())
    flag_at = len(raw) - 5  # before the u32 state count of an empty state
    assert raw[flag_at] == 0 and raw[flag_at + 1:] == b"\x00" * 4
    raw[flag_at] = 1
    with open(path, "wb") as f:
        f.write(bytes(raw))
    with pytest.raises(ValueError, match=f"corrupt checkpoint {re.escape(path)}: bad optimizer flag byte"):
        load_checkpoint(path)


def test_ema_state_round_trip(tmp_path, toy_model):
    ema = {0: np.full(16, 0.5), 3: np.arange(16.0), -2: np.ones(16)}
    path = str(tmp_path / "e.cvck")
    save_checkpoint(path, toy_model.parameters(), ema_state=ema)
    loaded = load_checkpoint(path).ema_state()
    assert set(loaded) == {0, 3, -2}
    for gid, vec in ema.items():
        assert np.array_equal(loaded[gid], vec)


def test_default_model_checkpoint_under_five_megabytes(tmp_path):
    from contextvit.config import RunConfig

    cfg = RunConfig()
    model = ContextViT.create(cfg.vit_config(), cfg.kind(), seed=0)
    path = str(tmp_path / "default.cvck")
    save_checkpoint(path, model.parameters())
    assert os.path.getsize(path) < 5 * 1024 * 1024


def test_missing_file_names_path(tmp_path):
    missing = str(tmp_path / "ghost.cvck")
    with pytest.raises(FileNotFoundError, match="ghost.cvck"):
        load_checkpoint(missing)


def test_bad_magic_rejected(tmp_path, toy_model):
    path, _ = _save_and_load(tmp_path, toy_model)
    blob = bytearray(open(path, "rb").read())
    blob[:4] = b"XXXX"
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path, toy_model):
    path, _ = _save_and_load(tmp_path, toy_model)
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = (99).to_bytes(4, "little")
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match=f"version 99 .* at {re.escape(path)}"):
        load_checkpoint(path)


def test_truncation_rejected(tmp_path, toy_model):
    path, _ = _save_and_load(tmp_path, toy_model)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match=f"truncated or corrupt file {re.escape(str(path))}: "):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path, toy_model):
    path, _ = _save_and_load(tmp_path, toy_model)
    with open(path, "ab") as f:
        f.write(b"\x00junk")
    with pytest.raises(ValueError, match=f"trailing bytes .* in {re.escape(str(path))}"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", [0.0, 0.001, 0.01, 0.3, 0.7, 0.999])
def test_truncation_at_any_offset_rejected(tmp_path, toy_model, keep):
    path, _ = _save_and_load(tmp_path, toy_model, config_hash="h", ema_state={0: np.ones(16)})
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: int(len(blob) * keep)])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("dim", [2**40, 2**62, 2**64 - 1])
def test_corrupt_dim_field_names_entry(tmp_path, toy_model, dim):
    path, ckpt = _save_and_load(tmp_path, toy_model, config_hash="h")
    first = next(iter(ckpt.params))
    # magic, version, hash length, hash, entry count, name length, name, dtype code, rank
    offset = 4 + 4 + 4 + 1 + 4 + 4 + len(first.encode()) + 1 + 4
    blob = bytearray(open(path, "rb").read())
    blob[offset:offset + 8] = dim.to_bytes(8, "little")
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match=f"entry '{first}'"):
        load_checkpoint(path)


@pytest.mark.parametrize("code", [0, 2, 16, 255])
def test_unknown_dtype_code_names_entry(tmp_path, toy_model, code):
    path, ckpt = _save_and_load(tmp_path, toy_model, config_hash="h")
    first = next(iter(ckpt.params))
    # magic, version, hash length, hash, entry count, name length, name
    offset = 4 + 4 + 4 + 1 + 4 + 4 + len(first.encode())
    blob = bytearray(open(path, "rb").read())
    assert blob[offset] == 8  # float64
    blob[offset] = code
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match=f"{re.escape(path)}: entry '{first}' has unknown dtype code {code}"):
        load_checkpoint(path)


def test_float32_model_restores_bitwise_into_a_fresh_float64_model(tmp_path, toy_model, toy_config, train_batch):
    """Entries keep their dtype through save, load and ``restore_into``, so the
    restored model computes the saved model's logits bit for bit."""
    toy_model.to_float32()
    for p in toy_model.context.values():  # zero-initialized heads would hide the context path
        p.data += np.float32(0.1)
    path, ckpt = _save_and_load(tmp_path, toy_model)
    fresh = ContextViT.create(toy_config, toy_model.kind, seed=99)
    restore_into(fresh.parameters(), ckpt)
    for name, p in fresh.parameters().items():
        assert p.data.dtype == np.float32, name
    want = toy_model.forward(train_batch)[1].data
    got = fresh.forward(train_batch)[1].data
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def _checkpoint_file(params, state=(), config_hash=b"h", version=2) -> bytes:
    """A checkpoint from (name bytes, float64 array) pairs, so a test can
    write names that ``save_checkpoint`` never would; version 1 has no
    dtype codes."""
    code = b"\x08" if version >= 2 else b""

    def entries(pairs):
        out = [struct.pack("<I", len(pairs))]
        for name, a in pairs:
            out += [struct.pack("<I", len(name)), name, code, struct.pack("<I", a.ndim),
                    struct.pack(f"<{a.ndim}Q", *a.shape), a.astype("<f8").tobytes()]
        return out

    out = [b"CVCK", struct.pack("<II", version, len(config_hash)), config_hash, *entries(list(params)), b"\x00",
           *entries(list(state))]
    return b"".join(out)


def test_checkpoint_file_writes_what_save_checkpoint_writes(tmp_path):
    arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.25, -1.5])}
    ema = {3: np.ones(4)}
    save_checkpoint(str(tmp_path / "saved.cvck"), arrays, config_hash="h", ema_state=ema)
    want = _checkpoint_file([(n.encode(), a) for n, a in arrays.items()], [(b"ema.3", ema[3])])
    assert (tmp_path / "saved.cvck").read_bytes() == want


def test_version_1_file_loads_as_float64(tmp_path):
    arrays = {"w": np.arange(6.0).reshape(2, 3) / 7.0, "b": np.array([0.25, -1.5])}
    path = tmp_path / "v1.cvck"
    path.write_bytes(_checkpoint_file([(n.encode(), a) for n, a in arrays.items()], version=1))
    ckpt = load_checkpoint(str(path))
    assert ckpt.config_hash == "h" and ckpt.state == {}
    for name, a in arrays.items():
        assert ckpt.params[name].dtype == np.float64 and np.array_equal(ckpt.params[name], a), name


@pytest.mark.parametrize("section", ["parameter", "state"])
def test_repeated_entry_name_rejected(tmp_path, section):
    """A second entry under a name already read would silently replace the first."""
    name = b"w" if section == "parameter" else b"ema.0"
    pairs = [(name, np.zeros(2)), (name, np.zeros(3))]
    path = tmp_path / "dup.cvck"
    path.write_bytes(_checkpoint_file(pairs) if section == "parameter" else _checkpoint_file([], pairs))
    with pytest.raises(ValueError,
                       match=f"{re.escape(str(path))}: {section} entry 1 repeats the name '{name.decode()}'"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("field", ["config hash", "parameter entry 1 name", "state entry 0 name"])
def test_name_that_is_not_utf8_names_the_field(tmp_path, field):
    bad = b"w\xff"
    params = [(b"a", np.zeros(1)), (bad if field.startswith("parameter") else b"b", np.zeros(1))]
    state = [(bad if field.startswith("state") else b"ema.0", np.zeros(1))]
    path = tmp_path / "utf8.cvck"
    path.write_bytes(_checkpoint_file(params, state, bad if field == "config hash" else b"h"))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {field} .* is not UTF-8"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("name", ["ema.abc", "ema.", "ema.03", "ema.+3", "ema.1.5", "ema. 3", "ema.-0", "mom.3"])
def test_state_entry_not_named_by_group_id_rejected(tmp_path, name):
    """Every state entry is ``ema.<group id>`` as ``save_checkpoint`` spells
    it, so ``ema_state`` can read each group id back."""
    path = tmp_path / "state.cvck"
    state = [(b"ema.1", np.zeros(2)), (name.encode(), np.zeros(2))]
    path.write_bytes(_checkpoint_file([(b"w", np.zeros(1))], state))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: state entry '{re.escape(name)}' is not named"):
        load_checkpoint(str(path))
