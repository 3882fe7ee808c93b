"""Binary checkpoint format: round trips, architecture checks, corruption."""

import os
import re
import struct
import tempfile

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("section, name, value", [("parameter", "layer0.attn.wq", np.nan), ("state", "ema.-3", np.inf)])
def test_non_finite_entry_rejected_naming_it(tmp_path, toy_model, section, name, value):
    """A checkpoint with one NaN weight once loaded; ``sweep`` then failed on
    a non-finite attention score and ``probe`` reported a divergence in
    training, each in a run directory it had made."""
    params = {n: p.data.copy() for n, p in toy_model.parameters().items()}
    ema = {0: np.ones(16), -3: np.ones(16)}
    if section == "parameter":
        params[name][0, 0] = value
    else:
        ema[-3][5] = value
    path = str(tmp_path / "non_finite.cvck")
    save_checkpoint(path, params, ema_state=ema)
    with pytest.raises(ValueError, match=f"{re.escape(path)}: {section} entry '{re.escape(name)}' holds a non-finite"):
        load_checkpoint(path)


def _entries(keys):
    """A dict from ``keys`` to float32 or float64 arrays of rank 0 to 3, zero-size axes included."""
    def array(dtype):
        return hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                          elements=st.floats(allow_nan=False, allow_infinity=False, width=8 * dtype().itemsize))

    return st.dictionaries(keys, st.sampled_from([np.float32, np.float64]).flatmap(array), max_size=4)


@settings(max_examples=60, deadline=None)
@given(params=_entries(st.text(max_size=6)), ema=_entries(st.integers(-2**40, 2**40)),
       config_hash=st.text(max_size=6), data=st.data())
def test_any_checkpoint_round_trips_and_rejects_a_non_finite_payload(params, ema, config_hash, data):
    """Any names, ranks, sizes, dtypes and ema ids: every entry loads bitwise
    in its dtype, a load and re-save reproduces the file byte for byte, and
    a NaN or infinity written into any entry is rejected naming that entry."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.cvck"), os.path.join(tmp, "b.cvck")
        save_checkpoint(first, params, config_hash, ema_state=ema)
        ckpt = load_checkpoint(first)
        assert ckpt.config_hash == config_hash
        for stored, written in [(ckpt.params, params), (ckpt.ema_state(), ema)]:
            assert list(stored) == list(written)
            for key, a in written.items():
                b = stored[key]
                assert b.dtype == a.dtype and b.shape == a.shape and b.tobytes() == a.tobytes(), key
        save_checkpoint(second, ckpt.params, ckpt.config_hash, ema_state=ckpt.ema_state())
        assert open(first, "rb").read() == open(second, "rb").read()

        filled = [("parameter", name, params) for name, a in params.items() if a.size]
        filled += [("state", f"ema.{gid}", ema) for gid, a in ema.items() if a.size]
        if filled:
            section, name, entries = data.draw(st.sampled_from(filled))
            key = name if section == "parameter" else int(name[4:])
            bad = entries[key].copy()
            bad.flat[data.draw(st.integers(0, bad.size - 1))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            save_checkpoint(first, {**params, key: bad} if section == "parameter" else params, config_hash,
                            ema_state={**ema, key: bad} if section == "state" else ema)
            with pytest.raises(ValueError, match=re.escape(f"{first}: {section} entry {name!r} holds a non-finite")):
                load_checkpoint(first)


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


@pytest.mark.parametrize("version", [1, 99])
def test_unsupported_version_rejected(tmp_path, toy_model, version):
    """Only version 2 loads; version 1, whose entries had no dtype code, is
    rejected by its version before any entry is read."""
    path, _ = _save_and_load(tmp_path, toy_model)
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = version.to_bytes(4, "little")
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match=f"version {version} unsupported .* at {re.escape(path)}"):
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


def _checkpoint_file(params, state=(), config_hash=b"h") -> bytes:
    """A checkpoint from (name bytes, float64 array) pairs, so a test can
    write names that ``save_checkpoint`` never would."""

    def entries(pairs):
        out = [struct.pack("<I", len(pairs))]
        for name, a in pairs:
            out += [struct.pack("<I", len(name)), name, b"\x08", struct.pack("<I", a.ndim),
                    struct.pack(f"<{a.ndim}Q", *a.shape), a.astype("<f8").tobytes()]
        return out

    out = [b"CVCK", struct.pack("<II", 2, len(config_hash)), config_hash, *entries(list(params)), b"\x00",
           *entries(list(state))]
    return b"".join(out)


def test_checkpoint_file_writes_what_save_checkpoint_writes(tmp_path):
    arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.25, -1.5])}
    ema = {3: np.ones(4)}
    save_checkpoint(str(tmp_path / "saved.cvck"), arrays, config_hash="h", ema_state=ema)
    want = _checkpoint_file([(n.encode(), a) for n, a in arrays.items()], [(b"ema.3", ema[3])])
    assert (tmp_path / "saved.cvck").read_bytes() == want


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
