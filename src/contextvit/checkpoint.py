"""Binary checkpoints: named float32 or float64 entries, byte-identical round trips.

Layout, version 2 (all integers little-endian):
  magic "CVCK" | u32 version | u32 hash_len | config-hash utf8
  | u32 n_params | entries | u8 optimizer flag, always 0 (any other
  value is rejected) | u32 n_state | state entries (ema values keyed
  "ema.<group>")

Entry: u32 name_len | name utf8 | u8 dtype code | u32 ndim | u64 dims...
| payload.  The dtype code is the payload's byte width: 4 for
little-endian float32, 8 for float64; any other code is rejected with an
error naming the entry.  A float32 array is stored as float32 and anything
else as float64, the rule ``Tensor`` applies, and ``load_checkpoint``
returns each entry in its stored dtype, so a model restored from a
checkpoint computes in the dtype it was saved in.

Entries are written in insertion order of the source dicts, so loading
and re-saving reproduces the file byte for byte.  Every size read from the
file is checked against the bytes left in it before anything is read, so
a truncated or corrupted file raises a ``ValueError`` naming the file and
the field.  So does an entry that holds a NaN or an infinity, which no
trained model holds.  Names are checked the same way: the config hash
and every entry name must be UTF-8, no section may name an entry twice,
and every state entry must be named ``ema.<group id>`` as the writer
spells it.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .tensor import Tensor, as_float_array

__all__ = ["CheckpointData", "save_checkpoint", "load_checkpoint", "restore_into"]

_MAGIC = b"CVCK"
_VERSION = 2
_DTYPES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}  # dtype code (byte width) -> payload dtype
_STATE_NAME = re.compile(r"ema\.(0|-?[1-9][0-9]*)")  # f"ema.{group_id}"


def _write_u32(f, value: int) -> None:
    f.write(np.uint32(value).astype("<u4").tobytes())


def _write_u64(f, value: int) -> None:
    f.write(np.uint64(value).astype("<u8").tobytes())


def _read_exact(f, n: int, what: str) -> bytes:
    """The next ``n`` bytes of binary file ``f``; a size the rest of the file
    cannot hold is rejected, naming the file, before any read or allocation."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if not 0 <= n <= left:
        raise ValueError(f"truncated or corrupt file {f.name}: {what} needs {n} bytes, {left} left")
    return f.read(n)


def _read_u32(f, what: str) -> int:
    return int(np.frombuffer(_read_exact(f, 4, what), dtype="<u4")[0])


def _read_text(f, what: str) -> str:
    """A u32-length-prefixed UTF-8 string; other bytes are rejected naming ``what``."""
    raw = _read_exact(f, _read_u32(f, f"{what} length"), what)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"corrupt checkpoint {f.name}: {what} {raw!r} is not UTF-8") from None


def _write_entry(f, name: str, array: np.ndarray) -> None:
    raw = name.encode("utf-8")
    _write_u32(f, len(raw))
    f.write(raw)
    code = as_float_array(array).itemsize
    arr = np.asarray(array, dtype=_DTYPES[code])  # ascontiguousarray would make a 0-d entry 1-d
    f.write(bytes([code]))
    _write_u32(f, arr.ndim)
    for dim in arr.shape:
        _write_u64(f, dim)
    f.write(arr.tobytes())


def _read_entry(f, what: str) -> tuple[str, np.ndarray]:
    name = _read_text(f, f"{what} name")
    code = _read_exact(f, 1, f"entry {name!r} dtype code")[0]
    if code not in _DTYPES:
        raise ValueError(f"corrupt checkpoint {f.name}: entry {name!r} has unknown dtype code {code}")
    dtype = _DTYPES[code]
    ndim = _read_u32(f, f"entry {name!r} rank")
    shape = tuple(int(d) for d in np.frombuffer(_read_exact(f, 8 * ndim, f"entry {name!r} dims"), dtype="<u8"))
    payload = _read_exact(f, dtype.itemsize * math.prod(shape), f"entry {name!r} of shape {shape}")
    return name, np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def _read_entries(f, section: str) -> dict[str, np.ndarray]:
    """One section's count and entries; a name seen twice, or an entry that
    holds a NaN or an infinity, is rejected."""
    entries = {}
    for i in range(_read_u32(f, f"{section} count")):
        name, array = _read_entry(f, f"{section} entry {i}")
        if name in entries:
            raise ValueError(f"corrupt checkpoint {f.name}: {section} entry {i} repeats the name {name!r}")
        if not np.isfinite(array).all():
            raise ValueError(f"corrupt checkpoint {f.name}: {section} entry {name!r} holds a non-finite value")
        entries[name] = array
    return entries


@dataclass
class CheckpointData:
    config_hash: str
    params: dict[str, np.ndarray]
    state: dict[str, np.ndarray] = field(default_factory=dict)

    def ema_state(self) -> dict[int, np.ndarray]:
        return {int(name.split(".", 1)[1]): value for name, value in self.state.items()}


def save_checkpoint(
    path: str,
    params: dict[str, Tensor],
    config_hash: str = "",
    ema_state: Optional[dict[int, np.ndarray]] = None,
) -> None:
    """``params`` maps names to Tensors (or arrays); ``ema_state`` maps group
    ids to the ema kind's running means."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        _write_u32(f, _VERSION)
        raw_hash = config_hash.encode("utf-8")
        _write_u32(f, len(raw_hash))
        f.write(raw_hash)
        _write_u32(f, len(params))
        for name, p in params.items():
            _write_entry(f, name, p.data if isinstance(p, Tensor) else p)
        f.write(b"\x00")  # optimizer flag
        state = {f"ema.{gid}": value for gid, value in (ema_state or {}).items()}
        _write_u32(f, len(state))
        for name, value in state.items():
            _write_entry(f, name, value)


def load_checkpoint(path: str) -> CheckpointData:
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise FileNotFoundError(f"checkpoint file not found: {path}") from None
    with f:
        magic = _read_exact(f, 4, "magic")
        if magic != _MAGIC:
            raise ValueError(f"not a checkpoint file (bad magic {magic!r}) at {path}")
        version = _read_u32(f, "version")
        if version != _VERSION:
            raise ValueError(f"checkpoint format version {version} unsupported (expected {_VERSION}) at {path}")
        config_hash = _read_text(f, "config hash")
        params = _read_entries(f, "parameter")
        if _read_exact(f, 1, "optimizer flag") != b"\x00":
            raise ValueError(f"corrupt checkpoint {path}: bad optimizer flag byte")
        state = _read_entries(f, "state")
        for name in state:
            if not _STATE_NAME.fullmatch(name):
                raise ValueError(f"corrupt checkpoint {path}: state entry {name!r} is not named 'ema.<group id>'")
        if f.read(1):
            raise ValueError(f"trailing bytes after checkpoint payload in {path}; file corrupt")
    return CheckpointData(config_hash=config_hash, params=params, state=state)


def restore_into(model_params: dict[str, Tensor], ckpt: CheckpointData) -> None:
    """Copy checkpoint entries into a parameter dict of the same architecture.

    The name sets must match exactly; the first mismatching entry (missing,
    unexpected, or mis-shaped) is named in the error.  Each parameter takes
    the stored entry's dtype, so the model computes in the dtype it was
    saved in.
    """
    for name in model_params:
        if name not in ckpt.params:
            raise ValueError(f"checkpoint is missing parameter {name!r}")
    for name in ckpt.params:
        if name not in model_params:
            raise ValueError(f"checkpoint has unexpected parameter {name!r}")
    for name, p in model_params.items():
        stored = ckpt.params[name]
        if stored.shape != p.data.shape:
            raise ValueError(
                f"parameter {name!r} shape mismatch: checkpoint {stored.shape}, model {p.data.shape}"
            )
        p.data = stored.copy()
