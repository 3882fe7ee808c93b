"""Binary checkpoints: named float64 entries, byte-identical round trips.

Layout (all integers little-endian):
  magic "CVCK" | u32 version | u32 hash_len | config-hash utf8
  | u32 n_params | entries | u8 optimizer flag, always 0 (any other
  value is rejected) | u32 n_state | state entries (ema values keyed
  "ema.<group>")

Entry: u32 name_len | name utf8 | u32 ndim | u64 dims... | f8 payload.
Entries are written in insertion order of the source dicts, so loading
and re-saving reproduces the file byte for byte.  Every size read from the
file is checked against the bytes left in it before anything is read, so
a truncated or corrupted file raises a ``ValueError`` naming the field.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .tensor import Tensor

__all__ = ["CheckpointData", "save_checkpoint", "load_checkpoint", "restore_into"]

_MAGIC = b"CVCK"
_VERSION = 1


def _write_u32(f, value: int) -> None:
    f.write(np.uint32(value).astype("<u4").tobytes())


def _write_u64(f, value: int) -> None:
    f.write(np.uint64(value).astype("<u8").tobytes())


def _read_exact(f, n: int, what: str) -> bytes:
    """The next ``n`` bytes of binary file ``f``; a size the rest of the file
    cannot hold is rejected before any read or allocation."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if not 0 <= n <= left:
        raise ValueError(f"truncated or corrupt file: {what} needs {n} bytes, {left} left")
    return f.read(n)


def _read_u32(f, what: str) -> int:
    return int(np.frombuffer(_read_exact(f, 4, what), dtype="<u4")[0])


def _write_entry(f, name: str, array: np.ndarray) -> None:
    raw = name.encode("utf-8")
    _write_u32(f, len(raw))
    f.write(raw)
    arr = np.ascontiguousarray(array, dtype="<f8")
    _write_u32(f, arr.ndim)
    for dim in arr.shape:
        _write_u64(f, dim)
    f.write(arr.tobytes())


def _read_entry(f) -> tuple[str, np.ndarray]:
    name = _read_exact(f, _read_u32(f, "entry name length"), "entry name").decode("utf-8")
    ndim = _read_u32(f, f"entry {name!r} rank")
    shape = tuple(int(d) for d in np.frombuffer(_read_exact(f, 8 * ndim, f"entry {name!r} dims"), dtype="<u8"))
    payload = _read_exact(f, 8 * math.prod(shape), f"entry {name!r} of shape {shape}")
    return name, np.frombuffer(payload, dtype="<f8").reshape(shape).copy()


@dataclass
class CheckpointData:
    config_hash: str
    params: dict[str, np.ndarray]
    state: dict[str, np.ndarray] = field(default_factory=dict)

    def ema_state(self) -> dict[int, np.ndarray]:
        return {
            int(name.split(".", 1)[1]): value
            for name, value in self.state.items()
            if name.startswith("ema.")
        }


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
            raise ValueError(f"checkpoint format version {version} unsupported (expected {_VERSION})")
        config_hash = _read_exact(f, _read_u32(f, "config hash length"), "config hash").decode("utf-8")
        params = dict(_read_entry(f) for _ in range(_read_u32(f, "parameter count")))
        if _read_exact(f, 1, "optimizer flag") != b"\x00":
            raise ValueError("corrupt checkpoint: bad optimizer flag byte")
        state = dict(_read_entry(f) for _ in range(_read_u32(f, "state count")))
        if f.read(1):
            raise ValueError("trailing bytes after checkpoint payload; file corrupt")
    return CheckpointData(config_hash=config_hash, params=params, state=state)


def restore_into(model_params: dict[str, Tensor], ckpt: CheckpointData) -> None:
    """Copy checkpoint entries into a parameter dict of the same architecture.

    The name sets must match exactly; the first mismatching entry (missing,
    unexpected, or mis-shaped) is named in the error.
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
