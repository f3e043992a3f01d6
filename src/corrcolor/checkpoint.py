"""Binary store for named float64 tensors plus a JSON metadata blob.

File layout (all integers little-endian):

    offset  size  field
    0       8     magic ``CCCKPT01`` (version is the trailing two digits)
    8       4     uint32  number of tensor records
    12      4     uint32  byte length J of the metadata JSON
    16      J     metadata JSON, UTF-8
    then, per tensor record:
            2     uint16  name byte length N
            N     tensor name, UTF-8
            1     uint8   number of dimensions
            4*nd  uint32  dimension sizes
            8*k   float64 row-major element data

Round trips are bit-exact: values are written as raw IEEE-754 doubles.
Files are replaced atomically: a failed write leaves the old file as it was.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

MAGIC = b"CCCKPT01"


class CheckpointError(Exception):
    pass


def write_atomic(path, write, mode: str = "w") -> None:
    """Call ``write(fh)`` on ``<path>.tmp``, then rename it over ``path``.

    If ``write`` raises, the temp file is removed and ``path`` is untouched.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")

    def write(fh):
        fh.write(MAGIC)
        fh.write(struct.pack("<II", len(arrays), len(meta_bytes)))
        fh.write(meta_bytes)
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            name_bytes = name.encode("utf-8")
            if len(name_bytes) > 0xFFFF:
                raise CheckpointError(f"tensor name too long: {name[:40]}...")
            if arr.ndim > 0xFF:
                raise CheckpointError(f"tensor '{name}' has too many dimensions")
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.astype("<f8").tobytes())

    write_atomic(path, write, "wb")


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        blob = fh.read()

    def need(offset, count, what):
        if offset + count > len(blob):
            raise CheckpointError(f"truncated checkpoint: {what} at byte offset {offset}")
        return blob[offset:offset + count]

    if need(0, 8, "magic") != MAGIC:
        raise CheckpointError(f"bad magic at byte offset 0: {blob[:8]!r}")
    count, meta_len = struct.unpack("<II", need(8, 8, "header"))
    off = 16
    try:
        meta = json.loads(need(off, meta_len, "metadata").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt metadata at byte offset {off}: {exc}") from exc
    off += meta_len

    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", need(off, 2, "name length"))
        off += 2
        name = need(off, name_len, "name").decode("utf-8")
        off += name_len
        (ndim,) = struct.unpack("<B", need(off, 1, "ndim"))
        off += 1
        shape = []
        for _ in range(ndim):
            (dim,) = struct.unpack("<I", need(off, 4, f"shape of '{name}'"))
            shape.append(dim)
            off += 4
        n_elem = int(np.prod(shape)) if shape else 1
        raw = need(off, 8 * n_elem, f"data of '{name}'")
        off += 8 * n_elem
        arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if off != len(blob):
        raise CheckpointError(f"trailing bytes after last record at byte offset {off}")
    return arrays, meta
