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


def load_arrays(path, keep=None) -> tuple[dict[str, np.ndarray], dict]:
    """The records and metadata of a file; given ``keep``, a predicate on
    record names, only the records it accepts, seeking past the data of
    the others unread."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        off = 0

        def need(count, what):
            nonlocal off
            chunk = fh.read(count)
            if len(chunk) != count:
                raise CheckpointError(f"truncated checkpoint: {what} at byte offset {off}")
            off += count
            return chunk

        magic = need(8, "magic")
        if magic != MAGIC:
            raise CheckpointError(f"bad magic at byte offset 0: {magic!r}")
        count, meta_len = struct.unpack("<II", need(8, "header"))
        try:
            meta = json.loads(need(meta_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt metadata at byte offset 16: {exc}") from exc

        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", need(2, "name length"))
            name = need(name_len, "name").decode("utf-8")
            (ndim,) = struct.unpack("<B", need(1, "ndim"))
            shape = struct.unpack(f"<{ndim}I", need(4 * ndim, f"shape of '{name}'"))
            n_bytes = 8 * (int(np.prod(shape)) if shape else 1)
            if keep is None or keep(name):
                raw = need(n_bytes, f"data of '{name}'")
                arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            elif off + n_bytes <= size:
                off = fh.seek(off + n_bytes)
            else:
                raise CheckpointError(
                    f"truncated checkpoint: data of '{name}' at byte offset {off}")
    if off != size:
        raise CheckpointError(f"trailing bytes after last record at byte offset {off}")
    return arrays, meta
