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
import math
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
    the others unread.  Every ``CheckpointError`` names the file."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc.strerror}") from None

    def bad(what: str) -> CheckpointError:
        return CheckpointError(f"{path}: {what}")

    with fh:
        size = os.fstat(fh.fileno()).st_size
        off = 0

        def need(count, what, read=True):
            """The next ``count`` bytes, or without ``read`` a seek past them;
            checked against the file size first, so that a corrupt length
            never asks for more than the file holds."""
            nonlocal off
            if off + count > size:
                raise bad(f"truncated checkpoint: {what} at byte offset {off}")
            off += count
            return fh.read(count) if read else fh.seek(off)

        magic = need(8, "magic")
        if magic != MAGIC:
            raise bad(f"bad magic at byte offset 0: {magic!r}")
        count, meta_len = struct.unpack("<II", need(8, "header"))
        try:
            meta = json.loads(need(meta_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise bad(f"corrupt metadata at byte offset 16: {exc}") from exc

        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", need(2, "name length"))
            try:
                name = need(name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise bad(f"corrupt record name at byte offset {off - name_len}: {exc}") from exc
            (ndim,) = struct.unpack("<B", need(1, "ndim"))
            shape = struct.unpack(f"<{ndim}I", need(4 * ndim, f"shape of '{name}'"))
            kept = keep is None or keep(name)
            # Python ints: a corrupt shape cannot wrap around
            raw = need(8 * math.prod(shape), f"data of '{name}'", read=kept)
            if kept:
                arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if off != size:
        raise bad(f"trailing bytes after last record at byte offset {off}")
    return arrays, meta
