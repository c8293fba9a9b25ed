"""Binary checkpoint of a run's kept members: the rows of their parameter arena.

Layout (integers little-endian):

    bytes 0..11   magic b"RRAUQ-CKPT\\0\\0"
    bytes 12..15  format version, u32 (2)
    bytes 16..47  stamp: the SHA-256 of the training config
    bytes 48..63  kept member count k and parameters per member P, u64 each
    then          the k x P float64 rows, row-major

Rows round-trip bit-exactly, NaN and inf payloads included.  A reader names
the stamp it expects, and a file with another stamp or version is refused:
version 1, one `member<k>.ckpt` of named tensor records per member, is not
read.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataFormatError

MAGIC = b"RRAUQ-CKPT\x00\x00"
VERSION = 2
_HEAD = struct.Struct("<12sI32sQQ")


def save_checkpoint(rows: np.ndarray, stamp: bytes, path) -> None:
    """Write the (k, P) arena `rows` under `stamp`."""
    rows = np.ascontiguousarray(rows, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, VERSION, stamp, *rows.shape))
        fh.write(rows.tobytes())


def load_checkpoint(path, stamp: bytes) -> np.ndarray:
    """The (k, P) rows of the checkpoint at `path`, which must carry `stamp`."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:len(MAGIC)] != MAGIC:
        raise DataFormatError(f"bad checkpoint magic {buf[:len(MAGIC)]!r} at byte 0")
    if len(buf) < _HEAD.size:
        raise DataFormatError(
            f"checkpoint truncated at byte {len(buf)} in its {_HEAD.size}-byte header")
    _, version, found, kept, width = _HEAD.unpack_from(buf)
    if version != VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version} in {path}; "
                              f"run `rra-uq train` again to write version {VERSION}")
    if found != stamp:
        raise DataFormatError(
            f"{path} was trained under config digest {found.hex()}, but this config's "
            f"is {stamp.hex()}; train with this config, or use the one that trained it")
    end = _HEAD.size + 8 * kept * width
    if len(buf) != end:
        raise DataFormatError(f"checkpoint ends at byte {len(buf)}, but {kept} rows of "
                              f"{width} parameters end at byte {end}")
    try:
        return np.frombuffer(buf, dtype="<f8", offset=_HEAD.size).reshape(kept, width).copy()
    except ValueError as exc:  # no rows, but a width past numpy's range
        raise DataFormatError(f"checkpoint shape ({kept}, {width}): {exc}") from exc
