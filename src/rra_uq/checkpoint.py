"""Binary checkpoint format for network parameters.

Layout (all integers little-endian unsigned 64-bit unless noted):

    bytes 0..11   magic b"RRAUQ-CKPT\\0\\0"
    bytes 12..15  format version, u32
    u64           record count
    per record:   u64 name length, name bytes (utf-8, "layer/key"),
                  u64 rank, u64*rank dims, float64 payload

Round-trips are bit-exact: load(save(params)) compares equal with
np.array_equal on every tensor, including any NaN/inf payloads
(comparison done on the raw bytes).
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataFormatError

MAGIC = b"RRAUQ-CKPT\x00\x00"
VERSION = 1


def save_checkpoint(params: dict, path) -> None:
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    records = [(f"{lname}/{key}", tensor)
               for lname, entry in sorted(params.items())
               for key, tensor in sorted(entry.items())]
    chunks.append(struct.pack("<Q", len(records)))
    for name, tensor in records:
        raw = name.encode("utf-8")
        # asarray, not ascontiguousarray: the latter silently promotes
        # rank-0 tensors to rank 1 and the format encodes rank exactly
        arr = np.asarray(tensor, dtype="<f8", order="C")
        chunks.append(struct.pack("<Q", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<Q", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def _take(buf: bytes, offset: int, count: int, what: str):
    if offset + count > len(buf):
        raise DataFormatError(f"checkpoint truncated at byte {offset} while reading {what}")
    return buf[offset:offset + count], offset + count


def load_checkpoint(path) -> dict:
    with open(path, "rb") as fh:
        buf = fh.read()
    head, off = _take(buf, 0, len(MAGIC), "magic")
    if head != MAGIC:
        raise DataFormatError(f"bad checkpoint magic {head!r} at byte 0")
    raw, off = _take(buf, off, 4, "version")
    version = struct.unpack("<I", raw)[0]
    if version != VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}")
    raw, off = _take(buf, off, 8, "record count")
    count = struct.unpack("<Q", raw)[0]

    params: dict = {}
    for _ in range(count):
        raw, off = _take(buf, off, 8, "name length")
        name_len = struct.unpack("<Q", raw)[0]
        raw, off = _take(buf, off, name_len, "record name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"record name at byte {off - name_len} is not UTF-8") from exc
        if "/" not in name:
            raise DataFormatError(f"malformed record name '{name}'")
        raw, off = _take(buf, off, 8, "rank")
        rank = struct.unpack("<Q", raw)[0]
        raw, off = _take(buf, off, 8 * rank, "dims")
        dims = struct.unpack(f"<{rank}Q", raw) if rank else ()
        size = 1
        for d in dims:
            size *= d
        raw, off = _take(buf, off, 8 * size, f"payload of '{name}'")
        try:
            tensor = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
        except ValueError as exc:  # over 64 dims, or an empty tensor's dims past numpy's range
            raise DataFormatError(f"record '{name}' has dims {dims}: {exc}") from exc
        lname, key = name.rsplit("/", 1)
        entry = params.setdefault(lname, {})
        if key in entry:
            raise DataFormatError(f"duplicate record '{name}'")
        entry[key] = tensor
    if off != len(buf):
        raise DataFormatError(f"{len(buf) - off} trailing bytes after last record")
    return params
