"""Canonical serialization: deterministic JSON and CSV emission, binary array files.

Floats print with repr-style shortest round-trip formatting capped at 17
significant digits, so a value parses back to the identical double and two
runs that produce the same numbers produce the same bytes.

A binary array file (IDX images and labels, `members.ckpt`,
`predictions.bin`) is a `struct` header, then a C-order payload.  The header
holds the format's magic, then its own fields, then the array's dimensions,
and the payload is exactly that many elements of the format's dtype.  A
reader names the values the format's fields must have.  A file that is cut
inside its header, has another magic, holds another field value, whose
payload is not the size its dimensions give, or whose empty payload has a
shape NumPy cannot hold is refused with a DataFormatError naming the file.
"""

from __future__ import annotations

import io
import json
import math
import struct
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DataFormatError


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _encode(obj, out: list, indent: int):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(str(k))}: ")
            _encode(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _encode(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Canonical JSON text: insertion-ordered keys, round-trip floats."""
    out: list = []
    _encode(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if v is None:
        return ""
    s = str(v)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def rows_to_csv(header, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_cell(v) for v in row) + "\n")
    return buf.getvalue()


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


class ArrayLayout(NamedTuple):
    """How one binary array format is laid out; see the module docstring."""

    what: str          # the format's name in a refusal
    magic: bytes
    head: str          # the header's `struct` format: magic, `fields`, dimensions
    dtype: str
    fields: tuple = ()  # the names of the format's own header fields
    remedy: str = ""   # what to do about a file whose field differs


def write_array(path, layout: ArrayLayout, array, *fields) -> None:
    """Write `array` to `path` as `layout`, its header carrying `fields`."""
    array = np.ascontiguousarray(array, dtype=layout.dtype)
    with open(path, "wb") as fh:
        fh.write(struct.pack(layout.head, layout.magic, *fields, *array.shape))
        fh.write(array.data)  # the buffer itself: no copy of the payload


def read_array(path, layout: ArrayLayout, *fields) -> np.ndarray:
    """The array in the `layout` file at `path`, whose header must carry
    `fields`.  It owns a writable copy of the payload; the file's bytes are
    dropped on return."""
    if len(fields) != len(layout.fields):
        raise ContractError(f"a {layout.what} header is checked against "
                            f"{len(layout.fields)} fields, got {len(fields)}")
    with open(path, "rb") as fh:
        buf = fh.read()
    size = struct.calcsize(layout.head)
    if len(buf) < size:
        raise DataFormatError(f"{path}: {layout.what} file ends at byte {len(buf)}, "
                              f"inside its {size}-byte header")
    magic, *head = struct.unpack_from(layout.head, buf)
    if magic != layout.magic:
        raise DataFormatError(f"{path}: bad {layout.what} magic {magic!r} at byte 0, "
                              f"expected {layout.magic!r}")
    for name, found, want in zip(layout.fields, head, fields):
        if found != want:
            show = bytes.hex if isinstance(want, bytes) else str
            raise DataFormatError(f"{path}: {layout.what} {name} {show(found)}, "
                                  f"expected {show(want)}; {layout.remedy}")
    shape = tuple(head[len(layout.fields):])
    end = size + math.prod(shape) * np.dtype(layout.dtype).itemsize
    if len(buf) != end:
        raise DataFormatError(f"{path}: {layout.what} file ends at byte {len(buf)}, "
                              f"but its payload of shape {shape} ends at byte {end}")
    payload = bytearray(memoryview(buf)[size:])
    try:
        return np.frombuffer(payload, dtype=layout.dtype).reshape(shape)
    except ValueError as exc:  # an empty payload whose other dimensions pass numpy's range
        raise DataFormatError(f"{path}: {layout.what} shape {shape}: {exc}") from exc
