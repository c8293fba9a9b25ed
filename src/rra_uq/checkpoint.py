"""Binary checkpoint of a run's kept members: the rows of their parameter arena.

Layout (see `serialize` for the rule every binary array file keeps): magic
b"RRAUQ-CKPT\\0\\0", format version u32 (2), the 32-byte stamp (SHA-256 of
the training config), kept member count k and parameters per member P as
u64, then the k x P little-endian float64 rows.
"""

from __future__ import annotations

import numpy as np

from .serialize import ArrayLayout, read_array, write_array

MAGIC = b"RRAUQ-CKPT\x00\x00"
VERSION = 2
LAYOUT = ArrayLayout("checkpoint", MAGIC, "<12sI32sQQ", "<f8", ("version", "config digest"),
                     "run `rra-uq train` with this config")


def save_checkpoint(rows: np.ndarray, stamp: bytes, path) -> None:
    """Write the (k, P) arena `rows` under `stamp`."""
    write_array(path, LAYOUT, rows, VERSION, stamp)


def load_checkpoint(path, stamp: bytes) -> np.ndarray:
    """The (k, P) rows of the checkpoint at `path`, which must carry `stamp`."""
    return read_array(path, LAYOUT, VERSION, stamp)
