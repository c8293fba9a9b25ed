"""Binary checkpoint format: exact round-trips, stamps and corruption handling."""

import hashlib
import struct

import numpy as np
import pytest

from rra_uq.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from rra_uq.errors import DataFormatError
from rra_uq.rng import RngStream

STAMP = hashlib.sha256(b"config").digest()
OTHER = hashlib.sha256(b"another config").digest()


def sample_rows():
    return RngStream(0).normal(0, 1, (3, 7))


def header(kept, width, version=VERSION, stamp=STAMP) -> bytes:
    return MAGIC + struct.pack("<I", version) + stamp + struct.pack("<QQ", kept, width)


def test_round_trip_bit_exact(tmp_path):
    rows = sample_rows()
    path = tmp_path / "members.ckpt"
    save_checkpoint(rows, STAMP, path)
    got = load_checkpoint(path, STAMP)
    assert got.dtype == np.float64 and got.shape == rows.shape
    assert np.array_equal(got.view(np.uint64), rows.view(np.uint64))


def test_non_finite_values_survive(tmp_path):
    rows = np.array([[np.nan, np.inf, -np.inf, -0.0]])
    path = tmp_path / "nan.ckpt"
    save_checkpoint(rows, STAMP, path)
    got = load_checkpoint(path, STAMP)
    assert np.array_equal(got.view(np.uint64), rows.view(np.uint64))


def test_no_kept_member_round_trips(tmp_path):
    # every member diverged: the file still states P
    path = tmp_path / "none.ckpt"
    save_checkpoint(np.empty((0, 5)), STAMP, path)
    assert load_checkpoint(path, STAMP).shape == (0, 5)


def test_file_bytes_deterministic_and_sorted(tmp_path):
    # the rows' memory layout must not matter: the file is always row-major
    rows = sample_rows()
    layouts = [rows, np.asfortranarray(rows), np.repeat(rows, 2, axis=1)[:, ::2]]
    paths = [tmp_path / f"{i}.ckpt" for i in range(len(layouts))]
    for layout, path in zip(layouts, paths):
        save_checkpoint(layout, STAMP, path)
    assert len({path.read_bytes() for path in paths}) == 1


def test_header_layout(tmp_path):
    # magic, version, stamp, k and P, then the rows as little-endian float64
    rows = sample_rows()
    path = tmp_path / "h.ckpt"
    save_checkpoint(rows, STAMP, path)
    assert path.read_bytes() == header(3, 7) + rows.astype("<f8").tobytes()


def test_other_stamp_refused_naming_both(tmp_path):
    path = tmp_path / "stale.ckpt"
    save_checkpoint(sample_rows(), OTHER, path)
    with pytest.raises(DataFormatError) as err:
        load_checkpoint(path, STAMP)
    assert OTHER.hex() in str(err.value) and STAMP.hex() in str(err.value)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACHECKPNT" + header(0, 1)[len(MAGIC):])
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(path, STAMP)


def test_unsupported_version_rejected(tmp_path):
    # version 1 held named per-tensor records; it is refused, not converted
    path = tmp_path / "v.ckpt"
    for version in (1, VERSION + 1):
        path.write_bytes(header(1, 1, version) + struct.pack("<d", 1.0))
        with pytest.raises(DataFormatError, match=f"version {version}"):
            load_checkpoint(path, STAMP)


def test_truncation_reports_offset(tmp_path):
    full = tmp_path / "full.ckpt"
    save_checkpoint(sample_rows(), STAMP, full)
    buf = full.read_bytes()
    for cut in (len(MAGIC) + 2, len(MAGIC) + 4 + 3, len(buf) // 2, len(buf) - 1):
        part = tmp_path / f"cut{cut}.ckpt"
        part.write_bytes(buf[:cut])
        with pytest.raises(DataFormatError, match=f"at byte {cut}"):
            load_checkpoint(part, STAMP)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "trail.ckpt"
    save_checkpoint(np.zeros((1, 2)), STAMP, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataFormatError):
        load_checkpoint(path, STAMP)


@pytest.mark.parametrize("kept,width", [(0, 2 ** 63), (2 ** 62, 2 ** 62)],
                         ids=["empty_huge_width", "size_past_u64"])
def test_malformed_sizes_are_format_errors(tmp_path, kept, width):
    # no rows, so no payload, but a width numpy cannot shape; or k x P that
    # overflows 64 bits
    path = tmp_path / "bad.ckpt"
    path.write_bytes(header(kept, width))
    with pytest.raises(DataFormatError):
        load_checkpoint(path, STAMP)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "nope.ckpt", STAMP)
