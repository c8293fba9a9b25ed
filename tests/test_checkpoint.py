"""Binary checkpoint format: exact round-trips and corruption handling."""

import struct

import numpy as np
import pytest

from rra_uq.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from rra_uq.errors import DataFormatError
from rra_uq.rng import RngStream


def sample_params():
    rng = RngStream(0)
    return {
        "dense0": {"w": rng.normal(0, 1, (3, 4)), "b": rng.normal(0, 1, (4,))},
        "conv1": {"w": rng.normal(0, 1, (2, 1, 3, 3)), "b": np.zeros(2)},
    }


def test_round_trip_bit_exact(tmp_path):
    params = sample_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for lname, entry in params.items():
        assert set(loaded[lname]) == set(entry)
        for key, tensor in entry.items():
            got = loaded[lname][key]
            assert got.dtype == np.float64
            assert got.shape == tensor.shape
            assert np.array_equal(got.view(np.uint64), tensor.view(np.uint64))


def test_non_finite_values_survive(tmp_path):
    params = {"a": {"w": np.array([np.nan, np.inf, -np.inf, -0.0])}}
    path = tmp_path / "nan.ckpt"
    save_checkpoint(params, path)
    got = load_checkpoint(path)["a"]["w"]
    assert np.array_equal(got.view(np.uint64), params["a"]["w"].view(np.uint64))


def test_scalar_tensor_round_trip(tmp_path):
    params = {"a": {"w": np.array(2.5)}}
    path = tmp_path / "scalar.ckpt"
    save_checkpoint(params, path)
    got = load_checkpoint(path)["a"]["w"]
    assert got.shape == () and got == 2.5


def test_file_bytes_deterministic_and_sorted(tmp_path):
    # insertion order must not matter: records are sorted by "layer/key"
    params = sample_params()
    reordered = {"conv1": dict(reversed(params["conv1"].items())),
                 "dense0": params["dense0"]}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(params, p1)
    save_checkpoint(reordered, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "h.ckpt"
    save_checkpoint({"a": {"w": np.zeros(1)}}, path)
    buf = path.read_bytes()
    assert buf[:len(MAGIC)] == MAGIC
    assert struct.unpack_from("<I", buf, len(MAGIC))[0] == VERSION


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACHECKPNT" + b"\x00" * 16)
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "v2.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION + 1))
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_truncation_reports_offset(tmp_path):
    full = tmp_path / "full.ckpt"
    save_checkpoint(sample_params(), full)
    buf = full.read_bytes()
    for cut in (len(MAGIC) + 2, len(MAGIC) + 4 + 3, len(buf) // 2, len(buf) - 1):
        part = tmp_path / f"cut{cut}.ckpt"
        part.write_bytes(buf[:cut])
        with pytest.raises(DataFormatError, match="truncated at byte"):
            load_checkpoint(part)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "trail.ckpt"
    save_checkpoint({"a": {"w": np.zeros(2)}}, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_record_name_needs_separator(tmp_path):
    path = tmp_path / "name.ckpt"
    name = b"noslash"
    record = struct.pack("<Q", len(name)) + name + struct.pack("<Q", 1) + struct.pack("<Q", 1)
    record += struct.pack("<d", 1.0)
    path.write_bytes(MAGIC + struct.pack("<I", VERSION) + record)
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def one_record(name: bytes, dims, payload: bytes = b"") -> bytes:
    return (MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", 1)
            + struct.pack("<Q", len(name)) + name + struct.pack("<Q", len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims) + payload)


@pytest.mark.parametrize("blob", [
    one_record(b"\xe4ense0/W", [1], struct.pack("<d", 1.0)),  # name not UTF-8
    one_record(b"a/w", [1] * 70, struct.pack("<d", 1.0)),      # rank past numpy's 64
    one_record(b"a/w", [0, 2 ** 63]),                          # empty, dim past intp
], ids=["name_not_utf8", "rank_70", "empty_huge_dim"])
def test_malformed_records_are_format_errors(tmp_path, blob):
    # each once escaped as UnicodeDecodeError or ValueError (found by fuzzing)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_duplicate_record_rejected(tmp_path):
    # save_checkpoint never writes one; loading kept the last without a word
    record = (struct.pack("<Q", 3) + b"a/w" + struct.pack("<Q", 1) + struct.pack("<Q", 1))
    path = tmp_path / "dup.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", 2)
                     + record + struct.pack("<d", 1.0) + record + struct.pack("<d", 2.0))
    with pytest.raises(DataFormatError, match="duplicate record 'a/w'"):
        load_checkpoint(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "nope.ckpt")
