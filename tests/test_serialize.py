"""Canonical JSON and CSV emission, and the binary array files' one reader."""

import importlib
import json
import pkgutil
import re
import struct

import numpy as np
import pytest

import rra_uq
from rra_uq import checkpoint, data, inference
from rra_uq.errors import ContractError, DataFormatError
from rra_uq.rng import RngStream
from rra_uq.serialize import (ArrayLayout, dumps, format_float, read_array, rows_to_csv,
                              write_array, write_text)


class TestFormatFloat:
    def test_non_finite_tokens(self):
        assert format_float(float("nan")) == "NaN"
        assert format_float(float("inf")) == "Infinity"
        assert format_float(float("-inf")) == "-Infinity"

    def test_integral_values_keep_decimal_point(self):
        assert format_float(0.0) == "0.0"
        assert format_float(-3.0) == "-3.0"
        assert format_float(1e6) == "1000000.0"

    def test_17_digit_round_trip(self):
        draws = RngStream(0).normal(0, 1e6, (200,))
        for v in draws:
            assert float(format_float(float(v))) == float(v)

    def test_shortest_forms(self):
        assert format_float(0.5) == "0.5"
        assert float(format_float(1 / 3)) == 1 / 3


class TestDumps:
    def test_canonical_shape(self):
        doc = {"b": 1, "a": [1.5, None, True], "c": {"x": "s"}}
        text = dumps(doc)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed == {"b": 1, "a": [1.5, None, True], "c": {"x": "s"}}
        # insertion order is preserved, not sorted
        assert text.index('"b"') < text.index('"a"')

    def test_deterministic_bytes(self):
        doc = {"vals": [1 / 3, 2.0, float("nan")], "n": 7}
        assert dumps(doc) == dumps(json.loads(dumps(doc), parse_constant=float) | {})
        assert dumps(doc) == dumps({"vals": [1 / 3, 2.0, float("nan")], "n": 7})

    def test_float64_accepted_raw_int64_not(self):
        # callers must cast numpy ints; float64 subclasses float and passes
        assert json.loads(dumps({"a": np.float64(0.5)})) == {"a": 0.5}
        with pytest.raises(TypeError):
            dumps({"b": np.int64(3)})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            dumps({"a": object()})


class TestRowsToCsv:
    def test_basic_table(self):
        text = rows_to_csv(["x", "y"], [[1, 2.5], [3, 4.0]])
        assert text == "x,y\n1,2.5\n3,4.0\n"

    def test_quoting_and_escapes(self):
        text = rows_to_csv(["a"], [["has,comma"], ['has"quote'], ["has\nnewline"]])
        lines = text.split("\r\n") if "\r\n" in text else text.split("\n")
        assert lines[1] == '"has,comma"'
        assert '"has""quote"' in text

    def test_none_and_bools(self):
        text = rows_to_csv(["a", "b"], [[None, True], [False, None]])
        assert text == "a,b\n,true\nfalse,\n"


def test_write_text_exact_bytes(tmp_path):
    path = tmp_path / "out.json"
    write_text(path, dumps({"a": 1}))
    assert path.read_bytes() == dumps({"a": 1}).encode("utf-8")


STAMP = bytes(range(32))  # stands for the SHA-256 of a training config
SPECIAL = [np.nan, np.inf, -np.inf, -0.0]  # float payloads keep them bit for bit

# layout, its fields' values, a valid array, and dimensions with no elements
# whose shape numpy cannot hold (None: with one dimension, every count is held)
LAYOUTS = {
    "idx_images": (data.IDX_IMAGES, (), np.arange(12, dtype=np.uint8).reshape(3, 2, 2),
                   (0, 2 ** 32 - 1, 2 ** 32 - 1)),
    "idx_labels": (data.IDX_LABELS, (), np.array([0, 1, 2], dtype=np.uint8), None),
    "checkpoint": (checkpoint.LAYOUT, (checkpoint.VERSION, STAMP),
                   np.append(SPECIAL, RngStream(0).normal(0, 1, (17,))).reshape(3, 7),
                   (0, 2 ** 63)),
    "predictive_set": (inference.PS_LAYOUT, (inference.PS_VERSION, STAMP),
                       np.append(SPECIAL, range(8)).reshape(2, 3, 2), (0, 2 ** 40, 2 ** 40)),
}
STAMPED = [name for name, case in LAYOUTS.items() if case[1]]


@pytest.fixture(params=list(LAYOUTS))
def layout_file(request, tmp_path):
    """(layout, fields, array, path of a valid file)."""
    layout, fields, array, _ = LAYOUTS[request.param]
    path = tmp_path / "file.bin"
    write_array(path, layout, array, *fields)
    return layout, fields, array, path


class TestArrayFiles:
    """Every binary format's refusals, through the reader they share."""

    def test_round_trip_bit_exact(self, layout_file):
        layout, fields, array, path = layout_file
        # any memory order writes the C-order bytes; an empty array (no
        # checkpoint member kept, say) still states its other dimensions
        empty = np.empty((0, *array.shape[1:]), dtype=layout.dtype)
        for arr in (array, np.asfortranarray(array), np.repeat(array, 2, -1)[..., ::2], empty):
            write_array(path, layout, arr, *fields)
            got = read_array(path, layout, *fields)
            assert got.dtype == np.dtype(layout.dtype) and got.shape == arr.shape
            assert got.flags.writeable and got.flags.c_contiguous
            assert got.tobytes() == np.asarray(arr, dtype=layout.dtype).tobytes()
            size = struct.calcsize(layout.head)
            assert path.read_bytes()[:size] == struct.pack(layout.head, layout.magic,
                                                           *fields, *arr.shape)

    def test_missing_file_raises_oserror(self, layout_file):
        layout, fields, _, path = layout_file
        path.unlink()
        with pytest.raises(OSError):
            read_array(path, layout, *fields)

    def test_cut_inside_the_header(self, layout_file):
        layout, fields, _, path = layout_file
        buf = path.read_bytes()
        size = struct.calcsize(layout.head)
        for cut in (0, len(layout.magic) + 1, size - 1):
            path.write_bytes(buf[:cut])
            with pytest.raises(DataFormatError, match=f"ends at byte {cut}, inside its "
                                                      f"{size}-byte header"):
                read_array(path, layout, *fields)

    def test_wrong_magic(self, layout_file):
        layout, fields, _, path = layout_file
        buf = bytearray(path.read_bytes())
        buf[len(layout.magic) - 1] ^= 0xFF
        path.write_bytes(bytes(buf))
        with pytest.raises(DataFormatError, match=f"bad {layout.what} magic .* at byte 0, "):
            read_array(path, layout, *fields)

    @pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
    def test_payload_one_byte_off(self, layout_file, change):
        layout, fields, array, path = layout_file
        buf = path.read_bytes()
        path.write_bytes(buf[:-1] if change < 0 else buf + b"\x00")
        with pytest.raises(DataFormatError) as err:
            read_array(path, layout, *fields)
        msg = str(err.value)
        assert f"ends at byte {len(buf) + change}" in msg and str(path) in msg
        assert f"payload of shape {array.shape} ends at byte {len(buf)}" in msg

    def test_dimensions_past_any_file(self, layout_file):
        # each dimension at its field's largest value: past 64 bits of payload for u64 fields
        layout, fields, array, path = layout_file
        top = (2 ** (8 * struct.calcsize("<" + layout.head[-1])) - 1,) * array.ndim
        path.write_bytes(struct.pack(layout.head, layout.magic, *fields, *top))
        with pytest.raises(DataFormatError, match=re.escape(f"payload of shape {top} ends")):
            read_array(path, layout, *fields)

    @pytest.mark.parametrize("name", STAMPED)
    def test_header_field_of_another_value(self, tmp_path, name):
        # an older or newer version, or another config's stamp: both values and the remedy
        layout, fields, array, _ = LAYOUTS[name]
        path = tmp_path / "other.bin"
        for i, found in ((0, fields[0] - 1), (0, fields[0] + 1), (1, bytes(32))):
            write_array(path, layout, array, *fields[:i], found, *fields[i + 1:])
            with pytest.raises(DataFormatError) as err:
                read_array(path, layout, *fields)
            show = bytes.hex if i else str
            assert str(err.value) == (f"{path}: {layout.what} {layout.fields[i]} "
                                      f"{show(found)}, expected {show(fields[i])}; "
                                      f"{layout.remedy}")

    @pytest.mark.parametrize("name", [name for name, case in LAYOUTS.items() if case[3]])
    def test_empty_payload_of_a_shape_numpy_cannot_hold(self, tmp_path, name):
        layout, fields, _, unholdable = LAYOUTS[name]
        path = tmp_path / "empty.bin"
        path.write_bytes(struct.pack(layout.head, layout.magic, *fields, *unholdable))
        with pytest.raises(DataFormatError, match=re.escape(f"shape {unholdable}: ")):
            read_array(path, layout, *fields)

    def test_every_header_field_is_checked(self, layout_file):
        """A caller naming fewer (or more) values than the layout has fields
        is refused before the file is read, so no field goes unchecked."""
        layout, fields, _, path = layout_file
        for wrong in (fields[:-1], (*fields, 0)):
            if len(wrong) == len(fields):  # a layout with no fields has no shorter list
                continue
            with pytest.raises(ContractError, match=f"against {len(fields)} fields, "
                                                    f"got {len(wrong)}"):
                read_array(path, layout, *wrong)


def test_checkpoint_header_layout(tmp_path):
    # magic, version, stamp, k and P, then the rows as little-endian float64
    rows = RngStream(0).normal(0, 1, (3, 7))
    path = tmp_path / "members.ckpt"
    checkpoint.save_checkpoint(rows, STAMP, path)
    head = checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION) + STAMP
    assert path.read_bytes() == head + struct.pack("<QQ", 3, 7) + rows.astype("<f8").tobytes()


def test_every_binary_format_runs_the_refusal_suite():
    """Each ArrayLayout that any rra_uq module defines is in LAYOUTS, so a
    new binary format cannot skip TestArrayFiles."""
    found = set()
    for info in pkgutil.iter_modules(rra_uq.__path__):
        module = importlib.import_module(f"rra_uq.{info.name}")
        found |= {v for v in vars(module).values() if isinstance(v, ArrayLayout)}
    assert found == {case[0] for case in LAYOUTS.values()}
