"""Property tests of config and binary-file loading (Hypothesis).

Configs are drawn from the schema's own table of keys.  Each value is
usually a plausible one for its key and otherwise arbitrary JSON, and now and
then an unknown key rides along.  Loading may refuse a config only with
ConfigError, and whatever it accepts must come back unchanged through
`to_dict`.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rra_uq import experiments as exp
from rra_uq.checkpoint import load_checkpoint, save_checkpoint
from rra_uq.data import CORRUPTION_KINDS, Dataset, load_idx, write_idx
from rra_uq.errors import ConfigError, DataFormatError, ParameterError
from rra_uq.inference import PredictiveSet, load_predictive_set, save_predictive_set

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def rate(low=0.0, high=1.0):
    return st.floats(low, high) | st.sampled_from([low, high])


SIZE = st.integers(1, 500)
PLAUSIBLE = {  # key -> values near (and sometimes just past) its rule's edges
    "architecture": st.sampled_from(exp.ARCHITECTURES),
    "activation_position": st.sampled_from(exp.POSITIONS),
    "n_passes": st.integers(0, 60), "master_seed": st.integers(-1, 2 ** 70),
    "ece_bins": st.integers(0, 40),
    "corruptions": st.lists(st.sampled_from(CORRUPTION_KINDS), max_size=3),
    "severities": st.lists(st.integers(0, 6), max_size=3),
    "epochs": st.integers(-1, 200) | st.floats(0, 5), "batch_size": st.integers(0, 128),
    "learning_rate": rate(0.0, 1.0), "momentum": rate(0.0, 1.0),
    "weight_decay": rate(-0.1, 0.01),
    "schedule": st.lists(st.tuples(rate(0.0, 1.0), rate(0.5, 100.0)).map(list), max_size=3),
    "drop_rate": rate(), "retain_rate": rate(-0.5, 1.5), "low": rate(0.0, 0.5),
    "high": rate(0.3, 1.0), "members": st.integers(0, 8),
    "train_size": SIZE, "test_size": SIZE, "n_classes": st.integers(0, 10),
    "noise": rate(0.0, 1.0), "sigma": rate(0.0, 1.0),
    "centers": st.lists(st.lists(st.integers(-3, 3) | st.floats(-3, 3), min_size=2,
                                 max_size=2), max_size=3),
    "train_images": st.text(max_size=6), "train_labels": st.text(max_size=6),
    "test_images": st.text(max_size=6), "test_labels": st.text(max_size=6),
}


def mostly(plausible, other=JSON):
    """`plausible` 15 times in 16, else `other`."""
    return st.integers(0, 15).flatmap(lambda i: other if i == 0 else plausible)


def obj(keys, required=None):
    """A JSON object over `keys`, now and then with one key no table knows."""
    known = st.fixed_dictionaries(required or {},
                                  optional={key: mostly(PLAUSIBLE[key]) for key in keys})
    junk = st.dictionaries(st.sampled_from(["epoch", "retain", "nosie", "extra"]), JSON,
                           min_size=1, max_size=1)
    return mostly(known, st.builds(lambda d, extra: {**d, **extra}, known, junk))


METHODS = mostly(st.one_of(*[obj(exp.method_spec(name).params(), {"name": st.just(name)})
                             for name in exp.METHOD_NAMES]))
DATASETS = mostly(st.one_of(*[obj([f.key for f in fields], {"name": st.just(name)})
                              for name, fields in exp.DATASET_FIELDS.items()]))
PLAUSIBLE["method"], PLAUSIBLE["dataset"] = METHODS, DATASETS
for f in exp.CONFIG_FIELDS:
    if f.fields:
        PLAUSIBLE[f.key] = obj([sub.key for sub in f.fields])
CONFIGS = mostly(obj([f.key for f in exp.CONFIG_FIELDS if f.key != "method"],
                     {"method": METHODS}))


@FUZZ
@given(CONFIGS)
def test_only_config_error_escapes(raw):
    try:
        exp.config_from_dict(raw)
    except ConfigError:
        pass


@FUZZ
@given(CONFIGS)
def test_accepted_configs_round_trip(raw):
    try:
        cfg = exp.config_from_dict(raw)
    except ConfigError:
        return
    echo = cfg.to_dict()
    assert exp.config_from_dict(echo).to_dict() == echo


# Binary loaders: valid files, then truncated, with bytes flipped (mostly in
# the headers) or with bytes appended.  Whatever loading makes of them, it
# may refuse them only as a malformed file: a DataFormatError, or for IDX
# labels a ParameterError naming a label past the class count.

BINARY = settings(FUZZ, max_examples=150,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "flip", "append"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "append":
        return blob + draw(st.binary(min_size=1, max_size=16))
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, min(len(out), 48) - 1) | st.integers(0, len(out) - 1))
        out[at] ^= draw(st.integers(1, 255))
    return bytes(out)


def written(tmp_path, name, save, *args) -> bytes:
    path = tmp_path / name
    save(*args, path)
    return path.read_bytes()


def refused(load, *args, allowed=DataFormatError) -> bool:
    """Whether `load(*args)` refused its input; only `allowed` may escape."""
    try:
        load(*args)
    except allowed:
        return True
    return False


STAMP = bytes(range(32))  # stands for the SHA-256 of a training config


def refuses_stale_stamps(tmp_path, data, name, save, load, value, at):
    """Mutate a valid file whose stamp is bytes at..at+32: whatever loading
    makes of it, only a DataFormatError escapes, and one whose stamp was cut
    or changed is refused."""
    blob = written(tmp_path, f"valid-{name}", save, value, STAMP)
    mutant = data.draw(mutated(blob))
    path = tmp_path / name
    path.write_bytes(mutant)
    assert refused(load, path, STAMP) or mutant[at:at + 32] == STAMP


@BINARY
@given(st.data())
def test_load_checkpoint_raises_only_rra_errors(tmp_path, data):
    rows = np.arange(12.0).reshape(2, 6)
    refuses_stale_stamps(tmp_path, data, "members.ckpt", save_checkpoint, load_checkpoint,
                         rows, at=16)


@BINARY
@given(st.data())
def test_load_predictive_set_raises_only_rra_errors(tmp_path, data):
    ps = PredictiveSet(np.full((2, 3, 2), 0.5))
    refuses_stale_stamps(tmp_path, data, "predictions.bin", save_predictive_set,
                         load_predictive_set, ps, at=16)


@BINARY
@given(st.data(), st.booleans())
def test_load_idx_raises_only_rra_errors(tmp_path, data, mutate_labels):
    ds = Dataset(np.arange(12.0).reshape(3, 1, 2, 2) / 11.0, [0, 1, 2], "d", 3)
    paths = [tmp_path / "images.idx", tmp_path / "labels.idx"]
    write_idx(ds, *paths)
    target = paths[mutate_labels]
    target.write_bytes(data.draw(mutated(target.read_bytes())))
    refused(load_idx, *paths, 3, allowed=(DataFormatError, ParameterError))
