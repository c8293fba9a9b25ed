"""Config-driven experiment harness.

An experiment is (method, architecture, dataset, training recipe, inference
budget, master seed).  The master seed forks into named streams -- data
generation, init, training, inference, corruption -- so changing one phase's
consumption never perturbs another.  Report bodies are canonical JSON and are
byte-identical across reruns and BLAS thread counts; wall-clock timings live
outside the body.

`run_experiment` is one pipeline of stage functions -- `prepare_experiment`,
`train_models`, `predict_with_method`, `eval_metrics`, `diversity_summary` --
and the CLI's train/predict/metrics subcommands call the same stages.
`run_suite`, `q_sweep` and `position_analysis` make each row a
`run_experiment` call on its config without the corruption grid (no
severities), so a row evaluates the clean test split only and its fields are
that report's.  `run_suite` runs its rows in worker processes (`_map_rows`).

A config is read through one table, `CONFIG_FIELDS` (with the per-name
tables `DATASET_FIELDS` and the methods'), which holds every key's check and
default and drives `ExperimentConfig.to_dict`.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import activations as act
from . import data as datamod
from . import network as netmod
from . import serialize
from .errors import ConfigError, ContractError, ParameterError, WorkerLost
from .inference import aggregate, ensemble_predict, mc_predict
from .inference import single_predict  # no caller here; perfbench/tracer.py wraps this name
from .metrics import DEFAULT_BIN_COUNT, accuracy, diversity_matrix, ece, shift_sweep
from .rng import RngStream
from .training import OptimizerState, TrainingResult, train

ARCHITECTURES = ("mlp-1x32", "mlp-2x64", "mlp-3x128", "cnn-small")
POSITIONS = ("all", "first", "last")

# named stream indices off the master seed
_S_DATA_TRAIN, _S_DATA_TEST, _S_INIT, _S_TRAIN, _S_INFER, _S_CORRUPT = range(6)

_HIDDEN = {"mlp-1x32": [32], "mlp-2x64": [64, 64], "mlp-3x128": [128, 128, 128]}
# activation sites per preset: one per hidden layer, or per cnn-small trunk block
_SITE_COUNTS = {**{arch: len(widths) for arch, widths in _HIDDEN.items()}, "cnn-small": 3}

DIVERSITY_MEMBERS = 4  # MC methods: diversity over the first 4 passes

_REQUIRED = object()  # Field default of a key that must be given


@dataclass(frozen=True)
class Field:
    """One key of a config object: how its value is read, and its default.

    `read(value, path)` checks a JSON value and returns what the config
    holds.  A missing key reads `default` the same way; `None` leaves it
    unset and `_REQUIRED` makes it an error; `check(value, path)` then applies
    a data rule, its ParameterError a ConfigError.  A field with `fields` is
    a nested object whose values sit flat beside its parent's.
    """

    key: str
    read: Callable | None = None
    default: object = _REQUIRED
    fields: tuple = ()
    check: Callable | None = None


def _read_object(raw, fields, prefix: str = "") -> dict:
    """The values of one JSON object's `fields`, in table order, defaults filled in."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config root'} must be a JSON object")
    unknown = sorted(prefix + str(key) for key in set(raw) - {f.key for f in fields})
    if unknown:
        raise ConfigError(f"unknown config fields: {unknown}")
    values = {}
    for f in fields:
        path = prefix + f.key
        if f.fields:
            values.update(_read_object(raw.get(f.key, {}), f.fields, path + "."))
        elif f.key in raw:
            values[f.key] = f.read(raw[f.key], path)
        elif f.default is _REQUIRED:
            raise ConfigError(f"config is missing the '{path}' field")
        else:
            values[f.key] = None if f.default is None else f.read(f.default, path)
        if f.check is not None:
            try:
                f.check(values[f.key], path)
            except ParameterError as exc:
                raise ConfigError(str(exc)) from exc
    return values


def _number(value, path: str, kind=float):
    """`value` as `kind` (int or float); any other type, booleans among them, or a
    non-finite value is a ConfigError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            as_float = float(value)
        except OverflowError:  # an integer beyond the float range
            as_float = math.inf
        if math.isfinite(as_float) and (kind is float or as_float.is_integer()):
            return kind(value)
    wanted = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"{path} must be {wanted}, got {value!r}")


def _integer(least: int, most: int | None = None):
    """Reader of an integer in [least, most]."""
    def read(value, path):
        n = _number(value, path, int)
        if n < least:
            raise ConfigError(f"{path} must be at least {least}, got {n}")
        if most is not None and n > most:
            raise ConfigError(f"{path} must be at most {most}, got {n}")
        return n
    return read


def _string(choices=None):
    """Reader of a string, one of `choices` if given."""
    def read(value, path):
        if isinstance(value, str) and (choices is None or value in choices):
            return value
        wanted = "a string" if choices is None else f"one of {choices}"
        raise ConfigError(f"{path} must be {wanted}, got {value!r}")
    return read


def _list_of(read_item, length: int | None = None):
    """Reader of a JSON list (of `length` items, if given) as a tuple of read items."""
    def read(value, path):
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            wanted = "a list" if length is None else f"a list of {length}"
            raise ConfigError(f"{path} must be {wanted}, got {value!r}")
        return tuple(read_item(item, path) for item in value)
    return read


# a count that sizes an allocation; 2**40 and up fits no machine, so it is
# refused at load rather than in the allocator
_COUNT = _integer(1, 2 ** 40 - 1)


@dataclass(frozen=True)
class MethodSpec:
    """An uncertainty method and what it puts into the network.

    `site` is the activation at the selected sites, `drop_rate` the rate of
    the dropout layer after each of them (0: none), `members` the number of
    networks trained.  Build one with `method_spec`; its label and dict form
    are read back from these.
    """

    name: str
    site: act.ActivationKind = act.relu()
    drop_rate: float = 0.0
    members: int = 1

    @property
    def monte_carlo(self) -> bool:
        return _METHODS[self.name].monte_carlo

    def passes(self, n_passes: int) -> int:
        """The passes in this method's predictive set, given the config's `n_passes`."""
        return n_passes if self.monte_carlo else self.members

    def params(self) -> dict:
        """The method's config parameters, read back from what it holds."""
        return {p.key: attrgetter(p.attr)(self) for p in _METHODS[self.name].params}

    def label(self) -> str:
        """The name with each parameter's tag, e.g. `mc_droprelu(q=0.9)`."""
        shown = [f"{p.tag}={v:g}" if isinstance(v, float) else f"{p.tag}={v}"
                 for p, v in zip(_METHODS[self.name].params, self.params().values())]
        return f"{self.name}({','.join(shown)})" if shown else self.name

    def to_dict(self) -> dict:
        return {"name": self.name, **self.params()}


@dataclass(frozen=True)
class _Param(Field):
    """A method parameter: also where a MethodSpec holds it, and its label tag."""

    attr: str = ""
    tag: str = ""


class _Method(NamedTuple):
    monte_carlo: bool  # n_passes stochastic passes of one network, not one pass per member
    params: tuple      # _Param rows
    build: Callable    # parameter values -> MethodSpec fields; the factory owns their rules


_METHODS = {
    "single": _Method(False, (), lambda: {}),
    "mc_dropout": _Method(
        True, (_Param("drop_rate", _number, 0.2, attr="drop_rate", tag="p"),),
        lambda drop_rate: {"drop_rate": act.DropoutSpec(drop_rate).drop_rate}),
    "deep_ensemble": _Method(
        False, (_Param("members", _COUNT, 4, attr="members", tag="M"),),
        lambda members: {"members": members}),
    "mc_droprelu": _Method(
        True, (_Param("retain_rate", _number, 0.9, attr="site.retain_rate", tag="q"),),
        lambda retain_rate: {"site": act.droprelu(retain_rate)}),
    "mc_rrelu": _Method(
        True, (_Param("low", _number, act.RRELU_DEFAULT_LOW, attr="site.low", tag="l"),
               _Param("high", _number, act.RRELU_DEFAULT_HIGH, attr="site.high", tag="u")),
        lambda low, high: {"site": act.rrelu(low, high)}),
}
METHOD_NAMES = tuple(_METHODS)


def method_spec(name: str, **params) -> MethodSpec:
    """The method `name` with `params`, the rest at their defaults.

    The one way to build a MethodSpec.  An unknown name or parameter, a
    value of the wrong type, or one the method's factory refuses is a
    ConfigError.
    """
    if name not in METHOD_NAMES:
        raise ConfigError(f"unknown method {name!r} (expected one of {METHOD_NAMES})")
    method = _METHODS[name]
    values = _read_object(params, method.params, "method.")
    try:
        return MethodSpec(name, **method.build(**values))
    except ParameterError as exc:
        raise ConfigError(f"method {name}: {exc}") from exc


def _read_method(raw, path: str) -> MethodSpec:
    if not isinstance(raw, dict) or "name" not in raw:
        raise ConfigError(f"{path} must be an object with a 'name' field")
    params = dict(raw)
    return method_spec(params.pop("name"), **params)


_count = partial(_number, kind=int)
_moons_size = partial(datamod.check_size, even=True)

_IDX_FILES = ("train_images", "train_labels", "test_images", "test_labels")

DATASET_FIELDS = {  # dataset name -> its fields beside "name"; `check`s are data's rules
    "two_moons": (Field("train_size", _count, 400, check=_moons_size),
                  Field("test_size", _count, 400, check=_moons_size),
                  Field("noise", _number, 0.12, check=datamod.check_scale)),
    "blobs": (Field("train_size", _count, check=datamod.check_size),
              Field("test_size", _count, check=datamod.check_size),
              Field("centers", _list_of(_list_of(_number)), check=datamod.check_centers),
              Field("sigma", _number, 0.5, check=datamod.check_scale)),
    "idx": tuple(Field(key, _string()) for key in _IDX_FILES)
           + tuple(Field(key, _integer(1), None) for key in ("train_size", "test_size"))
           + (Field("n_classes", _integer(2), None),),
}
DATASET_NAMES = tuple(DATASET_FIELDS)


def _dataset_spec(raw) -> dict:
    """The dataset's name and every field its name takes, defaults filled in."""
    if not isinstance(raw, dict):
        raise ConfigError("dataset must be a JSON object")
    name = raw.get("name")
    if name not in DATASET_NAMES:
        raise ConfigError(f"unknown dataset {name!r} (expected one of {DATASET_NAMES})")
    given = {key: value for key, value in raw.items() if key != "name"}
    return {"name": name, **_read_object(given, DATASET_FIELDS[name], "dataset.")}


def _read_dataset(raw, path: str) -> dict:
    """The dataset object as given, once its fields pass: the report echoes it so."""
    _dataset_spec(raw)
    return dict(raw)


MASTER_SEED = Field("master_seed", _integer(0, 2 ** 64 - 1), 0)  # RngStream keeps 64 bits

CONFIG_FIELDS = (
    Field("method", _read_method),
    Field("architecture", _string(ARCHITECTURES), "mlp-2x64"),
    Field("dataset", _read_dataset,
          {"name": "two_moons", **{f.key: f.default for f in DATASET_FIELDS["two_moons"]}}),
    Field("training", fields=(
        Field("epochs", _integer(0), 100),
        Field("batch_size", _integer(1), 64),
        Field("learning_rate", _number, 0.1),
        Field("momentum", _number, OptimizerState.momentum),
        Field("weight_decay", _number, OptimizerState.weight_decay),
        Field("schedule", _list_of(_list_of(_number, 2)), OptimizerState.schedule),
    )),
    Field("n_passes", _COUNT, 50),
    Field("activation_position", _string(POSITIONS), "all"),
    MASTER_SEED,
    Field("ece_bins", _COUNT, DEFAULT_BIN_COUNT),
    Field("corruptions", _list_of(_string(datamod.CORRUPTION_KINDS)), ()),
    Field("severities", _list_of(_integer(1, 5)), (1, 2, 3, 4, 5)),
)


@dataclass
class ExperimentConfig:
    """A config read by `config_from_dict`.

    One attribute per leaf of `CONFIG_FIELDS`, the training fields flat
    beside the rest; the table holds the defaults.
    """

    method: MethodSpec
    architecture: str
    dataset: dict
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float
    weight_decay: float
    schedule: tuple
    n_passes: int
    activation_position: str
    master_seed: int
    ece_bins: int
    corruptions: tuple
    severities: tuple

    def to_dict(self) -> dict:
        """JSON-like values in table order; `config_from_dict` reads them back."""
        return _dump(CONFIG_FIELDS, vars(self))


def training_digest(cfg: ExperimentConfig) -> bytes:
    """SHA-256 of what training reads from `cfg`: its `to_dict()`, the dataset
    with its defaults filled in, without the eval-only fields.  An idx set's
    files count by the SHA-256 of their contents, not by their paths.  The
    CLI stamps checkpoints and predictions with it, so a config that differs
    only in those fields predicts and scores from the same checkpoint, and
    one whose image files were rewritten does not."""
    fields = cfg.to_dict()
    dataset = fields["dataset"] = _dataset_spec(fields["dataset"])
    if dataset["name"] == "idx":
        for key in _IDX_FILES:
            with open(dataset[key], "rb") as fh:
                dataset[key] = hashlib.sha256(fh.read()).hexdigest()
    for key in ("n_passes", "ece_bins", "corruptions", "severities"):  # eval-only
        del fields[key]
    return hashlib.sha256(serialize.dumps(fields).encode("utf-8")).digest()


def _dump(fields, values: dict) -> dict:
    return {f.key: _dump(f.fields, values) if f.fields else _plain(values[f.key])
            for f in fields}


def _plain(value):
    if isinstance(value, MethodSpec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def _feature_shape(dataset: dict) -> tuple:
    """The shape of one sample of the dataset; idx images are (1, rows, cols),
    their size unknown until the files are read."""
    if dataset["name"] == "idx":
        return (1, None, None)
    if dataset["name"] == "blobs":
        return (len(dataset["centers"][0]),)
    return (2,)


def config_from_dict(raw) -> ExperimentConfig:
    """Read a JSON-like config through `CONFIG_FIELDS`; a bad one is a ConfigError."""
    cfg = ExperimentConfig(**_read_object(raw, CONFIG_FIELDS))
    dataset = _dataset_spec(cfg.dataset)
    shape = _feature_shape(dataset)
    if not architecture_accepts(cfg.architecture, shape):
        raise ConfigError(f"{_refusal(cfg.architecture, shape)} in dataset {dataset['name']!r}")
    refused = [kind for kind in cfg.corruptions if not datamod.corruption_applies(kind, shape)]
    if refused:
        raise ConfigError(f"corruptions {refused} are undefined for dataset "
                          f"{dataset['name']!r} (feature shape {shape})")
    if not cfg.corruptions:  # every kind that applies to the dataset
        cfg.corruptions = tuple(kind for kind in datamod.CORRUPTION_KINDS
                                if datamod.corruption_applies(kind, shape))
    try:  # the optimizer owns the learning-rate, momentum, decay and schedule rules
        _optimizer(cfg)
    except ParameterError as exc:
        raise ConfigError(f"training: {exc}") from exc
    return cfg


def _optimizer(cfg: ExperimentConfig) -> OptimizerState:
    return OptimizerState(cfg.learning_rate, cfg.momentum, cfg.weight_decay, cfg.schedule)


def read_json(path):
    """The value of a JSON file, which must be UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _read_experiments(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"a suite config needs an '{path}' list, got {value!r}")
    configs = []
    for i, raw in enumerate(value):
        try:
            configs.append(config_from_dict(raw))
        except ConfigError as exc:
            raise ConfigError(f"{path}[{i}]: {exc}") from exc
    return configs


def load_suite(path) -> list:
    """The configs of a suite file, an object whose one key is `experiments`."""
    return _read_object(read_json(path), (Field("experiments", _read_experiments),))["experiments"]


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path))


def _selected_sites(n_sites: int, position: str) -> frozenset:
    if position == "first":
        return frozenset({0})
    if position == "last":
        return frozenset({n_sites - 1})
    return frozenset(range(n_sites))


def architecture_accepts(arch: str, feature_shape) -> bool:
    """Whether `arch` takes samples of `feature_shape`: cnn-small needs
    (channels, h, w) images of at least 5x5 (its 3x3 conv, then its 3x3
    stride-2 conv, leave 1x1; a side still unknown, None, passes), and the
    MLPs flatten whatever they get."""
    if arch != "cnn-small":
        return True
    return len(feature_shape) == 3 and all(side is None or side >= 5
                                           for side in feature_shape[1:])


def _refusal(arch: str, feature_shape) -> str:
    return (f"architecture {arch!r} needs (channels, h, w) images of at least 5x5, "
            f"got feature shape {tuple(feature_shape)}")


def build_architecture(arch: str, input_shape, n_classes: int,
                       method: MethodSpec, position: str = "all"):
    """Realize a preset into a layer list for the given method and position.

    Each preset is a trunk of blocks, each ending in a weight layer that an
    activation site follows, then a dense head.  The position selects which
    sites carry the method's activation and, if it has one, a dropout layer
    after it; unselected sites stay plain ReLU.
    """
    if not architecture_accepts(arch, input_shape):
        raise ConfigError(_refusal(arch, input_shape))
    if arch in _HIDDEN:
        widths = _HIDDEN[arch]
        layers = [netmod.flatten("flatten0")] if len(input_shape) > 1 else []
        in_dims = [int(np.prod(input_shape))] + widths[:-1]
        trunk = [[netmod.dense(i, w, f"dense{site}")]
                 for site, (i, w) in enumerate(zip(in_dims, widths))]
        head_in = widths[-1]
    elif arch == "cnn-small":
        convs = [netmod.conv2d(input_shape[0], 8, 3, stride=1, name="conv0"),
                 netmod.conv2d(8, 16, 3, stride=2, name="conv1")]
        flat = math.prod(netmod.infer_shapes(convs, input_shape)[-1])
        layers = []
        trunk = [[convs[0]], [convs[1]],
                 [netmod.flatten("flatten0"), netmod.dense(flat, 64, "dense0")]]
        head_in = 64
    else:
        raise ConfigError(f"unknown architecture '{arch}'")

    selected = _selected_sites(len(trunk), position)
    for site, block in enumerate(trunk):
        layers += block
        chosen = site in selected
        layers.append(netmod.activation(method.site if chosen else act.relu(), f"act{site}"))
        if chosen and method.drop_rate > 0.0:
            layers.append(netmod.dropout_layer(method.drop_rate, f"drop{site}"))
    layers.append(netmod.dense(head_in, n_classes, "head"))
    return layers


def _derived_seed(stream: RngStream, index: int) -> int:
    return stream.fork(index).stream_id


def _build_datasets(cfg: ExperimentConfig, root: RngStream):
    d = _dataset_spec(cfg.dataset)
    seed_train = _derived_seed(root, _S_DATA_TRAIN)
    seed_test = _derived_seed(root, _S_DATA_TEST)
    if d["name"] == "two_moons":
        train_ds = datamod.gen_two_moons(d["train_size"], d["noise"], seed_train)
        test_ds = datamod.gen_two_moons(d["test_size"], d["noise"], seed_test)
    elif d["name"] == "blobs":
        train_ds = datamod.gen_blobs(d["train_size"], d["centers"], d["sigma"], seed_train)
        test_ds = datamod.gen_blobs(d["test_size"], d["centers"], d["sigma"], seed_test)
    else:
        train_ds = datamod.load_idx(d["train_images"], d["train_labels"], d["n_classes"])
        test_ds = datamod.load_idx(d["test_images"], d["test_labels"], d["n_classes"])
        train_ds = _subsample(train_ds, d["train_size"], seed_train, "train")
        test_ds = _subsample(test_ds, d["test_size"], seed_test, "test")
    return train_ds, test_ds


def _subsample(ds: datamod.Dataset, size: int | None, seed: int, split: str):
    """`size` samples of an IDX split in a seeded random order; all of it for
    None.  A size beyond the file is a ConfigError: it would run on fewer."""
    if size is None:
        return ds
    if size > len(ds):
        raise ConfigError(f"dataset.{split}_size {size} exceeds the {len(ds)} samples "
                          f"in the {split} files")
    return datamod.take(ds, RngStream(seed).permutation(len(ds))[:size])


class Report:
    """Deterministic body plus wall-clock timing kept outside the contract."""

    def __init__(self, body: dict, timing: dict | None = None):
        self.body = body
        self.timing = timing or {}

    @property
    def status(self) -> str:
        return self.body.get("status", "ok")

    def full_dict(self) -> dict:
        merged = dict(self.body)
        merged["timing"] = dict(self.timing)
        return merged

    def body_text(self) -> str:
        return serialize.dumps(self.body)

    def full_text(self) -> str:
        return serialize.dumps(self.full_dict())

    def csv_text(self) -> str:
        rows = []
        _flatten_into(self.full_dict(), "", rows)
        return serialize.rows_to_csv(("field", "value"), rows)


def _flatten_into(obj, prefix: str, rows: list):
    if isinstance(obj, dict):
        if not obj:
            rows.append((prefix, "{}"))
            return
        for k, v in obj.items():
            _flatten_into(v, f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            rows.append((prefix, "[]"))
            return
        for i, v in enumerate(obj):
            _flatten_into(v, f"{prefix}[{i}]", rows)
    elif obj is None:
        rows.append((prefix, "null"))  # explicit marker, not omitted
    else:
        rows.append((prefix, obj))


def emit_report(report: Report, fmt: str, path) -> None:
    if fmt == "json":
        serialize.write_text(path, report.full_text())
    elif fmt == "csv":
        serialize.write_text(path, report.csv_text())
    else:
        raise ConfigError(f"unknown report format '{fmt}' (expected json or csv)")


def inference_stream(setup: ExperimentSetup, set_index: int = 0) -> RngStream:
    """Forked stream for eval-set `set_index` (0 = clean test split)."""
    return setup.root.fork(_S_INFER).fork(set_index)


def predict_with_method(cfg: ExperimentConfig, nets, features, infer_rng: RngStream):
    """Predict stage: `cfg.n_passes` stochastic passes of the one network for a
    Monte-Carlo method, else one deterministic pass per member (`single` is an
    ensemble of one), so the set holds `cfg.method.passes(cfg.n_passes)`."""
    if cfg.method.monte_carlo:
        return mc_predict(nets[0], features, cfg.n_passes, infer_rng)
    return ensemble_predict(nets, features)


def eval_metrics(cfg: ExperimentConfig, ps, labels):
    """Metrics stage: (accuracy/ece/mean_entropy/mean_variance, reliability bins)."""
    summary = aggregate(ps)
    ece_val, bins = ece(summary.confidence, summary.labels == labels, cfg.ece_bins)
    metrics = {
        "accuracy": accuracy(summary.labels, labels),
        "ece": ece_val,
        "mean_entropy": float(summary.entropy.mean()),
        "mean_variance": float(summary.mean_class_variance.mean()),
    }
    return metrics, bins


def diversity_summary(cfg: ExperimentConfig, ps) -> dict | None:
    """Pairwise diversity summary (`metrics.diversity_matrix`) over a
    Monte-Carlo method's first `DIVERSITY_MEMBERS` passes, or over every
    member's pass; None when that gives fewer than two (a `single` run)."""
    count = min(DIVERSITY_MEMBERS, ps.n_passes) if cfg.method.monte_carlo else ps.n_passes
    if count < 2:
        return None
    return diversity_matrix(ps.probs[:count])


def member_curves(trained: TrainedModels) -> list:
    """Train stage output per member: final loss plus loss and lr curves."""
    return [{"final_loss": (curve[-1] if curve else None),
             "loss_curve": curve, "lr_curve": trained.training.lr_curve}
            for curve in trained.training.loss_curves]


@dataclass
class ExperimentSetup:
    """Deterministic pre-training state shared by train/predict/metrics."""

    root: RngStream
    test_ds: datamod.Dataset  # raw, for the corrupted eval sets
    train_norm: datamod.Dataset
    test_norm: datamod.Dataset
    stats: datamod.NormStats
    layers: list

    @property
    def input_shape(self):
        return self.train_norm.feature_shape


@dataclass
class TrainedModels:
    """The kept members, one network on each row of `rows`, and the stack's
    training."""

    rows: np.ndarray  # (kept, P): the first rows of the stack's parameter arena
    nets: list
    training: TrainingResult
    seconds: float

    @property
    def status(self) -> str:
        return "ok" if self.training.diverged_epoch is None else "diverged"


def prepare_experiment(cfg: ExperimentConfig) -> ExperimentSetup:
    """Build the data and the layer list.  An IDX set is checked here, before
    anything trains: each split must hold an image, its image size must suit
    the architecture, and its test labels the train split's class count."""
    root = RngStream(cfg.master_seed)
    train_ds, test_ds = _build_datasets(cfg, root)
    for split, ds in (("train", train_ds), ("test", test_ds)):
        if not len(ds):  # only an IDX file can be empty: generator sizes are checked at load
            raise ConfigError(f"dataset.{split}_images holds no images")
    if test_ds.labels.max() >= train_ds.n_classes:
        raise ConfigError(  # the head has one output per train class
            f"the test split has label {int(test_ds.labels.max())} but the train split has "
            f"{train_ds.n_classes} classes; set dataset.n_classes to cover both")
    layers = build_architecture(cfg.architecture, train_ds.feature_shape,
                                train_ds.n_classes, cfg.method,
                                cfg.activation_position)
    train_norm, stats = datamod.normalize(train_ds)
    test_norm, _ = datamod.normalize(test_ds, stats)
    return ExperimentSetup(root, test_ds, train_norm, test_norm, stats, layers)


def train_models(cfg: ExperimentConfig, setup: ExperimentSetup) -> TrainedModels:
    """Train the model, or every ensemble member in lockstep, each member
    from its own init and training streams.  The members are the rows of one
    parameter arena; after a divergence those kept are the members below
    the lowest diverged one, as when they trained one after another."""
    init_root = setup.root.fork(_S_INIT)
    train_root = setup.root.fork(_S_TRAIN)
    members = range(cfg.method.members)
    t0 = time.perf_counter()
    stack = netmod.build_members(setup.layers, setup.input_shape,
                                 [init_root.fork(m) for m in members])
    result = train(stack, setup.train_norm.features, setup.train_norm.labels,
                   _optimizer(cfg), cfg.epochs, min(cfg.batch_size, len(setup.train_norm)),
                   [train_root.fork(m) for m in members])
    rows = stack.flat[:len(result.loss_curves)]
    nets = [stack.with_parameters(row) for row in rows]
    return TrainedModels(rows, nets, result, time.perf_counter() - t0)


def corrupted_eval_sets(cfg: ExperimentConfig, setup: ExperimentSetup):
    """Yield (kind, severity, normalized dataset) for the configured grid.

    Each set is built when asked for and the generator keeps no reference to
    it, so a caller that drops a set before asking for the next holds one at
    a time.  Corruption happens on the raw test split, then the train-split
    normalization stats are reused, mirroring shift-evaluation practice.
    """
    corrupt_root = setup.root.fork(_S_CORRUPT)
    grid = [(kind, sev) for kind in cfg.corruptions for sev in cfg.severities]
    for idx, (kind, sev) in enumerate(grid):
        seed = _derived_seed(corrupt_root, idx)
        yield kind, sev, datamod.normalize(datamod.corrupt(setup.test_ds, kind, sev, seed),
                                           setup.stats)[0]


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Train, infer on clean and corrupted test splits, compute all metrics.

    Training divergence is recorded in the report (status "diverged"), so
    callers can still persist the config echo and exit nonzero.  The clean
    split comes first, then each set `corrupted_eval_sets` builds (none
    without severities); each is predicted, scored and dropped before the
    next is built.  Only the clean set's predictions are kept, for the
    diversity block.
    """
    setup = prepare_experiment(cfg)
    trained = train_models(cfg, setup)
    body = {
        "schema": "rra-uq/report/v1",
        "kind": "experiment",
        "status": trained.status,
        "method": cfg.method.label(),
        "config": cfg.to_dict(),
        "seed": cfg.master_seed,
        "normalization": "train-stats-reused",
    }
    if trained.status != "ok":
        body["diverged_epoch"] = trained.training.diverged_epoch
        body["evaluation"] = None
        body["sweeps"] = None
        body["diversity"] = None
        body["parameter_count"] = None
        body["size_multiplier"] = None
        return Report(body, {"train_seconds": trained.seconds, "inference_seconds": 0.0})

    # every member's parameters together, and that count relative to one network
    body["parameter_count"] = trained.nets[0].parameter_count() * cfg.method.members
    body["size_multiplier"] = cfg.method.members
    body["training"] = {"epochs": cfg.epochs, "members": member_curves(trained)}

    t1 = time.perf_counter()
    clean_ps = clean_metrics = None
    corrupted_rows = []
    by_sev = {"accuracy": {}, "ece": {}, "mean_entropy": {}}
    set_index = 0  # counted by hand: enumerate would hold the last set while the next is built
    for kind, sev, ds in chain([("clean", 0, setup.test_norm)], corrupted_eval_sets(cfg, setup)):
        ps = predict_with_method(cfg, trained.nets, ds.features,
                                 inference_stream(setup, set_index))
        m, _ = eval_metrics(cfg, ps, ds.labels)
        if kind == "clean":
            clean_ps, clean_metrics = ps, m
        else:
            corrupted_rows.append({"kind": kind, "severity": sev, **m})
        for key, per_sev in by_sev.items():
            per_sev.setdefault(sev, []).append(m[key])
        set_index += 1
        del ds, ps
    inference_seconds = time.perf_counter() - t1

    body["evaluation"] = {"clean": clean_metrics, "corrupted": corrupted_rows}
    body["sweeps"] = {key: shift_sweep(per_sev) for key, per_sev in by_sev.items()}
    diversity = diversity_summary(cfg, clean_ps)
    if diversity is not None:
        protocol = (f"first {diversity['members']} passes" if cfg.method.monte_carlo
                    else "ensemble members")
        diversity = {"members": diversity["members"], "protocol": protocol, **diversity}
    body["diversity"] = diversity
    timing = {"train_seconds": trained.seconds, "inference_seconds": inference_seconds}
    return Report(body, timing)


def _clean_run(cfg: ExperimentConfig):
    """One row of a multi-run report: (fields, seconds).

    The row is `run_experiment` on `cfg` without the corruption grid, so it
    evaluates the clean test split only and its fields are that report's:
    status, clean accuracy and ECE, and the model size (all None for a
    diverged run).  `seconds` is the report's timing: training and the clean
    split's predict-and-score time.
    """
    report = run_experiment(replace(cfg, severities=()))
    body = report.body
    clean = body["evaluation"]["clean"] if report.status == "ok" else {}
    fields = {"status": report.status, "accuracy": clean.get("accuracy"),
              "ece": clean.get("ece"), "size_multiplier": body["size_multiplier"],
              "parameter_count": body["parameter_count"]}
    return fields, report.timing


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cgroup_cpus(root="/sys/fs/cgroup"):
    """The CPUs a cgroup CPU quota allows, rounded up, or None without a quota.

    Reads cgroup v2's `cpu.max` ("200000 100000", or "max 100000" for none),
    else v1's `cpu/cpu.cfs_quota_us` and `cpu/cpu.cfs_period_us` (-1 for none).
    """
    for names in (("cpu.max",), ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        try:
            fields = []
            for name in names:
                with open(os.path.join(root, name)) as f:
                    fields += f.read().split()
            quota, period = int(fields[0]), int(fields[1])
        except (OSError, ValueError, IndexError):  # absent, or v2's "max"
            continue
        return math.ceil(quota / period) if quota > 0 and period > 0 else None
    return None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, capped by a cgroup quota."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    quota = _cgroup_cpus()
    return cpus if quota is None else max(1, min(cpus, quota))


def _blas_threads(value, share: int) -> str:
    """A worker's BLAS thread count: its CPU share, or the caller's if lower."""
    try:
        caller = int(value)
    except (TypeError, ValueError):  # unset, or not a count
        caller = 0
    return str(min(caller, share) if caller >= 1 else share)


def _map_rows(fn, items) -> list:
    """`[fn(item) for item in items]`, each row in a worker process.

    Rows are independent pure functions of their configs, so they run in
    `min(len(items), usable CPUs)` spawned workers, each with its share of
    the CPUs as BLAS threads, or the caller's own setting where that is
    lower (set in the environment the workers start with; NumPy reads it on
    import).  Results keep input order, and a row's exception re-raises
    here; a worker that dies (killed for memory, say) raises `WorkerLost`.
    With one worker the rows run in-process.  A script that reaches this at
    top level needs an `if __name__ == "__main__":` guard, because spawned
    workers import `__main__`.
    """
    items = list(items)
    cpus = _usable_cpus()
    workers = min(len(items), cpus)
    if workers < 2:
        return [fn(item) for item in items]
    # ProcessPoolExecutor, not multiprocessing.Pool: a worker killed by the
    # OS raises BrokenProcessPool instead of leaving Pool.map waiting forever
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    share = max(1, cpus // workers)
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        os.environ.update({var: _blas_threads(value, share) for var, value in saved.items()})
        try:  # each submit starts a worker until there are `workers`
            futures = [pool.submit(fn, item) for item in items]
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            raise WorkerLost(
                f"a worker process ended abruptly ({exc}); it may have run out of "
                "memory, or a script that runs rows at top level lacks an "
                "`if __name__ == \"__main__\":` guard") from exc
        finally:
            for future in futures:  # after a failed row, start no more
                future.cancel()


def _row_seconds(seconds) -> dict:
    """Per-row training and clean-split inference seconds, outside the body."""
    return {f"{key}_per_row": [row[key] for row in seconds]
            for key in ("train_seconds", "inference_seconds")}


def run_suite(configs) -> Report:
    """Run several methods on one dataset and tabulate the comparison.

    All configs must share a dataset spec, compared with its defaults filled
    in, and the body echoes the first config's; the size multiplier column is
    relative to the single-model parameter count of each row's architecture.
    Rows follow config order.  Each row trains its model and evaluates the
    clean test split only; `run_experiment` evaluates the corruption grid.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("suite needs at least one experiment config")
    datasets = {json.dumps(_dataset_spec(c.dataset), sort_keys=True) for c in configs}
    if len(datasets) != 1:
        raise ContractError("suite configs mix different datasets")

    runs = _map_rows(_clean_run, configs)
    rows = [{"method": cfg.method.label(), **fields, "seed": cfg.master_seed}
            for cfg, (fields, _) in zip(configs, runs)]
    body = {
        "schema": "rra-uq/suite/v1",
        "kind": "suite",
        "dataset": dict(configs[0].dataset),
        "rows": rows,
    }
    return Report(body, _row_seconds([seconds for _, seconds in runs]))


def position_analysis(base: ExperimentConfig, positions) -> Report:
    """One experiment per activation position, deduplicating identical stacks.

    Requires a stochastic-activation method.  When two positions select the
    same activation sites (a one-site network), they realize the same
    architecture, so the duplicate row points at the original instead of
    re-running (its seconds are 0); nothing is built for it.  Each row
    evaluates the clean test split only.
    """
    if not base.method.site.is_stochastic():
        raise ConfigError(
            f"position analysis needs mc_droprelu or mc_rrelu, got '{base.method.name}'")
    positions = list(positions)
    if not positions:
        raise ConfigError("need at least one position")
    for pos in positions:
        if pos not in POSITIONS:
            raise ConfigError(f"unknown position '{pos}'")

    n_sites = _SITE_COUNTS[base.architecture]
    seen: dict = {}  # selected sites -> (position, clean accuracy/ECE)
    rows, row_seconds = [], []
    for pos in positions:
        sites = _selected_sites(n_sites, pos)
        if sites in seen:
            first, clean = seen[sites]
            rows.append({"position": pos, "duplicate_of": first, **clean})
            row_seconds.append({"train_seconds": 0.0, "inference_seconds": 0.0})
            continue
        fields, seconds = _clean_run(replace(base, activation_position=pos))
        clean = {"accuracy": fields["accuracy"], "ece": fields["ece"]}
        seen[sites] = (pos, clean)
        rows.append({"position": pos, "duplicate_of": None, **clean})
        row_seconds.append(seconds)
    body = {
        "schema": "rra-uq/position/v1",
        "kind": "position",
        "method": base.method.label(),
        "architecture": base.architecture,
        "rows": rows,
    }
    return Report(body, _row_seconds(row_seconds))


def q_sweep(base: ExperimentConfig, q_values) -> Report:
    """Accuracy-vs-ECE rows over a grid of DropReLU retention rates, each on
    the clean test split only."""
    methods = [method_spec("mc_droprelu", retain_rate=q) for q in q_values]
    if len(methods) < 2:
        raise ConfigError(f"q sweep needs at least 2 values, got {len(methods)}")
    if base.method.name != "mc_droprelu":
        raise ConfigError(f"q sweep needs an mc_droprelu config, got '{base.method.name}'")

    runs = [_clean_run(replace(base, method=m)) for m in methods]
    body = {
        "schema": "rra-uq/qsweep/v1",
        "kind": "q_sweep",
        "architecture": base.architecture,
        "rows": [{"q": m.site.retain_rate, "accuracy": fields["accuracy"], "ece": fields["ece"]}
                 for m, (fields, _) in zip(methods, runs)],
    }
    return Report(body, _row_seconds([seconds for _, seconds in runs]))
