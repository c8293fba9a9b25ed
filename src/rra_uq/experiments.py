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
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import activations as act
from . import data as datamod
from . import network as netmod
from . import serialize
from .errors import ConfigError, ContractError, ParameterError, TrainingDivergence
from .inference import aggregate, ensemble_predict, mc_predict, single_predict
from .metrics import DEFAULT_BIN_COUNT, accuracy, diversity_matrix, ece, shift_sweep
from .rng import RngStream
from .training import DEFAULT_SCHEDULE, OptimizerState, train

METHOD_NAMES = ("single", "mc_dropout", "deep_ensemble", "mc_droprelu", "mc_rrelu")
ARCHITECTURES = ("mlp-1x32", "mlp-2x64", "mlp-3x128", "cnn-small")
POSITIONS = ("all", "first", "last")

# named stream indices off the master seed
_S_DATA_TRAIN, _S_DATA_TEST, _S_INIT, _S_TRAIN, _S_INFER, _S_CORRUPT = range(6)

_HIDDEN = {"mlp-1x32": [32], "mlp-2x64": [64, 64], "mlp-3x128": [128, 128, 128]}

DIVERSITY_MEMBERS = 4  # MC methods: diversity over the first 4 passes


@dataclass(frozen=True)
class MethodSpec:
    name: str
    drop_rate: float = 0.0
    retain_rate: float = 0.0
    members: int = 1
    low: float = act.RRELU_DEFAULT_LOW
    high: float = act.RRELU_DEFAULT_HIGH

    @property
    def member_count(self) -> int:
        """Networks trained and checkpointed: M for deep_ensemble, else 1."""
        return self.members if self.name == "deep_ensemble" else 1

    def label(self) -> str:
        if self.name == "mc_dropout":
            return f"mc_dropout(p={self.drop_rate:g})"
        if self.name == "mc_droprelu":
            return f"mc_droprelu(q={self.retain_rate:g})"
        if self.name == "mc_rrelu":
            return f"mc_rrelu(l={self.low:g},u={self.high:g})"
        if self.name == "deep_ensemble":
            return f"deep_ensemble(M={self.members})"
        return self.name

    def to_dict(self) -> dict:
        d = {"name": self.name}
        if self.name == "mc_dropout":
            d["drop_rate"] = self.drop_rate
        elif self.name == "mc_droprelu":
            d["retain_rate"] = self.retain_rate
        elif self.name == "mc_rrelu":
            d["low"], d["high"] = self.low, self.high
        elif self.name == "deep_ensemble":
            d["members"] = self.members
        return d


def _number(value, field: str, kind=float):
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
    raise ConfigError(f"{field} must be {wanted}, got {value!r}")


def _method_from_dict(d) -> MethodSpec:
    if not isinstance(d, dict) or "name" not in d:
        raise ConfigError("method must be an object with a 'name' field")
    name = d["name"]
    if name not in METHOD_NAMES:
        raise ConfigError(f"unknown method '{name}' (expected one of {METHOD_NAMES})")
    if name == "mc_dropout":
        spec = MethodSpec(name, drop_rate=_number(d.get("drop_rate", 0.2), "method.drop_rate"))
    elif name == "mc_droprelu":
        spec = MethodSpec(name, retain_rate=_number(d.get("retain_rate", 0.9),
                                                    "method.retain_rate"))
    elif name == "mc_rrelu":
        spec = MethodSpec(name, low=_number(d.get("low", act.RRELU_DEFAULT_LOW), "method.low"),
                          high=_number(d.get("high", act.RRELU_DEFAULT_HIGH), "method.high"))
    elif name == "deep_ensemble":
        m = _number(d.get("members", 4), "method.members", int)
        if m < 1:
            raise ConfigError(f"ensemble needs at least 1 member, got {m}")
        return MethodSpec(name, members=m)
    else:
        return MethodSpec(name)
    try:  # the layer and activation factories own the parameter rules
        if name == "mc_dropout":
            netmod.dropout_layer(spec.drop_rate)
        else:
            _activation_kind(spec)
    except ParameterError as exc:
        raise ConfigError(f"method {name}: {exc}") from exc
    return spec


@dataclass
class ExperimentConfig:
    method: MethodSpec
    architecture: str = "mlp-2x64"
    dataset: dict = field(default_factory=lambda: {
        "name": "two_moons", "train_size": 400, "test_size": 400, "noise": 0.12})
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    schedule: tuple = DEFAULT_SCHEDULE
    n_passes: int = 50
    activation_position: str = "all"
    master_seed: int = 0
    ece_bins: int = DEFAULT_BIN_COUNT
    corruptions: tuple = ()
    severities: tuple = (1, 2, 3, 4, 5)

    def to_dict(self) -> dict:
        return {
            "method": self.method.to_dict(),
            "architecture": self.architecture,
            "dataset": dict(self.dataset),
            "training": {
                "epochs": self.epochs, "batch_size": self.batch_size,
                "learning_rate": self.learning_rate, "momentum": self.momentum,
                "weight_decay": self.weight_decay,
                "schedule": [list(pair) for pair in self.schedule],
            },
            "n_passes": self.n_passes,
            "activation_position": self.activation_position,
            "master_seed": self.master_seed,
            "ece_bins": self.ece_bins,
            "corruptions": list(self.corruptions),
            "severities": list(self.severities),
        }


_DEFAULT_2D_CORRUPTIONS = ("gaussian_noise", "shot_noise", "pixel_dropout", "rotation")
_DEFAULT_IMG_CORRUPTIONS = datamod.CORRUPTION_KINDS


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"method", "architecture", "dataset", "training", "n_passes",
             "activation_position", "master_seed", "ece_bins", "corruptions",
             "severities"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "method" not in raw:
        raise ConfigError("config is missing the 'method' field")
    method = _method_from_dict(raw["method"])

    arch = raw.get("architecture", "mlp-2x64")
    if arch not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture '{arch}' (expected one of {ARCHITECTURES})")

    dataset = raw.get("dataset", {"name": "two_moons", "train_size": 400,
                                  "test_size": 400, "noise": 0.12})
    if not isinstance(dataset, dict):
        raise ConfigError("'dataset' must be an object")
    dataset = dict(dataset)
    ds_name = dataset.get("name")
    if ds_name not in ("two_moons", "blobs", "idx"):
        raise ConfigError(f"unknown dataset '{ds_name}' (expected two_moons, blobs or idx)")
    for key, kind in (("train_size", int), ("test_size", int), ("noise", float), ("sigma", float)):
        if key in dataset:
            _number(dataset[key], f"dataset.{key}", kind)
    if ds_name in ("two_moons", "blobs"):
        for key in ("train_size", "test_size"):
            if dataset.get(key, 0) < 2:
                raise ConfigError(f"dataset.{key} must be at least 2")
    if ds_name == "blobs" and "centers" not in dataset:
        raise ConfigError("blobs dataset needs a 'centers' field")
    if ds_name == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            if key not in dataset:
                raise ConfigError(f"idx dataset needs a '{key}' path")

    tr = raw.get("training", {})
    if not isinstance(tr, dict):
        raise ConfigError("'training' must be an object")
    schedule = tr.get("schedule", DEFAULT_SCHEDULE)
    if not (isinstance(schedule, (list, tuple))
            and all(isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in schedule)):
        raise ConfigError(f"training.schedule must be a list of [fraction, divisor] pairs, "
                          f"got {schedule!r}")
    for key in ("corruptions", "severities"):
        if not isinstance(raw.get(key, ()), (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {raw[key]!r}")
    cfg = ExperimentConfig(
        method=method,
        architecture=arch,
        dataset=dataset,
        epochs=_number(tr.get("epochs", 100), "training.epochs", int),
        batch_size=_number(tr.get("batch_size", 64), "training.batch_size", int),
        learning_rate=_number(tr.get("learning_rate", 0.1), "training.learning_rate"),
        momentum=_number(tr.get("momentum", 0.9), "training.momentum"),
        weight_decay=_number(tr.get("weight_decay", 1e-4), "training.weight_decay"),
        schedule=tuple(tuple(_number(v, "training.schedule") for v in pair) for pair in schedule),
        n_passes=_number(raw.get("n_passes", 50), "n_passes", int),
        activation_position=raw.get("activation_position", "all"),
        master_seed=_number(raw.get("master_seed", 0), "master_seed", int),
        ece_bins=_number(raw.get("ece_bins", DEFAULT_BIN_COUNT), "ece_bins", int),
        corruptions=tuple(raw.get("corruptions", ())),
        severities=tuple(_number(s, "severities", int)
                         for s in raw.get("severities", (1, 2, 3, 4, 5))),
    )
    if not cfg.corruptions:
        is_image = ds_name == "idx"
        cfg.corruptions = _DEFAULT_IMG_CORRUPTIONS if is_image else _DEFAULT_2D_CORRUPTIONS
    for kind in cfg.corruptions:
        if kind not in datamod.CORRUPTION_KINDS:
            raise ConfigError(f"unknown corruption kind '{kind}'")
    for sev in cfg.severities:
        if not 1 <= sev <= 5:
            raise ConfigError(f"severity must lie in 1..5, got {sev}")
    if cfg.epochs < 0:
        raise ConfigError(f"epochs must be non-negative, got {cfg.epochs}")
    if cfg.batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {cfg.batch_size}")
    try:  # the optimizer owns the learning-rate, momentum, decay and schedule rules
        _optimizer(cfg)
    except ParameterError as exc:
        raise ConfigError(f"training: {exc}") from exc
    if cfg.n_passes < 1:
        raise ConfigError(f"n_passes must be at least 1, got {cfg.n_passes}")
    if cfg.activation_position not in POSITIONS:
        raise ConfigError(
            f"activation_position must be one of {POSITIONS}, got '{cfg.activation_position}'")
    if cfg.master_seed < 0:
        raise ConfigError(f"master_seed must be a non-negative integer")
    if cfg.ece_bins < 1:
        raise ConfigError(f"ece_bins must be at least 1, got {cfg.ece_bins}")
    return cfg


def _optimizer(cfg: ExperimentConfig) -> OptimizerState:
    return OptimizerState(cfg.learning_rate, cfg.momentum, cfg.weight_decay, cfg.schedule)


def config_from_json(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_json(fh.read())


def _activation_kind(method: MethodSpec) -> act.ActivationKind:
    if method.name == "mc_droprelu":
        return act.droprelu(method.retain_rate)
    if method.name == "mc_rrelu":
        return act.rrelu(method.low, method.high)
    return act.relu()


def _selected_sites(n_sites: int, position: str):
    if position == "first":
        return {0}
    if position == "last":
        return {n_sites - 1}
    return set(range(n_sites))


def build_architecture(arch: str, input_shape, n_classes: int,
                       method: MethodSpec, position: str = "all"):
    """Realize a preset into a layer list for the given method and position.

    Activation sites sit after every hidden (non-head) weight layer.  The
    position selects which sites carry the stochastic activation (or, for
    mc_dropout, which sites get a dropout layer appended); unselected sites
    stay plain ReLU.
    """
    stochastic_kind = _activation_kind(method)
    drop_rate = method.drop_rate if method.name == "mc_dropout" else 0.0

    if arch in _HIDDEN:
        dims = _HIDDEN[arch]
        n_sites = len(dims)
        selected = _selected_sites(n_sites, position)
        layers = []
        in_dim = int(np.prod(input_shape))
        if len(input_shape) > 1:
            layers.append(netmod.flatten("flatten0"))
        site = 0
        for width in dims:
            layers.append(netmod.dense(in_dim, width, f"dense{site}"))
            kind = stochastic_kind if site in selected else act.relu()
            layers.append(netmod.activation(kind, f"act{site}"))
            if drop_rate > 0.0 and site in selected:
                layers.append(netmod.dropout_layer(drop_rate, f"drop{site}"))
            in_dim = width
            site += 1
        layers.append(netmod.dense(in_dim, n_classes, "head"))
        return layers

    if arch == "cnn-small":
        if len(input_shape) != 3:
            raise ConfigError(f"cnn-small needs (channels, h, w) input, got {input_shape}")
        c, h, w = input_shape
        n_sites = 3
        selected = _selected_sites(n_sites, position)

        def site_kind(site):
            return stochastic_kind if site in selected else act.relu()

        layers = [
            netmod.conv2d(c, 8, 3, stride=1, padding="valid", name="conv0"),
            netmod.activation(site_kind(0), "act0"),
        ]
        if drop_rate > 0.0 and 0 in selected:
            layers.append(netmod.dropout_layer(drop_rate, "drop0"))
        layers += [
            netmod.conv2d(8, 16, 3, stride=2, padding="valid", name="conv1"),
            netmod.activation(site_kind(1), "act1"),
        ]
        if drop_rate > 0.0 and 1 in selected:
            layers.append(netmod.dropout_layer(drop_rate, "drop1"))
        oh = (h - 3) + 1
        ow = (w - 3) + 1
        oh = (oh - 3) // 2 + 1
        ow = (ow - 3) // 2 + 1
        flat = 16 * oh * ow
        layers += [
            netmod.flatten("flatten0"),
            netmod.dense(flat, 64, "dense0"),
            netmod.activation(site_kind(2), "act2"),
        ]
        if drop_rate > 0.0 and 2 in selected:
            layers.append(netmod.dropout_layer(drop_rate, "drop2"))
        layers.append(netmod.dense(64, n_classes, "head"))
        return layers

    raise ConfigError(f"unknown architecture '{arch}'")


def architecture_signature(layers) -> tuple:
    """Hashable identity of a realized layer stack, used for dedup."""
    sig = []
    for layer in layers:
        if isinstance(layer, netmod.Dense):
            sig.append(("dense", layer.in_dim, layer.out_dim))
        elif isinstance(layer, netmod.Conv2d):
            sig.append(("conv2d", layer.in_channels, layer.out_channels,
                        layer.kernel_size, layer.stride, layer.padding))
        elif isinstance(layer, netmod.Flatten):
            sig.append(("flatten",))
        elif isinstance(layer, netmod.Activation):
            k = layer.kind
            sig.append(("act", k.tag, k.retain_rate, k.low, k.high))
        elif isinstance(layer, netmod.Dropout):
            sig.append(("dropout", layer.spec.drop_rate))
    return tuple(sig)


def _derived_seed(stream: RngStream, index: int) -> int:
    return stream.fork(index).stream_id


def _build_datasets(cfg: ExperimentConfig, root: RngStream):
    d = cfg.dataset
    seed_train = _derived_seed(root, _S_DATA_TRAIN)
    seed_test = _derived_seed(root, _S_DATA_TEST)
    if d["name"] == "two_moons":
        noise = float(d.get("noise", 0.12))
        train_ds = datamod.gen_two_moons(int(d["train_size"]), noise, seed_train)
        test_ds = datamod.gen_two_moons(int(d["test_size"]), noise, seed_test)
    elif d["name"] == "blobs":
        sigma = float(d.get("sigma", 0.5))
        centers = d["centers"]
        train_ds = datamod.gen_blobs(int(d["train_size"]), centers, sigma, seed_train)
        test_ds = datamod.gen_blobs(int(d["test_size"]), centers, sigma, seed_test)
    else:
        train_ds = datamod.load_idx(d["train_images"], d["train_labels"],
                                    d.get("n_classes"))
        test_ds = datamod.load_idx(d["test_images"], d["test_labels"],
                                   d.get("n_classes"))
        if "train_size" in d:
            order = RngStream(seed_train).permutation(len(train_ds))
            train_ds = datamod.take(train_ds, order[:int(d["train_size"])])
        if "test_size" in d:
            order = RngStream(seed_test).permutation(len(test_ds))
            test_ds = datamod.take(test_ds, order[:int(d["test_size"])])
    return train_ds, test_ds


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
    if cfg.method.name == "deep_ensemble":
        return ensemble_predict(nets, features)
    if cfg.method.name == "single":
        return single_predict(nets[0], features)
    return mc_predict(nets[0], features, cfg.n_passes, infer_rng)


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


def diversity_members(cfg: ExperimentConfig, ps) -> np.ndarray | None:
    if cfg.method.name == "single":
        return None
    if cfg.method.name == "deep_ensemble":
        return ps.probs if ps.n_passes >= 2 else None
    count = min(DIVERSITY_MEMBERS, ps.n_passes)
    return ps.probs[:count] if count >= 2 else None


def diversity_summary(cfg: ExperimentConfig, ps) -> dict | None:
    """Pairwise diversity summary, or None when fewer than two members exist."""
    member_probs = diversity_members(cfg, ps)
    if member_probs is None:
        return None
    return diversity_matrix(member_probs).summary()


def member_curves(trained: TrainedModels) -> list:
    """Train stage output per member: final loss plus loss and lr curves."""
    return [{"final_loss": (c.loss_curve[-1] if c.loss_curve else None),
             "loss_curve": c.loss_curve, "lr_curve": c.lr_curve}
            for c in trained.curves]


@dataclass
class ExperimentSetup:
    """Deterministic pre-training state shared by train/predict/metrics."""

    root: RngStream
    train_ds: datamod.Dataset
    test_ds: datamod.Dataset
    train_norm: datamod.Dataset
    test_norm: datamod.Dataset
    stats: datamod.NormStats
    layers: list

    @property
    def input_shape(self):
        return self.train_ds.feature_shape


@dataclass
class TrainedModels:
    nets: list
    curves: list
    status: str
    diverged_epoch: int | None
    seconds: float


def prepare_experiment(cfg: ExperimentConfig) -> ExperimentSetup:
    root = RngStream(cfg.master_seed)
    train_ds, test_ds = _build_datasets(cfg, root)
    layers = build_architecture(cfg.architecture, train_ds.feature_shape,
                                train_ds.n_classes, cfg.method,
                                cfg.activation_position)
    train_norm, stats = datamod.normalize(train_ds)
    test_norm, _ = datamod.normalize(test_ds, stats)
    return ExperimentSetup(root, train_ds, test_ds, train_norm, test_norm,
                           stats, layers)


def train_models(cfg: ExperimentConfig, setup: ExperimentSetup | None = None) -> TrainedModels:
    """Train the model (or every ensemble member) from per-member streams."""
    if setup is None:
        setup = prepare_experiment(cfg)
    init_root = setup.root.fork(_S_INIT)
    train_root = setup.root.fork(_S_TRAIN)
    nets, curves = [], []
    status, diverged_epoch = "ok", None
    t0 = time.perf_counter()
    for m in range(cfg.method.member_count):
        net = netmod.build_network(setup.layers, setup.input_shape, init_root.fork(m))
        try:
            res = train(net, setup.train_norm.features, setup.train_norm.labels,
                        _optimizer(cfg), cfg.epochs, min(cfg.batch_size, len(setup.train_norm)),
                        train_root.fork(m))
        except TrainingDivergence as exc:
            status, diverged_epoch = "diverged", exc.epoch
            break
        nets.append(net)
        curves.append(res)
    return TrainedModels(nets, curves, status, diverged_epoch,
                         time.perf_counter() - t0)


def corrupted_eval_sets(cfg: ExperimentConfig, setup: ExperimentSetup):
    """(kind, severity, normalized dataset) triples for the configured grid.

    Corruption happens on the raw test split, then the train-split
    normalization stats are reused, mirroring shift-evaluation practice.
    """
    corrupt_root = setup.root.fork(_S_CORRUPT)
    sets = []
    idx = 0
    for kind in cfg.corruptions:
        for sev in cfg.severities:
            cds = datamod.corrupt(setup.test_ds, kind, int(sev),
                                  _derived_seed(corrupt_root, idx))
            cnorm, _ = datamod.normalize(cds, setup.stats)
            sets.append((kind, int(sev), cnorm))
            idx += 1
    return sets


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Train, infer on clean and corrupted test splits, compute all metrics.

    Training divergence is recorded in the report (status "diverged") rather
    than raised, so callers can still persist the config echo and exit
    nonzero.  Each eval set is predicted, scored and dropped in turn; only
    the clean set's predictions are kept, for the diversity block.
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
        body["diverged_epoch"] = trained.diverged_epoch
        body["evaluation"] = None
        body["sweeps"] = None
        body["diversity"] = None
        body["parameter_count"] = None
        body["size_multiplier"] = None
        return Report(body, {"train_seconds": trained.seconds, "inference_seconds": 0.0})

    members = cfg.method.member_count
    single_count = netmod.build_network(setup.layers, setup.input_shape,
                                        None).parameter_count()
    body["parameter_count"] = single_count * members
    body["size_multiplier"] = members
    body["training"] = {"epochs": cfg.epochs, "members": member_curves(trained)}

    eval_sets = [("clean", 0, setup.test_norm)]
    eval_sets += corrupted_eval_sets(cfg, setup)

    t1 = time.perf_counter()
    clean_ps = clean_metrics = None
    corrupted_rows = []
    by_sev = {"accuracy": {}, "ece": {}, "mean_entropy": {}}
    for set_index, (kind, sev, ds) in enumerate(eval_sets):
        ps = predict_with_method(cfg, trained.nets, ds.features,
                                 inference_stream(setup, set_index))
        m, _ = eval_metrics(cfg, ps, ds.labels)
        if kind == "clean":
            clean_ps, clean_metrics = ps, m
        else:
            corrupted_rows.append({"kind": kind, "severity": sev, **m})
        for key, per_sev in by_sev.items():
            per_sev.setdefault(sev, []).append(m[key])
    inference_seconds = time.perf_counter() - t1

    body["evaluation"] = {"clean": clean_metrics, "corrupted": corrupted_rows}
    body["sweeps"] = {key: shift_sweep(per_sev) for key, per_sev in by_sev.items()}
    diversity = diversity_summary(cfg, clean_ps)
    if diversity is not None:
        protocol = ("ensemble members" if cfg.method.name == "deep_ensemble"
                    else f"first {diversity['members']} passes")
        diversity = {"members": diversity["members"], "protocol": protocol, **diversity}
    body["diversity"] = diversity
    timing = {"train_seconds": trained.seconds, "inference_seconds": inference_seconds}
    return Report(body, timing)


def _clean_run(cfg: ExperimentConfig):
    """One row of a multi-run report: (report, clean-split accuracy and ECE).

    A diverged run has no evaluation; its accuracy and ECE are None.
    """
    rep = run_experiment(cfg)
    clean = rep.body["evaluation"]["clean"] if rep.status == "ok" else {}
    return rep, {"accuracy": clean.get("accuracy"), "ece": clean.get("ece")}


def _train_seconds(runs) -> dict:
    return {"train_seconds_per_row": [rep.timing["train_seconds"] for rep, _ in runs]}


def run_suite(configs) -> Report:
    """Run several methods on one dataset and tabulate the comparison.

    All configs must share a dataset spec; the size multiplier column is
    relative to the single-model parameter count of each row's architecture.
    Rows follow config order.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("suite needs at least one experiment config")
    datasets = {json.dumps(c.dataset, sort_keys=True) for c in configs}
    if len(datasets) != 1:
        raise ContractError("suite configs mix different datasets")

    runs = [_clean_run(cfg) for cfg in configs]
    rows = [{"method": cfg.method.label(), "status": rep.status, **clean,
             "size_multiplier": rep.body["size_multiplier"],
             "parameter_count": rep.body["parameter_count"],
             "seed": cfg.master_seed}
            for cfg, (rep, clean) in zip(configs, runs)]
    body = {
        "schema": "rra-uq/suite/v1",
        "kind": "suite",
        "dataset": dict(configs[0].dataset),
        "rows": rows,
    }
    return Report(body, _train_seconds(runs))


def position_analysis(base: ExperimentConfig, positions) -> Report:
    """One experiment per activation position, deduplicating identical stacks.

    Requires a stochastic-activation method.  When two positions realize the
    same architecture (a one-site network), the duplicate row points at the
    original instead of re-running.
    """
    if base.method.name not in ("mc_droprelu", "mc_rrelu"):
        raise ConfigError(
            f"position analysis needs mc_droprelu or mc_rrelu, got '{base.method.name}'")
    positions = list(positions)
    if not positions:
        raise ConfigError("need at least one position")
    for pos in positions:
        if pos not in POSITIONS:
            raise ConfigError(f"unknown position '{pos}'")

    root = RngStream(base.master_seed)
    probe_train, _ = _build_datasets(base, root)
    seen: dict = {}  # architecture signature -> (position, clean accuracy/ECE)
    rows, row_times = [], []
    for pos in positions:
        layers = build_architecture(base.architecture, probe_train.feature_shape,
                                    probe_train.n_classes, base.method, pos)
        sig = architecture_signature(layers)
        if sig in seen:
            first, clean = seen[sig]
            rows.append({"position": pos, "duplicate_of": first, **clean})
            row_times.append(0.0)
            continue
        cfg = ExperimentConfig(**{**base.__dict__, "activation_position": pos})
        rep, clean = _clean_run(cfg)
        seen[sig] = (pos, clean)
        rows.append({"position": pos, "duplicate_of": None, **clean})
        row_times.append(rep.timing["train_seconds"])
    body = {
        "schema": "rra-uq/position/v1",
        "kind": "position",
        "method": base.method.label(),
        "architecture": base.architecture,
        "rows": rows,
    }
    return Report(body, {"train_seconds_per_row": row_times})


def q_sweep(base: ExperimentConfig, q_values) -> Report:
    """Accuracy-vs-ECE rows over a grid of DropReLU retention rates."""
    q_values = [float(q) for q in q_values]
    if len(q_values) < 2:
        raise ConfigError(f"q sweep needs at least 2 values, got {len(q_values)}")
    for q in q_values:
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"retention rate {q} outside [0, 1]")
    if base.method.name != "mc_droprelu":
        raise ConfigError(f"q sweep needs an mc_droprelu config, got '{base.method.name}'")

    runs = [_clean_run(ExperimentConfig(
                **{**base.__dict__, "method": MethodSpec("mc_droprelu", retain_rate=q)}))
            for q in q_values]
    body = {
        "schema": "rra-uq/qsweep/v1",
        "kind": "q_sweep",
        "architecture": base.architecture,
        "rows": [{"q": q, **clean} for q, (_, clean) in zip(q_values, runs)],
    }
    return Report(body, _train_seconds(runs))
