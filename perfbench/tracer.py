"""Span recorder that wraps the package's public functions from outside.

Each function is wrapped at the name where its callers look it up: a name
bound by ``from .x import y`` is wrapped on the importing module, a name
reached through a module attribute on that module, and the ``RngStream``
draw methods on the class.  Every call records a span (id, parent id, name,
start, end) in memory; self time is a span's duration minus the time its
child spans cover.  Counts are taken at the same boundaries, after the call
returns, and the time spent taking them is charged to no layer.

``install`` must be paired with ``uninstall``; use the ``traced`` context
manager.  Wrapping changes no argument and no result, so report bodies stay
byte-identical (the benchmark's tests check this against pinned digests).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from time import perf_counter

import numpy as np

from rra_uq import activations, cli, data, experiments, inference, network
from rra_uq import rng, serialize, training, variance

ROOT = "bench.run"
RNG_DRAWS = ("uniform", "bernoulli", "normal", "permutation")


def _layer_flops(net, batch: int) -> int:
    """Multiply-add flops of every dense and conv layer, computed from shapes."""
    shape = net.input_shape
    flops = 0
    for layer in net.layers:
        if isinstance(layer, network.Dense):
            flops += 2 * batch * layer.in_dim * layer.out_dim
            shape = (layer.out_dim,)
        elif isinstance(layer, network.Conv2d):
            k, s = layer.kernel_size, layer.stride
            if layer.padding == "same":
                oh, ow = -(-shape[1] // s), -(-shape[2] // s)
            else:
                oh, ow = (shape[1] - k) // s + 1, (shape[2] - k) // s + 1
            flops += 2 * batch * oh * ow * layer.out_channels * layer.in_channels * k * k
            shape = (layer.out_channels, oh, ow)
        elif isinstance(layer, network.Flatten):
            shape = (math.prod(shape),)
    return flops


class Tracer:
    """In-memory spans, per-name call/inclusive/self totals and exact counts."""

    def __init__(self):
        self.spans = []                    # (id, parent id, name, start, end)
        self.stats = {}                    # name -> [calls, inclusive s, self s]
        self.counts = {}
        self._stack = []                   # frames: [id, child seconds, name]
        self._next_id = 0
        self._restore = []
        self.last_sampled = None           # mask returned by the latest sample_mask
        self.counting_s = 0.0              # time spent in count hooks, in no span

    # -- recording -------------------------------------------------------

    def count(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def in_span(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    def call(self, name: str, fn, args=(), kwargs=None, before=None, after=None):
        kwargs = kwargs or {}
        state = before(args, kwargs) if before else None
        frame = [self._next_id, 0.0, name]
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += t1 - t0
            stat[2] += (t1 - t0) - frame[1]
            self.spans.append((frame[0], parent[0] if parent else -1, name, t0, t1))
            if parent is not None:
                parent[1] += t1 - t0
        if after:
            after(self, args, kwargs, result, state)
            counting = perf_counter() - t1
            self.counting_s += counting
            if parent is not None:
                parent[1] += counting
        return result

    def run(self, fn):
        """Call ``fn`` under the root span that every other span nests in."""
        return self.call(ROOT, fn)

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced_fn(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, before, after)

        setattr(owner, attr, traced_fn)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        for owner, attr, name, before, after in _sites():
            self.wrap(owner, attr, name, before, after)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def spans_json(self) -> str:
        return json.dumps({"fields": ["id", "parent", "name", "start_s", "end_s"],
                           "spans": self.spans})


@contextlib.contextmanager
def traced():
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


# -- count hooks: after(tracer, args, kwargs, result, before_state) ----------

def _rng_before(args, kwargs):
    return args[0].counter


def _rng_after(tracer, args, kwargs, result, counter_before):
    tracer.count("rng.draws", args[0].counter - counter_before)
    tracer.count("rng.calls", 1)


def _shape_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["shape"]


def _sample_mask_after(tracer, args, kwargs, result, _):
    tracer.count("activations.sample_mask.elements", int(np.prod(_shape_arg(args, kwargs))))
    tracer.last_sampled = result


def _deterministic_mask_after(tracer, args, kwargs, result, _):
    tracer.count("activations.deterministic_mask.elements", int(np.prod(_shape_arg(args, kwargs))))


def _activate_after(tracer, args, kwargs, result, _):
    x, mask = args[0], args[1]
    tracer.count("activations.activate.elements", x.size)
    if mask is tracer.last_sampled and tracer.in_span("inference.mc_predict"):
        tracer.count("activations.mc_negative", int(np.count_nonzero(x < 0.0)))
        tracer.count("activations.mc_sampled", x.size)
    tracer.last_sampled = None


def _forward_eval_after(tracer, args, kwargs, result, _):
    tracer.count("network.forward_eval.flops", _layer_flops(args[0], args[1].shape[0]))


def _train_after(tracer, args, kwargs, result, _):
    features, epochs = args[1], args[4]
    tracer.count("training.steps", result.steps)
    tracer.count("training.samples", features.shape[0] * epochs)


def _mc_predict_after(tracer, args, kwargs, result, _):
    tracer.count("inference.passes", args[2])
    tracer.count("inference.sample_passes", args[2] * args[1].shape[0])


def _single_predict_after(tracer, args, kwargs, result, _):
    tracer.count("inference.passes", 1)
    tracer.count("inference.sample_passes", args[1].shape[0])


def _trials_after(tracer, args, kwargs, result, _):
    tracer.count("variance.trials", len(args[0]))


def _dumps_after(tracer, args, kwargs, result, _):
    tracer.count("serialize.dumps.bytes", len(result.encode("utf-8")))


def _sites():
    """(owner, attribute, span name, before, after) for every wrapped name."""
    sites = [(rng.RngStream, m, f"rng.{m}", _rng_before, _rng_after) for m in RNG_DRAWS]
    sites += [
        (rng.RngStream, "fork", "rng.fork", None, None),
        # network reaches activations through the module attribute
        (activations, "sample_mask", "activations.sample_mask", None, _sample_mask_after),
        (activations, "deterministic_mask", "activations.deterministic_mask",
         None, _deterministic_mask_after),
        (activations, "activate", "activations.activate", None, _activate_after),
        (activations, "activate_backward", "activations.activate_backward", None, None),
        (activations, "dropout_forward", "activations.dropout_forward", None, None),
        # forward/softmax are bound into inference and training by name
        (inference, "forward", "network.forward_eval", None, _forward_eval_after),
        (inference, "softmax", "network.softmax", None, None),
        (network, "softmax", "network.softmax", None, None),
        (training, "forward", "network.forward_train", None, None),
        (training, "backward", "network.backward", None, None),
        (training, "softmax_cross_entropy", "network.softmax_cross_entropy", None, None),
        (training, "sgd_step", "training.sgd_step", None, None),
        (experiments, "train", "training.train", None, _train_after),
        (experiments, "mc_predict", "inference.mc_predict", None, _mc_predict_after),
        (experiments, "single_predict", "inference.single_predict", None, _single_predict_after),
        (inference, "single_predict", "inference.single_predict", None, _single_predict_after),
        (experiments, "ensemble_predict", "inference.ensemble_predict", None, None),
        (experiments, "aggregate", "inference.aggregate", None, None),
        (experiments, "accuracy", "metrics.accuracy", None, None),
        (experiments, "ece", "metrics.ece", None, None),
        (experiments, "diversity_matrix", "metrics.diversity_matrix", None, None),
        (experiments, "shift_sweep", "metrics.shift_sweep", None, None),
        # experiments reaches data through the module attribute
        (data, "gen_two_moons", "data.gen_two_moons", None, None),
        (data, "load_idx", "data.load_idx", None, None),
        (data, "normalize", "data.normalize", None, None),
        (data, "corrupt", "data.corrupt", None, None),
        (experiments, "run_suite", "experiments.run_suite", None, None),
        (experiments, "run_experiment", "experiments.run_experiment", None, None),
        (experiments, "prepare_experiment", "experiments.prepare_experiment", None, None),
        (experiments, "train_models", "experiments.train_models", None, None),
        (experiments, "corrupted_eval_sets", "experiments.corrupted_eval_sets", None, None),
        (experiments, "predict_with_method", "experiments.predict_with_method", None, None),
        (serialize, "dumps", "serialize.dumps", None, _dumps_after),
        (serialize, "write_text", "serialize.write_text", None, None),
        (cli, "write_text", "serialize.write_text", None, None),
        (cli, "main", "cli.main", None, None),
    ]
    for fn in ("empirical_layer_var", "empirical_epsilon", "dominance_scan",
               "analytic_dropout_var", "analytic_droprelu_var_floor", "scan_to_csv"):
        sites.append((cli, fn, f"variance.{fn}", None, None))
    for fn in ("empirical_layer_var", "empirical_floor_term", "empirical_epsilon"):
        sites.append((variance, fn, f"variance.{fn}", None, None))
    sites.append((variance, "sample_variance_with_se", "variance.sample_variance_with_se",
                  None, _trials_after))
    return sites


# -- per-layer metrics -------------------------------------------------------

MODULES = ("rng", "activations", "network", "training", "inference", "metrics",
           "data", "experiments", "variance", "serialize", "cli")

# name -> unit; exact counts repeat bit-for-bit between traced runs
EXACT = {
    "rng.draws": "count", "rng.calls": "count", "rng.fork.calls": "count",
    "activations.sample_mask.elements": "count", "activations.activate.calls": "count",
    "activations.activate.elements": "count",
    "activations.deterministic_mask.elements": "count", "activations.negative_frac": "ratio",
    "network.forward_eval.calls": "count", "network.forward_eval.flops": "flop_computed",
    "network.forward_train.calls": "count", "network.backward.calls": "count",
    "training.steps": "count", "inference.passes": "count", "inference.sample_passes": "count",
    "data.load_idx.calls": "count", "data.normalize.calls": "count", "data.corrupt.calls": "count",
    "variance.trials": "count", "serialize.dumps.calls": "count", "serialize.dumps.bytes": "B",
    "cli.main.calls": "count",
}

TIMED = {
    "experiments.prepare_s": "s", "experiments.train_s": "s", "experiments.infer_s": "s",
    "experiments.metrics_s": "s", "experiments.run_suite.self_s": "s",
    "rng.self_s": "s", "rng.ns_per_draw": "ns", "rng.fork.self_s": "s",
    "activations.sample_mask.self_s": "s", "activations.activate.self_s": "s",
    "activations.deterministic_mask.self_s": "s", "activations.dropout_forward.self_s": "s",
    "activations.activate_backward.self_s": "s",
    "network.forward_eval.self_s": "s", "network.forward_eval.gflops_per_s": "GFLOP/s",
    "network.forward_train.self_s": "s", "network.backward.self_s": "s",
    "network.softmax.self_s": "s", "network.softmax_cross_entropy.self_s": "s",
    "training.sgd_step.self_s": "s", "training.train.self_s": "s",
    "training.samples_per_s": "1/s",
    "inference.mc_predict.self_s": "s", "inference.aggregate.self_s": "s",
    "inference.sample_passes_per_s": "1/s",
    "metrics.ece.self_s": "s", "metrics.diversity_matrix.self_s": "s",
    "metrics.shift_sweep.self_s": "s",
    "data.load_idx.self_s": "s", "data.normalize.self_s": "s", "data.corrupt.self_s": "s",
    "variance.self_s": "s", "variance.sample_variance_with_se.self_s": "s",
    "serialize.dumps.self_s": "s", "cli.main.self_s": "s",
    **{f"share.{m}": "ratio" for m in MODULES},
    "share.unattributed": "ratio", "share.tracer_counting": "ratio",
}

TRACE = {"trace.runs": "count", "trace.wall_s": "s", "trace.untraced_wall_s": "s",
         "trace.overhead_s": "s", "trace.overhead_frac": "ratio"}

UNITS = {**EXACT, **TIMED, **TRACE}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, split into (exact, timed) dicts."""
    stats = tracer.stats
    counts = tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def incl(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    def prefixed(prefix):
        return [n for n in stats if n.startswith(prefix + ".")]

    draws = [f"rng.{m}" for m in RNG_DRAWS]
    exact = {
        "rng.draws": counts.get("rng.draws", 0),
        "rng.calls": counts.get("rng.calls", 0),
        "rng.fork.calls": calls("rng.fork"),
        "activations.sample_mask.elements": counts.get("activations.sample_mask.elements", 0),
        "activations.activate.calls": calls("activations.activate"),
        "activations.activate.elements": counts.get("activations.activate.elements", 0),
        "activations.deterministic_mask.elements":
            counts.get("activations.deterministic_mask.elements", 0),
        "activations.negative_frac": ratio(counts.get("activations.mc_negative", 0),
                                           counts.get("activations.mc_sampled", 0)),
        "network.forward_eval.calls": calls("network.forward_eval"),
        "network.forward_eval.flops": counts.get("network.forward_eval.flops", 0),
        "network.forward_train.calls": calls("network.forward_train"),
        "network.backward.calls": calls("network.backward"),
        "training.steps": counts.get("training.steps", 0),
        "inference.passes": counts.get("inference.passes", 0),
        "inference.sample_passes": counts.get("inference.sample_passes", 0),
        "data.load_idx.calls": calls("data.load_idx"),
        "data.normalize.calls": calls("data.normalize"),
        "data.corrupt.calls": calls("data.corrupt"),
        "variance.trials": counts.get("variance.trials", 0),
        "serialize.dumps.calls": calls("serialize.dumps"),
        "serialize.dumps.bytes": counts.get("serialize.dumps.bytes", 0),
        "cli.main.calls": calls("cli.main"),
    }
    infer_s = incl("experiments.predict_with_method")
    total = incl(ROOT)
    timed = {
        "experiments.prepare_s": incl("experiments.prepare_experiment",
                                      "experiments.corrupted_eval_sets"),
        "experiments.train_s": incl("experiments.train_models"),
        "experiments.infer_s": infer_s,
        "experiments.metrics_s": incl(*prefixed("metrics"), "inference.aggregate"),
        "experiments.run_suite.self_s": self_s("experiments.run_suite"),
        "rng.self_s": self_s(*draws),
        "rng.ns_per_draw": 1e9 * ratio(self_s(*draws), exact["rng.draws"]),
        "rng.fork.self_s": self_s("rng.fork"),
        "activations.sample_mask.self_s": self_s("activations.sample_mask"),
        "activations.activate.self_s": self_s("activations.activate"),
        "activations.deterministic_mask.self_s": self_s("activations.deterministic_mask"),
        "activations.dropout_forward.self_s": self_s("activations.dropout_forward"),
        "activations.activate_backward.self_s": self_s("activations.activate_backward"),
        "network.forward_eval.self_s": self_s("network.forward_eval"),
        "network.forward_eval.gflops_per_s":
            1e-9 * ratio(exact["network.forward_eval.flops"], self_s("network.forward_eval")),
        "network.forward_train.self_s": self_s("network.forward_train"),
        "network.backward.self_s": self_s("network.backward"),
        "network.softmax.self_s": self_s("network.softmax"),
        "network.softmax_cross_entropy.self_s": self_s("network.softmax_cross_entropy"),
        "training.sgd_step.self_s": self_s("training.sgd_step"),
        "training.train.self_s": self_s("training.train"),
        "training.samples_per_s": ratio(counts.get("training.samples", 0),
                                        incl("training.train")),
        "inference.mc_predict.self_s": self_s("inference.mc_predict"),
        "inference.aggregate.self_s": self_s("inference.aggregate"),
        "inference.sample_passes_per_s": ratio(exact["inference.sample_passes"], infer_s),
        "metrics.ece.self_s": self_s("metrics.ece"),
        "metrics.diversity_matrix.self_s": self_s("metrics.diversity_matrix"),
        "metrics.shift_sweep.self_s": self_s("metrics.shift_sweep"),
        "data.load_idx.self_s": self_s("data.load_idx"),
        "data.normalize.self_s": self_s("data.normalize"),
        "data.corrupt.self_s": self_s("data.corrupt"),
        "variance.self_s": self_s(*prefixed("variance")),
        "variance.sample_variance_with_se.self_s": self_s("variance.sample_variance_with_se"),
        "serialize.dumps.self_s": self_s("serialize.dumps"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for module in MODULES:
        timed[f"share.{module}"] = ratio(self_s(*prefixed(module)), total)
    timed["share.unattributed"] = ratio(self_s(ROOT), total)
    timed["share.tracer_counting"] = ratio(tracer.counting_s, total)
    return exact, timed
