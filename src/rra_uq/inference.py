"""Monte-Carlo and ensemble prediction.

A PredictiveSet is the (n_passes, n_samples, n_classes) stack of per-pass
softmax outputs; every uncertainty statistic is a deterministic function of
it.  Stochastic passes run the network in eval mode with a stream, so every
stochastic layer samples as in training.  Each pass has its own forked
stream, and the same stream replays a pass, so pass i of a 50-pass run
equals pass i of a 10-pass run on the same stream.  The layers before the
first stochastic site run once per call, and every pass starts from their
output.  Each call makes one workspace (see `network.forward`) that all its
passes write their layer outputs into, so a pass after the first allocates
no tensor of the network's width; the call drops it on return.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ContractError, DataFormatError, ParameterError
from .metrics import check_probabilities
from .network import NetworkGraph, forward, softmax
from .rng import RngStream
from .serialize import ArrayLayout, read_array, rows_to_csv, write_array

PS_MAGIC = b"RRAUQPRD"
PS_VERSION = 2
# magic, version, the stamp (SHA-256 of the training config), n_passes, samples, classes
PS_LAYOUT = ArrayLayout("predictive set", PS_MAGIC, "<8sQ32sQQQ", "<f8",
                        ("version", "config digest"), "run `rra-uq predict` again")


class PredictiveSet:
    """Stacked per-pass class probabilities."""

    def __init__(self, probs: np.ndarray):
        probs = check_probabilities(probs, "predictive set", 3)
        if probs.shape[0] < 1:
            raise ContractError("predictive set needs at least one pass")
        self.probs = probs

    @property
    def n_passes(self) -> int:
        return self.probs.shape[0]


class PredictionSummary:
    """Aggregated statistics over the passes of a PredictiveSet."""

    def __init__(self, mean_probs, labels, entropy, mean_class_variance, mean_pass_entropy):
        self.mean_probs = mean_probs
        self.labels = labels
        self.entropy = entropy
        self.mean_class_variance = mean_class_variance
        self.mean_pass_entropy = mean_pass_entropy

    @property
    def confidence(self) -> np.ndarray:
        return self.mean_probs.max(axis=1)


def entropy_nats(probs: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy in nats with the 0*log(0) := 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(probs)
        terms *= probs
    np.copyto(terms, 0.0, where=~(probs > 0.0))
    return -terms.sum(axis=-1)


def mc_predict(net: NetworkGraph, x: np.ndarray, n_passes: int,
               rng: RngStream) -> PredictiveSet:
    """Run `n_passes` stochastic forward passes and stack the softmax outputs."""
    if n_passes < 1:
        raise ParameterError(f"n_passes must be at least 1, got {n_passes}")
    stochastic = set(net.stochastic_layer_names())
    if not stochastic:
        warnings.warn("network has no stochastic layers; all passes will be identical",
                      stacklevel=2)
    # layers before the first stochastic one give the same output on every pass
    first = next((i for i, layer in enumerate(net.layers) if layer.name in stochastic),
                 len(net.layers))
    prefix, _ = forward(net, x, mode="eval", stop=first)
    prefix = np.ascontiguousarray(prefix)
    probs = np.empty((n_passes, x.shape[0], net.output_shape()[0]))
    workspace = {}
    for i in range(n_passes):
        logits, _ = forward(net, prefix, mode="eval", rng=rng.fork(i), start=first,
                            workspace=workspace)
        probs[i] = softmax(logits)
    return PredictiveSet(probs)


def single_predict(net: NetworkGraph, x: np.ndarray) -> PredictiveSet:
    """One pass without a stream: no dropout, stochastic slopes at their fixed points."""
    logits, _ = forward(net, x, mode="eval")
    return PredictiveSet(softmax(logits)[None, :, :])


def ensemble_predict(nets, x: np.ndarray) -> PredictiveSet:
    """Pool deterministic passes of independently trained members."""
    nets = list(nets)
    if len(nets) < 1:
        raise ParameterError("an ensemble needs at least 1 member")
    heads = {net.output_shape() for net in nets}
    if len(heads) != 1:
        raise ContractError(f"ensemble members disagree on output shape: {sorted(heads)}")
    stacked = [single_predict(net, x).probs[0] for net in nets]
    return PredictiveSet(np.stack(stacked))


def aggregate(ps: PredictiveSet) -> PredictionSummary:
    """Mean probabilities, argmax labels, predictive entropy, and spread stats.

    mean_class_variance is the per-class variance across passes averaged over
    classes (population variance); mean_pass_entropy averages each pass's own
    entropy, so (entropy - mean_pass_entropy) isolates between-pass spread.
    Reductions run over a sorted view of the pass axis, which makes every
    statistic bit-identical under pass reordering, not just equal in value.
    """
    canon = np.sort(ps.probs, axis=0)
    mean = canon.mean(axis=0)
    labels = mean.argmax(axis=1).astype(np.int64)
    max_ent = math.log(ps.probs.shape[2])
    ent = np.clip(entropy_nats(mean), 0.0, max_ent)
    var = canon.var(axis=0).mean(axis=1)
    pass_ent = np.sort(entropy_nats(ps.probs), axis=0).mean(axis=0)
    pass_ent = np.clip(pass_ent, 0.0, max_ent)
    return PredictionSummary(mean, labels, ent, var, pass_ent)


def save_predictive_set(ps: PredictiveSet, stamp: bytes, path) -> None:
    """Write `ps` under `stamp`, the SHA-256 of the config that trained its network."""
    write_array(path, PS_LAYOUT, ps.probs, PS_VERSION, stamp)


def load_predictive_set(path, stamp: bytes) -> PredictiveSet:
    """The predictive set at `path`, which must carry `stamp`."""
    probs = read_array(path, PS_LAYOUT, PS_VERSION, stamp)
    try:
        return PredictiveSet(probs)
    except ContractError as exc:  # a payload of the right size that is no predictive set
        raise DataFormatError(f"{path}: {exc}") from exc


def predictive_set_to_csv(ps: PredictiveSet) -> str:
    n_passes, n, c = ps.probs.shape
    rows = [(p, s, k, float(ps.probs[p, s, k]))
            for p in range(n_passes) for s in range(n) for k in range(c)]
    return rows_to_csv(("pass", "sample", "class", "prob"), rows)
