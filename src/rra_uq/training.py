"""Minibatch SGD with Nesterov momentum and a stepped learning-rate schedule.

The schedule is a list of (fraction, divisor) pairs: once 1-based epoch t
reaches ceil(fraction * total_epochs), the base rate is divided by that
divisor (cumulatively across pairs).  Defaults divide by 10 at 45%, 67.5%
and 90% of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ParameterError, TrainingDivergence
from .network import NetworkGraph, backward, forward, softmax_cross_entropy
from .rng import RngStream

DEFAULT_SCHEDULE = ((0.45, 10.0), (0.675, 10.0), (0.90, 10.0))


@dataclass
class OptimizerState:
    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 1e-4
    schedule: tuple = DEFAULT_SCHEDULE
    velocity: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ParameterError(f"learning rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ParameterError(f"weight decay must be non-negative, got {self.weight_decay}")
        for frac, div in self.schedule:
            if not 0.0 < frac <= 1.0:
                raise ParameterError(f"schedule fraction {frac} outside (0, 1]")
            if div < 1.0:
                raise ParameterError(f"schedule divisor {div} below 1 would raise the rate")


def learning_rate_at(opt: OptimizerState, epoch: int, total_epochs: int) -> float:
    """Rate in force during 1-based `epoch` of a `total_epochs` run."""
    lr = opt.learning_rate
    for frac, div in opt.schedule:
        if epoch >= math.ceil(frac * total_epochs):
            lr /= div
    return lr


def sgd_step(params: dict, grads: dict, opt: OptimizerState, lr: float):
    """One Nesterov update in place: v = mu*v + g; p -= lr*(g + mu*v).

    Weight decay enters as g = grad + wd*p before the momentum update.
    """
    mu = opt.momentum
    for lname, entry in grads.items():
        for key, grad in entry.items():
            p = params[lname][key]
            if grad.shape != p.shape:
                raise ContractError(
                    f"gradient shape {grad.shape} does not match parameter "
                    f"'{lname}/{key}' shape {p.shape}")
            g = grad + opt.weight_decay * p
            v = opt.velocity.setdefault((lname, key), np.zeros_like(p))
            v *= mu
            v += g
            p -= lr * (g + mu * v)


@dataclass
class TrainingResult:
    loss_curve: list
    lr_curve: list
    epochs: int
    steps: int


def train(net: NetworkGraph, features: np.ndarray, labels: np.ndarray,
          opt: OptimizerState, epochs: int, batch_size: int,
          rng: RngStream) -> TrainingResult:
    """Train in place and return per-epoch mean loss and learning rate.

    Shuffling and mask sampling draw from per-epoch forks of `rng`, so the
    whole run is a pure function of (initial params, data, optimizer, rng).
    A non-finite minibatch loss aborts with TrainingDivergence.
    """
    n = features.shape[0]
    if n == 0:
        raise ContractError("cannot train on an empty dataset")
    if batch_size < 1 or batch_size > n:
        raise ContractError(f"batch size {batch_size} invalid for {n} samples")
    if epochs < 0:
        raise ParameterError(f"epochs must be non-negative, got {epochs}")

    loss_curve, lr_curve = [], []
    steps = 0
    for epoch in range(1, epochs + 1):
        lr = learning_rate_at(opt, epoch, epochs)
        order = rng.fork(2 * epoch).permutation(n)
        mask_rng = rng.fork(2 * epoch + 1)
        total, seen = 0.0, 0
        for s, start in enumerate(range(0, n, batch_size)):
            idx = order[start:start + batch_size]
            xb, yb = features[idx], labels[idx]
            logits, trace = forward(net, xb, mode="train", rng=mask_rng.fork(s))
            loss, grad_logits = softmax_cross_entropy(logits, yb)
            if not math.isfinite(loss):
                raise TrainingDivergence(epoch)
            grads = backward(net, trace, grad_logits)
            sgd_step(net.params, grads, opt, lr)
            total += loss * len(idx)
            seen += len(idx)
            steps += 1
        loss_curve.append(total / seen)
        lr_curve.append(lr)
    return TrainingResult(loss_curve, lr_curve, epochs, steps)
