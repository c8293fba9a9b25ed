"""Minibatch SGD with Nesterov momentum and a stepped learning-rate schedule,
for every member of a stack in lockstep.

The schedule is a list of (fraction, divisor) pairs: once 1-based epoch t
reaches ceil(fraction * total_epochs), the base rate is divided by that
divisor (cumulatively across pairs).  Defaults divide by 10 at 45%, 67.5%
and 90% of the run.

Parameters live in one flat array (`NetworkGraph.flat`), and so do their
gradients and the velocity, so an update is a few whole-array operations.
A stack's members -- the rows of one (members, P) arena, one network being
a stack of one -- train in lockstep: each step gathers every member's
minibatch from its own stream, runs one forward and one backward with a
leading member axis, and updates the whole arena at once.  Members never
mix: every batched product, sum and elementwise operation acts on one
member's slice, so each member ends bit-identical to training it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .network import NetworkGraph, backward, forward, softmax_cross_entropy

DEFAULT_SCHEDULE = ((0.45, 10.0), (0.675, 10.0), (0.90, 10.0))


@dataclass
class OptimizerState:
    """Hyperparameters, and the velocity: shaped as the parameters it
    updates, zero until the first step."""

    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 1e-4
    schedule: tuple = DEFAULT_SCHEDULE
    velocity: np.ndarray | None = None

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


def sgd_step(params: np.ndarray, grads: np.ndarray, opt: OptimizerState, lr: float):
    """One Nesterov update of a flat parameter array in place:
    g = grad + wd*p; v = mu*v + g; p -= lr*(g + mu*v).

    `grads` has the shape of `params` and is overwritten.
    """
    if opt.velocity is None:
        opt.velocity = np.zeros_like(params)
    v, mu = opt.velocity, opt.momentum
    g = params * opt.weight_decay
    g += grads
    v *= mu
    v += g
    np.multiply(v, mu, out=grads)
    grads += g
    grads *= lr
    params -= grads


@dataclass
class TrainingResult:
    """A stack's training: the kept members' loss curves in member order,
    the learning-rate curve they share, the member-steps taken (one per
    member per update), and the epoch at which the lowest diverged member
    diverged (None if none did).  That member and those above it are not
    kept."""

    loss_curves: list
    lr_curve: list
    steps: int
    diverged_epoch: int | None


def train(net: NetworkGraph, features: np.ndarray, labels: np.ndarray,
          opt: OptimizerState, epochs: int, batch_size: int, rng) -> TrainingResult:
    """Train every member of a stack (`network.build_members`) in lockstep,
    in place.

    Member m shuffles and samples masks from per-epoch forks of its own
    stream ``rng[m]``, so its run is a pure function of (its initial params,
    data, optimizer, its stream), the same beside other members as alone.

    A non-finite minibatch loss is a divergence: the diverged member and
    those above it stop, and those below it train on, so the kept members
    and the epoch reported are those of members trained one after another.
    """
    if not net.stacked:
        raise ContractError("train takes a stack: build one network as "
                            "build_members(layers, input_shape, [rng]) with [stream]")
    n = features.shape[0]
    if n == 0:
        raise ContractError("cannot train on an empty dataset")
    if batch_size < 1 or batch_size > n:
        raise ContractError(f"batch size {batch_size} invalid for {n} samples")
    if epochs < 0:
        raise ParameterError(f"epochs must be non-negative, got {epochs}")
    stack, streams = net, list(rng)
    if len(streams) != len(stack.flat):
        raise ContractError(f"{len(streams)} streams for a stack of {len(stack.flat)} members")

    sampled = bool(stack.stochastic_layer_names())  # else no pass reads a mask stream
    grads, workspace = np.empty(stack.flat.shape), {}  # both reused by every step
    loss_curves, lr_curve = [[] for _ in streams], []
    steps, diverged_epoch = 0, None
    for epoch in range(1, epochs + 1):
        lr = learning_rate_at(opt, epoch, epochs)
        live = streams[:len(stack.flat)]
        orders = np.stack([s.fork(2 * epoch).permutation(n) for s in live])
        mask_rngs = [s.fork(2 * epoch + 1) for s in live]
        totals, seen = [0.0] * len(live), 0
        for s, start in enumerate(range(0, n, batch_size)):
            idx = orders[:, start:start + batch_size]
            logits, trace = forward(stack, features[idx], mode="train",
                                    rng=[r.fork(s) for r in mask_rngs] if sampled else None,
                                    workspace=workspace)
            losses, grad_logits = softmax_cross_entropy(logits, labels[idx])
            backward(stack, trace, grad_logits, out=grads[:len(stack.flat)])
            totals = [t + float(loss) * idx.shape[1] for t, loss in zip(totals, losses)]
            finite = np.isfinite(losses)
            if not finite.all():  # the lowest diverged member and those above it stop
                diverged_epoch, kept = epoch, int(finite.argmin())
                stack = stack.with_parameters(stack.flat[:kept])
                orders, mask_rngs = orders[:kept], mask_rngs[:kept]
                loss_curves, totals = loss_curves[:kept], totals[:kept]
                if opt.velocity is not None:
                    opt.velocity = opt.velocity[:kept]
                if not kept:
                    break
            sgd_step(stack.flat, grads[:len(stack.flat)], opt, lr)
            seen += idx.shape[1]
            steps += len(stack.flat)
        if not len(stack.flat):
            break
        for curve, total in zip(loss_curves, totals):
            curve.append(total / seen)
        lr_curve.append(lr)
    return TrainingResult(loss_curves, lr_curve, steps, diverged_epoch)
