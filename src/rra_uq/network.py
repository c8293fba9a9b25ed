"""Layered feed-forward networks with reverse-mode gradients.

A network is an ordered list of layer specs plus a parameter store keyed by
layer name.  One rule decides who samples, in either mode: a stochastic
layer (a DropReLU or RReLU activation, a dropout layer of positive rate)
samples when the call has a stream.  Without one, dropout passes its input
through, DropReLU acts as pure ReLU and RReLU takes its midpoint slope.
Training and Monte-Carlo inference thus sample the same way; the single-pass
baseline is a pass with no stream.

Train mode also returns a trace: every layer's input, conv cache and, at
each activation and dropout layer, its multiplier, the factor the layer
multiplied its input by.  An activation's multiplier comes from its lazy
mask (see `activations`), which hashes only the negative entries' slopes;
backward multiplies the gradient by the stored multiplier.  Every draw is
a pure function of the stream's seed, id and counter, so the same stream
replays a stochastic pass bit-for-bit -- finite-difference checks rely on
that.  Eval mode keeps no trace, so a pass holds only the current layer's
tensors.

An eval pass can also take a workspace: a dict of buffers that the pass
writes its layer outputs into (each dense and conv output, a conv's im2col
matrix, the activation multiplier that becomes the activation's output, the
dropout keep mask that becomes the dropout's output) instead of allocating
them.  Layer outputs alternate between two buffers, each layer writing the
one its input is not in, so a pass of any depth holds two; a buffer is
reused while it is large enough, so repeated passes of one batch size take
no new memory.  The writes are the same operations as the allocating forms
(``np.matmul(..., out=)``, then ``+= b``; ufunc ``out=``), so the logits
are bit-identical.

Convolutions are valid (unpadded).  `build_network` infers every layer's
output shape once and the network keeps them for its passes.

A convolution gathers its im2col matrix a few images at a time, so each
block's copy stays in L2.  The blocks only move data: the matrix has the
same bytes, shape and order as one full copy, and one GEMM call consumes it
whole, so the output is bit-identical to the unblocked form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import activations as act
from .errors import ContractError, DimensionError, ParameterError
from .rng import RngStream


# images per im2col block, so a block's gather and transpose stay in L2: on a
# 2 MiB-L2 Xeon, cnn-small's 200-image conv1 im2col took 4.0-4.6 ms in blocks
# of 2-4 images, 5.6 ms in blocks of 8 and 7.6 ms as one copy
_IM2COL_IMAGES = 4


@dataclass(frozen=True)
class LayerSpec:
    name: str


@dataclass(frozen=True)
class Dense(LayerSpec):
    in_dim: int = 0
    out_dim: int = 0


@dataclass(frozen=True)
class Conv2d(LayerSpec):
    in_channels: int = 0
    out_channels: int = 0
    kernel_size: int = 0
    stride: int = 1
    # every convolution is valid; the constant stays readable because the
    # benchmark's flop count (perfbench/tracer.py) reads it
    padding: ClassVar[str] = "valid"


@dataclass(frozen=True)
class Flatten(LayerSpec):
    pass


@dataclass(frozen=True)
class Activation(LayerSpec):
    kind: act.ActivationKind = act.relu()


@dataclass(frozen=True)
class Dropout(LayerSpec):
    spec: act.DropoutSpec = act.DropoutSpec(0.0)


def dense(in_dim: int, out_dim: int, name: str = "") -> Dense:
    if in_dim < 1 or out_dim < 1:
        raise ParameterError(f"dense dims must be positive, got {in_dim}x{out_dim}")
    return Dense(name, in_dim, out_dim)


def conv2d(in_channels: int, out_channels: int, kernel_size: int,
           stride: int = 1, name: str = "") -> Conv2d:
    """A valid (unpadded) convolution: the kernel visits only whole windows."""
    if min(in_channels, out_channels, kernel_size) < 1 or stride < 1:
        raise ParameterError("conv2d channels, kernel size and stride must be positive")
    return Conv2d(name, in_channels, out_channels, kernel_size, stride)


def flatten(name: str = "") -> Flatten:
    return Flatten(name)


def activation(kind: act.ActivationKind, name: str = "") -> Activation:
    return Activation(name, kind)


def dropout_layer(drop_rate: float, name: str = "") -> Dropout:
    return Dropout(name, act.DropoutSpec(drop_rate))


class NetworkGraph:
    """Ordered layer specs, each layer's output shape (batch dim excluded) and
    parameters ({layer name -> {"w","b"}})."""

    def __init__(self, layers, input_shape, params, shapes):
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.params = params
        self.shapes = list(shapes)

    def parameter_count(self) -> int:
        return sum(int(t.size) for entry in self.params.values() for t in entry.values())

    def stochastic_layer_names(self) -> list:
        names = []
        for layer in self.layers:
            if isinstance(layer, Activation) and layer.kind.is_stochastic():
                names.append(layer.name)
            elif isinstance(layer, Dropout) and layer.spec.drop_rate > 0.0:
                names.append(layer.name)
        return names

    def output_shape(self):
        return self.shapes[-1]


def infer_shapes(layers, input_shape):
    """Per-layer output shapes (batch dim excluded); raises DimensionError on breaks."""
    shape = tuple(input_shape)
    shapes = []
    for layer in layers:
        if isinstance(layer, Dense):
            if len(shape) != 1 or shape[0] != layer.in_dim:
                raise DimensionError(
                    f"layer '{layer.name}': expected ({layer.in_dim},) input, got {shape}")
            shape = (layer.out_dim,)
        elif isinstance(layer, Conv2d):
            if len(shape) != 3 or shape[0] != layer.in_channels:
                raise DimensionError(
                    f"layer '{layer.name}': expected ({layer.in_channels}, h, w) input, got {shape}")
            (h, w), k, s = shape[1:], layer.kernel_size, layer.stride
            if h < k or w < k:
                raise DimensionError(
                    f"layer '{layer.name}': {h}x{w} input smaller than {k}x{k} kernel")
            shape = (layer.out_channels, (h - k) // s + 1, (w - k) // s + 1)
        elif isinstance(layer, Flatten):
            shape = (int(np.prod(shape)),)
        elif not isinstance(layer, (Activation, Dropout)):
            raise ParameterError(f"unknown layer spec {layer!r}")
        shapes.append(shape)
    return shapes


def build_network(layers, input_shape, rng: RngStream | None = None) -> NetworkGraph:
    """Validate layer wiring, assign names, and initialize parameters.

    Weights use Kaiming-uniform fan-in scaling (the standard choice for
    ReLU-family activations), biases start at zero.  With rng=None all
    parameters start at zero, which some tests rely on.
    """
    named = []
    seen = set()
    for i, layer in enumerate(layers):
        name = layer.name or f"{type(layer).__name__.lower()}{i}"
        if name in seen:
            raise ParameterError(f"duplicate layer name '{name}'")
        seen.add(name)
        named.append(replace(layer, name=name))

    shapes = infer_shapes(named, input_shape)  # validates wiring

    params = {}
    for i, layer in enumerate(named):
        if isinstance(layer, Dense):
            fan_in = layer.in_dim
            shape_w, shape_b = (layer.in_dim, layer.out_dim), (layer.out_dim,)
        elif isinstance(layer, Conv2d):
            fan_in = layer.in_channels * layer.kernel_size ** 2
            shape_w = (layer.out_channels, layer.in_channels, layer.kernel_size, layer.kernel_size)
            shape_b = (layer.out_channels,)
        else:
            continue
        if rng is None:
            w = np.zeros(shape_w)
        else:
            bound = math.sqrt(6.0 / fan_in)
            w = rng.fork(i).uniform(-bound, bound, shape_w)
        params[layer.name] = {"w": w, "b": np.zeros(shape_b)}
    return NetworkGraph(named, input_shape, params, shapes)


@dataclass
class LayerTrace:
    name: str
    x_in: np.ndarray
    mult: np.ndarray | None = None   # output / input of an activation or a sampled dropout
    cache: tuple | None = None       # conv im2col state


@dataclass
class Trace:
    net: NetworkGraph
    entries: list
    logits_shape: tuple


def forward(net: NetworkGraph, x: np.ndarray, mode: str = "train",
            rng: RngStream | None = None, start: int = 0, stop: int | None = None,
            workspace: dict | None = None):
    """Run the network, returning (logits, trace); the trace is None in eval mode.

    mode: "train" or "eval"; train mode only adds the trace.  Stochastic
    layers sample from `rng` (layer i from ``rng.fork(i)``) and run at their
    fixed points without it.  A pass on a stream with the same seed, id and
    counter replays it bit-for-bit.

    `start`/`stop` run only ``net.layers[start:stop]``: `x` is then the
    output of layer ``start - 1`` and the result that of layer ``stop - 1``.
    Running [0, k) and then [k, end) on its output gives the same logits as
    one full pass.

    `workspace` (eval mode only) is a dict that holds the pass's buffers
    between calls; the returned logits live in it, so read them before the
    next pass with the same workspace.  `x` is never written.
    """
    if mode not in ("train", "eval"):
        raise ParameterError(f"forward mode must be 'train' or 'eval', got '{mode}'")
    if workspace is not None and mode == "train":
        raise ParameterError("a workspace is for eval mode only: the trace keeps every tensor")
    stop = len(net.layers) if stop is None else stop
    if not 0 <= start <= stop <= len(net.layers):
        raise ParameterError(
            f"layer range [{start}, {stop}) is outside the network's {len(net.layers)} layers")
    x = np.asarray(x, dtype=np.float64)
    expected = net.shapes[start - 1] if start else net.input_shape
    if x.shape[1:] != expected:
        raise DimensionError(
            f"input shape {x.shape[1:]} does not match layer {start}'s input {expected}")

    entries = [] if mode == "train" else None
    for i in range(start, stop):
        layer = net.layers[i]
        if isinstance(layer, Dense):
            w, b = net.params[layer.name]["w"], net.params[layer.name]["b"]
            if entries is not None:
                entries.append(LayerTrace(layer.name, x))
            x = np.matmul(x, w, out=_buffer(workspace, (x.shape[0], layer.out_dim), x))
            x += b
        elif isinstance(layer, Conv2d):
            y, cache = _conv_forward(x, net.params[layer.name]["w"],
                                     net.params[layer.name]["b"], layer, workspace)
            if entries is not None:
                entries.append(LayerTrace(layer.name, x, cache=cache))
            x = y
        elif isinstance(layer, Flatten):
            if entries is not None:
                entries.append(LayerTrace(layer.name, x))
            x = x.reshape(x.shape[0], -1)
        elif isinstance(layer, Activation):
            if rng is not None and layer.kind.is_stochastic():
                mask = act.sample_mask(layer.kind, x.shape, rng.fork(i))
            else:
                mask = act.deterministic_mask(layer.kind, x.shape)
            if entries is None:
                x = act.activate(x, mask, out=_buffer(workspace, x.shape, x))
            else:
                mult = mask.multiplier(x)
                entries.append(LayerTrace(layer.name, x, mult=mult))
                x = x * mult
        elif isinstance(layer, Dropout):
            if rng is not None and layer.spec.drop_rate > 0.0:
                y, mult = act.dropout_forward(x, layer.spec, rng.fork(i),
                                              out=_buffer(workspace, x.shape, x))
            else:
                y, mult = x, None
            if entries is not None:
                entries.append(LayerTrace(layer.name, x, mult=mult))
            x = y
    return x, (Trace(net, entries, x.shape) if entries is not None else None)


def _buffer(workspace: dict | None, shape: tuple, avoid: np.ndarray | None = None):
    """A C-contiguous float64 array of `shape` in the workspace; None without one.

    A layer's output takes whichever of the two output buffers (keys 0 and 1)
    does not hold `avoid`, the layer's input, so a pass alternates between
    them and never writes what it reads; a conv's im2col matrix (no `avoid`)
    has the key "cols".  Each buffer is flat, and a view of its head serves
    any shape it is large enough for; a buffer too small is replaced.
    """
    if workspace is None:
        return None
    if avoid is None:
        key = "cols"
    else:
        first = workspace.get(0)
        key = 1 if first is not None and np.may_share_memory(avoid, first) else 0
    size = math.prod(shape)
    buf = workspace.get(key)
    if buf is None or buf.size < size:
        buf = workspace[key] = np.empty(size)
    return buf[:size].reshape(shape)


def backward(net: NetworkGraph, trace: Trace, grad_logits: np.ndarray) -> dict:
    """Gradients w.r.t. every parameter, flowing through the recorded multipliers."""
    if trace.net is not net:
        raise ContractError("trace was produced by a different network")
    if len(trace.entries) != len(net.layers):
        raise ContractError("trace does not cover this network's layers")
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != trace.logits_shape:
        raise ContractError(
            f"grad_logits shape {grad_logits.shape} does not match logits {trace.logits_shape}")

    grads = {}
    g = grad_logits
    # nothing below the first weight layer has parameters, so that layer's
    # input gradient is never read and is not computed
    first = next((i for i, layer in enumerate(net.layers) if layer.name in net.params),
                 len(net.layers))
    for i in range(len(net.layers) - 1, first - 1, -1):
        layer, entry = net.layers[i], trace.entries[i]
        if isinstance(layer, Dense):
            w = net.params[layer.name]["w"]
            grads[layer.name] = {"w": entry.x_in.T @ g, "b": g.sum(axis=0)}
            g = g @ w.T if i > first else None
        elif isinstance(layer, Conv2d):
            g, dw, db = _conv_backward(g, net.params[layer.name]["w"], layer, entry.cache,
                                       input_grad=i > first)
            grads[layer.name] = {"w": dw, "b": db}
        elif isinstance(layer, Flatten):
            g = g.reshape(entry.x_in.shape)
        elif entry.mult is not None:  # an activation or a sampled dropout
            g = g * entry.mult
    return grads


def _conv_forward(x, w, b, layer: Conv2d, workspace: dict | None = None):
    """(output, backward cache); with a workspace the im2col matrix and the
    output live in its buffers."""
    n, c = x.shape[:2]
    k, stride = layer.kernel_size, layer.stride
    windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = windows.shape[2:4]
    shape = (n, oh * ow, c * k * k)
    cols = np.empty(shape) if workspace is None else _buffer(workspace, shape)
    for lo in range(0, n, _IM2COL_IMAGES):
        # gather channel-major (inner runs of ow), then transpose within the block
        block = np.ascontiguousarray(windows[lo:lo + _IM2COL_IMAGES].transpose(0, 1, 4, 5, 2, 3))
        cols[lo:lo + _IM2COL_IMAGES] = block.reshape(-1, c * k * k, oh * ow).transpose(0, 2, 1)
    cols = cols.reshape(n * oh * ow, c * k * k)
    ymat = np.matmul(cols, w.reshape(layer.out_channels, -1).T,
                     out=_buffer(workspace, (n * oh * ow, layer.out_channels), x))
    ymat += b
    y = ymat.reshape(n, oh, ow, layer.out_channels).transpose(0, 3, 1, 2)
    return y, (cols, x.shape, (oh, ow))


def _conv_backward(g, w, layer: Conv2d, cache, input_grad: bool = True):
    """(input gradient, dw, db); the input gradient is None unless `input_grad`."""
    cols, x_shape, (oh, ow) = cache
    n, c = x_shape[:2]
    k, stride = layer.kernel_size, layer.stride
    gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * oh * ow, layer.out_channels)
    dw = (gmat.T @ cols).reshape(w.shape)
    db = gmat.sum(axis=0)
    if not input_grad:
        return None, dw, db
    dwin = (gmat @ w.reshape(layer.out_channels, -1)).reshape(n, oh, ow, c, k, k)
    dwin = dwin.transpose(0, 3, 1, 2, 4, 5)
    dx = np.zeros(x_shape)
    for ki in range(k):
        for kj in range(k):
            dx[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += dwin[:, :, :, :, ki, kj]
    return dx, dw, db


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax via the log-sum-exp-stable path."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient w.r.t. the logits.

    Returns (loss, grad) with grad already divided by the batch size.
    """
    labels = np.asarray(labels)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ContractError(f"labels shape {labels.shape} does not match batch {n}")
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(lse - z[np.arange(n), labels]))
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def grad_check(net: NetworkGraph, x: np.ndarray, labels: np.ndarray,
               rng: RngStream, n_samples: int = 10, step: float = 1e-5) -> dict:
    """Compare analytic gradients against central finite differences.

    Every evaluation runs on a fresh ``rng.fork(0)``, so each draws the same
    masks.  Returns {"max_rel_error": float, "per_param": {(layer, key): err}}.
    """
    logits, trace = forward(net, x, mode="train", rng=rng.fork(0))
    _, grad_logits = softmax_cross_entropy(logits, labels)
    analytic = backward(net, trace, grad_logits)

    def loss_at():
        lg, _ = forward(net, x, mode="eval", rng=rng.fork(0))
        return softmax_cross_entropy(lg, labels)[0]

    pick = rng.fork(1)
    per_param = {}
    worst = 0.0
    for lname, entry in net.params.items():
        for key, tensor in entry.items():
            size = tensor.size
            count = min(n_samples, size)
            idx = np.unique((pick.uniform(0, size, (count,))).astype(np.int64))
            flat = tensor.reshape(-1)
            err = 0.0
            for j in idx:
                orig = flat[j]
                flat[j] = orig + step
                up = loss_at()
                flat[j] = orig - step
                down = loss_at()
                flat[j] = orig
                numeric = (up - down) / (2.0 * step)
                a = float(analytic[lname][key].reshape(-1)[j])
                err = max(err, abs(a - numeric) / max(1e-8, abs(a) + abs(numeric)))
            per_param[(lname, key)] = err
            worst = max(worst, err)
    return {"max_rel_error": worst, "per_param": per_param}
