"""Layered feed-forward networks with reverse-mode gradients.

A network is an ordered list of layer specs plus its parameters: one flat
float64 vector, `flat`, of which `params` ({layer name -> {"w","b"}}) are
reshaped views.  `build_members` lays several networks out as the rows of
one (members, P) arena; the stack's `params` then have a leading member
axis, and a train-mode pass runs every member at once on inputs with that
axis: one batched GEMM per weight layer, each member's slice computed as if
it ran alone.  `backward` writes every gradient into one array laid out as
`flat`, so the optimizer updates the whole arena in one pass.

One rule decides who samples, in either mode: a stochastic layer (a
DropReLU or RReLU activation, a dropout layer of positive rate) samples when
the call has a stream.  Without one, dropout passes its input
through, DropReLU acts as pure ReLU and RReLU takes its midpoint slope.
Training and Monte-Carlo inference thus sample the same way; the single-pass
baseline is a pass with no stream.

Train mode also returns a trace: every layer's input, conv cache and, at
each activation and dropout layer, its multiplier, the factor the layer
multiplied its input by.  In a stack, member m's masks draw from its own
stream, exactly as for that member alone.  An activation's multiplier comes
from its lazy mask (see `activations`), which hashes only the negative
entries' slopes; backward multiplies the gradient by the stored multiplier.  Every draw is
a pure function of the stream's seed, id and counter, so the same stream
replays a stochastic pass bit-for-bit -- finite-difference checks rely on
that.  Eval mode keeps no trace, so a pass holds only the current layer's
tensors.

Every pass writes into a workspace, the caller's or a fresh one: a dict of
buffers that holds its layer outputs (each dense and conv output, a conv's
im2col matrix, the activation multiplier that becomes the activation's
output, the dropout keep mask that becomes the dropout's output).  In eval
mode layer outputs alternate between two buffers, each layer writing the
one its input is not in, so a pass of any depth holds two.  A train pass
keeps every layer's input and multiplier in its trace, so each layer gets
buffers of its own (``workspace[i]``); training reuses them every step
instead of allocating, and freeing, arrays that outgrow the allocator's
reuse thresholds once stacked over members.  A buffer is reused while it is
large enough, so repeated passes of one batch size on one workspace take no
new memory.  The writes are the allocating operations given ``out=``
(``np.matmul(..., out=)``, then ``+= b``), so the logits are bit-identical.

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
    parameters ({layer name -> {"w","b"}}), every tensor a view of `flat`.

    `flat` is one float64 vector holding the network's parameters, or a
    (members, P) arena whose row m holds member m's.  Then the graph is a
    stack: each tensor of `params` has a leading member axis, and it runs in
    train mode only, on inputs with that axis.  Writers copy into the views
    (``params[layer][key][...] = t``); rebinding one would leave the arena.
    """

    def __init__(self, layers, input_shape, shapes, flat):
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.shapes = list(shapes)
        self.flat = flat
        self._layout = _layout(self.layers)
        self.params = self.views(flat)

    @property
    def stacked(self) -> bool:
        return self.flat.ndim == 2

    def views(self, flat: np.ndarray) -> dict:
        """{layer name -> {"w","b"}} views of `flat`, any array laid out as
        `self.flat` is (the gradient `backward` returns, say)."""
        lead, views = flat.shape[:-1], {}
        for name, key, start, stop, shape in self._layout:
            views.setdefault(name, {})[key] = flat[..., start:stop].reshape(lead + shape)
        return views

    def with_parameters(self, flat: np.ndarray) -> "NetworkGraph":
        """The same layers on the parameters in `flat`: ``stack.flat[m]`` gives
        member m alone, ``stack.flat[:k]`` the stack of the first k members."""
        return NetworkGraph(self.layers, self.input_shape, self.shapes, flat)

    def parameter_count(self) -> int:
        """Parameters of one network (of each member, for a stack)."""
        return self.flat.shape[-1]

    def stochastic_layer_names(self) -> list:
        return [layer.name for layer in self.layers if _samples(layer)]

    def output_shape(self):
        return self.shapes[-1]


def _samples(layer) -> bool:
    """Whether `layer` samples on a pass with a stream: a DropReLU or RReLU
    activation, or a dropout layer of positive rate."""
    if isinstance(layer, Activation):
        return layer.kind.is_stochastic()
    return isinstance(layer, Dropout) and layer.spec.drop_rate > 0.0


def _layout(layers) -> list:
    """(layer name, key, start, stop, shape) of each parameter tensor in the
    flat vector: every weight layer's "w", then its "b", in layer order."""
    layout, start = [], 0
    for layer in layers:
        for key, shape in zip(("w", "b"), (_weight_shapes(layer) or ())[:2]):
            layout.append((layer.name, key, start, start + math.prod(shape), shape))
            start += math.prod(shape)
    return layout


def _weight_shapes(layer):
    """(w shape, b shape, fan-in) of a dense or conv layer; None for any other."""
    if isinstance(layer, Dense):
        return (layer.in_dim, layer.out_dim), (layer.out_dim,), layer.in_dim
    if isinstance(layer, Conv2d):
        k = layer.kernel_size
        return ((layer.out_channels, layer.in_channels, k, k), (layer.out_channels,),
                layer.in_channels * k * k)
    return None


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
    stack = build_members(layers, input_shape, [rng])
    return stack.with_parameters(stack.flat[0])


def build_members(layers, input_shape, rngs) -> NetworkGraph:
    """A stack of ``len(rngs)`` networks on one (members, P) parameter arena;
    member m starts as ``build_network(layers, input_shape, rngs[m])`` would."""
    named = []
    seen = set()
    for i, layer in enumerate(layers):
        name = layer.name or f"{type(layer).__name__.lower()}{i}"
        if name in seen:
            raise ParameterError(f"duplicate layer name '{name}'")
        seen.add(name)
        named.append(replace(layer, name=name))

    shapes = infer_shapes(named, input_shape)  # validates wiring
    size = sum(math.prod(shape) for *_, shape in _layout(named))
    stack = NetworkGraph(named, input_shape, shapes, np.zeros((len(rngs), size)))
    for m, rng in enumerate(rngs):
        for i, layer in enumerate(named):
            weights = _weight_shapes(layer)
            if rng is not None and weights is not None:
                shape_w, _, fan_in = weights
                bound = math.sqrt(6.0 / fan_in)
                stack.params[layer.name]["w"][m] = rng.fork(i).uniform(-bound, bound, shape_w)
    return stack


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
            rng=None, start: int = 0, stop: int | None = None,
            workspace: dict | None = None):
    """Run the network, returning (logits, trace); the trace is None in eval mode.

    mode: "train" or "eval"; train mode only adds the trace.  Stochastic
    layers sample from `rng` (layer i from ``rng.fork(i)``) and run at their
    fixed points without it.  A pass on a stream with the same seed, id and
    counter replays it bit-for-bit.

    A stack of members runs in train mode on `x` with a leading member axis,
    `rng` then one stream per member (or None): member m samples from
    ``rng[m]`` just as it would alone.

    `start`/`stop` run only ``net.layers[start:stop]``: `x` is then the
    output of layer ``start - 1`` and the result that of layer ``stop - 1``.
    Running [0, k) and then [k, end) on its output gives the same logits as
    one full pass.

    `workspace` is a dict that holds the pass's buffers between calls, a
    fresh one if not given; the returned logits, and in train mode the
    whole trace, live in it, so use them before the next pass with the same
    workspace.  `x` is never written.
    """
    if mode not in ("train", "eval"):
        raise ParameterError(f"forward mode must be 'train' or 'eval', got '{mode}'")
    if net.stacked and mode == "eval":
        raise ParameterError("a stack of members runs in train mode only")
    stop = len(net.layers) if stop is None else stop
    if not 0 <= start <= stop <= len(net.layers):
        raise ParameterError(
            f"layer range [{start}, {stop}) is outside the network's {len(net.layers)} layers")
    x = np.asarray(x, dtype=np.float64)
    members = net.flat.shape[:-1]  # () for one network, (M,) for a stack
    lead = x.shape[:len(members) + 1]
    expected = net.shapes[start - 1] if start else net.input_shape
    if x.shape[len(lead):] != expected:
        raise DimensionError(
            f"input shape {x.shape[len(lead):]} does not match layer {start}'s input {expected}")
    if lead[:-1] != members:
        raise DimensionError(f"input of {lead[0]} members for a stack of {members[0]}")
    streams = None if rng is None else (list(rng) if net.stacked else [rng])
    if net.stacked and streams is not None and len(streams) != members[0]:
        raise ContractError(f"{len(streams)} streams for a stack of {members[0]} members")

    workspace = {} if workspace is None else workspace
    entries = [] if mode == "train" else None
    for i in range(start, stop):
        layer = net.layers[i]
        # the trace keeps every layer's input, so in train mode each layer
        # writes into buffers of its own
        ws = workspace if entries is None else workspace.setdefault(i, {})
        if isinstance(layer, Dense):
            w, b = net.params[layer.name]["w"], net.params[layer.name]["b"]
            if entries is not None:
                entries.append(LayerTrace(layer.name, x))
            x = np.matmul(x, w, out=_output(ws, x.shape[:-1] + (layer.out_dim,), x))
            x += b[..., None, :]
        elif isinstance(layer, Conv2d):
            y, cache = _conv_forward(x, net.params[layer.name]["w"],
                                     net.params[layer.name]["b"], layer, ws)
            if entries is not None:
                entries.append(LayerTrace(layer.name, x, cache=cache))
            x = y
        elif isinstance(layer, Flatten):
            if entries is not None:
                entries.append(LayerTrace(layer.name, x))
            x = x.reshape(lead + net.shapes[i])
        elif isinstance(layer, Activation):
            sampled = rng is not None and _samples(layer)
            if entries is None:
                mask = (act.sample_mask(layer.kind, x.shape, rng.fork(i)) if sampled
                        else act.deterministic_mask(layer.kind, x.shape))
                x = act.activate(x, mask, out=_output(ws, x.shape, x))
            else:
                mult = _buffer(ws, x.shape, "mult")
                mult = (_sampled_multiplier(layer, i, x, streams, net.stacked, mult) if sampled
                        else act.deterministic_mask(layer.kind, x.shape).multiplier(x, mult))
                entries.append(LayerTrace(layer.name, x, mult=mult))
                x = np.multiply(x, mult, out=_output(ws, x.shape, x))
        elif isinstance(layer, Dropout):
            sampled = rng is not None and _samples(layer)
            if entries is None:
                if sampled:
                    x, _ = act.dropout_forward(x, layer.spec, rng.fork(i),
                                               out=_output(ws, x.shape, x))
            else:
                mult = (_sampled_multiplier(layer, i, x, streams, net.stacked,
                                            _buffer(ws, x.shape, "mult")) if sampled else None)
                entries.append(LayerTrace(layer.name, x, mult=mult))
                if sampled:
                    x = np.multiply(x, mult, out=_output(ws, x.shape, x))
    return x, (Trace(net, entries, x.shape) if entries is not None else None)


def _sampled_multiplier(layer, i: int, x: np.ndarray, streams: list, stacked: bool,
                        mult: np.ndarray):
    """A sampled activation's or dropout's multiplier of `x` in train mode,
    written into `mult`: member m's part (the whole of `x` without a member
    axis) from ``streams[m].fork(i)``, drawn as for that member alone."""
    for (part, out), stream in zip(zip(x, mult) if stacked else [(x, mult)], streams):
        if isinstance(layer, Activation):
            act.sample_mask(layer.kind, part.shape, stream.fork(i)).multiplier(part, out=out)
        else:
            act.dropout_mask(layer.spec, part.shape, stream.fork(i), out=out)
    return mult


def _buffer(workspace: dict, shape: tuple, key):
    """A C-contiguous float64 array of `shape`, the workspace's buffer `key`.

    Each buffer is flat, and a view of its head serves any shape it is large
    enough for; a buffer too small is replaced.
    """
    size = math.prod(shape)
    buf = workspace.get(key)
    if buf is None or buf.size < size:
        buf = workspace[key] = np.empty(size)
    return buf[:size].reshape(shape)


def _output(workspace: dict, shape: tuple, x: np.ndarray):
    """The buffer for a layer's output computed from its input `x`: of the
    two output buffers (keys 0 and 1), the one that does not hold `x`, so a
    pass alternates between them and never writes what it reads."""
    first = workspace.get(0)
    return _buffer(workspace, shape, 1 if first is not None and np.may_share_memory(x, first)
                   else 0)


def backward(net: NetworkGraph, trace: Trace, grad_logits: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Gradients w.r.t. every parameter, flowing through the recorded multipliers.

    They fill one array laid out as `net.flat` (`out` if given; read it per
    tensor through ``net.views``): each weight layer's products and sums
    write straight into their views of it.
    """
    if trace.net is not net:
        raise ContractError("trace was produced by a different network")
    if len(trace.entries) != len(net.layers):
        raise ContractError("trace does not cover this network's layers")
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != trace.logits_shape:
        raise ContractError(
            f"grad_logits shape {grad_logits.shape} does not match logits {trace.logits_shape}")

    grad = np.empty(net.flat.shape) if out is None else out
    views = net.views(grad)
    g = grad_logits
    # nothing below the first weight layer has parameters, so that layer's
    # input gradient is never read and is not computed
    first = next((i for i, layer in enumerate(net.layers) if layer.name in net.params),
                 len(net.layers))
    for i in range(len(net.layers) - 1, first - 1, -1):
        layer, entry = net.layers[i], trace.entries[i]
        if isinstance(layer, Dense):
            w = net.params[layer.name]["w"]
            np.matmul(entry.x_in.swapaxes(-1, -2), g, out=views[layer.name]["w"])
            g.sum(axis=-2, out=views[layer.name]["b"])
            g = np.matmul(g, w.swapaxes(-1, -2)) if i > first else None
        elif isinstance(layer, Conv2d):
            g = _conv_backward(g, net.params[layer.name]["w"], layer, entry.cache,
                               views[layer.name], input_grad=i > first)
        elif isinstance(layer, Flatten):
            g = g.reshape(entry.x_in.shape)
        elif entry.mult is not None:  # an activation or a sampled dropout
            g = g * entry.mult
    return grad


def _conv_forward(x, w, b, layer: Conv2d, workspace: dict):
    """(output, backward cache); the im2col matrix and the output live in
    the workspace's buffers.  A member axis, if `x` has one, joins the batch
    for the gather and leads the GEMM's stack."""
    lead, (c, h, wd) = x.shape[:-3], x.shape[-3:]
    k, stride = layer.kernel_size, layer.stride
    images = x.reshape((-1, c, h, wd))
    windows = sliding_window_view(images, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    n, oh, ow = len(images), *windows.shape[2:4]
    shape = (n, oh * ow, c * k * k)
    cols = _buffer(workspace, shape, "cols")
    for lo in range(0, n, _IM2COL_IMAGES):
        # gather channel-major (inner runs of ow), then transpose within the block
        block = np.ascontiguousarray(windows[lo:lo + _IM2COL_IMAGES].transpose(0, 1, 4, 5, 2, 3))
        cols[lo:lo + _IM2COL_IMAGES] = block.reshape(-1, c * k * k, oh * ow).transpose(0, 2, 1)
    cols = cols.reshape(lead[:-1] + (lead[-1] * oh * ow, c * k * k))
    ymat = np.matmul(cols, w.reshape(w.shape[:-3] + (-1,)).swapaxes(-1, -2),
                     out=_output(workspace, cols.shape[:-1] + (layer.out_channels,), x))
    ymat += b[..., None, :]
    y = np.moveaxis(ymat.reshape(lead + (oh, ow, layer.out_channels)), -1, -3)
    return y, (cols, x.shape, (oh, ow))


def _conv_backward(g, w, layer: Conv2d, cache, grads: dict, input_grad: bool = True):
    """The input gradient, None unless `input_grad`; dw and db are written
    into ``grads["w"]`` and ``grads["b"]``."""
    cols, x_shape, (oh, ow) = cache
    c, k, stride = x_shape[-3], layer.kernel_size, layer.stride
    gmat = np.ascontiguousarray(np.moveaxis(g, -3, -1)).reshape(
        cols.shape[:-1] + (layer.out_channels,))
    dw = grads["w"]
    np.matmul(gmat.swapaxes(-1, -2), cols, out=dw.reshape(dw.shape[:-3] + (-1,)))
    gmat.sum(axis=-2, out=grads["b"])
    if not input_grad:
        return None
    dwin = np.matmul(gmat, w.reshape(w.shape[:-3] + (-1,)))
    dwin = np.moveaxis(dwin.reshape(x_shape[:-3] + (oh, ow, c, k, k)), -3, -5)
    dx = np.zeros(x_shape)
    for ki in range(k):
        for kj in range(k):
            dx[..., ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += dwin[..., ki, kj]
    return dx


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis via the log-sum-exp-stable path."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient w.r.t. the logits.

    Returns (loss, grad) with grad already divided by the batch size.  A
    stack's logits, (members, batch, classes), give one loss per member.
    """
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise ContractError(f"labels shape {labels.shape} does not match batch "
                            f"{logits.shape[:-1]}")
    if labels.size and not 0 <= labels.min() <= labels.max() < logits.shape[-1]:
        raise ContractError(f"labels outside [0, {logits.shape[-1]})")
    # each row's true-class entry in the flattened logits
    true = np.arange(labels.size) * logits.shape[-1] + labels.reshape(-1)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    loss = np.mean(np.log(total[..., 0]) - z.reshape(-1)[true].reshape(labels.shape), axis=-1)
    grad = e / total  # softmax(logits), from the same terms
    grad.reshape(-1)[true] -= 1.0
    return (float(loss) if loss.ndim == 0 else loss), grad / logits.shape[-2]


def grad_check(net: NetworkGraph, x: np.ndarray, labels: np.ndarray,
               rng: RngStream, n_samples: int = 10, step: float = 1e-5) -> dict:
    """Compare analytic gradients against central finite differences.

    Every evaluation runs on a fresh ``rng.fork(0)``, so each draws the same
    masks.  Returns {"max_rel_error": float, "per_param": {(layer, key): err}}.
    """
    logits, trace = forward(net, x, mode="train", rng=rng.fork(0))
    _, grad_logits = softmax_cross_entropy(logits, labels)
    analytic = net.views(backward(net, trace, grad_logits))

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
