"""Stochastic ReLU variants as sampled, replayable transforms.

All variants share one rule: positive inputs pass through unchanged, and each
negative input is multiplied by a per-element slope.  Plain ReLU is the
degenerate slope-0 case.  DropReLU draws each slope from {0, 1}: with
probability `retain_rate` the element keeps its nonlinearity (slope 0),
otherwise the nonlinearity is dropped (slope 1).
RReLU draws each slope uniformly from [low, high).  A fresh mask is sampled
on every forward pass -- during training and during Monte-Carlo inference
alike.  Every slope is a pure function of its stream and counter, so the same
stream replays a pass exactly.

Masks draw lazily.  `sample_mask` reserves the mask's counters on the stream
but hashes nothing; the mask's `multiplier` then hashes only the counters of
negative entries, the only ones whose slope matters (the stream is
counter-based, so any entry can be drawn on its own).  Training and
inference both go through it: `activate` in eval mode, the training trace
directly, which keeps the multiplier for backward.  It works through the
tensor in blocks of about `_APPLY_BLOCK` entries so each block's temporaries
stay in cache; a slope depends only on its entry's counter and the rule is
elementwise, so the blocks change no bit.  Reading `slopes` draws the full
tensor, entry for entry the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .rng import RngStream, bernoulli_threshold, uniform_into

RRELU_DEFAULT_LOW = 1.0 / 8.0
RRELU_DEFAULT_HIGH = 1.0 / 3.0
# entries per block of a lazy mask's multiplier; on cnn-small's 200-image
# first activation (1.08M entries, 2 MiB-L2 Xeon) blocks of 64K took 9.4 ms
# against 9.9 ms at 32K, the hash's own block
_APPLY_BLOCK = 1 << 16


@dataclass(frozen=True)
class ActivationKind:
    """Tagged activation family: relu | droprelu | rrelu."""

    tag: str
    retain_rate: float | None = None  # droprelu only
    low: float | None = None          # rrelu only
    high: float | None = None         # rrelu only

    def is_stochastic(self) -> bool:
        return self.tag in ("droprelu", "rrelu")

    def label(self) -> str:
        if self.tag == "droprelu":
            return f"droprelu({self.retain_rate:g})"
        if self.tag == "rrelu":
            return f"rrelu({self.low:g},{self.high:g})"
        return self.tag


def relu() -> ActivationKind:
    return ActivationKind("relu")


def droprelu(retain_rate: float) -> ActivationKind:
    """DropReLU keeping the nonlinearity with probability `retain_rate`."""
    if not 0.0 <= retain_rate <= 1.0:
        raise ParameterError(f"droprelu retain rate must be in [0, 1], got {retain_rate}")
    return ActivationKind("droprelu", retain_rate=retain_rate)


def rrelu(low: float = RRELU_DEFAULT_LOW, high: float = RRELU_DEFAULT_HIGH) -> ActivationKind:
    """RReLU with negative-branch slope ~ U[low, high)."""
    if not (0.0 <= low < high < 1.0):
        raise ParameterError(f"rrelu bounds need 0 <= low < high < 1, got [{low}, {high})")
    return ActivationKind("rrelu", low=low, high=high)


class SampledMask:
    """One realization of activation randomness: a negative-branch slope per element.

    It holds only a recipe: a constant slope, or a stochastic kind with the
    stream positioned at the mask's first counter.
    """

    __slots__ = ("shape", "_constant", "_kind", "_stream")

    def __init__(self, shape, constant=None, kind=None, stream=None):
        self.shape = tuple(int(d) for d in shape)
        self._constant, self._kind, self._stream = constant, kind, stream

    @property
    def slopes(self) -> np.ndarray:
        """The full slope tensor, drawn anew on every access."""
        if self._stream is None:
            return np.full(self.shape, self._constant)
        s = self._stream
        stream = RngStream(s.seed, s.stream_id, s.counter)  # the mask's own stream stays put
        if self._kind.tag == "droprelu":
            # slope = 1 - Q with Q ~ Bernoulli(retain_rate): slope 0 w.p. retain_rate
            return 1.0 - stream.bernoulli(self._kind.retain_rate, self.shape)
        return stream.uniform(self._kind.low, self._kind.high, self.shape)

    def multiplier(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """1 where x >= 0, else the slope: the activation is x times this, its derivative this.

        Plain ReLU's multiplier is its sign test, another constant slope a
        select.  A stochastic mask fills the output a block of leading-axis
        rows at a time: ones, then the slopes of the block's negative entries,
        hashed at their C-order offsets.  `out`, a C-contiguous float64 array
        of the mask's shape that does not overlap `x`, receives the multiplier
        in place of a fresh array.
        """
        if x.shape != self.shape:
            raise DimensionError(f"activation input {x.shape} vs mask {self.shape}")
        if out is not None and (out.shape != self.shape or out.dtype != np.float64
                                or not out.flags.c_contiguous):
            raise DimensionError(f"multiplier out must be C-contiguous float64 {self.shape}, "
                                 f"got {out.dtype} {out.shape}")
        mult = np.empty(self.shape) if out is None else out
        if self._stream is None:
            if self._constant == 0.0:  # plain ReLU: the multiplier is the sign test itself
                return np.greater_equal(x, 0.0, out=mult)
            mult[...] = np.where(x >= 0.0, 1.0, self._constant)
            return mult
        if mult.ndim == 0:  # the blocks split the leading axis
            mult, x = mult.reshape(1), x.reshape(1)
        flat = mult.reshape(-1)
        row = math.prod(mult.shape[1:])
        rows = max(1, _APPLY_BLOCK // max(row, 1))
        for first in range(0, len(mult), rows):
            negative = np.flatnonzero(~(x[first:first + rows] >= 0.0))
            negative += first * row  # C-order offsets in the whole tensor
            flat[first * row:(first + rows) * row] = 1.0
            flat[negative] = self._slopes_at(negative)
        return mult.reshape(self.shape)

    def _slopes_at(self, offsets: np.ndarray) -> np.ndarray:
        # the word-to-value mappings of RngStream.bernoulli/uniform, on the hashed words alone
        slopes = np.empty(offsets.size)
        blocks = self._stream.raw_at(offsets, slopes)
        kind = self._kind
        if kind.tag == "droprelu":
            threshold = bernoulli_threshold(kind.retain_rate)
            for part, top53 in blocks:
                np.greater_equal(top53, threshold, out=part)  # 1 - Q: slope 1 unless kept
        else:
            for part, top53 in blocks:
                uniform_into(part, top53, kind.low, kind.high)
        return slopes


@dataclass(frozen=True)
class DropoutSpec:
    """Plain dropout with the given drop probability, in [0, 1): what it keeps
    is rescaled by 1/(1 - drop_rate)."""

    drop_rate: float

    def __post_init__(self):
        if not 0.0 <= self.drop_rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0, 1), got {self.drop_rate}")


def sample_mask(kind: ActivationKind, shape, rng: RngStream | None = None) -> SampledMask:
    """Take a fresh mask for one forward pass.

    The stream's counter advances by the mask's size now, as a full draw
    would; the hashing waits until the mask is used.
    """
    if kind.tag == "relu":
        return SampledMask(shape, constant=0.0)
    if rng is None:
        raise ParameterError(f"sampling a {kind.tag} mask requires an rng stream")
    if kind.tag not in ("droprelu", "rrelu"):
        raise ParameterError(f"unknown activation kind '{kind.tag}'")
    start = RngStream(rng.seed, rng.stream_id, rng.counter)
    rng.counter += math.prod(shape)
    return SampledMask(shape, kind=kind, stream=start)


def deterministic_mask(kind: ActivationKind, shape) -> SampledMask:
    """Single-pass mask: pure ReLU for droprelu, midpoint slope for rrelu."""
    if kind.tag in ("relu", "droprelu"):
        return SampledMask(shape, constant=0.0)
    if kind.tag == "rrelu":
        return SampledMask(shape, constant=(kind.low + kind.high) / 2.0)
    raise ParameterError(f"unknown activation kind '{kind.tag}'")


def activate(x: np.ndarray, mask: SampledMask, out: np.ndarray | None = None) -> np.ndarray:
    """y[i] = x[i] if x[i] >= 0 else slopes[i] * x[i].

    One multiply by `mask.multiplier(x)`, so 0 * x keeps its sign and NaN
    stays NaN, exactly as the two-branch form.  `out` (as for `multiplier`)
    holds the multiplier and then the result; `x` is never written.
    """
    mult = mask.multiplier(x, out)
    return np.multiply(x, mult, out=mult)


def activate_backward(x: np.ndarray, mask: SampledMask, upstream: np.ndarray) -> np.ndarray:
    """Chain rule through the realized slopes; the x == 0 branch has slope 1."""
    if x.shape != upstream.shape:
        raise DimensionError(
            f"activation backward shapes disagree: x {x.shape}, upstream {upstream.shape}")
    mult = mask.multiplier(x)
    return np.multiply(upstream, mult, out=mult)


def dropout_forward(x: np.ndarray, spec: DropoutSpec, rng: RngStream,
                    out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Dropout through a sampled keep mask.

    Each element is kept with probability 1 - drop_rate and rescaled by
    1/(1 - drop_rate), so expectations match a pass without dropout.

    Returns (output, multiplier mask) where output = x * mask exactly.  With
    `out` (a C-contiguous float64 array of x's shape, not overlapping `x`),
    the mask is drawn into `out` and x multiplied into it there, so the
    output is `out` and the mask is gone: the second item is None.
    """
    if rng is None:
        raise ParameterError("dropout requires an rng stream")
    keep = dropout_mask(spec, x.shape, rng, out)
    if out is not None:
        return np.multiply(x, keep, out=keep), None
    return x * keep, keep


def dropout_mask(spec: DropoutSpec, shape, rng: RngStream,
                 out: np.ndarray | None = None) -> np.ndarray:
    """One pass's dropout multiplier: 1/(1 - drop_rate) where kept, else 0.

    `out` (a C-contiguous float64 array of `shape`) receives it in place of
    a fresh array.
    """
    keep = rng.bernoulli(1.0 - spec.drop_rate, shape, out=out)
    keep /= 1.0 - spec.drop_rate
    return keep
