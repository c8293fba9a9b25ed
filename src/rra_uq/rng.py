"""Deterministic, splittable random-number streams.

Every stream is a pure function of ``(seed, stream_id, counter)``: the i-th
output is a SplitMix64-style hash of ``key(seed, stream_id)`` and
``counter + i``, so identical triples reproduce identical sequences on any
platform and a single draw of ``n`` elements advances the counter by exactly
``n``.  ``fork`` derives child streams whose sequences are statistically
independent of the parent and of each other, which is what makes Monte-Carlo
passes order-independent.

Every draw, and the lazy masks' `RngStream.raw_at`, runs through one kernel,
`_blocks`.  It works `_HASH_BLOCK` words at a time: it fills the block's
slice of the output with its ``counter * golden + key`` words (one add to a
ramp of golden multiples, equal to the product mod 2**64), runs the
finalizer there in place with one scratch buffer for the shifts, leaves each
word's top 53 bits in the scratch, and the draw maps those straight back
into its output.  The blocks change no bit: every word depends only on its
own counter, and every mapping (`uniform_into`, the `bernoulli_threshold`
test, `normal_into`, the permutation's sort keys) is elementwise.

Block size: 32K words keeps the ramp, the output block and the scratch at
256 KiB each, well inside a 2 MiB L2.  Medians of 10 rounds on a 2-vCPU Xeon
with 2 MiB of L2 per core, against the one-pass hash with full-size
temporaries that this kernel replaced: a (65536, 8) `bernoulli` took 9.0 ms
before and 2.2 ms in blocks of 32K words (3.3 ms at 8K, 2.6 ms at 16K,
2.5 ms at 64K); a (65536, 8) `uniform` 9.5 ms before, 2.8 ms at 32K (3.9,
3.5 and 3.2 ms).  Draws of one block cost no more: 64x64 `bernoulli`
52 -> 42 us, 400x64 168 -> 120 us.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_GOLDEN_U64 = np.uint64(_GOLDEN)
_TWO_NEG_53 = float(2.0 ** -53)
_BELOW_ONE = 1.0 - _TWO_NEG_53  # the largest double below 1
_HASH_BLOCK = 1 << 15  # words hashed per block
_GOLDEN_RAMP = np.arange(_HASH_BLOCK, dtype=np.uint64)
_GOLDEN_RAMP *= _GOLDEN_U64  # in place: a second 256 KiB array would stay in peak RSS
# SplitMix64 finalizer: z ^= z >> s; z *= m for each pair, then z ^= z >> 31
_MIX_STEPS = ((np.uint64(30), np.uint64(_MIX_A)), (np.uint64(27), np.uint64(_MIX_B)))
_SHIFT_LAST = np.uint64(31)
_SHIFT_TOP53 = np.uint64(11)


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on Python ints (wraps mod 2**64); derives stream keys."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _blocks(key: int, first: int, out: np.ndarray, offsets=None):
    """Yield ``(out[i:j], top53)`` for consecutive blocks of `out`.

    `out` is 1-d and contiguous with 8-byte items; each block's words are
    hashed in its own memory, so a draw allocates only the scratch.  `top53`
    holds the top 53 bits of the words at counters ``first + i`` to
    ``first + j - 1`` -- or at ``first + offsets[i:j]`` -- in the scratch,
    which the next block reuses.  It is an int64 view: the values are below
    2**53, and int64 converts to float64 faster than uint64 does.
    """
    n = out.size
    words = out.view(np.uint64)
    scratch = np.empty(min(n, _HASH_BLOCK), dtype=np.uint64)
    top53 = scratch.view(np.int64)
    base = (first * _GOLDEN + key) & _MASK64
    for i in range(0, n, _HASH_BLOCK):
        j = min(i + _HASH_BLOCK, n)
        z, t = words[i:j], scratch[:j - i]
        if offsets is None:
            # counter first + i + r: its word is ramp[r] + (first + i) * golden + key
            np.add(_GOLDEN_RAMP[:j - i], np.uint64((base + i * _GOLDEN) & _MASK64), out=z)
        else:
            np.multiply(offsets[i:j], _GOLDEN_U64, out=z, dtype=np.uint64, casting="unsafe")
            z += np.uint64(base)
        for shift, mult in _MIX_STEPS:
            np.right_shift(z, shift, out=t)
            z ^= t
            z *= mult
        np.right_shift(z, _SHIFT_LAST, out=t)
        z ^= t
        np.right_shift(z, _SHIFT_TOP53, out=t)
        yield out[i:j], top53[:j - i]


def bernoulli_threshold(prob: float) -> np.int64:
    """The integer t with ``k < t  <=>  k * 2**-53 < prob`` for every 53-bit k.

    Scaling by 2**53 is exact, so the uniform ``k * 2**-53`` falls below
    `prob` exactly when k falls below ``ceil(prob * 2**53)``.
    """
    return np.int64(math.ceil(prob * 2.0 ** 53))


def uniform_into(out: np.ndarray, top53: np.ndarray, low: float, high: float) -> None:
    """out = low + (high - low) * (top53 * 2**-53), with that rounding."""
    np.multiply(top53, _TWO_NEG_53, out=out)
    out *= high - low
    out += low


def normal_into(out: np.ndarray, top53: np.ndarray, mu: float, sigma: float) -> None:
    """out = mu + sigma * ndtri(u) with u = (top53 + 0.5) * 2**-53, at most 1 - 2**-53.

    The half step keeps word 0 off 0 (-8.2924 at mu 0, sigma 1).  For the
    largest word, 2**53 - 1, the sum rounds up to 2**53 and u to 1, whose
    ndtri is +inf; the clamp maps that word alone to 8.2095, since every
    other word's u is at most 1 - 2**-52.
    """
    from scipy.special import ndtri  # on first use: importing SciPy costs ~0.3 s

    np.add(top53, 0.5, out=out)
    out *= _TWO_NEG_53
    np.minimum(out, _BELOW_ONE, out=out)
    ndtri(out, out=out)
    out *= sigma
    out += mu


class RngStream:
    """Counter-based random stream identified by ``(seed, stream_id, counter)``."""

    __slots__ = ("seed", "stream_id", "counter", "_key")

    def __init__(self, seed: int, stream_id: int = 0, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self.counter = int(counter)
        self._key = _mix64(_mix64(self.seed) ^ ((self.stream_id * _GOLDEN) & _MASK64))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"

    def fork(self, index: int) -> "RngStream":
        """Child stream `index`; children of one parent are mutually independent."""
        child_id = _mix64(_mix64(self.stream_id ^ self.seed) + ((int(index) + 1) * _GOLDEN & _MASK64))
        return RngStream(self.seed, child_id)

    def _reserve(self, shape, dtype=np.float64, out=None):
        """`out`, else a fresh array of `shape`, and the blocks that fill it; the counter
        moves past them."""
        if out is None:
            out = np.empty(shape, dtype=dtype)
        elif (out.shape != ((shape,) if isinstance(shape, (int, np.integer)) else tuple(shape))
              or out.dtype != dtype or not out.flags.c_contiguous):
            raise ParameterError(f"out must be a C-contiguous {np.dtype(dtype)} array of "
                                 f"shape {shape}, got {out.dtype} {out.shape}")
        blocks = _blocks(self._key, self.counter, out.reshape(-1))
        self.counter += out.size
        return out, blocks

    def raw_at(self, offsets: np.ndarray, out: np.ndarray):
        """Blocks ``(out part, top53)`` of the words a draw would put at `offsets`.

        `offsets` is a 1-d array of non-negative integers; `out`, as long and
        contiguous with 8-byte items, receives the words while they are
        hashed.  The counter stays.
        """
        return _blocks(self._key, self.counter, out, offsets)

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        """I.i.d. draws from U[low, high); requires low < high."""
        if not low < high:
            raise ParameterError(f"uniform requires low < high, got [{low}, {high})")
        out, blocks = self._reserve(shape)
        for part, top53 in blocks:
            uniform_into(part, top53, low, high)
        return out

    def bernoulli(self, prob: float, shape=(), out: np.ndarray | None = None) -> np.ndarray:
        """I.i.d. {0.0, 1.0} draws taking 1 with probability `prob`.

        `out`, a C-contiguous float64 array of `shape`, receives the draws in
        place of a fresh array.
        """
        if not 0.0 <= prob <= 1.0:
            raise ParameterError(f"bernoulli probability must be in [0, 1], got {prob}")
        threshold = bernoulli_threshold(prob)
        out, blocks = self._reserve(shape, out=out)
        for part, top53 in blocks:
            np.less(top53, threshold, out=part)
        return out

    def normal(self, mu: float, sigma: float, shape=()) -> np.ndarray:
        """I.i.d. N(mu, sigma^2) draws via the inverse CDF (one draw per element)."""
        if sigma < 0.0:
            raise ParameterError(f"normal requires sigma >= 0, got {sigma}")
        out, blocks = self._reserve(shape)
        for part, top53 in blocks:
            normal_into(part, top53, mu, sigma)
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n); consumes n counter slots.

        Sorting the 53-bit words gives the same permutation as sorting the
        uniforms ``k * 2**-53``: the map is exact and increasing, and the
        sort is stable.
        """
        keys, blocks = self._reserve((n,), np.int64)
        for part, top53 in blocks:
            part[...] = top53
        return np.argsort(keys, kind="stable")
