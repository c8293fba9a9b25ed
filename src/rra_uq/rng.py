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

`normal_into` maps uniforms to normals through `_ndtri`, a NumPy port of
Cephes ``ndtri`` (Moshier) that gives the C routine's bits: each step is one
IEEE operation in the C order, and both tail logarithms are libm's ``log``,
taken as the real part of the complex128 ``np.log`` (glibc's ``clog``
returns ``log(hypot(v, 0)) = log(v)`` for v < 0.5 and v >= 2, the only
arguments the tails pass).  Plain float64 ``np.log`` runs NumPy's own SIMD
loop, which differs from libm in the last bit on some inputs.  The port
takes about twice the C routine's time per normal: 0.35 against 0.17 s for
7.84M normals on a 2-vCPU Xeon, most of it the central rational, which runs
on every element, and the complex logs.

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

# Cephes ndtri: for e^-2 < y < 1 - e^-2 the rational P0/Q0 in (y - 0.5)^2;
# in the tails, with x = sqrt(-2 log y), the fit P1/Q1 in 1/x for x < 8 and
# P2/Q2 beyond.  Leading coefficients first; each Q has an implicit leading 1.
_EXP_NEG2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


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


def _rational(x: np.ndarray, p, q) -> np.ndarray:
    """x * polevl(x, p) / p1evl(x, q), each Horner step rounded as in Cephes."""
    num = p[0] * x
    for c in p[1:-1]:
        num += c
        num *= x
    num += p[-1]
    num *= x
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num /= den
    return num


def _libm_log(v: np.ndarray) -> np.ndarray:
    """libm's log(v) for v < 0.5 or v >= 2 (see the module docstring)."""
    return np.log(v.astype(np.complex128)).real


def _ndtri(u: np.ndarray) -> None:
    """u = ndtri(u) in place, bit for bit as Cephes, for every u in (0, 1)."""
    tail = np.flatnonzero((u <= _EXP_NEG2) | (u > 1.0 - _EXP_NEG2))
    t = u[tail]
    y = u - 0.5  # the central fit on every element; the tails overwrite theirs
    np.multiply(y, y, out=u)
    x = _rational(u, _P0, _Q0)
    x *= y
    x += y
    np.multiply(x, _SQRT_2PI, out=u)
    if not tail.size:
        return
    upper = t > 1.0 - _EXP_NEG2  # folded to y = 1 - u; its value stays positive
    x = _libm_log(np.where(upper, 1.0 - t, t))
    x *= -2.0
    np.sqrt(x, out=x)  # y <= e^-2, so x >= 2
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = _rational(z, _P1, _Q1)
    far = np.flatnonzero(x >= 8.0)  # y <= e^-32
    if far.size:
        x1[far] = _rational(z[far], _P2, _Q2)
    x0 -= x1
    np.negative(x0, out=x0, where=~upper)
    u[tail] = x0


def normal_into(out: np.ndarray, top53: np.ndarray, mu: float, sigma: float) -> None:
    """out = mu + sigma * ndtri(u) with u = (top53 + 0.5) * 2**-53, at most 1 - 2**-53.

    The half step keeps word 0 off 0 (-8.2924 at mu 0, sigma 1).  For the
    largest word, 2**53 - 1, the sum rounds up to 2**53 and u to 1, whose
    ndtri is +inf; the clamp maps that word alone to 8.2095, since every
    other word's u is at most 1 - 2**-52.
    """
    np.add(top53, 0.5, out=out)
    out *= _TWO_NEG_53
    np.minimum(out, _BELOW_ONE, out=out)
    _ndtri(out)
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
