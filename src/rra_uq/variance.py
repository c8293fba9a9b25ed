"""Output-variance verification for stochastic layers on a fixed input.

For a fixed pre-activation vector x, an unscaled dropout layer's summed
output f = sum_k P_k x_k has Var(f) = p(1-p) sum x_k^2 exactly.  The
analogous DropReLU decomposition writes the variance as a q(1-q) sum x_k^2
floor term plus a correction eps = Var(sum_k Q_k ReLU(x_k)), which is
nonnegative by construction and zero when x has no positive entries.

The two decomposition terms are anti-correlated under joint mask draws, so
the joint simulation of the layer output does not equal floor + eps for
mixed-sign x; the scan therefore measures both terms independently (the
decomposition protocol) and also reports the joint-draw variance so the gap
is visible.  Everything here is bias-free and single-layer by design.
"""

from __future__ import annotations

import math

import numpy as np

from . import activations as act
from .errors import ParameterError
from .rng import RngStream
from .serialize import rows_to_csv

_CHUNK = 1 << 16

# stream ids so each statistic draws an independent mask sequence
_STREAM_DROPOUT = 11
_STREAM_DROPRELU = 12
_STREAM_RRELU = 13
_STREAM_FLOOR = 14
_STREAM_EPS = 15
_STREAM_SCAN = 16


def _drop_rate(p) -> float:
    """An unscaled dropout rate; unlike a network's, p = 1 is legal here."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1], got {p}")
    return p


def _retain_rate(q) -> float:
    return act.droprelu(float(q)).retain_rate


def _vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size == 0:
        raise ParameterError("input vector must be non-empty")
    return x


def analytic_dropout_var(x, p: float) -> float:
    """p(1-p) * sum(x^2): exact variance of the unscaled dropout sum."""
    p = _drop_rate(p)
    x = _vector(x)
    return float(p * (1.0 - p) * np.sum(x * x))


def analytic_droprelu_var_floor(x, q: float) -> float:
    """q(1-q) * sum(x^2): the DropReLU floor term.

    Exact when every entry of x is negative (the correction term vanishes
    because ReLU(x) is identically zero); a decomposition term otherwise.
    """
    q = _retain_rate(q)
    x = _vector(x)
    return float(q * (1.0 - q) * np.sum(x * x))


def sample_variance_with_se(samples: np.ndarray):
    """Unbiased sample variance with its jackknife standard error.

    Constant samples short-circuit to (0, 0) exactly.  The leave-one-out
    variances come from the closed form S_(i) = S - n/(n-1) * (f_i - m)^2,
    so the whole thing is two vectorized passes.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    n = samples.size
    if n < 3:
        raise ParameterError(f"need at least 3 samples, got {n}")
    if np.ptp(samples) == 0.0:
        return 0.0, 0.0
    m = samples.mean()
    d2 = (samples - m) ** 2
    s = d2.sum()
    loo = (s - d2 * (n / (n - 1.0))) / (n - 2.0)
    var_jack = (n - 1.0) / n * np.sum((loo - loo.mean()) ** 2)
    return float(s / (n - 1.0)), float(math.sqrt(max(var_jack, 0.0)))


def _simulate_sum(weights: np.ndarray, draw, trials: int) -> np.ndarray:
    """Accumulate f_t = draw(chunk) @ weights over fixed-size chunks.

    The chunk size is a constant, and the counter-based generator fills
    row-major, so the sample vector is independent of how work is batched.
    """
    out = np.empty(trials)
    done = 0
    while done < trials:
        c = min(_CHUNK, trials - done)
        out[done:done + c] = draw(c) @ weights
        done += c
    return out


def empirical_layer_var(kind: str, x, params, trials: int, seed: int):
    """Monte-Carlo variance of a stochastic layer's summed output.

    kind "dropout_unscaled" (params = drop rate): f = sum P_k x_k.
    kind "droprelu" (params = retention rate): joint draw of
    f = sum (1-Q_k) x_k + Q_k ReLU(x_k), one Q per element.
    kind "rrelu" (params = (low, high)): negative entries get U(low, high)
    slopes.  Returns (variance estimate, jackknife SE).
    """
    x = _vector(x)
    if trials < 3:
        raise ParameterError(f"need at least 3 trials, got {trials}")
    if kind == "dropout_unscaled":
        p = _drop_rate(params)
        rng = RngStream(seed, stream_id=_STREAM_DROPOUT)
        f = _simulate_sum(x, lambda c: rng.bernoulli(1.0 - p, (c, x.size)), trials)
    elif kind == "droprelu":
        q = _retain_rate(params)
        rng = RngStream(seed, stream_id=_STREAM_DROPRELU)
        gap = np.maximum(x, 0.0) - x  # ReLU(x) - x, nonzero only on negatives
        base = float(x.sum())
        f = base + _simulate_sum(gap, lambda c: rng.bernoulli(q, (c, x.size)), trials)
    elif kind == "rrelu":
        low, high = (float(v) for v in params)
        act.rrelu(low, high)  # the activation owns the bounds rule
        rng = RngStream(seed, stream_id=_STREAM_RRELU)
        neg = x[x < 0.0]
        base = float(x[x >= 0.0].sum())
        if neg.size == 0:
            return 0.0, 0.0
        f = base + _simulate_sum(neg, lambda c: rng.uniform(low, high, (c, neg.size)), trials)
    else:
        raise ParameterError(f"unknown layer kind '{kind}'")
    return sample_variance_with_se(f)


def empirical_floor_term(x, q: float, trials: int, seed: int):
    """Measured variance of the identity component sum_k (1-Q_k) x_k."""
    q = _retain_rate(q)
    x = _vector(x)
    rng = RngStream(seed, stream_id=_STREAM_FLOOR)

    def dropped(c):  # 1 - Q, in place: no second chunk-sized array
        kept = rng.bernoulli(q, (c, x.size))
        return np.subtract(1.0, kept, out=kept)

    f = _simulate_sum(x, dropped, trials)
    return sample_variance_with_se(f)


def empirical_epsilon(x, q: float, trials: int, seed: int):
    """Measured correction term: Var(sum_k Q_k ReLU(x_k)) >= 0."""
    q = _retain_rate(q)
    x = _vector(x)
    rng = RngStream(seed, stream_id=_STREAM_EPS)
    relu_x = np.maximum(x, 0.0)
    f = _simulate_sum(relu_x, lambda c: rng.bernoulli(q, (c, x.size)), trials)
    return sample_variance_with_se(f)


def dominance_scan(x, p_grid, q_grid, trials: int = 100_000, seed: int = 0) -> list:
    """Compare dropout vs DropReLU output variance over a (p, q) grid.

    Per cell: var_droprelu = measured floor term + measured eps (independent
    draws, SEs combined in quadrature), var_dropout measured directly, and
    dominant = var_droprelu >= var_dropout - 3 * combined SE.  Cells with
    q(1-q) >= p(1-p) carry basis "floor" (dominance already implied by the
    floor term and eps >= 0); the rest are "empirical".  Rows for the
    q > 1-p region are reported descriptively under the same rule.  Each row
    also carries the joint-draw variance of the actual layer output, which
    falls below floor + eps whenever x has positive entries.
    """
    x = _vector(x)
    p_grid = [_drop_rate(p) for p in p_grid]
    q_grid = [_retain_rate(q) for q in q_grid]
    seeds = RngStream(seed, stream_id=_STREAM_SCAN)
    dropout = {p: empirical_layer_var("dropout_unscaled", x, p, trials,
                                      seeds.fork(i).stream_id)
               for i, p in enumerate(p_grid)}
    floor = {q: empirical_floor_term(x, q, trials, seeds.fork(100 + j).stream_id)
             for j, q in enumerate(q_grid)}
    eps = {q: empirical_epsilon(x, q, trials, seeds.fork(200 + j).stream_id)
           for j, q in enumerate(q_grid)}
    joint = {q: empirical_layer_var("droprelu", x, q, trials,
                                    seeds.fork(300 + j).stream_id)
             for j, q in enumerate(q_grid)}

    rows = []
    for p in p_grid:
        var_d, se_d = dropout[p]
        for q in q_grid:
            var_f, se_f = floor[q]
            var_e, se_e = eps[q]
            var_r = var_f + var_e
            se_r = math.hypot(se_f, se_e)
            dominant = var_r >= var_d - 3.0 * math.hypot(se_d, se_r)
            rows.append({
                "p": p, "q": q,
                "region": "q<=1-p" if q <= 1.0 - p else "q>1-p",
                "var_dropout": var_d, "se_dropout": se_d,
                "var_droprelu": var_r, "se_droprelu": se_r,
                "epsilon": var_e, "se_epsilon": se_e,
                "var_droprelu_joint": joint[q][0], "se_droprelu_joint": joint[q][1],
                "dominant": dominant,
                "basis": "floor" if q * (1.0 - q) >= p * (1.0 - p) - 1e-12 else "empirical",
            })
    return rows


def scan_to_csv(rows) -> str:
    header = ("p", "q", "var_dropout", "se_dropout",
              "var_droprelu", "se_droprelu", "dominant")
    return rows_to_csv(header, [[r[k] for k in header] for r in rows])
