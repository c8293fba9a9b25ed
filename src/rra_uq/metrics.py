"""Evaluation metrics: accuracy, calibration, and ensemble diversity.

Calibration uses the standard expected-calibration-error estimator over M
equal-width confidence bins ((m-1)/M, m/M]; a confidence of exactly 0 lands
in the first bin.  Diversity between prediction sources is measured with
Jensen-Shannon divergence (natural log, so bounded by ln 2) and the argmax
disagreement rate.

A probability row is finite, non-negative and sums to 1 within 1e-9; one
check, `check_probabilities`, holds that rule for the predictive set and for
every distribution these metrics take.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ContractError, ParameterError
from .serialize import rows_to_csv

DEFAULT_BIN_COUNT = 30


def check_probabilities(p, what: str, ndim: int) -> np.ndarray:
    """`p` as a float64 array of `ndim` dimensions whose last-axis rows are
    probability distributions; a refusal calls it `what`."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != ndim:
        raise ContractError(f"{what} must be {ndim}-d, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ContractError(f"{what} contains non-finite probabilities")
    if np.any(p < 0.0):
        raise ContractError(f"{what} contains negative probabilities")
    drift = np.abs(p.sum(axis=-1) - 1.0)
    if np.any(drift > 1e-9):
        raise ContractError(f"{what} rows deviate from 1 by up to {float(drift.max()):.3g}")
    return p


def _check_vectors(a, b, what: str, dtype=None):
    a, b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ContractError(f"{what} need equal-length non-empty vectors, "
                            f"got shapes {a.shape} and {b.shape}")
    return a, b


def accuracy(predicted: np.ndarray, labels: np.ndarray) -> float:
    predicted, labels = _check_vectors(predicted, labels, "predicted and true labels")
    return float(np.mean(predicted == labels))


@dataclass
class ReliabilityBins:
    """Per-bin occupancy for a reliability diagram over (0, 1]."""

    bin_count: int
    counts: np.ndarray      # samples per bin
    mean_confidence: np.ndarray  # 0 for empty bins
    mean_accuracy: np.ndarray    # 0 for empty bins

    def edges(self):
        return [(m / self.bin_count, (m + 1) / self.bin_count)
                for m in range(self.bin_count)]

    def to_csv(self) -> str:
        rows = [(float(lo), float(hi), int(self.counts[m]),
                 float(self.mean_confidence[m]), float(self.mean_accuracy[m]))
                for m, (lo, hi) in enumerate(self.edges())]
        return rows_to_csv(("bin_lo", "bin_hi", "count", "confidence", "accuracy"), rows)


def _bin_index(confidences: np.ndarray, bin_count: int) -> np.ndarray:
    # searchsorted against the exact float boundaries m/M keeps values that
    # sit on a boundary in the lower bin, immune to ceil(c*M) rounding slips
    boundaries = np.arange(1, bin_count + 1, dtype=np.float64) / bin_count
    idx = np.searchsorted(boundaries, confidences, side="left")
    return np.minimum(idx, bin_count - 1)


def reliability_bins(confidences: np.ndarray, correct: np.ndarray,
                     bin_count: int = DEFAULT_BIN_COUNT) -> ReliabilityBins:
    if bin_count < 1:
        raise ParameterError(f"bin count must be at least 1, got {bin_count}")
    confidences, correct = _check_vectors(confidences, correct,
                                          "confidences and correctness", np.float64)
    if not np.all((confidences >= 0.0) & (confidences <= 1.0)):  # NaN fails too
        raise ContractError("confidences must lie in [0, 1]")
    idx = _bin_index(confidences, bin_count)
    counts = np.bincount(idx, minlength=bin_count)
    conf_sum = np.bincount(idx, weights=confidences, minlength=bin_count)
    acc_sum = np.bincount(idx, weights=correct, minlength=bin_count)
    nonzero = np.maximum(counts, 1)
    return ReliabilityBins(bin_count, counts, conf_sum / nonzero, acc_sum / nonzero)


def ece(confidences: np.ndarray, correct: np.ndarray,
        bin_count: int = DEFAULT_BIN_COUNT):
    """Expected calibration error: sum_m |B_m|/n * |acc(B_m) - conf(B_m)|.

    Returns (value, ReliabilityBins); empty bins contribute nothing.
    """
    bins = reliability_bins(confidences, correct, bin_count)
    n = bins.counts.sum()
    gaps = np.abs(bins.mean_accuracy - bins.mean_confidence)
    return float(np.sum(bins.counts / n * gaps)), bins


def jsd_pair(p: np.ndarray, q: np.ndarray) -> float:
    """Mean Jensen-Shannon divergence between row-aligned distributions.

    Natural log; zero entries contribute zero.  Symmetric under argument
    swap by construction (the two KL halves commute under float addition).
    """
    p = check_probabilities(p, "first distribution", 2)
    q = check_probabilities(q, "second distribution", 2)
    if p.shape != q.shape:
        raise ContractError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    mid = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mid = np.log(mid)
        kl_p = np.where(p > 0.0, p * (np.log(p) - log_mid), 0.0).sum(axis=1)
        kl_q = np.where(q > 0.0, q * (np.log(q) - log_mid), 0.0).sum(axis=1)
    return float(np.mean(0.5 * kl_p + 0.5 * kl_q))


def disagreement(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Fraction of samples where the two argmax predictions differ."""
    labels_a, labels_b = _check_vectors(labels_a, labels_b, "disagreement labels")
    return float(np.mean(labels_a != labels_b))


def diversity_matrix(member_probs: np.ndarray) -> dict:
    """Pairwise diversity summary over an (M, n, C) stack of member predictions.

    The mean and maximum JSD and disagreement run over the M*(M-1)/2
    unordered pairs; `members` is M.
    """
    member_probs = np.asarray(member_probs, dtype=np.float64)
    if member_probs.ndim != 3 or member_probs.shape[0] < 2:
        raise ContractError(
            f"diversity needs an (M>=2, n, C) stack, got shape {member_probs.shape}")
    labels = member_probs.argmax(axis=2)
    pairs = list(combinations(range(member_probs.shape[0]), 2))
    jsds = [jsd_pair(member_probs[i], member_probs[j]) for i, j in pairs]
    diss = [disagreement(labels[i], labels[j]) for i, j in pairs]
    return {"members": member_probs.shape[0],
            "mean_jsd": float(np.mean(jsds)), "max_jsd": float(np.max(jsds)),
            "mean_disagreement": float(np.mean(diss)), "max_disagreement": float(np.max(diss))}


def shift_sweep(values_by_severity: dict) -> list:
    """Five-number summaries of a metric across shift severities.

    Input maps severity (int) to a sequence of metric values (one per
    corruption kind, say).  Rows come back sorted by severity.
    """
    rows = []
    for severity in sorted(values_by_severity):
        vals = np.asarray(values_by_severity[severity], dtype=np.float64)
        if vals.size == 0:
            raise ContractError(f"severity {severity} has no values")
        q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
        rows.append({"severity": int(severity), "count": int(vals.size),
                     "min": float(vals.min()), "q1": float(q1), "median": float(med),
                     "q3": float(q3), "max": float(vals.max())})
    return rows
