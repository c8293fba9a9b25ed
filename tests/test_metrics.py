"""Calibration, divergence, and diversity metrics against independent oracles."""

import numpy as np
import pytest

from rra_uq.errors import ContractError, ParameterError
from rra_uq.inference import PredictiveSet
from rra_uq.metrics import (DEFAULT_BIN_COUNT, accuracy, disagreement,
                            diversity_matrix, ece, jsd_pair, reliability_bins,
                            shift_sweep)
from rra_uq.rng import RngStream


class TestAccuracy:
    def test_extremes_and_fraction(self):
        a = np.array([0, 1, 1, 0])
        assert accuracy(a, a) == 1.0
        assert accuracy(a, 1 - a) == 0.0
        assert accuracy(np.array([0, 1, 1, 1]), np.array([0, 1, 1, 0])) == 0.75

    def test_shape_and_empty_rejected(self):
        with pytest.raises(ContractError):
            accuracy(np.array([0, 1]), np.array([0, 1, 0]))
        with pytest.raises(ContractError):
            accuracy(np.array([], dtype=int), np.array([], dtype=int))


def ece_oracle(confidences, correct, bin_count):
    """Direct per-sample summation; linear scan over the bin boundaries."""
    n = len(confidences)
    sums_conf = [0.0] * bin_count
    sums_corr = [0.0] * bin_count
    counts = [0] * bin_count
    boundaries = [(m + 1) / bin_count for m in range(bin_count)]
    for c, ok in zip(confidences, correct):
        b = bin_count - 1
        for m, upper in enumerate(boundaries):
            if c <= upper:
                b = m
                break
        counts[b] += 1
        sums_conf[b] += float(c)
        sums_corr[b] += float(ok)
    total = 0.0
    for m in range(bin_count):
        if counts[m]:
            total += counts[m] / n * abs(sums_corr[m] / counts[m] - sums_conf[m] / counts[m])
    return total


class TestEce:
    def test_fully_confident_and_correct_is_zero(self):
        value, _ = ece(np.ones(8), np.ones(8))
        assert value == 0.0

    def test_hand_case_two_samples(self):
        # (0.95 correct) and (0.65 wrong) land in different bins of 30:
        # each contributes 1/2 * |acc - conf| = 1/2*0.05 + 1/2*0.65 = 0.35
        value, _ = ece(np.array([0.95, 0.65]), np.array([1.0, 0.0]), 30)
        assert value == pytest.approx(0.35, abs=1e-12)

    def test_constant_confidence_all_wrong(self):
        for c in (0.3, 0.6, 0.925):
            value, _ = ece(np.full(40, c), np.zeros(40))
            assert value == pytest.approx(c, abs=1e-12)

    def test_zero_confidence_goes_to_first_bin(self):
        bins = reliability_bins(np.array([0.0, 0.01]), np.array([0.0, 1.0]), 10)
        assert bins.counts[0] == 2
        assert bins.counts[1:].sum() == 0

    def test_boundary_confidence_stays_in_lower_bin(self):
        # c = m/M sits in bin m, not m+1
        bins = reliability_bins(np.array([0.1, 0.2, 0.5]), np.ones(3), 10)
        assert bins.counts[0] == 1 and bins.counts[1] == 1 and bins.counts[4] == 1

    def test_matches_direct_summation_oracle(self):
        rng = RngStream(1)
        for trial in range(100):
            n = 1 + int(rng.uniform(0, 1000, ())[()])
            m = [1, 2, 10, 30][trial % 4]
            conf = rng.uniform(0, 1, (n,))
            if trial % 3 == 0:
                conf = np.round(conf * m) / m  # stress exact boundaries
            correct = rng.bernoulli(0.7, (n,))
            got, _ = ece(conf, correct, m)
            want = ece_oracle(conf, correct, m)
            assert abs(got - want) <= 1e-12, (trial, n, m)

    def test_value_bounded_by_unit_interval(self):
        rng = RngStream(2)
        for _ in range(20):
            conf = rng.uniform(0, 1, (64,))
            correct = rng.bernoulli(0.5, (64,))
            value, _ = ece(conf, correct)
            assert 0.0 <= value <= 1.0

    def test_perfectly_calibrated_synthetic_set(self):
        # per-bin accuracy equals the bin's confidence up to rounding: the
        # residual is below half a sample per bin, far under the 2/M gate
        m = DEFAULT_BIN_COUNT
        conf, correct = [], []
        for b in range(m):
            center = (b + 0.5) / m
            k = 200
            hits = int(round(center * k))
            conf.extend([center] * k)
            correct.extend([1.0] * hits + [0.0] * (k - hits))
        value, _ = ece(np.array(conf), np.array(correct), m)
        assert value < 2.0 / m

    def test_validation(self):
        with pytest.raises(ParameterError):
            ece(np.array([0.5]), np.array([1.0]), 0)
        with pytest.raises(ContractError):
            ece(np.array([1.5]), np.array([1.0]))
        with pytest.raises(ContractError):
            ece(np.array([0.5, 0.5]), np.array([1.0]))

    def test_nan_confidence_rejected(self):
        with pytest.raises(ContractError):
            ece(np.array([0.5, np.nan]), np.array([1.0, 0.0]))

    def test_bins_csv_header(self):
        _, bins = ece(np.array([0.4, 0.9]), np.array([1.0, 0.0]), 5)
        text = bins.to_csv()
        assert text.splitlines()[0] == "bin_lo,bin_hi,count,confidence,accuracy"
        assert len(text.splitlines()) == 6


class TestJsd:
    def test_identical_is_zero(self):
        p = np.array([[0.2, 0.3, 0.5]])
        assert jsd_pair(p, p) == 0.0

    def test_disjoint_one_hots_hit_log2(self):
        p = np.array([[1.0, 0.0]])
        q = np.array([[0.0, 1.0]])
        assert jsd_pair(p, q) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_symmetry_is_exact(self):
        rng = RngStream(3)
        for _ in range(25):
            raw_p = rng.uniform(0, 1, (6, 4))
            raw_q = rng.uniform(0, 1, (6, 4))
            p = raw_p / raw_p.sum(axis=1, keepdims=True)
            q = raw_q / raw_q.sum(axis=1, keepdims=True)
            assert jsd_pair(p, q) == jsd_pair(q, p)

    def test_bounds(self):
        rng = RngStream(4)
        for _ in range(25):
            raw_p = rng.uniform(0, 1, (5, 3))
            raw_q = rng.uniform(0, 1, (5, 3))
            p = raw_p / raw_p.sum(axis=1, keepdims=True)
            q = raw_q / raw_q.sum(axis=1, keepdims=True)
            v = jsd_pair(p, q)
            assert 0.0 <= v <= np.log(2.0) + 1e-15

    def test_closed_form_half_mix(self):
        # JSD([1,0],[.5,.5]) = (log2 - 0.5*log(3/2) - 0.5*log... via direct oracle
        p = np.array([[1.0, 0.0]])
        q = np.array([[0.5, 0.5]])
        mid = 0.5 * (p + q)
        kl = lambda a, b: sum(ai * np.log(ai / bi) for ai, bi in zip(a[0], b[0]) if ai > 0)
        want = 0.5 * kl(p, mid) + 0.5 * kl(q, mid)
        assert jsd_pair(p, q) == pytest.approx(want, abs=1e-15)


# a bad row, placed after a good one, and the refusal it must draw
BAD_ROWS = {"negative": ([1.2, -0.2], "contains negative probabilities"),
            "unnormalized": ([0.3, 0.3], "rows deviate from 1 by up to 0.4"),
            "nan": ([np.nan, 0.5], "contains non-finite probabilities"),
            "inf": ([np.inf, 0.5], "contains non-finite probabilities"),
            "-inf": ([-np.inf, 0.5], "contains non-finite probabilities")}
PROBABILITY_CALLERS = {"predictive set": lambda rows: PredictiveSet(rows[None]),
                       "first distribution": lambda rows: jsd_pair(rows, np.full((2, 2), 0.5))}


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
@pytest.mark.parametrize("caller", sorted(PROBABILITY_CALLERS))
def test_probability_rule_refuses_bad_rows(caller, bad):
    row, refusal = BAD_ROWS[bad]
    with pytest.raises(ContractError, match=f"^{caller} {refusal}$"):
        PROBABILITY_CALLERS[caller](np.array([[0.5, 0.5], row]))


@pytest.mark.parametrize("off", [1e-7, 1e-10])
def test_one_row_rule_for_predictive_sets_and_distributions(off):
    # both hold a row to 1e-9 off 1 (jsd_pair once let rows 1e-6 off through)
    row = np.array([[0.5, 0.5 + off]])
    checks = {"predictive set": lambda: PredictiveSet(row[None]),
              "first distribution": lambda: jsd_pair(row, np.full((1, 2), 0.5))}
    for what, check in checks.items():
        if off < 1e-9:
            check()
            continue
        with pytest.raises(ContractError, match=f"^{what} rows deviate from 1 by up to 1e-07$"):
            check()


class TestDisagreement:
    def test_pseudometric_on_random_triples(self):
        rng = RngStream(5)
        for _ in range(100):
            a = (rng.uniform(0, 3, (20,))).astype(np.int64)
            b = (rng.uniform(0, 3, (20,))).astype(np.int64)
            c = (rng.uniform(0, 3, (20,))).astype(np.int64)
            dab, dbc, dac = disagreement(a, b), disagreement(b, c), disagreement(a, c)
            assert disagreement(a, a) == 0.0
            assert dab == disagreement(b, a)
            assert dac <= dab + dbc + 1e-15

    def test_extremes(self):
        a = np.array([0, 1, 2])
        assert disagreement(a, a) == 0.0
        assert disagreement(a, a + 1) == 1.0


class TestDiversityMatrix:
    def test_identical_members_zero(self):
        probs = np.tile(np.array([[0.7, 0.3], [0.1, 0.9]]), (3, 1, 1))
        summary = diversity_matrix(probs)
        assert summary["mean_jsd"] == 0.0 and summary["max_jsd"] == 0.0
        assert summary["mean_disagreement"] == 0.0 and summary["max_disagreement"] == 0.0

    def test_disjoint_one_hot_members(self):
        probs = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        summary = diversity_matrix(probs)
        assert summary["mean_disagreement"] == 1.0
        assert summary["mean_jsd"] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_matches_pair_enumeration_oracle(self):
        rng = RngStream(6)
        raw = rng.uniform(0, 1, (4, 3, 5))
        probs = raw / raw.sum(axis=2, keepdims=True)
        summary = diversity_matrix(probs)
        jsds, diss = [], []
        for i in range(4):
            for j in range(i + 1, 4):
                jsds.append(jsd_pair(probs[i], probs[j]))
                diss.append(disagreement(probs[i].argmax(axis=1), probs[j].argmax(axis=1)))
        assert summary["members"] == 4
        assert summary["mean_jsd"] == pytest.approx(np.mean(jsds), abs=1e-15)
        assert summary["max_jsd"] == max(jsds)
        assert summary["mean_disagreement"] == pytest.approx(np.mean(diss), abs=1e-15)
        assert summary["max_disagreement"] == max(diss)

    def test_summary_keys(self):
        probs = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        assert set(diversity_matrix(probs)) == {"members", "mean_jsd", "max_jsd",
                                                "mean_disagreement", "max_disagreement"}

    def test_needs_two_members(self):
        with pytest.raises(ContractError):
            diversity_matrix(np.ones((1, 2, 2)) / 2)


class TestShiftSweep:
    def test_single_value_is_its_own_median(self):
        rows = shift_sweep({2: [0.4]})
        assert rows == [{"severity": 2, "count": 1, "min": 0.4, "q1": 0.4,
                         "median": 0.4, "q3": 0.4, "max": 0.4}]

    def test_rows_sorted_and_counted(self):
        values = {sev: [0.1 * sev, 0.1 * sev + 0.05, 0.1 * sev + 0.1] for sev in (3, 1, 5, 2, 4)}
        rows = shift_sweep(values)
        assert [r["severity"] for r in rows] == [1, 2, 3, 4, 5]
        assert all(r["count"] == 3 for r in rows)
        medians = [r["median"] for r in rows]
        assert medians == sorted(medians)

    def test_five_number_summary_matches_numpy(self):
        vals = [0.9, 0.1, 0.5, 0.3]
        row = shift_sweep({1: vals})[0]
        assert row["min"] == 0.1 and row["max"] == 0.9
        assert row["median"] == pytest.approx(np.median(vals))
        assert row["q1"] == pytest.approx(np.quantile(vals, 0.25))
        assert row["q3"] == pytest.approx(np.quantile(vals, 0.75))

    def test_empty_severity_rejected(self):
        assert shift_sweep({}) == []
        with pytest.raises(ContractError):
            shift_sweep({1: []})
