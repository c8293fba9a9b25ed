"""Analytic variance laws and their Monte-Carlo verification machinery."""

import math

import numpy as np
import pytest

from rra_uq.errors import ParameterError
from rra_uq.rng import RngStream
from rra_uq.variance import (analytic_droprelu_var_floor, analytic_dropout_var,
                             dominance_scan, empirical_epsilon, empirical_floor_term,
                             empirical_layer_var, sample_variance_with_se, scan_to_csv)


class TestAnalytic:
    def test_dropout_hand_case(self):
        # p(1-p) sum x^2 = 0.2*0.8*25 = 4.0 up to product rounding
        assert analytic_dropout_var([3.0, 4.0], 0.2) == pytest.approx(4.0, abs=1e-12)

    def test_dropout_degenerate_rates(self):
        assert analytic_dropout_var([3.0, 4.0], 0.0) == 0.0
        assert analytic_dropout_var([3.0, 4.0], 1.0) == 0.0

    def test_dropout_maximal_at_half(self):
        x = [1.0, -2.0, 0.5]
        at_half = analytic_dropout_var(x, 0.5)
        for p in (0.1, 0.3, 0.49, 0.51, 0.7, 0.9):
            assert analytic_dropout_var(x, p) < at_half

    def test_floor_hand_cases(self):
        assert analytic_droprelu_var_floor([-1.0, -1.0], 0.5) == 0.5
        assert analytic_droprelu_var_floor([-1.0, -1.0], 1.0) == 0.0
        assert analytic_droprelu_var_floor([-3.0, -4.0], 0.2) == pytest.approx(4.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ParameterError):
            analytic_dropout_var([1.0], 1.5)
        with pytest.raises(ParameterError):
            analytic_droprelu_var_floor([1.0], -0.1)
        with pytest.raises(ParameterError):
            analytic_dropout_var([], 0.5)


class TestSampleVariance:
    def test_constant_short_circuits_to_exact_zero(self):
        var, se = sample_variance_with_se(np.full(100, 2.5))
        assert var == 0.0 and se == 0.0

    def test_matches_numpy_unbiased_variance(self):
        samples = RngStream(0).normal(0, 2, (5000,))
        var, _ = sample_variance_with_se(samples)
        assert var == pytest.approx(float(np.var(samples, ddof=1)), rel=1e-12)

    def test_jackknife_se_near_asymptotic_formula(self):
        # for normal data SE(s^2) ~= s^2 sqrt(2/(n-1))
        samples = RngStream(1).normal(0, 3, (20000,))
        var, se = sample_variance_with_se(samples)
        asymptotic = var * math.sqrt(2.0 / (len(samples) - 1))
        assert 0.5 * asymptotic < se < 2.0 * asymptotic

    def test_needs_three_samples(self):
        with pytest.raises(ParameterError):
            sample_variance_with_se(np.array([1.0, 2.0]))


class TestEmpirical:
    def test_dropout_matches_analytic_within_3se(self):
        x = [3.0, -4.0, 1.5]
        for p in (0.2, 0.5):
            var, se = empirical_layer_var("dropout_unscaled", x, p, 200_000, seed=3)
            want = analytic_dropout_var(x, p)
            assert abs(var - want) <= 3.0 * se

    def test_dropout_hand_case_large_sample(self):
        var, se = empirical_layer_var("dropout_unscaled", [3.0, 4.0], 0.2, 1_000_000, seed=4)
        assert abs(var - 4.0) <= 3.0 * se

    def test_droprelu_all_negative_matches_floor(self):
        x = [-3.0, -4.0]
        for q in (0.2, 0.8):
            var, se = empirical_layer_var("droprelu", x, q, 400_000, seed=5)
            want = analytic_droprelu_var_floor(x, q)
            assert abs(var - want) <= 3.0 * se

    def test_droprelu_degenerate_rates_are_exactly_zero(self):
        for q in (0.0, 1.0):
            var, se = empirical_layer_var("droprelu", [-2.0, 1.0], q, 10_000, seed=6)
            assert var == 0.0 and se == 0.0

    def test_floor_term_matches_analytic(self):
        x = [2.0, -1.0, 0.5]
        var, se = empirical_floor_term(x, 0.7, 400_000, seed=7)
        assert abs(var - analytic_droprelu_var_floor(x, 0.7)) <= 3.0 * se

    def test_epsilon_matches_closed_form(self):
        # eps = Var(sum Q_k relu(x_k)) = q(1-q) sum relu(x_k)^2
        x = np.array([2.0, -3.0, 1.0, -0.5])
        q = 0.6
        var, se = empirical_epsilon(x, q, 400_000, seed=8)
        want = q * (1 - q) * float(np.sum(np.maximum(x, 0.0) ** 2))
        assert abs(var - want) <= 3.0 * se

    def test_epsilon_zero_without_positive_entries(self):
        var, se = empirical_epsilon([-1.0, -2.0], 0.5, 10_000, seed=9)
        assert var == 0.0 and se == 0.0

    def test_rrelu_matches_uniform_slope_variance(self):
        # slopes U(l,u) on negatives: Var = (u-l)^2/12 * sum_neg x^2
        x = np.array([1.0, -2.0, -0.5])
        low, high = 1.0 / 8.0, 1.0 / 3.0
        var, se = empirical_layer_var("rrelu", x, (low, high), 400_000, seed=10)
        want = (high - low) ** 2 / 12.0 * float(np.sum(x[x < 0] ** 2))
        assert abs(var - want) <= 3.0 * se

    def test_rrelu_no_negative_entries_exact_zero(self):
        var, se = empirical_layer_var("rrelu", [1.0, 2.0], (0.1, 0.3), 10_000, seed=11)
        assert var == 0.0 and se == 0.0

    def test_deterministic_in_seed(self):
        a = empirical_layer_var("dropout_unscaled", [1.0, -2.0], 0.3, 50_000, seed=12)
        b = empirical_layer_var("dropout_unscaled", [1.0, -2.0], 0.3, 50_000, seed=12)
        assert a == b

    def test_chunking_does_not_change_the_estimate(self):
        # trial counts straddling the chunk size give prefix-consistent draws
        big = empirical_layer_var("dropout_unscaled", [1.0, 2.0], 0.4, 70_000, seed=13)
        assert big[0] > 0.0

    @pytest.mark.parametrize("call", [
        lambda: empirical_layer_var("dropout_unscaled", [1.0], 1.2, 10_000, seed=0),
        lambda: empirical_layer_var("droprelu", [1.0], -0.1, 10_000, seed=0),
        lambda: empirical_layer_var("rrelu", [-1.0], (0.1, 1.0), 10_000, seed=0),
        lambda: empirical_layer_var("rrelu", [-1.0], (0.3, 0.1), 10_000, seed=0),
        lambda: empirical_floor_term([1.0], 1.5, 10_000, seed=0),
        lambda: empirical_epsilon([1.0], float("nan"), 10_000, seed=0),
        lambda: dominance_scan([1.0], [0.2], [-0.5], trials=10_000),
    ], ids=["dropout_p", "droprelu_q", "rrelu_high_one", "rrelu_reversed", "floor_q",
            "epsilon_q_nan", "scan_q"])
    def test_rates_follow_the_activation_rules(self, call):
        # p is unscaled dropout's [0, 1], q droprelu's rule and (low, high)
        # rrelu's: an RReLU slope bound of 1 is refused here as by the
        # activation itself
        with pytest.raises(ParameterError):
            call()

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            empirical_layer_var("gumbel", [1.0], 0.5, 10_000, seed=0)


class TestDominanceScan:
    def test_grid_shape_and_keys(self):
        rows = dominance_scan([1.0, -2.0], [0.2, 0.5], [0.5, 0.8], trials=10_000, seed=0)
        assert len(rows) == 4
        want_keys = {"p", "q", "region", "var_dropout", "se_dropout", "var_droprelu",
                     "se_droprelu", "epsilon", "se_epsilon", "var_droprelu_joint",
                     "se_droprelu_joint", "dominant", "basis"}
        assert all(set(r) == want_keys for r in rows)

    def test_regions_labeled_correctly(self):
        rows = dominance_scan([1.0, -1.0], [0.2], [0.5, 0.8, 0.9], trials=10_000, seed=1)
        by_q = {r["q"]: r["region"] for r in rows}
        assert by_q[0.5] == "q<=1-p"
        assert by_q[0.8] == "q<=1-p"  # 0.8 == 1 - 0.2 sits inside the region
        assert by_q[0.9] == "q>1-p"

    def test_boundary_cell_dominant(self):
        rows = dominance_scan([2.0, -1.0, 0.5], [0.2], [0.8], trials=100_000, seed=2)
        assert rows[0]["dominant"] is True
        assert rows[0]["basis"] == "floor"

    def test_empirical_basis_cell_dominant(self):
        # q(1-q) = 0.16 < p(1-p) = 0.25: dominance must come from eps
        rows = dominance_scan([2.0, -1.0, 3.0], [0.5], [0.2], trials=200_000, seed=3)
        assert rows[0]["basis"] == "empirical"
        assert rows[0]["dominant"] is True

    def test_all_zero_vector_trivially_dominant(self):
        rows = dominance_scan([0.0, 0.0], [0.3], [0.6], trials=10_000, seed=4)
        assert rows[0]["var_dropout"] == 0.0
        assert rows[0]["var_droprelu"] == 0.0
        assert rows[0]["dominant"] is True

    def test_joint_variance_below_decomposition_for_mixed_sign(self):
        rows = dominance_scan([2.0, -2.0], [0.2], [0.5], trials=200_000, seed=5)
        row = rows[0]
        gap = row["var_droprelu"] - row["var_droprelu_joint"]
        assert gap > 3.0 * math.hypot(row["se_droprelu"], row["se_droprelu_joint"])

    def test_scan_deterministic(self):
        a = dominance_scan([1.0, -1.0], [0.2], [0.6], trials=10_000, seed=6)
        b = dominance_scan([1.0, -1.0], [0.2], [0.6], trials=10_000, seed=6)
        assert a == b

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            dominance_scan([1.0], [1.5], [0.5], trials=10_000)

    def test_csv_columns(self):
        rows = dominance_scan([1.0, -1.0], [0.2], [0.6, 0.8], trials=10_000, seed=7)
        lines = scan_to_csv(rows).splitlines()
        assert lines[0] == "p,q,var_dropout,se_dropout,var_droprelu,se_droprelu,dominant"
        assert len(lines) == 3
        assert lines[1].endswith(("true", "false"))
