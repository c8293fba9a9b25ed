"""Sampled activation transforms and dropout: masks, stream replay, degenerate limits."""

import math

import numpy as np
import pytest

from rra_uq import activations as act
from rra_uq.errors import DimensionError, ParameterError
from rra_uq.rng import RngStream


class TestKindFactories:
    def test_labels(self):
        assert act.relu().label() == "relu"
        assert act.droprelu(0.8).label() == "droprelu(0.8)"
        assert act.rrelu().label() == "rrelu(0.125,0.333333)"

    def test_stochastic_flags(self):
        assert not act.relu().is_stochastic()
        assert act.droprelu(0.5).is_stochastic()
        assert act.rrelu().is_stochastic()

    def test_droprelu_rejects_bad_rate(self):
        for q in (-0.1, 1.1):
            with pytest.raises(ParameterError):
                act.droprelu(q)

    def test_rrelu_rejects_bad_bounds(self):
        with pytest.raises(ParameterError):
            act.rrelu(0.5, 0.25)
        with pytest.raises(ParameterError):
            act.rrelu(-0.1, 0.3)
        with pytest.raises(ParameterError):
            act.rrelu(0.2, 1.0)


class TestSampleMask:
    def test_droprelu_degenerate_rates(self):
        rng = RngStream(0)
        ones = act.sample_mask(act.droprelu(1.0), (8,), rng).slopes
        zeros = act.sample_mask(act.droprelu(0.0), (8,), rng).slopes
        assert np.array_equal(ones, np.zeros(8))
        assert np.array_equal(zeros, np.ones(8))

    def test_droprelu_zero_slope_fraction(self):
        # q is the probability the negative branch is zeroed
        mask = act.sample_mask(act.droprelu(0.8), (1_000_000,), RngStream(13))
        frac = float(np.mean(mask.slopes == 0.0))
        assert set(np.unique(mask.slopes)) <= {0.0, 1.0}
        assert abs(frac - 0.8) < 0.002

    def test_rrelu_slopes_in_range_with_uniform_mean(self):
        kind = act.rrelu()
        mask = act.sample_mask(kind, (1_000_000,), RngStream(5))
        assert mask.slopes.min() >= kind.low
        assert mask.slopes.max() < kind.high
        sigma = (kind.high - kind.low) / np.sqrt(12.0)
        assert abs(mask.slopes.mean() - (kind.low + kind.high) / 2.0) < 3 * sigma / 1000.0

    def test_relu_needs_no_rng(self):
        assert np.array_equal(act.sample_mask(act.relu(), (3,), None).slopes, np.zeros(3))

    def test_stochastic_kind_requires_rng(self):
        with pytest.raises(ParameterError):
            act.sample_mask(act.droprelu(0.5), (3,), None)

    def test_replay_is_bit_identical(self):
        mask1 = act.sample_mask(act.droprelu(0.7), (4, 5), RngStream(21).fork(2))
        mask2 = act.sample_mask(act.droprelu(0.7), (4, 5), RngStream(21).fork(2))
        assert np.array_equal(mask1.slopes, mask2.slopes)

    def test_deterministic_mask(self):
        assert np.array_equal(act.deterministic_mask(act.droprelu(0.3), (4,)).slopes, np.zeros(4))
        mid = act.deterministic_mask(act.rrelu(0.1, 0.5), (4,)).slopes
        assert np.array_equal(mid, np.full(4, 0.3))


def _slope_mask(slope, shape):
    """A mask whose every slope is `slope`: 0 (ReLU), 1 (droprelu(0.0)) or
    in (0, 0.5), the midpoint of rrelu(0, 2 * slope)."""
    if slope == 0.0:
        return act.deterministic_mask(act.relu(), shape)
    if slope == 1.0:
        return act.sample_mask(act.droprelu(0.0), shape, RngStream(0))
    mask = act.deterministic_mask(act.rrelu(0.0, 2.0 * slope), shape)
    assert np.array_equal(mask.slopes, np.full(shape, slope))
    return mask


class TestActivate:
    def test_hand_example(self):
        x = np.array([-2.0, 3.0])
        y = act.activate(x, _slope_mask(0.25, x.shape))
        assert np.array_equal(y, np.array([-0.5, 3.0]))

    def test_non_negative_inputs_pass_through(self):
        x = np.array([0.0, 0.5, 2.0])
        y = act.activate(x, _slope_mask(0.0, x.shape))
        assert np.array_equal(y, x)

    def test_mixed_mask_example(self):
        mask = act.sample_mask(act.droprelu(0.5), (2,), RngStream(0))
        assert np.array_equal(mask.slopes, np.array([0.0, 1.0]))
        y = act.activate(np.array([-1.0, -1.0]), mask)
        assert np.array_equal(y, np.array([0.0, -1.0]))

    def test_exhaustive_branch_grid(self):
        xs = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        slopes = [0.0, 1.0 / 8.0, 0.25, 1.0 / 3.0, 1.0]
        for xv in xs:
            for sv in slopes:
                got = act.activate(np.array([xv]), _slope_mask(sv, (1,)))[0]
                want = xv if xv >= 0 else sv * xv
                assert got == want, (xv, sv)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            act.activate(np.ones((2, 2)), _slope_mask(1.0, (2, 3)))


def _special_values(shape, seed):
    """Normal draws with +-0.0, +-inf and NaN planted at fixed places."""
    x = RngStream(seed).normal(0.1, 1.0, shape).reshape(-1)
    x[:6] = [0.0, -0.0, np.nan, -np.inf, np.inf, -np.nan]
    return x.reshape(shape)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestLazyMask:
    """A sampled mask hashes only negative entries yet acts like the full draw."""

    KINDS = [act.droprelu(q) for q in (0.0, 0.1, 0.5, 0.9, 1.0)] + [act.rrelu(),
                                                                    act.rrelu(0.0, 0.5)]

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label())
    @pytest.mark.parametrize("layout", ["flat", "nchw", "nhwc_view"])
    def test_activate_bit_identical_to_full_draw(self, kind, layout):
        if layout == "flat":
            x = _special_values((1_000,), 4)
        elif layout == "nchw":
            x = _special_values((3, 4, 5, 6), 4)
        else:  # a conv output: NHWC in memory, read as NCHW
            x = _special_values((3, 5, 6, 4), 4).transpose(0, 3, 1, 2)
        stream = RngStream(9).fork(3)
        full = act.sample_mask(kind, x.shape, RngStream(9).fork(3)).slopes
        if kind.tag == "droprelu":
            eager = 1.0 - RngStream(9).fork(3).bernoulli(kind.retain_rate, x.shape)
        else:
            eager = RngStream(9).fork(3).uniform(kind.low, kind.high, x.shape)
        assert np.array_equal(_bits(full), _bits(eager))
        with np.errstate(invalid="ignore"):
            want = np.where(x >= 0.0, x, full * x)
            got = act.activate(x, act.sample_mask(kind, x.shape, stream))
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("kind", [act.droprelu(q) for q in (0.0, 0.9, 1.0)] + [act.rrelu()],
                             ids=lambda k: k.label())
    @pytest.mark.parametrize("shape,layout", [((3 * act._APPLY_BLOCK + 17,), "flat"),
                                              ((27, 8, 26, 26), "nchw"),
                                              ((27, 8, 26, 26), "nhwc_view")])
    def test_many_blocks_bit_identical_to_full_draw(self, kind, shape, layout):
        x = RngStream(12).normal(0.1, 1.0, shape).reshape(-1)
        # the multiplier fills whole leading-axis rows, about _APPLY_BLOCK entries a block
        row = math.prod(shape[1:])
        step = max(1, act._APPLY_BLOCK // row) * row
        seams = list(range(step, x.size, step))
        assert len(seams) >= 2
        for seam in seams:
            x[seam - 4:seam + 4] = [-1.0, 0.0, -0.0, np.nan, -np.inf, np.inf, -np.nan, -2.0]
        x = x.reshape(shape)
        if layout == "nhwc_view":  # same values, NHWC in memory
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        full = act.sample_mask(kind, shape, RngStream(9).fork(1)).slopes
        with np.errstate(invalid="ignore"):
            want = np.where(x >= 0.0, x, full * x)
            got = act.activate(x, act.sample_mask(kind, shape, RngStream(9).fork(1)))
        assert np.array_equal(_bits(got), _bits(want))

    def test_lazy_droprelu_at_a_drawn_uniforms_edge(self):
        # U[0, 1) draws are the 53-bit uniforms k * 2**-53 themselves, so a
        # retain rate equal to one of them sits exactly on that entry's threshold
        x = -np.ones(1_000)
        u = RngStream(9).fork(3).uniform(0.0, 1.0, x.shape)
        for q, slope in ((u[17], 1.0), (np.nextafter(u[17], 1.0), 0.0)):
            kind = act.droprelu(q)
            full = act.sample_mask(kind, x.shape, RngStream(9).fork(3)).slopes
            got = act.activate(x, act.sample_mask(kind, x.shape, RngStream(9).fork(3)))
            assert full[17] == slope
            assert np.array_equal(_bits(got), _bits(-full))

    def test_backward_bit_identical_to_full_draw(self):
        x = _special_values((4, 50), 6)
        upstream = RngStream(7).normal(0, 1, x.shape)
        kind = act.rrelu()
        full = act.sample_mask(kind, x.shape, RngStream(2)).slopes
        got = act.activate_backward(x, act.sample_mask(kind, x.shape, RngStream(2)), upstream)
        assert np.array_equal(_bits(got), _bits(upstream * np.where(x >= 0.0, 1.0, full)))

    def test_sampling_advances_the_stream_like_a_full_draw(self):
        lazy, eager = RngStream(5), RngStream(5)
        act.sample_mask(act.droprelu(0.5), (3, 7), lazy)
        eager.bernoulli(0.5, (3, 7))
        assert lazy.counter == eager.counter == 21
        assert np.array_equal(lazy.uniform(0, 1, (4,)), eager.uniform(0, 1, (4,)))

    def test_slopes_ignore_later_draws_on_the_stream(self):
        rng = RngStream(5)
        mask = act.sample_mask(act.rrelu(), (10,), rng)
        rng.uniform(0, 1, (10,))
        want = RngStream(5).uniform(act.RRELU_DEFAULT_LOW, act.RRELU_DEFAULT_HIGH, (10,))
        assert np.array_equal(mask.slopes, want)

    def test_reading_slopes_moves_no_counter(self):
        # each read draws from a copy of the mask's stream: the same slopes,
        # and the multiplier still hashes from the mask's first counter
        x = _special_values((4, 50), 3)
        mask = act.sample_mask(act.droprelu(0.5), x.shape, RngStream(5))
        first = mask.slopes
        assert np.array_equal(mask.slopes, first)
        with np.errstate(invalid="ignore"):
            got = act.activate(x, mask)
            want = np.where(x >= 0.0, x, first * x)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("kind", [act.relu(), act.droprelu(0.3), act.rrelu(0.1, 0.5)],
                             ids=lambda k: k.label())
    def test_constant_masks_bit_identical(self, kind):
        x = _special_values((3, 40), 8)
        mask = act.deterministic_mask(kind, x.shape)
        with np.errstate(invalid="ignore"):
            want = np.where(x >= 0.0, x, mask.slopes * x)
            got = act.activate(x, act.deterministic_mask(kind, x.shape))
        assert np.array_equal(_bits(got), _bits(want))


class TestOut:
    """The `out=` forms write the allocating forms' bits and never touch x."""

    MASKS = {
        **{k.label(): (lambda shape, k=k: act.sample_mask(k, shape, RngStream(9).fork(2)))
           for k in TestLazyMask.KINDS},
        **{f"fixed-{k.label()}": (lambda shape, k=k: act.deterministic_mask(k, shape))
           for k in (act.relu(), act.droprelu(0.3), act.rrelu(0.1, 0.5))},
    }

    @pytest.mark.parametrize("name", sorted(MASKS))
    @pytest.mark.parametrize("shape", [(1_000,), (3, 4, 5, 6), ()])
    def test_activate_into_out(self, name, shape):
        x = _special_values((max(math.prod(shape), 6),), 4)[:math.prod(shape)].reshape(shape)
        before = x.copy()
        out = np.full(shape, 7.0)
        with np.errstate(invalid="ignore"):
            want = act.activate(x, self.MASKS[name](shape))
            got = act.activate(x, self.MASKS[name](shape), out=out)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.shares_memory(got, out)
        assert np.array_equal(_bits(x), _bits(before))

    def test_dropout_into_out(self):
        x = _special_values((4, 50), 6)
        before = x.copy()
        out = np.full(x.shape, 7.0)
        spec = act.DropoutSpec(0.3)
        with np.errstate(invalid="ignore"):
            want, _ = act.dropout_forward(x, spec, RngStream(2).fork(5))
            rng = RngStream(2).fork(5)
            got, mask = act.dropout_forward(x, spec, rng, out=out)
        assert got is out and mask is None
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(x), _bits(before))
        assert rng.counter == x.size

    @pytest.mark.parametrize("out", [np.empty((3, 4)), np.empty((3, 4)).T,
                                     np.empty((3, 4), dtype=np.float32)],
                             ids=["shape", "layout", "dtype"])
    def test_bad_out_rejected(self, out):
        x = -np.ones((4, 3))
        with pytest.raises(DimensionError):
            act.activate(x, act.sample_mask(act.rrelu(), x.shape, RngStream(1)), out=out)
        with pytest.raises(ParameterError):
            act.dropout_forward(x, act.DropoutSpec(0.5), RngStream(1), out=out)


class TestActivateBackward:
    def test_positive_input_passes_gradient(self):
        g = act.activate_backward(np.array([5.0]), _slope_mask(0.3, (1,)), np.array([1.0]))
        assert np.array_equal(g, np.array([1.0]))

    def test_negative_input_scales_gradient(self):
        g = act.activate_backward(np.array([-5.0]), _slope_mask(0.3, (1,)), np.array([2.0]))
        assert np.allclose(g, np.array([0.6]), rtol=0, atol=1e-15)

    def test_zero_input_uses_positive_branch(self):
        g = act.activate_backward(np.array([0.0]), _slope_mask(0.3, (1,)), np.array([1.0]))
        assert np.array_equal(g, np.array([1.0]))


class TestDegeneracyChain:
    def test_droprelu_one_equals_relu_elementwise(self):
        x = RngStream(3).normal(0, 2, (64,))
        mask_d = act.sample_mask(act.droprelu(1.0), x.shape, RngStream(9))
        mask_r = act.sample_mask(act.relu(), x.shape, None)
        assert np.array_equal(act.activate(x, mask_d), act.activate(x, mask_r))
        assert np.array_equal(act.activate(x, mask_r), np.maximum(x, 0.0))

    def test_droprelu_zero_equals_identity_elementwise(self):
        x = RngStream(4).normal(0, 2, (64,))
        mask_d = act.sample_mask(act.droprelu(0.0), x.shape, RngStream(9))
        assert np.array_equal(act.activate(x, mask_d), x)


class TestDropout:
    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            act.DropoutSpec(-0.1)
        with pytest.raises(ParameterError):
            act.DropoutSpec(1.5)
        with pytest.raises(ParameterError):
            act.DropoutSpec(float("nan"))

    def test_zero_rate_is_identity(self):
        x = RngStream(7).normal(0, 1, (32,))
        y, mult = act.dropout_forward(x, act.DropoutSpec(0.0), RngStream(0))
        assert np.array_equal(y, x)
        assert np.array_equal(mult, np.ones_like(x))

    def test_scaled_preserves_mean(self):
        x = np.ones(1_000_000)
        y, mult = act.dropout_forward(x, act.DropoutSpec(0.2), RngStream(12))
        kept = y[y != 0.0]
        assert np.allclose(kept, 1.0 / 0.8)
        assert abs(y.mean() - 1.0) < 0.005
        assert np.array_equal(y, x * mult)

    def test_full_drop_scaled_rejected(self):
        # what a network's dropout keeps is rescaled by 1/(1 - p), so p = 1 is refused
        with pytest.raises(ParameterError, match=r"\[0, 1\)"):
            act.DropoutSpec(1.0)

    def test_train_mode_requires_rng(self):
        with pytest.raises(ParameterError):
            act.dropout_forward(np.ones(4), act.DropoutSpec(0.5), None)

    def test_multiplier_replays(self):
        x = RngStream(1).normal(0, 1, (64,))
        y1, m1 = act.dropout_forward(x, act.DropoutSpec(0.3), RngStream(2).fork(5))
        y2, m2 = act.dropout_forward(x, act.DropoutSpec(0.3), RngStream(2).fork(5))
        assert np.array_equal(m1, m2)
        assert np.array_equal(y1, y2)
