"""Network wiring, forward/backward correctness, and stream replay."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from rra_uq import activations as act
from rra_uq import experiments as exp
from rra_uq import network as nn
from rra_uq.errors import ContractError, DimensionError, ParameterError
from rra_uq.rng import RngStream


def mlp(widths, kind=None, rng=None):
    """dense -> act -> ... -> dense chain over 1-d features."""
    layers = []
    for i in range(len(widths) - 1):
        layers.append(nn.dense(widths[i], widths[i + 1]))
        if kind is not None and i < len(widths) - 2:
            layers.append(nn.activation(kind))
    return nn.build_network(layers, (widths[0],), rng)


class TestBuild:
    def test_auto_names_by_position(self):
        net = mlp([2, 3, 2], kind=act.relu())
        assert [l.name for l in net.layers] == ["dense0", "activation1", "dense2"]

    def test_duplicate_names_rejected(self):
        layers = [nn.dense(2, 2, name="a"), nn.dense(2, 2, name="a")]
        with pytest.raises(ParameterError):
            nn.build_network(layers, (2,))

    def test_wiring_error_names_layer(self):
        layers = [nn.dense(2, 3), nn.dense(4, 2, name="head")]
        with pytest.raises(DimensionError, match="head"):
            nn.build_network(layers, (2,))

    def test_conv_into_dense_needs_flatten(self):
        layers = [nn.conv2d(1, 2, 3), nn.dense(8, 2)]
        with pytest.raises(DimensionError):
            nn.build_network(layers, (1, 4, 4))

    def test_zero_init_without_rng(self):
        net = mlp([3, 4, 2])
        for entry in net.params.values():
            for t in entry.values():
                assert np.array_equal(t, np.zeros_like(t))

    def test_kaiming_bound_and_zero_bias(self):
        net = nn.build_network([nn.dense(100, 50)], (100,), RngStream(0))
        w = net.params["dense0"]["w"]
        bound = np.sqrt(6.0 / 100)
        assert w.min() >= -bound and w.max() < bound
        assert abs(w.mean()) < bound / 10
        assert np.array_equal(net.params["dense0"]["b"], np.zeros(50))

    def test_parameter_count_matches_manual_walk(self):
        net = nn.build_network(
            [nn.conv2d(1, 4, 3), nn.activation(act.relu()), nn.flatten(),
             nn.dense(4 * 6 * 6, 10)],
            (1, 8, 8), RngStream(1))
        manual = 0
        for entry in net.params.values():
            for t in entry.values():
                manual += int(np.prod(t.shape))
        assert net.parameter_count() == manual == (4 * 1 * 9 + 4) + (144 * 10 + 10)

    def test_output_shape_and_stochastic_names(self):
        net = nn.build_network(
            [nn.dense(2, 4), nn.activation(act.droprelu(0.5)), nn.dropout_layer(0.2),
             nn.dense(4, 3), nn.activation(act.relu())],
            (2,))
        assert net.output_shape() == (3,)
        assert net.stochastic_layer_names() == ["activation1", "dropout2"]

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_dropout_layer_rate_below_one(self, rate):
        with pytest.raises(ParameterError, match=r"\[0, 1\)"):
            nn.dropout_layer(rate)

    def test_shapes_inferred_once_at_build(self):
        layers = [nn.conv2d(1, 2, 3), nn.activation(act.relu()), nn.conv2d(2, 3, 3, stride=2),
                  nn.flatten(), nn.dense(3 * 3 * 2, 4)]
        net = nn.build_network(layers, (1, 9, 8))
        assert net.shapes == [(2, 7, 6), (2, 7, 6), (3, 3, 2), (18,), (4,)]
        assert net.output_shape() == (4,)


class TestForward:
    def test_zero_weights_zero_logits(self):
        net = mlp([3, 4, 2], kind=act.relu())
        x = RngStream(0).normal(0, 1, (5, 3))
        logits, _ = forward_eval(net, x)
        assert np.array_equal(logits, np.zeros((5, 2)))

    def test_identity_weights_relu_hand_case(self):
        net = nn.build_network([nn.dense(2, 2), nn.activation(act.relu())], (2,))
        net.params["dense0"]["w"] = np.eye(2)
        logits, _ = forward_eval(net, np.array([[-1.0, 2.0]]))
        assert np.array_equal(logits, np.array([[0.0, 2.0]]))

    def test_same_mode_and_stream_identical(self):
        net = mlp([2, 8, 2], kind=act.droprelu(0.5), rng=RngStream(3))
        x = RngStream(1).normal(0, 1, (6, 2))
        l1, _ = nn.forward(net, x, mode="eval", rng=RngStream(7))
        l2, _ = nn.forward(net, x, mode="eval", rng=RngStream(7))
        assert np.array_equal(l1, l2)

    def test_mask_replay_bit_identical(self):
        # a fresh stream with the same id replays every mask of a pass
        net = nn.build_network(
            [nn.dense(2, 16), nn.activation(act.rrelu()), nn.dropout_layer(0.3),
             nn.dense(16, 2)],
            (2,), RngStream(5))
        x = RngStream(2).normal(0, 1, (4, 2))
        logits, trace = nn.forward(net, x, mode="train", rng=RngStream(11))
        replay, again = nn.forward(net, x, mode="train", rng=RngStream(11))
        assert np.array_equal(bits(logits), bits(replay))
        mults = [(a.mult, b.mult) for a, b in zip(trace.entries, again.entries)
                 if a.mult is not None]
        assert len(mults) == 2
        for a, b in mults:
            assert np.array_equal(bits(a), bits(b))

    def test_no_stream_disables_sampling(self):
        net = nn.build_network(
            [nn.dense(2, 8), nn.activation(act.droprelu(0.6)), nn.dropout_layer(0.5),
             nn.dense(8, 2)],
            (2,), RngStream(5))
        x = RngStream(2).normal(0, 1, (4, 2))
        # the pure-ReLU realization of the same parameters, without dropout
        relu_net = nn.build_network(
            [nn.dense(2, 8), nn.activation(act.relu()), nn.dense(8, 2)], (2,))
        relu_net.params = {"dense0": net.params["dense0"], "dense2": net.params["dense3"]}
        want, _ = nn.forward(relu_net, x, mode="eval", rng=RngStream(0))
        for mode in ("eval", "train"):
            got, _ = nn.forward(net, x, mode=mode)
            assert np.array_equal(got, want)

    def test_bad_mode_rejected(self):
        net = mlp([2, 2])
        with pytest.raises(ParameterError):
            nn.forward(net, np.ones((1, 2)), mode="test")

    def test_input_shape_mismatch(self):
        net = mlp([2, 2])
        with pytest.raises(DimensionError):
            nn.forward(net, np.ones((1, 3)), mode="eval")

    def test_layer_range_runs_in_two_parts(self):
        net = nn.build_network(
            [nn.dense(2, 8), nn.activation(act.rrelu()), nn.dropout_layer(0.5),
             nn.dense(8, 2)],
            (2,), RngStream(5))
        x = RngStream(2).normal(0, 1, (4, 2))
        whole, trace = nn.forward(net, x, mode="eval", rng=RngStream(3))
        assert trace is None  # eval mode keeps no trace
        head, _ = nn.forward(net, x, mode="eval", stop=1)
        tail, _ = nn.forward(net, head, mode="eval", rng=RngStream(3), start=1)
        assert np.array_equal(tail, whole)
        with pytest.raises(DimensionError):
            nn.forward(net, x, mode="eval", start=1)
        for start, stop in ((-1, None), (3, 2), (0, 5)):
            with pytest.raises(ParameterError):
                nn.forward(net, x, mode="eval", start=start, stop=stop)

    def test_pass_reads_the_stored_shapes(self, monkeypatch):
        net = nn.build_network(
            [nn.conv2d(1, 2, 3), nn.activation(act.rrelu()), nn.flatten(), nn.dense(18, 2)],
            (1, 5, 5), RngStream(5))
        x = RngStream(2).normal(0, 1, (4, 1, 5, 5))
        head, _ = nn.forward(net, x, mode="eval", stop=1)

        def refuse(*args):
            raise AssertionError("a pass inferred the shapes again")

        monkeypatch.setattr(nn, "infer_shapes", refuse)
        tail, _ = nn.forward(net, head, mode="eval", rng=RngStream(3), start=1)
        assert tail.shape == (4, *net.output_shape())

    def test_dropout_off_in_plain_eval(self):
        # plain: no stream, so the dropout layer passes the dense output through
        net = nn.build_network([nn.dense(2, 2), nn.dropout_layer(0.9)], (2,), RngStream(4))
        x = np.ones((3, 2))
        a, _ = nn.forward(net, x, mode="eval")
        dense_out, _ = nn.forward(net, x, mode="eval", stop=1)
        assert np.array_equal(a, dense_out)

    def test_stream_samples_dropout_in_eval(self):
        net = nn.build_network([nn.dense(2, 64), nn.dropout_layer(0.5)], (2,), RngStream(4))
        x = np.ones((1, 2))
        a, _ = nn.forward(net, x, mode="eval", rng=RngStream(0))
        b, _ = nn.forward(net, x, mode="eval", rng=RngStream(99))
        assert not np.array_equal(a, b)
        # one rule in both modes: train mode on the same stream draws the same mask
        c, _ = nn.forward(net, x, mode="train", rng=RngStream(0))
        assert np.array_equal(a, c)


def forward_eval(net, x):
    return nn.forward(net, x, mode="eval")


def conv_oracle(x, w, b, stride):
    """Direct-summation valid convolution, loops only."""
    n, c, h, wd = x.shape
    oc, _, k, _ = w.shape
    oh, ow = (h - k) // stride + 1, (wd - k) // stride + 1
    y = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for oci in range(oc):
            for i in range(oh):
                for j in range(ow):
                    total = b[oci]
                    for ci in range(c):
                        for ki in range(k):
                            for kj in range(k):
                                total += x[ni, ci, i * stride + ki, j * stride + kj] * w[oci, ci, ki, kj]
                    y[ni, oci, i, j] = total
    return y


class TestConv2d:
    @pytest.mark.parametrize("stride,hw", [(1, (5, 5)), (2, (7, 6))],
                             ids=["1-valid-hw0", "2-valid-hw1"])
    def test_forward_matches_direct_convolution(self, stride, hw):
        rng = RngStream(17)
        x = rng.normal(0, 1, (2, 3, *hw))
        net = nn.build_network([nn.conv2d(3, 4, 3, stride=stride)], (3, *hw), RngStream(8))
        w = net.params["conv2d0"]["w"]
        b = rng.normal(0, 1, (4,))
        net.params["conv2d0"]["b"] = b
        got, _ = forward_eval(net, x)
        want = conv_oracle(x, w, b, stride)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(DimensionError):
            nn.build_network([nn.conv2d(1, 1, 5)], (1, 3, 3))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def im2col_oracle(x, w, b, layer):
    """The one-copy im2col convolution: cols and output, as blocked im2col must match."""
    n, c, h, wd = x.shape
    k, stride = layer.kernel_size, layer.stride
    oh, ow = (h - k) // stride + 1, (wd - k) // stride + 1
    windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(n * oh * ow, c * k * k)
    ymat = cols @ w.reshape(layer.out_channels, -1).T + b
    return ymat.reshape(n, oh, ow, layer.out_channels).transpose(0, 3, 1, 2), cols


class TestBlockedIm2col:
    """Blocked im2col builds the same cols and output bits as one copy."""

    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("c", [1, 8])
    @pytest.mark.parametrize("stride", [1, 2], ids=["1-valid", "2-valid"])
    def test_output_and_cols_bit_identical(self, n, c, stride):
        layer = nn.conv2d(c, 5, 3, stride=stride, name="conv")
        x = RngStream(n * c).normal(0, 1, (n, c, 9, 10))
        x.reshape(-1)[::7] = -0.0
        w = RngStream(3).normal(0, 1, (5, c, 3, 3))
        b = RngStream(4).normal(0, 1, (5,))
        want_y, want_cols = im2col_oracle(x, w, b, layer)
        y, cache = nn._conv_forward(x, w, b, layer, {})
        assert y.shape == want_y.shape and cache[0].shape == want_cols.shape
        assert np.array_equal(bits(y), bits(want_y))
        assert cache[0].flags.c_contiguous
        assert np.array_equal(bits(cache[0]), bits(want_cols))

    def test_train_trace_caches_the_same_cols(self):
        net = nn.build_network([nn.conv2d(2, 3, 3, stride=2)], (2, 9, 9), RngStream(5))
        x = RngStream(6).normal(0, 1, (11, 2, 9, 9))
        _, trace = nn.forward(net, x, mode="train")
        _, want_cols = im2col_oracle(x, net.params["conv2d0"]["w"], net.params["conv2d0"]["b"],
                                     net.layers[0])
        assert np.array_equal(bits(trace.entries[0].cache[0]), bits(want_cols))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        net = mlp([2, 4, 3], kind=act.relu(), rng=RngStream(0))
        x = RngStream(1).normal(0, 1, (5, 2))
        logits, trace = nn.forward(net, x, mode="train")
        grads = net.views(nn.backward(net, trace, np.zeros_like(logits)))
        for entry in grads.values():
            for g in entry.values():
                assert np.array_equal(g, np.zeros_like(g))

    def test_dense_weight_grad_is_outer_product(self):
        net = nn.build_network([nn.dense(2, 2)], (2,), RngStream(0))
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = np.array([[0.5, -1.0], [2.0, 0.25]])
        _, trace = nn.forward(net, x, mode="train")
        grads = net.views(nn.backward(net, trace, g))
        assert np.array_equal(grads["dense0"]["w"], x.T @ g)
        assert np.array_equal(grads["dense0"]["b"], g.sum(axis=0))

    def test_first_weight_layer_input_gradient_skipped(self, monkeypatch):
        calls = []
        real = nn._conv_backward

        def spy(g, w, layer, cache, grads, input_grad=True):
            calls.append((layer.name, input_grad))
            return real(g, w, layer, cache, grads, input_grad)

        monkeypatch.setattr(nn, "_conv_backward", spy)
        net = nn.build_network(
            [nn.conv2d(1, 2, 3), nn.activation(act.relu()), nn.conv2d(2, 2, 3),
             nn.flatten(), nn.dense(2 * 3 * 3, 2)],
            (1, 7, 7), RngStream(0))
        logits, trace = nn.forward(net, RngStream(1).normal(0, 1, (2, 1, 7, 7)), mode="train")
        grads = net.views(nn.backward(net, trace, np.ones_like(logits)))
        assert calls == [("conv2d2", True), ("conv2d0", False)]
        assert set(grads) == {"conv2d0", "conv2d2", "dense4"}

    def test_foreign_trace_rejected(self):
        net_a = mlp([2, 3], rng=RngStream(0))
        net_b = mlp([2, 3], rng=RngStream(0))
        logits, trace = nn.forward(net_a, np.ones((1, 2)), mode="train")
        with pytest.raises(ContractError):
            nn.backward(net_b, trace, np.zeros_like(logits))

    def test_grad_shape_mismatch_rejected(self):
        net = mlp([2, 3], rng=RngStream(0))
        _, trace = nn.forward(net, np.ones((1, 2)), mode="train")
        with pytest.raises(ContractError):
            nn.backward(net, trace, np.zeros((2, 3)))


class TestTrainThroughLazyMask:
    """Training applies and differentiates each activation through its lazy mask.

    The full-draw form is the reference: the multiplier where(x >= 0, 1, slopes)
    of the mask's whole slope tensor.
    """

    @pytest.mark.parametrize("arch,shape", [("cnn-small", (1, 9, 9)), ("mlp-2x64", (2,))])
    @pytest.mark.parametrize("method", ["mc_droprelu", "mc_rrelu"])
    def test_backward_bit_identical_to_full_draw(self, arch, shape, method):
        layers = exp.build_architecture(arch, shape, 3, exp.method_spec(method))
        net = nn.build_network(layers, shape, RngStream(4))
        site = next(i for i, layer in enumerate(net.layers) if isinstance(layer, nn.Activation))
        # layers [0, site) on real input, then the rest on their output with
        # +-0, +-inf and NaN planted at the first activation's input
        head_out, head = nn.forward(net, RngStream(6).normal(0, 1, (5, *shape)), mode="train",
                                    stop=site)
        z = head_out.reshape(-1).copy()
        places = RngStream(7).permutation(z.size)[:z.size // 10]
        z[places] = np.resize([0.0, -0.0, np.inf, -np.inf, np.nan], places.size)
        z = z.reshape(head_out.shape)
        with np.errstate(invalid="ignore", over="ignore"):
            logits, tail = nn.forward(net, z, mode="train", rng=RngStream(8), start=site)
            trace = nn.Trace(net, head.entries + tail.entries, logits.shape)
            ref_entries = []
            for i, (layer, entry) in enumerate(zip(net.layers, trace.entries)):
                if isinstance(layer, nn.Activation):
                    slopes = act.sample_mask(layer.kind, entry.x_in.shape,
                                             RngStream(8).fork(i)).slopes
                    full = np.where(entry.x_in >= 0.0, 1.0, slopes)
                    assert np.array_equal(bits(entry.mult), bits(full)), layer.name
                    entry = replace(entry, mult=full)
                ref_entries.append(entry)
            upstream = RngStream(9).normal(0, 1, logits.shape)
            got = net.views(nn.backward(net, trace, upstream))
            want = net.views(nn.backward(net, nn.Trace(net, ref_entries, logits.shape), upstream))
        assert np.isnan(z).any() and np.isinf(z).any()
        for lname in want:
            for key in want[lname]:
                assert np.array_equal(bits(got[lname][key]), bits(want[lname][key])), (lname, key)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = RngStream(0).normal(0, 5, (10, 4))
        p = nn.softmax(logits)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p >= 0).all()

    def test_large_logits_stable(self):
        p = nn.softmax(np.array([[1000.0, 1000.0], [1e8, 0.0]]))
        assert np.allclose(p[0], [0.5, 0.5])
        assert np.allclose(p[1], [1.0, 0.0])

    def test_cross_entropy_hand_value(self):
        logits = np.array([[0.0, 0.0]])
        loss, grad = nn.softmax_cross_entropy(logits, np.array([0]))
        assert abs(loss - np.log(2.0)) < 1e-15
        assert np.allclose(grad, [[0.5 - 1.0, 0.5]])

    def test_cross_entropy_grad_matches_finite_difference(self):
        rng = RngStream(2)
        logits = rng.normal(0, 1, (4, 3))
        labels = np.array([0, 2, 1, 1])
        _, grad = nn.softmax_cross_entropy(logits, labels)
        h = 1e-6
        for i in range(4):
            for j in range(3):
                up = logits.copy()
                up[i, j] += h
                down = logits.copy()
                down[i, j] -= h
                numeric = (nn.softmax_cross_entropy(up, labels)[0]
                           - nn.softmax_cross_entropy(down, labels)[0]) / (2 * h)
                assert abs(grad[i, j] - numeric) < 1e-8

    def test_label_shape_mismatch(self):
        with pytest.raises(ContractError):
            nn.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 1, 2]))


class TestGradCheck:
    def test_dense_relu(self):
        net = mlp([3, 8, 4, 2], kind=act.relu(), rng=RngStream(1))
        x = RngStream(2).normal(0, 1, (6, 3))
        labels = np.array([0, 1, 1, 0, 1, 0])
        report = nn.grad_check(net, x, labels, RngStream(3))
        assert report["max_rel_error"] < 1e-5

    def test_dense_droprelu_frozen_mask(self):
        net = mlp([3, 8, 2], kind=act.droprelu(0.5), rng=RngStream(4))
        x = RngStream(5).normal(0, 1, (5, 3))
        labels = np.array([0, 1, 0, 1, 1])
        report = nn.grad_check(net, x, labels, RngStream(6))
        assert report["max_rel_error"] < 1e-5

    def test_conv_chain(self):
        net = nn.build_network(
            [nn.conv2d(1, 3, 3), nn.activation(act.relu()), nn.flatten(),
             nn.dense(3 * 3 * 3, 2)],
            (1, 5, 5), RngStream(7))
        x = RngStream(8).normal(0, 1, (3, 1, 5, 5))
        labels = np.array([0, 1, 0])
        report = nn.grad_check(net, x, labels, RngStream(9))
        assert report["max_rel_error"] < 1e-5

    def test_conv_after_conv(self):
        # the second conv's input gradient flows back into the first
        net = nn.build_network(
            [nn.conv2d(2, 3, 3), nn.activation(act.rrelu()),
             nn.conv2d(3, 2, 3, stride=2), nn.flatten(),
             nn.dense(2 * 2 * 2, 2)],
            (2, 7, 7), RngStream(13))
        x = RngStream(14).normal(0, 1, (3, 2, 7, 7))
        labels = np.array([1, 0, 1])
        report = nn.grad_check(net, x, labels, RngStream(15))
        assert report["max_rel_error"] < 1e-5

    def test_dropout_frozen_multiplier(self):
        net = nn.build_network(
            [nn.dense(3, 8), nn.activation(act.relu()), nn.dropout_layer(0.4),
             nn.dense(8, 2)],
            (3,), RngStream(10))
        x = RngStream(11).normal(0, 1, (5, 3))
        labels = np.array([1, 0, 1, 0, 1])
        report = nn.grad_check(net, x, labels, RngStream(12))
        assert report["max_rel_error"] < 1e-5
