"""Optimizer updates, step-decay schedule, and whole training runs."""

import math

import numpy as np
import pytest

from rra_uq import activations as act
from rra_uq import experiments as exp
from rra_uq import network as nn
from rra_uq.data import Dataset, gen_blobs, load_idx, normalize, write_idx
from rra_uq.errors import ContractError, ParameterError
from rra_uq.inference import aggregate, single_predict
from rra_uq.metrics import accuracy
from rra_uq.rng import RngStream
from rra_uq.training import (DEFAULT_SCHEDULE, OptimizerState, learning_rate_at,
                             sgd_step, train)


def small_net(seed=0, kind=None, hidden=16):
    """One network, as the stack of one that `train` takes."""
    layers = [nn.dense(2, hidden), nn.activation(kind or act.relu()), nn.dense(hidden, 2)]
    return nn.build_members(layers, (2,), [RngStream(seed)])


class TestSchedule:
    def test_default_schedule_breakpoints_for_100_epochs(self):
        opt = OptimizerState(learning_rate=0.1)
        # ceil(0.45*100)=45, ceil(0.675*100)=68, ceil(0.90*100)=90
        assert learning_rate_at(opt, 1, 100) == 0.1
        assert learning_rate_at(opt, 44, 100) == 0.1
        assert learning_rate_at(opt, 45, 100) == 0.1 / 10
        assert learning_rate_at(opt, 67, 100) == 0.1 / 10
        assert learning_rate_at(opt, 68, 100) == 0.1 / 100
        assert learning_rate_at(opt, 89, 100) == 0.1 / 100
        assert learning_rate_at(opt, 90, 100) == 0.1 / 1000
        assert learning_rate_at(opt, 100, 100) == 0.1 / 1000

    def test_single_breakpoint_drops_exactly_once(self):
        opt = OptimizerState(learning_rate=1.0, schedule=((0.45, 10.0),))
        boundary = math.ceil(0.45 * 10)
        for epoch in range(1, 11):
            want = 1.0 / 10.0 if epoch >= boundary else 1.0
            assert learning_rate_at(opt, epoch, 10) == want

    def test_closed_form_against_independent_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            total = int(rng.integers(1, 60))
            fracs = np.sort(rng.uniform(0.05, 1.0, size=rng.integers(0, 4)))
            schedule = tuple((float(f), float(rng.uniform(2, 20))) for f in fracs)
            opt = OptimizerState(learning_rate=0.5, schedule=schedule)
            for epoch in range(1, total + 1):
                want = 0.5
                for frac, div in schedule:
                    if epoch >= math.ceil(frac * total):
                        want = want / div
                assert learning_rate_at(opt, epoch, total) == want

    def test_schedule_validation(self):
        with pytest.raises(ParameterError):
            OptimizerState(learning_rate=0.1, schedule=((0.0, 10.0),))
        with pytest.raises(ParameterError):
            OptimizerState(learning_rate=0.1, schedule=((0.5, 0.5),))

    def test_optimizer_validation(self):
        with pytest.raises(ParameterError):
            OptimizerState(learning_rate=0.0)
        with pytest.raises(ParameterError):
            OptimizerState(learning_rate=0.1, momentum=1.0)
        with pytest.raises(ParameterError):
            OptimizerState(learning_rate=0.1, weight_decay=-1e-4)


class TestSgdStep:
    def test_zero_everything_is_fixed_point(self):
        params = np.array([1.0, -2.0])
        opt = OptimizerState(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step(params, np.zeros(2), opt, opt.learning_rate)
        assert np.array_equal(params, np.array([1.0, -2.0]))

    def test_plain_gradient_descent_when_momentum_zero(self):
        params = np.array([2.0])
        opt = OptimizerState(learning_rate=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step(params, np.array([0.5]), opt, opt.learning_rate)
        assert np.allclose(params, [2.0 - 0.1 * 0.5], atol=1e-15)

    def test_two_steps_match_scalar_recurrence(self):
        # independently recompute v_t = mu v_{t-1} + g_t, p_t = p - lr (g_t + mu v_t)
        lr, mu, wd = 0.1, 0.9, 0.01
        p, v = 1.5, 0.0
        params = np.array([p])
        opt = OptimizerState(learning_rate=lr, momentum=mu, weight_decay=wd)
        for raw in (0.3, -0.7):
            sgd_step(params, np.array([raw]), opt, opt.learning_rate)
            g = raw + wd * p
            v = mu * v + g
            p = p - lr * (g + mu * v)
            assert np.allclose(params, [p], rtol=0, atol=1e-15)

    def test_lr_override_argument(self):
        params = np.array([1.0])
        opt = OptimizerState(learning_rate=1.0, momentum=0.0, weight_decay=0.0)
        sgd_step(params, np.array([1.0]), opt, lr=0.25)
        assert np.allclose(params, [0.75])

    def test_velocity_tracks_parameter_shape(self):
        arena = np.zeros((3, 4))  # three members of four parameters
        opt = OptimizerState(learning_rate=0.1)
        sgd_step(arena, np.ones((3, 4)), opt, opt.learning_rate)
        assert opt.velocity.shape == (3, 4)
        assert not np.shares_memory(opt.velocity, arena)

    def test_flat_update_matches_per_tensor_formula(self):
        # the update over a whole arena against the formula applied tensor by
        # tensor, bit for bit, over steps that carry momentum
        stack = nn.build_members([nn.dense(3, 5), nn.activation(act.relu()), nn.dense(5, 2)],
                                 (3,), [RngStream(1), RngStream(2)])
        want = {(l, k): t.copy() for l, entry in stack.params.items() for k, t in entry.items()}
        velocity = {key: np.zeros_like(t) for key, t in want.items()}
        opt = OptimizerState(learning_rate=0.05, momentum=0.9, weight_decay=1e-3)
        for step in range(3):
            grads = RngStream(10 + step).normal(0.0, 1.0, stack.flat.shape)
            for key, p in want.items():
                g = stack.views(grads)[key[0]][key[1]] + opt.weight_decay * p
                velocity[key] *= opt.momentum
                velocity[key] += g
                p -= 0.05 * (g + opt.momentum * velocity[key])
            sgd_step(stack.flat, grads, opt, 0.05)
        for (lname, key), p in want.items():
            assert np.array_equal(bits(stack.params[lname][key]), bits(p)), (lname, key)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def train_on_blobs(seed, epochs=50, lr=0.05, hidden=16):
    ds = gen_blobs(200, centers=[[-2.0, 0.0], [2.0, 0.0]], sigma=0.3, seed=7)
    net = small_net(seed=seed, hidden=hidden)
    opt = OptimizerState(learning_rate=lr, momentum=0.9, weight_decay=1e-4)
    result = train(net, ds.features, ds.labels, opt, epochs=epochs, batch_size=32,
                   rng=[RngStream(seed, stream_id=1)])
    return net, ds, result


class TestTrain:
    def test_separable_blobs_reach_high_accuracy(self):
        net, ds, result = train_on_blobs(seed=0)
        summary = aggregate(single_predict(net.with_parameters(net.flat[0]), ds.features))
        assert accuracy(summary.labels, ds.labels) >= 0.99
        assert len(result.loss_curves[0]) == 50
        assert result.steps == 50 * math.ceil(200 / 32)

    def test_zero_epochs_is_noop(self):
        net = small_net(seed=1)
        before = {k: {kk: vv.copy() for kk, vv in v.items()} for k, v in net.params.items()}
        ds = gen_blobs(40, centers=[[-1.0, 0.0], [1.0, 0.0]], sigma=0.2, seed=3)
        opt = OptimizerState(learning_rate=0.1)
        result = train(net, ds.features, ds.labels, opt, epochs=0, batch_size=8,
                       rng=[RngStream(0)])
        assert result.loss_curves == [[]] and result.lr_curve == [] and result.steps == 0
        for lname, entry in net.params.items():
            for key, t in entry.items():
                assert np.array_equal(t, before[lname][key])

    def test_same_seed_identical_loss_curves(self):
        _, _, r1 = train_on_blobs(seed=5, epochs=10)
        _, _, r2 = train_on_blobs(seed=5, epochs=10)
        assert r1.loss_curves == r2.loss_curves
        assert r1.lr_curve == r2.lr_curve

    def test_different_seed_different_curves(self):
        _, _, r1 = train_on_blobs(seed=5, epochs=5)
        _, _, r2 = train_on_blobs(seed=6, epochs=5)
        assert r1.loss_curves != r2.loss_curves

    def test_lr_curve_matches_schedule_closed_form(self):
        _, _, result = train_on_blobs(seed=2, epochs=20, lr=0.05)
        opt = OptimizerState(learning_rate=0.05)
        want = [learning_rate_at(opt, e, 20) for e in range(1, 21)]
        assert result.lr_curve == want

    def test_loss_decreases_for_most_seeds(self):
        # low-lr run on separable blobs: epoch-50 loss below epoch-1 loss
        wins = 0
        for seed in range(10):
            _, _, result = train_on_blobs(seed=seed, epochs=50, lr=0.01)
            wins += result.loss_curves[0][-1] < result.loss_curves[0][0]
        assert wins >= 9

    def test_stochastic_activation_training_consumes_masks(self):
        ds = gen_blobs(60, centers=[[-2.0, 0.0], [2.0, 0.0]], sigma=0.3, seed=7)
        net = small_net(seed=3, kind=act.droprelu(0.8))
        opt = OptimizerState(learning_rate=0.05)
        r1 = train(net, ds.features, ds.labels, opt, epochs=3, batch_size=16,
                   rng=[RngStream(9, stream_id=1)])
        net2 = small_net(seed=3, kind=act.droprelu(0.8))
        opt2 = OptimizerState(learning_rate=0.05)
        r2 = train(net2, ds.features, ds.labels, opt2, epochs=3, batch_size=16,
                   rng=[RngStream(9, stream_id=1)])
        assert r1.loss_curves == r2.loss_curves
        for lname in net.params:
            assert np.array_equal(net.params[lname]["w"], net2.params[lname]["w"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_its_epoch(self):
        ds = gen_blobs(64, centers=[[-2.0, 0.0], [2.0, 0.0]], sigma=0.3, seed=7)
        net = small_net(seed=4, hidden=64)
        opt = OptimizerState(learning_rate=1e12, momentum=0.9, weight_decay=0.0)
        result = train(net, ds.features, ds.labels, opt, epochs=50, batch_size=64,
                       rng=[RngStream(1)])
        assert isinstance(result.diverged_epoch, int)
        assert 1 <= result.diverged_epoch <= 50
        # the only member diverged: no curve is kept, and no epoch completed after it
        assert result.loss_curves == []
        assert len(result.lr_curve) == result.diverged_epoch - 1

    def test_bad_batch_and_empty_data(self):
        net = small_net()
        with pytest.raises(ContractError):
            train(net, np.zeros((0, 2)), np.zeros(0, dtype=int),
                  OptimizerState(learning_rate=0.1), 1, 1, [RngStream(0)])
        ds = gen_blobs(10, centers=[[0.0, 0.0], [1.0, 1.0]], sigma=0.1, seed=0)
        with pytest.raises(ContractError):
            train(net, ds.features, ds.labels, OptimizerState(learning_rate=0.1),
                  1, 11, [RngStream(0)])

    def test_negative_epochs_rejected(self):
        net = small_net()
        ds = gen_blobs(10, centers=[[0.0, 0.0], [1.0, 1.0]], sigma=0.1, seed=0)
        with pytest.raises(ParameterError):
            train(net, ds.features, ds.labels, OptimizerState(learning_rate=0.1),
                  -1, 2, [RngStream(0)])

    def test_refuses_a_network_that_is_not_a_stack(self):
        layers = [nn.dense(2, 4), nn.activation(act.relu()), nn.dense(4, 2)]
        net = nn.build_network(layers, (2,), RngStream(0))
        ds = gen_blobs(10, centers=[[0.0, 0.0], [1.0, 1.0]], sigma=0.1, seed=0)
        with pytest.raises(ContractError, match="build_members"):
            train(net, ds.features, ds.labels, OptimizerState(learning_rate=0.1),
                  1, 2, RngStream(0))


def tiny_idx(tmp_path, n=17, side=8, classes=3):
    """A tiny IDX set written and read back: noisy images, class c bright in band c."""
    pixels = RngStream(21).uniform(0.0, 0.4, (n, 1, side, side))
    labels = np.arange(n) % classes
    for i, c in enumerate(labels):
        pixels[i, 0, 2 * c:2 * c + 2] += 0.5
    paths = (tmp_path / "img.idx", tmp_path / "lab.idx")
    write_idx(Dataset(pixels, labels, "bands", classes), *paths)
    return normalize(load_idx(*paths, classes))[0]


class TestLockstep:
    """Members trained in lockstep on one arena end as each would alone."""

    @pytest.mark.parametrize("arch", ["mlp-2x64", "cnn-small"])
    @pytest.mark.parametrize("method", [{"name": "deep_ensemble", "members": 3},
                                        {"name": "mc_droprelu", "retain_rate": 0.8},
                                        {"name": "mc_dropout", "drop_rate": 0.3}],
                             ids=["relu", "droprelu", "dropout"])
    def test_each_member_bit_identical_to_training_alone(self, tmp_path, arch, method):
        ds = tiny_idx(tmp_path)
        layers = exp.build_architecture(arch, ds.feature_shape, ds.n_classes,
                                        exp.method_spec(**method))
        init, streams = RngStream(5).fork(0), RngStream(5).fork(1)
        members = range(3)
        opt = OptimizerState(learning_rate=0.05)
        # 17 samples in batches of 8: the last batch holds a single sample
        stack = nn.build_members(layers, ds.feature_shape, [init.fork(m) for m in members])
        result = train(stack, ds.features, ds.labels, opt, 3, 8,
                       [streams.fork(m) for m in members])
        assert result.diverged_epoch is None
        assert result.steps == 3 * 3 * 3  # member-steps: members x epochs x batches
        for m in members:
            alone = nn.build_members(layers, ds.feature_shape, [init.fork(m)])
            want = train(alone, ds.features, ds.labels, OptimizerState(learning_rate=0.05),
                         3, 8, [streams.fork(m)])
            assert result.loss_curves[m] == want.loss_curves[0]
            assert result.lr_curve == want.lr_curve
            assert np.array_equal(bits(stack.flat[m]), bits(alone.flat[0])), m

    def test_member_views_share_the_arena(self):
        stack = nn.build_members([nn.dense(2, 4), nn.activation(act.relu()), nn.dense(4, 2)],
                                 (2,), [RngStream(1), RngStream(2)])
        assert stack.flat.shape == (2, 2 * 4 + 4 + 4 * 2 + 2)
        for m in range(2):
            member = stack.with_parameters(stack.flat[m])
            assert member.parameter_count() == stack.flat.shape[1]
            for entry in member.params.values():
                for tensor in entry.values():
                    assert np.shares_memory(tensor, stack.flat[m])
            want = nn.build_network(stack.layers, (2,), RngStream(1 + m))
            assert np.array_equal(member.flat, want.flat)

    def test_stream_count_must_match_members(self):
        stack = nn.build_members([nn.dense(2, 2)], (2,), [RngStream(1), RngStream(2)])
        ds = gen_blobs(10, centers=[[0.0, 0.0], [1.0, 1.0]], sigma=0.1, seed=0)
        with pytest.raises(ContractError):
            train(stack, ds.features, ds.labels, OptimizerState(learning_rate=0.1), 1, 5,
                  [RngStream(0)])
