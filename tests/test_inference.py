"""Monte-Carlo prediction, ensembles, aggregation, and the prediction file format."""

import struct

import numpy as np
import pytest

from rra_uq import activations as act
from rra_uq import experiments as exp
from rra_uq import inference
from rra_uq import network as nn
from rra_uq.errors import ContractError, DataFormatError, ParameterError
from rra_uq.inference import (PS_MAGIC, PS_VERSION, PredictiveSet, aggregate,
                              ensemble_predict, entropy_nats, load_predictive_set,
                              mc_predict, predictive_set_to_csv, save_predictive_set,
                              single_predict)
from rra_uq.rng import RngStream


def droprelu_net(seed=0, q=0.8):
    layers = [nn.dense(2, 16), nn.activation(act.droprelu(q)), nn.dense(16, 3)]
    return nn.build_network(layers, (2,), RngStream(seed))


def relu_net(seed=0):
    layers = [nn.dense(2, 16), nn.activation(act.relu()), nn.dense(16, 3)]
    return nn.build_network(layers, (2,), RngStream(seed))


def features(n=10, seed=1):
    return RngStream(seed).normal(0, 1, (n, 2))


class TestPredictiveSet:
    def test_requires_three_dims(self):
        with pytest.raises(ContractError):
            PredictiveSet(np.ones((2, 3)) / 3)

    def test_requires_at_least_one_pass(self):
        with pytest.raises(ContractError):
            PredictiveSet(np.ones((0, 2, 3)))


class TestMcPredict:
    def test_deterministic_net_gives_identical_passes(self):
        net = relu_net()
        with pytest.warns(UserWarning):
            ps = mc_predict(net, features(), n_passes=5, rng=RngStream(3))
        for i in range(1, 5):
            assert np.array_equal(ps.probs[i], ps.probs[0])

    def test_same_stream_bit_identical(self):
        net = droprelu_net()
        ps1 = mc_predict(net, features(), n_passes=50, rng=RngStream(5))
        ps2 = mc_predict(net, features(), n_passes=50, rng=RngStream(5))
        assert np.array_equal(ps1.probs, ps2.probs)

    def test_pass_count_prefix_property(self):
        # pass i depends only on the stream and i, not on the total pass count
        net = droprelu_net()
        few = mc_predict(net, features(), n_passes=2, rng=RngStream(5))
        many = mc_predict(net, features(), n_passes=6, rng=RngStream(5))
        assert np.array_equal(few.probs, many.probs[:2])

    def test_single_pass_aggregate_equals_pass(self):
        net = droprelu_net()
        ps = mc_predict(net, features(), n_passes=1, rng=RngStream(8))
        summary = aggregate(ps)
        assert np.array_equal(summary.mean_probs, ps.probs[0])
        assert np.allclose(summary.mean_class_variance, 0.0)

    def test_rows_are_distributions(self):
        net = droprelu_net()
        ps = mc_predict(net, features(50), n_passes=7, rng=RngStream(2))
        assert np.allclose(ps.probs.sum(axis=2), 1.0, atol=1e-9)
        assert (ps.probs >= 0).all()

    def test_invalid_pass_count(self):
        with pytest.raises(ParameterError):
            mc_predict(droprelu_net(), features(), n_passes=0, rng=RngStream(0))


SHAPES = {"cnn-small": (1, 9, 9), "mlp-2x64": (2,)}


def small_net(arch, method, position, seed=4):
    layers = exp.build_architecture(arch, SHAPES[arch], 3, method, position)
    return nn.build_network(layers, SHAPES[arch], RngStream(seed))


def cnn_small(method, position, seed=4):
    return small_net("cnn-small", method, position, seed)


CNN_CASES = [(exp.method_spec("mc_droprelu", retain_rate=0.7), pos)
             for pos in ("first", "last", "all")]
CNN_CASES += [(exp.method_spec("mc_dropout", drop_rate=0.3), "all"),
              (exp.method_spec("mc_rrelu"), "last")]
# the MLP's dropout sites run inside the passes, after the shared prefix
PREFIX_CASES = [pytest.param("cnn-small", m, p, id=f"{m.name}-{p}") for m, p in CNN_CASES]
PREFIX_CASES += [pytest.param("mlp-2x64", exp.method_spec(name), "all", id=f"mlp-2x64-{name}")
                 for name in ("mc_dropout", "mc_droprelu", "mc_rrelu")]


class TestMcPredictPrefix:
    """mc_predict runs the layers before the first stochastic site once."""

    @pytest.mark.parametrize("arch,method,position", PREFIX_CASES)
    def test_equals_passes_from_layer_zero(self, arch, method, position):
        # mc_predict's passes write into one workspace; these passes allocate
        net = small_net(arch, method, position)
        x = RngStream(6).normal(0, 1, (5, *SHAPES[arch]))
        ps = mc_predict(net, x, n_passes=4, rng=RngStream(12))
        for i in range(4):
            logits, trace = nn.forward(net, x, mode="eval", rng=RngStream(12).fork(i))
            assert trace is None
            assert np.array_equal(ps.probs[i], nn.softmax(logits))
        assert len({ps.probs[i].tobytes() for i in range(4)}) == 4

    @pytest.mark.parametrize("arch", sorted(SHAPES))
    def test_workspace_reused_across_batch_sizes(self, arch):
        net = small_net(arch, exp.method_spec("mc_dropout", drop_rate=0.3), "all")
        workspace = {}
        for n in (5, 3, 5):
            x = RngStream(n).normal(0, 1, (n, *SHAPES[arch]))
            before = x.copy()
            for i in range(2):
                got, _ = nn.forward(net, x, mode="eval", rng=RngStream(12).fork(i),
                                    workspace=workspace)
                want, _ = nn.forward(net, x, mode="eval", rng=RngStream(12).fork(i))
                assert np.array_equal(got, want)
            assert np.array_equal(x, before)
        # two alternating output buffers, plus the im2col matrix for a conv
        assert len(workspace) == (3 if arch == "cnn-small" else 2)

    @pytest.mark.parametrize("arch", sorted(SHAPES))
    def test_train_pass_keeps_its_trace_in_the_workspace(self, arch):
        # a train pass gives each layer buffers of its own, so the whole trace
        # stays valid until the next pass with the workspace
        net = small_net(arch, exp.method_spec("mc_dropout", drop_rate=0.3), "all")
        workspace = {}
        for n in (5, 3, 5):
            x = RngStream(n).normal(0, 1, (n, *SHAPES[arch]))
            got, trace = nn.forward(net, x, mode="train", rng=RngStream(12), workspace=workspace)
            want, ref = nn.forward(net, x, mode="train", rng=RngStream(12))
            assert np.array_equal(got, want)
            for a, b in zip(trace.entries, ref.entries):
                assert np.array_equal(a.x_in, b.x_in) and np.array_equal(a.mult, b.mult)
            upstream = RngStream(n).normal(0, 1, got.shape)
            assert np.array_equal(nn.backward(net, trace, upstream),
                                  nn.backward(net, ref, upstream))
        assert set(workspace) == set(range(len(net.layers)))

    def test_calls_dropout_forward_once_per_pass_and_site(self, monkeypatch):
        calls = []
        original = act.dropout_forward

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)
        monkeypatch.setattr(act, "dropout_forward", counting)
        net = small_net("mlp-2x64", exp.method_spec("mc_dropout"), "all")
        sites = [layer.spec for layer in net.layers if isinstance(layer, nn.Dropout)]
        assert len(sites) == 2
        mc_predict(net, features(7), n_passes=5, rng=RngStream(1))
        assert calls == sites * 5

    def test_calls_the_traced_names_per_pass_and_site(self, monkeypatch):
        # the benchmark's tracer wraps these three names; a refactor that
        # bypasses them would silently zero its per-layer metrics
        calls = {"forward": 0, "sample_mask": 0, "activate": 0}
        sampled = []

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "activate":
                    assert args[1] is sampled[-1]
                result = original(*args, **kwargs)
                if name == "sample_mask":
                    sampled.append(result)
                return result
            monkeypatch.setattr(owner, name, wrapper)

        counting(inference, "forward")
        counting(act, "sample_mask")
        counting(act, "activate")
        net = cnn_small(exp.method_spec("mc_droprelu", retain_rate=0.9), "all")
        sites = len(net.stochastic_layer_names())
        assert sites == 3
        mc_predict(net, RngStream(6).normal(0, 1, (2, 1, 9, 9)), n_passes=5, rng=RngStream(1))
        # one call for the shared prefix (conv0), then one per pass
        assert calls == {"forward": 5 + 1, "sample_mask": 5 * sites, "activate": 5 * sites}


class TestSinglePredict:
    def test_one_pass_shape(self):
        ps = single_predict(relu_net(), features())
        assert ps.probs.shape == (1, 10, 3)

    def test_droprelu_net_collapses_to_relu(self):
        # the deterministic baseline treats DropReLU sites as pure ReLU
        dnet = droprelu_net(seed=4)
        rnet = relu_net(seed=4)
        rnet.params = dnet.params
        assert np.array_equal(single_predict(dnet, features()).probs,
                              single_predict(rnet, features()).probs)


class TestEnsemblePredict:
    def test_single_member_matches_single_predict(self):
        net = relu_net(seed=2)
        ens = ensemble_predict([net], features())
        one = single_predict(net, features())
        assert np.array_equal(ens.probs, one.probs)

    def test_identical_members_zero_variance(self):
        # two members: the mean of two equal rows is exact, so the spread
        # is zero to the bit, not merely tiny
        net = relu_net(seed=3)
        ps = ensemble_predict([net, net], features())
        summary = aggregate(ps)
        assert (summary.mean_class_variance == 0.0).all()

    def test_distinct_members_disagree(self):
        nets = [relu_net(seed=s) for s in range(4)]
        ps = ensemble_predict(nets, features(40, seed=9))
        assert ps.probs.shape == (4, 40, 3)
        spread = aggregate(ps).mean_class_variance
        assert float(spread.mean()) > 0.0

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ParameterError):
            ensemble_predict([], features())

    def test_head_mismatch_rejected(self):
        a = relu_net()
        b = nn.build_network([nn.dense(2, 4), nn.dense(4, 2)], (2,), RngStream(0))
        with pytest.raises(ContractError):
            ensemble_predict([a, b], features())


class TestAggregate:
    def test_uniform_rows_hit_max_entropy(self):
        probs = np.full((3, 4, 10), 0.1)
        summary = aggregate(PredictiveSet(probs))
        assert np.allclose(summary.entropy, np.log(10.0), atol=1e-12)
        assert np.allclose(summary.mean_pass_entropy, np.log(10.0), atol=1e-12)

    def test_identical_one_hot_passes(self):
        row = np.array([[1.0, 0.0], [0.0, 1.0]])
        probs = np.stack([row, row, row])
        summary = aggregate(PredictiveSet(probs))
        assert np.array_equal(summary.labels, np.array([0, 1]))
        assert np.allclose(summary.entropy, 0.0, atol=1e-15)
        assert (summary.mean_class_variance == 0.0).all()
        assert np.allclose(summary.confidence, 1.0)

    def test_two_disjoint_one_hot_passes(self):
        probs = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        summary = aggregate(PredictiveSet(probs))
        assert np.allclose(summary.mean_probs, [[0.5, 0.5]])
        assert np.allclose(summary.entropy, [np.log(2.0)], atol=1e-12)
        # population variance of {0, 1} is 0.25 in each class
        assert np.allclose(summary.mean_class_variance, 0.25, atol=1e-15)
        assert np.allclose(summary.mean_pass_entropy, 0.0, atol=1e-15)

    def test_pass_permutation_bit_invariance(self):
        raw = RngStream(7).uniform(0, 1, (6, 5, 4))
        probs = raw / raw.sum(axis=2, keepdims=True)
        base = aggregate(PredictiveSet(probs))
        perm = aggregate(PredictiveSet(probs[[3, 0, 5, 1, 4, 2]]))
        assert np.array_equal(base.mean_probs, perm.mean_probs)
        assert np.array_equal(base.entropy, perm.entropy)
        assert np.array_equal(base.mean_class_variance, perm.mean_class_variance)
        assert np.array_equal(base.mean_pass_entropy, perm.mean_pass_entropy)
        assert np.array_equal(base.labels, perm.labels)

    def test_entropy_bounds_and_uniform_attainment(self):
        raw = RngStream(8).uniform(0, 1, (3, 50, 6))
        probs = raw / raw.sum(axis=2, keepdims=True)
        summary = aggregate(PredictiveSet(probs))
        assert (summary.entropy >= 0.0).all()
        assert (summary.entropy <= np.log(6.0)).all()
        gap = np.abs(summary.mean_probs - 1.0 / 6.0).max(axis=1)
        at_max = np.abs(summary.entropy - np.log(6.0)) < 1e-12
        assert np.array_equal(at_max, gap < 1e-12)

    def test_entropy_nats_convention(self):
        assert entropy_nats(np.array([[0.0, 1.0]]))[0] == 0.0
        assert entropy_nats(np.array([[0.5, 0.5]]))[0] == pytest.approx(np.log(2), abs=1e-15)


STAMP = bytes(range(32))  # stands for the SHA-256 of a training config


def ps_header(n_passes, n, c, version=PS_VERSION, stamp=STAMP) -> bytes:
    return PS_MAGIC + struct.pack("<Q", version) + stamp + struct.pack("<QQQ", n_passes, n, c)


class TestPredictionFile:
    def test_round_trip_bit_exact(self, tmp_path):
        net = droprelu_net()
        ps = mc_predict(net, features(), n_passes=4, rng=RngStream(6))
        path = tmp_path / "pred.bin"
        save_predictive_set(ps, STAMP, path)
        assert path.read_bytes()[:len(ps_header(4, 10, 3))] == ps_header(4, 10, 3)
        loaded = load_predictive_set(path, STAMP)
        assert np.array_equal(loaded.probs.view(np.uint64), ps.probs.view(np.uint64))

    def test_other_stamp_refused_naming_both(self, tmp_path):
        path = tmp_path / "stale.bin"
        save_predictive_set(PredictiveSet(np.full((1, 1, 2), 0.5)), STAMP, path)
        other = bytes(32)
        with pytest.raises(DataFormatError) as err:
            load_predictive_set(path, other)
        assert STAMP.hex() in str(err.value) and other.hex() in str(err.value)

    def test_bad_version_rejected(self, tmp_path):
        # version 1 had no stamp; it is refused, as is any later version
        path = tmp_path / "ver.bin"
        for version in (1, PS_VERSION + 1):
            path.write_bytes(ps_header(1, 1, 2, version) + struct.pack("<2d", 0.5, 0.5))
            with pytest.raises(DataFormatError, match=f"version {version}"):
                load_predictive_set(path, STAMP)

    @pytest.mark.parametrize("value,reason", [(np.nan, "non-finite"), (0.75, "deviate")],
                             ids=["nan", "row_off_1"])
    def test_payload_that_is_no_predictive_set_rejected(self, tmp_path, value, reason):
        # the right size, but not probabilities: a file-format error naming the file
        path = tmp_path / "bad.bin"
        path.write_bytes(ps_header(1, 1, 2) + struct.pack("<2d", value, 0.5))
        with pytest.raises(DataFormatError, match=reason) as err:
            load_predictive_set(path, STAMP)
        assert str(path) in str(err.value)

    def test_csv_enumeration(self):
        probs = np.array([[[0.25, 0.75]], [[0.5, 0.5]]])
        text = predictive_set_to_csv(PredictiveSet(probs))
        lines = text.strip().split("\n")
        assert lines[0] == "pass,sample,class,prob"
        assert len(lines) == 1 + 2 * 1 * 2
        assert lines[1] == "0,0,0,0.25"
