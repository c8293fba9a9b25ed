"""Config parsing, architecture realization, experiment reports, and suites."""

import json
import os

import numpy as np
import pytest

from rra_uq import activations as act
from rra_uq import experiments as exp
from rra_uq import network as nn
from rra_uq.errors import ConfigError, ContractError, WorkerLost
from rra_uq.training import train


DIVERGING_TRAINING = {"epochs": 30, "batch_size": 48, "learning_rate": 1e9,
                      "weight_decay": 0.0}


def blob_config(method, **overrides):
    raw = {
        "method": method,
        "architecture": "mlp-1x32",
        "dataset": {"name": "blobs", "train_size": 48, "test_size": 48,
                    "centers": [[-2.0, 0.0], [2.0, 0.0]], "sigma": 0.4},
        "training": {"epochs": 5, "batch_size": 16, "learning_rate": 0.05},
        "n_passes": 4,
        "corruptions": ["gaussian_noise"],
        "severities": [1],
        "master_seed": 3,
    }
    raw.update(overrides)
    return exp.config_from_dict(raw)


# an IDX dataset whose files `idx_files` writes into its directory
IDX_FILES = {"name": "idx", "train_images": "train-img.idx", "train_labels": "train-lab.idx",
             "test_images": "test-img.idx", "test_labels": "test-lab.idx"}


@pytest.fixture(scope="module")
def idx_files(tmp_path_factory):
    """A directory holding IDX_FILES, 12 train and 12 test 6x6 images, and
    an IDX pair with no images, empty-img.idx and empty-lab.idx."""
    from rra_uq import data as datamod
    from rra_uq.rng import RngStream

    root = tmp_path_factory.mktemp("idx")
    for split, seed in (("train", 1), ("test", 2)):
        pixels = np.rint(RngStream(seed).uniform(0.0, 255.0, (12, 1, 6, 6))) / 255.0
        datamod.write_idx(datamod.Dataset(pixels, np.arange(12) % 2, split, 2),
                          root / IDX_FILES[f"{split}_images"],
                          root / IDX_FILES[f"{split}_labels"])
    datamod.write_idx(datamod.Dataset(np.zeros((0, 1, 6, 6)), np.zeros(0), "empty", 2),
                      root / "empty-img.idx", root / "empty-lab.idx")
    return root


# generator arguments data refuses, which would otherwise fail only when the
# data is built; (dataset, the field the refusal names)
GENERATOR_REFUSALS = [
    ({"name": "two_moons", "train_size": 9}, "dataset.train_size"),
    ({"name": "two_moons", "test_size": 7}, "dataset.test_size"),
    ({"name": "two_moons", "noise": -0.1}, "dataset.noise"),
    ({"name": "blobs", "train_size": 10, "test_size": 10, "centers": [[0, 0]]},
     "dataset.centers"),
    ({"name": "blobs", "train_size": 10, "test_size": 10, "centers": [[], []]},
     "dataset.centers"),
    ({"name": "blobs", "train_size": 10, "test_size": 10, "centers": [[0, 0], [1]]},
     "dataset.centers"),
    ({"name": "blobs", "train_size": 10, "test_size": 10, "centers": [[0, 0], [1, 1]],
      "sigma": -0.5}, "dataset.sigma"),
]


class TestConfigParsing:
    def test_minimal_config_gets_defaults(self):
        cfg = exp.config_from_dict({"method": {"name": "single"}})
        assert cfg.architecture == "mlp-2x64"
        assert cfg.dataset["name"] == "two_moons"
        assert cfg.epochs == 100 and cfg.batch_size == 64
        assert cfg.n_passes == 50
        assert cfg.activation_position == "all"
        assert cfg.master_seed == 0
        assert cfg.ece_bins == 30
        assert cfg.severities == (1, 2, 3, 4, 5)

    def test_default_corruptions_by_dataset_kind(self):
        cfg = exp.config_from_dict({"method": {"name": "single"}})
        assert cfg.corruptions == ("gaussian_noise", "shot_noise",
                                   "pixel_dropout", "rotation")
        img = exp.config_from_dict({"method": {"name": "single"},
                                    "dataset": {"name": "idx",
                                                "train_images": "a",
                                                "train_labels": "b",
                                                "test_images": "c",
                                                "test_labels": "d"}})
        assert img.corruptions == ("gaussian_noise", "shot_noise",
                                   "pixel_dropout", "rotation", "blur")

    def test_method_defaults_and_labels(self):
        assert exp.config_from_dict(
            {"method": {"name": "mc_dropout"}}).method.label() == "mc_dropout(p=0.2)"
        assert exp.config_from_dict(
            {"method": {"name": "mc_droprelu"}}).method.label() == "mc_droprelu(q=0.9)"
        assert exp.config_from_dict(
            {"method": {"name": "deep_ensemble"}}).method.label() == "deep_ensemble(M=4)"
        assert exp.config_from_dict(
            {"method": {"name": "mc_rrelu"}}).method.label() == "mc_rrelu(l=0.125,u=0.333333)"

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            exp.config_from_dict({"method": {"name": "single"}, "position": "all"})

    def test_missing_method(self):
        with pytest.raises(ConfigError):
            exp.config_from_dict({})

    @pytest.mark.parametrize("raw", [
        {"method": {"name": "mc_relu"}},
        {"method": {"name": "mc_dropout", "drop_rate": 1.0}},
        {"method": {"name": "mc_droprelu", "retain_rate": 1.5}},
        {"method": {"name": "deep_ensemble", "members": 0}},
        {"method": {"name": "single"}, "architecture": "resnet"},
        {"method": {"name": "single"}, "dataset": {"name": "cifar"}},
        {"method": {"name": "single"}, "dataset": {"name": "blobs", "train_size": 10,
                                                   "test_size": 10}},
        {"method": {"name": "single"}, "dataset": {"name": "idx"}},
        {"method": {"name": "single"}, "training": {"epochs": -1}},
        {"method": {"name": "single"}, "training": {"batch_size": 0}},
        {"method": {"name": "single"}, "training": {"learning_rate": 0.0}},
        {"method": {"name": "single"}, "training": {"momentum": 1.0}},
        {"method": {"name": "single"}, "training": {"weight_decay": -0.1}},
        {"method": {"name": "single"}, "n_passes": 0},
        {"method": {"name": "single"}, "activation_position": "middle"},
        {"method": {"name": "single"}, "master_seed": -1},
        {"method": {"name": "single"}, "ece_bins": 0},
        {"method": {"name": "single"}, "severities": [0]},
        {"method": {"name": "single"}, "severities": [6]},
        {"method": {"name": "single"}, "corruptions": ["fog"]},
        # rules owned by act.rrelu and OptimizerState, applied at config load
        {"method": {"name": "mc_rrelu", "high": 1.0}},
        {"method": {"name": "single"}, "training": {"schedule": [[0.5, 0.1]]}},
        # wrong types: once bare ValueError/TypeError tracebacks
        {"method": {"name": "mc_droprelu", "retain_rate": "abc"}},
        {"method": {"name": "mc_rrelu", "low": [0.1]}},
        {"method": {"name": "single"}, "training": {"epochs": "abc"}},
        {"method": {"name": "single"}, "training": {"epochs": 2.5}},
        {"method": {"name": "single"}, "training": {"learning_rate": None}},
        {"method": {"name": "single"}, "training": {"schedule": [[0.5]]}},
        {"method": {"name": "single"}, "training": {"schedule": 0.5}},
        {"method": {"name": "single"}, "dataset": ["two_moons"]},
        {"method": {"name": "single"}, "dataset": {"name": "two_moons", "train_size": "9",
                                                   "test_size": 9}},
        {"method": {"name": "single"}, "severities": 3},
        {"method": {"name": "single"}, "corruptions": 3},
        {"method": {"name": "single"}, "training": {"learning_rate": float("inf")}},
        {"method": {"name": "single"}, "training": {"weight_decay": float("nan")}},
        {"method": {"name": "single"}, "dataset": {"name": "two_moons", "train_size": 9,
                                                   "test_size": 9, "noise": float("nan")}},
        # booleans are not integers
        {"method": {"name": "single"}, "n_passes": True},
        {"method": {"name": "single"}, "training": {"epochs": True}},
        {"method": {"name": "single"}, "training": {"batch_size": True}},
        {"method": {"name": "single"}, "master_seed": False},
        {"method": {"name": "single"}, "ece_bins": True},
        {"method": {"name": "deep_ensemble", "members": True}},
        {"method": {"name": "single"}, "severities": [True]},
        # misspelt keys at every level, which would otherwise run on defaults
        {"method": {"name": "single"}, "training": {"epoch": 5}},
        {"method": {"name": "mc_droprelu", "retain": 0.8}},
        {"method": {"name": "single"}, "dataset": {"name": "two_moons", "train_size": 9,
                                                   "test_size": 9, "nosie": 0.1}},
        # an integer path would reach open() as a file descriptor
        {"method": {"name": "single"}, "dataset": {"name": "idx", "train_images": 5,
                                                   "train_labels": "b", "test_images": "c",
                                                   "test_labels": "d"}},
        # one class would be trained as two
        {"method": {"name": "single"}, "dataset": {"name": "idx", "train_images": "a",
                                                   "train_labels": "b", "test_images": "c",
                                                   "test_labels": "d", "n_classes": 1}},
        # non-numeric centers would be a bare ValueError from numpy
        {"method": {"name": "single"}, "dataset": {"name": "blobs", "train_size": 10,
                                                   "test_size": 10,
                                                   "centers": [[0, "a"], [1, 1]]}},
        # RngStream keeps 64 bits: 2**64 would run seed 0's streams
        {"method": {"name": "single"}, "master_seed": 2 ** 64},
        # corruptions data.corrupt refuses for the feature shape, which would
        # otherwise fail only after every member trained
        {"method": {"name": "single"}, "corruptions": ["blur"]},
        {"method": {"name": "single"}, "corruptions": ["gaussian_noise", "blur"],
         "dataset": {"name": "blobs", "train_size": 10, "test_size": 10,
                     "centers": [[0, 0], [1, 1]]}},
        {"method": {"name": "single"}, "corruptions": ["rotation"],
         "dataset": {"name": "blobs", "train_size": 10, "test_size": 10,
                     "centers": [[0, 0, 0], [1, 1, 1]]}},
        # cnn-small on points, which would otherwise fail only when its row
        # runs, after the data is built
        {"method": {"name": "single"}, "architecture": "cnn-small"},
        {"method": {"name": "single"}, "architecture": "cnn-small",
         "dataset": {"name": "blobs", "train_size": 10, "test_size": 10,
                     "centers": [[0, 0, 0], [1, 1, 1]]}},
        # IDX splits larger than their files (IDX_FILES holds 12 and 12
        # images), which would otherwise run on the whole files
        {"method": {"name": "single"}, "dataset": {**IDX_FILES, "train_size": 13}},
        {"method": {"name": "single"}, "dataset": {**IDX_FILES, "test_size": 13}},
    ] + [{"method": {"name": "single"}, "dataset": dataset} for dataset, _ in GENERATOR_REFUSALS]
      # an IDX split with no images, which would otherwise reach normalize's
      # reductions (train) or train and predict nothing (test)
      + [{"method": {"name": "single"},
          "dataset": {**IDX_FILES, f"{split}_images": "empty-img.idx",
                      f"{split}_labels": "empty-lab.idx"}} for split in ("train", "test")])
    def test_validation_matrix(self, raw, idx_files, monkeypatch):
        # refused at load, or at the latest by prepare_experiment: before anything trains
        monkeypatch.chdir(idx_files)
        with pytest.raises(ConfigError):
            exp.prepare_experiment(exp.config_from_dict(raw))

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_oversize_idx_split_names_the_field(self, idx_files, monkeypatch, split):
        monkeypatch.chdir(idx_files)
        cfg = exp.config_from_dict({"method": {"name": "single"},
                                    "dataset": {**IDX_FILES, f"{split}_size": 13}})
        with pytest.raises(ConfigError, match=f"dataset.{split}_size 13 exceeds the 12"):
            exp.prepare_experiment(cfg)
        cfg.dataset[f"{split}_size"] = 12  # the whole file is allowed
        assert len(getattr(exp.prepare_experiment(cfg), f"{split}_norm")) == 12

    @pytest.mark.parametrize("dataset,field", GENERATOR_REFUSALS)
    def test_generator_refusals_name_the_field(self, dataset, field):
        with pytest.raises(ConfigError, match=field):
            exp.config_from_dict({"method": {"name": "single"}, "dataset": dataset})

    def test_largest_seed_loads(self):
        cfg = exp.config_from_dict({"method": {"name": "single"}, "master_seed": 2 ** 64 - 1})
        assert cfg.master_seed == 2 ** 64 - 1

    def test_default_corruptions_skip_rotation_off_the_plane(self):
        blobs = {"name": "blobs", "train_size": 10, "test_size": 10,
                 "centers": [[0, 0, 0], [1, 1, 1]]}
        cfg = exp.config_from_dict({"method": {"name": "single"}, "dataset": blobs})
        assert cfg.corruptions == ("gaussian_noise", "shot_noise", "pixel_dropout")

    def test_bad_json_text(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            exp.load_config(path)

    def test_config_round_trips_through_dict(self):
        cfg = blob_config({"name": "mc_droprelu", "retain_rate": 0.8})
        again = exp.config_from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestBuildArchitecture:
    def test_mlp_2x64_single_stack(self):
        layers = exp.build_architecture("mlp-2x64", (2,), 2, exp.method_spec("single"))
        kinds = [type(l).__name__ for l in layers]
        assert kinds == ["Dense", "Activation", "Dense", "Activation", "Dense"]
        assert all(l.kind.tag == "relu" for l in layers if isinstance(l, nn.Activation))
        assert layers[0].out_dim == 64 and layers[-1].out_dim == 2

    def test_droprelu_positions(self):
        method = exp.method_spec("mc_droprelu", retain_rate=0.8)
        for pos, want in (("all", ["droprelu", "droprelu"]),
                          ("first", ["droprelu", "relu"]),
                          ("last", ["relu", "droprelu"])):
            layers = exp.build_architecture("mlp-2x64", (2,), 2, method, pos)
            tags = [l.kind.tag for l in layers if isinstance(l, nn.Activation)]
            assert tags == want, pos

    def test_dropout_appends_layers_at_selected_sites(self):
        method = exp.method_spec("mc_dropout", drop_rate=0.2)
        layers = exp.build_architecture("mlp-2x64", (2,), 2, method, "last")
        kinds = [type(l).__name__ for l in layers]
        assert kinds == ["Dense", "Activation", "Dense", "Activation", "Dropout", "Dense"]
        drops = [l for l in layers if isinstance(l, nn.Dropout)]
        assert drops[0].spec.drop_rate == 0.2
        all_layers = exp.build_architecture("mlp-2x64", (2,), 2, method, "all")
        assert sum(isinstance(l, nn.Dropout) for l in all_layers) == 2

    def test_image_input_gets_flatten(self):
        layers = exp.build_architecture("mlp-1x32", (1, 4, 4), 3, exp.method_spec("single"))
        assert isinstance(layers[0], nn.Flatten)
        assert layers[1].in_dim == 16

    def test_cnn_small_structure(self):
        layers = exp.build_architecture("cnn-small", (1, 28, 28), 10,
                                        exp.method_spec("mc_droprelu", retain_rate=0.9))
        net = nn.build_network(layers, (1, 28, 28))
        assert net.output_shape() == (10,)
        tags = [l.kind.tag for l in layers if isinstance(l, nn.Activation)]
        assert tags == ["droprelu", "droprelu", "droprelu"]

    def test_cnn_small_needs_image_input(self):
        with pytest.raises(ConfigError):
            exp.build_architecture("cnn-small", (2,), 2, exp.method_spec("single"))

    def test_cnn_small_needs_5x5_images(self):
        for shape in ((1, 4, 9), (1, 9, 4), (1, 2, 2)):
            assert not exp.architecture_accepts("cnn-small", shape)
            with pytest.raises(ConfigError, match="architecture 'cnn-small'"):
                exp.build_architecture("cnn-small", shape, 2, exp.method_spec("single"))
        # the smallest: both convs leave one position
        layers = exp.build_architecture("cnn-small", (1, 5, 5), 2, exp.method_spec("single"))
        assert nn.build_network(layers, (1, 5, 5)).output_shape() == (2,)
        # an IDX set's size, unknown at config load, passes until its files are read
        assert exp.architecture_accepts("cnn-small", (1, None, None))

    def test_one_site_positions_collapse(self):
        method = exp.method_spec("mc_droprelu", retain_rate=0.7)
        first = exp.build_architecture("mlp-1x32", (2,), 2, method, "first")
        last = exp.build_architecture("mlp-1x32", (2,), 2, method, "last")
        assert tuple(first) == tuple(last)

    @pytest.mark.parametrize("arch", exp.ARCHITECTURES)
    def test_site_count_is_the_activations_built(self, arch):
        # position rows deduplicate by the sites picked out of this count
        shape = (1, 6, 6) if arch == "cnn-small" else (2,)
        layers = exp.build_architecture(arch, shape, 2, exp.method_spec("single"))
        assert exp._SITE_COUNTS[arch] == sum(isinstance(l, nn.Activation) for l in layers)

    def test_signature_distinguishes_methods(self):
        a = exp.build_architecture("mlp-1x32", (2,), 2, exp.method_spec("single"))
        b = exp.build_architecture("mlp-1x32", (2,), 2,
                                   exp.method_spec("mc_droprelu", retain_rate=0.9))
        assert tuple(a) != tuple(b)


class TestRunExperiment:
    def test_report_body_deterministic(self):
        cfg = blob_config({"name": "mc_droprelu", "retain_rate": 0.8})
        a = exp.run_experiment(cfg)
        b = exp.run_experiment(cfg)
        assert a.body_text() == b.body_text()
        assert a.status == "ok"

    def test_single_method_reports_null_diversity(self):
        rep = exp.run_experiment(blob_config({"name": "single"}))
        assert rep.body["diversity"] is None
        assert rep.body["size_multiplier"] == 1
        assert rep.body["evaluation"]["clean"]["accuracy"] >= 0.9

    def test_mc_method_diversity_protocol(self):
        cfg = blob_config({"name": "mc_droprelu", "retain_rate": 0.8}, n_passes=50)
        rep = exp.run_experiment(cfg)
        div = rep.body["diversity"]
        assert div["members"] == exp.DIVERSITY_MEMBERS
        assert div["protocol"] == "first 4 passes"
        assert div["mean_jsd"] >= 0.0

    def test_sweeps_include_clean_severity_zero(self):
        rep = exp.run_experiment(blob_config({"name": "single"}))
        acc_rows = rep.body["sweeps"]["accuracy"]
        assert acc_rows[0]["severity"] == 0
        assert acc_rows[0]["median"] == rep.body["evaluation"]["clean"]["accuracy"]
        assert [r["severity"] for r in acc_rows] == [0, 1]

    def test_corrupted_rows_cover_grid(self):
        cfg = blob_config({"name": "single"},
                          corruptions=["gaussian_noise", "pixel_dropout"],
                          severities=[1, 3])
        rep = exp.run_experiment(cfg)
        rows = rep.body["evaluation"]["corrupted"]
        assert [(r["kind"], r["severity"]) for r in rows] == [
            ("gaussian_noise", 1), ("gaussian_noise", 3),
            ("pixel_dropout", 1), ("pixel_dropout", 3)]

    def test_holds_one_corrupted_set_at_a_time(self, monkeypatch):
        import weakref

        real = exp.corrupted_eval_sets
        refs, alive_at_request = [], []

        def spy(cfg, setup):
            sets = iter(real(cfg, setup))
            while True:  # count the sets still alive each time the next is asked for
                alive_at_request.append(sum(ref() is not None for ref in refs))
                item = next(sets, None)
                if item is None:
                    return
                refs.append(weakref.ref(item[2]))
                yield item
                del item

        monkeypatch.setattr(exp, "corrupted_eval_sets", spy)
        cfg = blob_config({"name": "mc_droprelu", "retain_rate": 0.8},
                          corruptions=["gaussian_noise", "pixel_dropout"], severities=[1, 3])
        rows = exp.run_experiment(cfg).body["evaluation"]["corrupted"]
        assert len(rows) == len(refs) == 4
        assert alive_at_request == [0] * 5

    def test_parameter_count_matches_network_walk(self):
        cfg = blob_config({"name": "deep_ensemble", "members": 3})
        rep = exp.run_experiment(cfg)
        setup = exp.prepare_experiment(cfg)
        single = nn.build_network(setup.layers, setup.input_shape).parameter_count()
        assert rep.body["parameter_count"] == 3 * single
        assert rep.body["size_multiplier"] == 3

    def test_size_counts_the_trained_nets(self, monkeypatch):
        built = []
        real = nn.build_members

        def spy(layers, input_shape, rngs):
            built.append(list(rngs))
            return real(layers, input_shape, rngs)

        monkeypatch.setattr(exp.netmod, "build_members", spy)  # build_network calls it too
        rep = exp.run_experiment(blob_config({"name": "deep_ensemble", "members": 2}))
        assert rep.body["size_multiplier"] == 2
        assert len(built) == 1 and len(built[0]) == 2 and None not in built[0]  # the members only

    def test_mc_methods_are_single_model_sized(self):
        single = exp.run_experiment(blob_config({"name": "single"}))
        mc = exp.run_experiment(blob_config({"name": "mc_droprelu", "retain_rate": 0.9}))
        drop = exp.run_experiment(blob_config({"name": "mc_dropout", "drop_rate": 0.2}))
        assert mc.body["size_multiplier"] == 1
        assert drop.body["size_multiplier"] == 1
        assert mc.body["parameter_count"] == single.body["parameter_count"]

    def test_ensemble_of_one_equals_single(self):
        one = exp.run_experiment(blob_config({"name": "deep_ensemble", "members": 1}))
        single = exp.run_experiment(blob_config({"name": "single"}))
        assert one.body["evaluation"]["clean"]["accuracy"] == \
            single.body["evaluation"]["clean"]["accuracy"]
        assert one.body["evaluation"]["clean"]["ece"] == \
            single.body["evaluation"]["clean"]["ece"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported_not_raised(self):
        cfg = blob_config({"name": "single"},
                          training=DIVERGING_TRAINING)
        rep = exp.run_experiment(cfg)
        assert rep.status == "diverged"
        assert isinstance(rep.body["diverged_epoch"], int)
        assert rep.body["evaluation"] is None
        assert rep.body["sweeps"] is None
        assert rep.body["parameter_count"] is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("members,seed", [(2, 1), (3, 8)],
                             ids=["member1-before-member0", "member2-before-member1"])
    def test_divergence_keeps_the_sequential_order(self, members, seed):
        # at this rate the members' divergence epochs are out of index order:
        # a higher member, trained alone, diverges at an earlier epoch
        cfg = blob_config({"name": "deep_ensemble", "members": members}, master_seed=seed,
                          training={"epochs": 30, "batch_size": 16, "learning_rate": 3000.0})
        setup = exp.prepare_experiment(cfg)
        alone = []  # (network, divergence epoch or None) of each member trained alone
        for m in range(members):
            net = nn.build_members(setup.layers, setup.input_shape,
                                   [setup.root.fork(exp._S_INIT).fork(m)])
            result = train(net, setup.train_norm.features, setup.train_norm.labels,
                           exp._optimizer(cfg), cfg.epochs, cfg.batch_size,
                           [setup.root.fork(exp._S_TRAIN).fork(m)])
            alone.append((net, result.diverged_epoch))
        first = next(m for m, (_, epoch) in enumerate(alone) if epoch is not None)
        assert any(epoch is not None and epoch < alone[first][1]
                   for _, epoch in alone[first + 1:])
        trained = exp.train_models(cfg, setup)
        # members trained one after another stop at the first to diverge
        assert trained.status == "diverged"
        assert trained.training.diverged_epoch == alone[first][1]
        assert len(trained.nets) == len(trained.training.loss_curves) == first
        for net, (want, _) in zip(trained.nets, alone):
            assert np.array_equal(net.flat, want.flat[0])

    def test_cnn_idx_experiment(self, tmp_path):
        from rra_uq import data as datamod
        from rra_uq.rng import RngStream

        rng = RngStream(5)

        def split(n, a, b):
            px = np.rint(rng.fork(a).uniform(0.0, 1.0, (n, 1, 10, 10)) * 255.0)
            lab = (rng.fork(b).uniform(0.0, 3.0, (n,))).astype(np.int64)
            return datamod.Dataset(px / 255.0, lab, "synth", 3)

        datamod.write_idx(split(60, 0, 1), tmp_path / "tr-img", tmp_path / "tr-lab")
        datamod.write_idx(split(30, 2, 3), tmp_path / "te-img", tmp_path / "te-lab")
        cfg = exp.config_from_dict({
            "method": {"name": "mc_droprelu", "retain_rate": 0.9},
            "architecture": "cnn-small",
            "dataset": {"name": "idx",
                        "train_images": str(tmp_path / "tr-img"),
                        "train_labels": str(tmp_path / "tr-lab"),
                        "test_images": str(tmp_path / "te-img"),
                        "test_labels": str(tmp_path / "te-lab")},
            "training": {"epochs": 2, "batch_size": 16, "learning_rate": 0.05},
            "n_passes": 3,
            "corruptions": ["blur"],
            "severities": [2],
            "master_seed": 1,
        })
        rep = exp.run_experiment(cfg)
        assert rep.status == "ok"
        assert rep.body["parameter_count"] > 0
        assert rep.body["evaluation"]["corrupted"][0]["kind"] == "blur"

    def test_training_curves_recorded(self):
        cfg = blob_config({"name": "single"})
        rep = exp.run_experiment(cfg)
        members = rep.body["training"]["members"]
        assert len(members) == 1
        assert len(members[0]["loss_curve"]) == 5
        assert members[0]["final_loss"] == members[0]["loss_curve"][-1]


class TestInferenceHelpers:
    def test_predict_with_method_matches_report_metrics(self):
        cfg = blob_config({"name": "mc_droprelu", "retain_rate": 0.8})
        rep = exp.run_experiment(cfg)
        setup = exp.prepare_experiment(cfg)
        trained = exp.train_models(cfg, setup)
        ps = exp.predict_with_method(cfg, trained.nets, setup.test_norm.features,
                                     exp.inference_stream(setup))
        from rra_uq.inference import aggregate
        from rra_uq.metrics import accuracy
        got = accuracy(aggregate(ps).labels, setup.test_norm.labels)
        assert got == rep.body["evaluation"]["clean"]["accuracy"]

    @pytest.mark.parametrize("name", exp.METHOD_NAMES)
    def test_predict_makes_the_methods_pass_count(self, name):
        # n_passes stochastic passes for an MC method, one per member otherwise
        method = {"name": name, **({"members": 3} if name == "deep_ensemble" else {})}
        cfg = blob_config(method, n_passes=5, training={"epochs": 1, "batch_size": 16})
        setup = exp.prepare_experiment(cfg)
        ps = exp.predict_with_method(cfg, exp.train_models(cfg, setup).nets,
                                     setup.test_norm.features, exp.inference_stream(setup))
        want = {"single": 1, "deep_ensemble": 3}.get(name, 5)
        assert ps.n_passes == cfg.method.passes(cfg.n_passes) == want
        assert cfg.method.monte_carlo == name.startswith("mc_")

    def test_diversity_members_rules(self):
        cfg_single = blob_config({"name": "single"})
        cfg_mc = blob_config({"name": "mc_droprelu", "retain_rate": 0.8}, n_passes=50)
        cfg_ensemble = blob_config({"name": "deep_ensemble", "members": 5})

        class FakePs:
            def __init__(self, n):
                self.probs = np.ones((n, 3, 2)) / 2
                self.n_passes = n

        # a single run makes exactly one pass
        assert exp.diversity_summary(cfg_single, FakePs(1)) is None
        assert exp.diversity_summary(cfg_mc, FakePs(50))["members"] == 4
        assert exp.diversity_summary(cfg_mc, FakePs(1)) is None
        # an ensemble's summary runs over every member
        assert exp.diversity_summary(cfg_ensemble, FakePs(5))["members"] == 5


class TestSuite:
    def make_suite(self):
        return [blob_config({"name": "single"}),
                blob_config({"name": "mc_dropout", "drop_rate": 0.2}),
                blob_config({"name": "mc_droprelu", "retain_rate": 0.8})]

    def test_three_rows_in_config_order(self):
        rep = exp.run_suite(self.make_suite())
        rows = rep.body["rows"]
        assert [r["method"] for r in rows] == [
            "single", "mc_dropout(p=0.2)", "mc_droprelu(q=0.8)"]
        assert all(r["status"] == "ok" for r in rows)
        assert rows[0]["size_multiplier"] == 1
        assert set(rows[0]) == {"method", "status", "accuracy", "ece",
                                "size_multiplier", "parameter_count", "seed"}

    def test_rerun_identical_body(self):
        a = exp.run_suite(self.make_suite())
        b = exp.run_suite(self.make_suite())
        assert a.body_text() == b.body_text()

    def test_mixed_datasets_rejected(self):
        cfgs = [blob_config({"name": "single"}),
                exp.config_from_dict({"method": {"name": "single"}})]
        with pytest.raises(ContractError, match="mix"):
            exp.run_suite(cfgs)

    def test_default_dataset_equals_its_spelled_out_name(self, monkeypatch):
        monkeypatch.setattr(exp, "_usable_cpus", lambda: 1)  # rows in this process
        quick = {"training": {"epochs": 1}, "architecture": "mlp-1x32"}
        omitted = exp.config_from_dict({"method": {"name": "single"}, **quick})
        named = exp.config_from_dict({"method": {"name": "single"}, **quick,
                                      "dataset": {"name": "two_moons"}})
        rep = exp.run_suite([omitted, named])
        assert rep.body["dataset"] == omitted.dataset
        assert [row["status"] for row in rep.body["rows"]] == ["ok", "ok"]

    def test_empty_suite_rejected(self):
        with pytest.raises(ConfigError):
            exp.run_suite([])


ROW_CONFIGS = {
    "single": ({"name": "single"}, {}),
    "mc_dropout": ({"name": "mc_dropout", "drop_rate": 0.2}, {}),
    "mc_droprelu": ({"name": "mc_droprelu", "retain_rate": 0.8}, {}),
    "mc_rrelu": ({"name": "mc_rrelu"}, {}),
    "deep_ensemble": ({"name": "deep_ensemble", "members": 3}, {}),
    "diverged": ({"name": "single"}, {"training": DIVERGING_TRAINING}),
}


class TestCleanRows:
    """Suite, sweep and position rows evaluate the clean test split only."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(ROW_CONFIGS))
    def test_row_fields_equal_the_experiment_report(self, name):
        method, overrides = ROW_CONFIGS[name]
        cfg = blob_config(method, **overrides)
        fields, seconds = exp._clean_run(cfg)
        body = exp.run_experiment(cfg).body
        clean = body["evaluation"]["clean"] if body["status"] == "ok" else {}
        assert fields == {"status": body["status"], "accuracy": clean.get("accuracy"),
                          "ece": clean.get("ece"), "size_multiplier": body["size_multiplier"],
                          "parameter_count": body["parameter_count"]}
        assert set(seconds) == {"train_seconds", "inference_seconds"}
        if name == "diverged":
            assert fields["status"] == "diverged"
            assert [fields[key] for key in fields if key != "status"] == [None] * 4

    def test_no_corrupted_set_is_built(self, monkeypatch):
        from rra_uq import data as datamod

        def refuse(*args, **kwargs):
            raise AssertionError("a multi-run row built a corrupted eval set")

        monkeypatch.setattr(exp, "_usable_cpus", lambda: 1)  # rows in this process
        monkeypatch.setattr(datamod, "corrupt", refuse)
        suite = exp.run_suite([blob_config({"name": "single"}),
                               blob_config({"name": "mc_rrelu"})])
        assert [row["status"] for row in suite.body["rows"]] == ["ok", "ok"]
        base = blob_config({"name": "mc_droprelu", "retain_rate": 0.8},
                           architecture="mlp-2x64")
        for rep in (exp.q_sweep(base, [0.8, 0.9]),
                    exp.position_analysis(base, ["first", "last"])):
            assert all(row["accuracy"] is not None and row["ece"] is not None
                       for row in rep.body["rows"])

    @pytest.mark.parametrize("kind", ["suite", "sweep", "position"])
    def test_inference_seconds_beside_train_seconds(self, kind):
        base = blob_config({"name": "mc_droprelu", "retain_rate": 0.8})
        if kind == "suite":
            rep = exp.run_suite([base, blob_config({"name": "single"})])
        elif kind == "sweep":
            rep = exp.q_sweep(base, [0.8, 0.9])
        else:  # one-site network: the second row is a duplicate
            rep = exp.position_analysis(base, ["first", "last"])
        assert set(rep.timing) == {"train_seconds_per_row", "inference_seconds_per_row"}
        inference = rep.timing["inference_seconds_per_row"]
        assert len(inference) == len(rep.body["rows"]) == 2
        assert inference[0] > 0.0 and all(t >= 0.0 for t in inference)
        if kind == "position":
            assert inference[1] == rep.timing["train_seconds_per_row"][1] == 0.0
        assert "seconds" not in rep.body_text()
        assert rep.full_dict()["timing"] == rep.timing


class TestMapRows:
    BLAS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]

    @pytest.mark.parametrize("cpus, rows, share", [(2, 3, "1"), (4, 2, "2")])
    def test_workers_start_with_a_blas_thread_share(self, monkeypatch, cpus, rows, share):
        monkeypatch.setattr(exp, "_usable_cpus", lambda: cpus)
        for var in self.BLAS:
            monkeypatch.setenv(var, "9")
        assert exp._map_rows(os.getenv, (self.BLAS * rows)[:rows]) == [share] * rows
        assert [os.environ[var] for var in self.BLAS] == ["9"] * 3

    def test_caller_blas_setting_kept_where_lower(self, monkeypatch):
        monkeypatch.setattr(exp, "_usable_cpus", lambda: 6)  # 3 rows: a share of 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "8")
        assert exp._map_rows(os.getenv, self.BLAS) == ["1", "2", "2"]

    @pytest.mark.parametrize("files, cpus", [
        ({"cpu.max": "200000 100000\n"}, 2),
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu.max": "max 100000\n"}, None),
        ({"cpu/cpu.cfs_quota_us": "300000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
        ({}, None),
    ], ids=["v2_2", "v2_1.5", "v2_0.5", "v2_none", "v1_3", "v1_none", "no_files"])
    def test_cgroup_quota(self, tmp_path, files, cpus):
        (tmp_path / "cpu").mkdir()
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert exp._cgroup_cpus(str(tmp_path)) == cpus

    @pytest.mark.parametrize("quota", [1, 2, 64, None])
    def test_cgroup_quota_caps_usable_cpus(self, monkeypatch, quota):
        monkeypatch.setattr(exp, "_cgroup_cpus", lambda: quota)
        affinity = len(os.sched_getaffinity(0))
        assert exp._usable_cpus() == (affinity if quota is None else min(affinity, quota))

    def test_rows_keep_input_order(self, monkeypatch):
        monkeypatch.setattr(exp, "_usable_cpus", lambda: 2)
        assert exp._map_rows(abs, range(-5, 0)) == [5, 4, 3, 2, 1]

    def test_one_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(exp, "_usable_cpus", lambda: 1)
        assert exp._map_rows(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3

    def test_row_error_reraises_with_its_type(self, monkeypatch):
        monkeypatch.setattr(exp, "_usable_cpus", lambda: 2)
        rows = [{"method": {"name": "single"}}, {"method": {"name": "nope"}}]
        with pytest.raises(ConfigError, match="unknown method 'nope'"):
            exp._map_rows(exp.config_from_dict, rows)

    def test_lost_worker_raises_worker_lost(self, monkeypatch):
        monkeypatch.setattr(exp, "_usable_cpus", lambda: 2)
        with pytest.raises(WorkerLost, match="ended abruptly"):
            exp._map_rows(os._exit, [1, 1])

    def test_suite_leaves_the_environment_as_it_was(self, monkeypatch):
        monkeypatch.setattr(exp, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        exp.run_suite([blob_config({"name": "single"}), blob_config({"name": "mc_rrelu"})])
        assert dict(os.environ) == before


class TestPositionAnalysis:
    def test_single_position(self):
        base = blob_config({"name": "mc_droprelu", "retain_rate": 0.8},
                           architecture="mlp-2x64")
        rep = exp.position_analysis(base, ["all"])
        rows = rep.body["rows"]
        assert len(rows) == 1
        assert rows[0]["position"] == "all" and rows[0]["duplicate_of"] is None

    def test_one_site_network_dedups(self):
        base = blob_config({"name": "mc_droprelu", "retain_rate": 0.8})
        rep = exp.position_analysis(base, ["first", "last"])
        rows = rep.body["rows"]
        assert rows[0]["duplicate_of"] is None
        assert rows[1]["duplicate_of"] == "first"
        assert rows[1]["accuracy"] == rows[0]["accuracy"]
        assert rows[1]["ece"] == rows[0]["ece"]

    @pytest.mark.parametrize("arch,builds", [("mlp-2x64", 3), ("mlp-1x32", 1)],
                             ids=["distinct", "duplicates"])
    def test_each_distinct_row_builds_the_data_once(self, monkeypatch, arch, builds):
        calls = []
        real = exp._build_datasets

        def spy(cfg, root):
            calls.append(cfg.activation_position)
            return real(cfg, root)

        monkeypatch.setattr(exp, "_build_datasets", spy)
        base = blob_config({"name": "mc_droprelu", "retain_rate": 0.8}, architecture=arch)
        exp.position_analysis(base, exp.POSITIONS)
        assert calls == list(exp.POSITIONS[:builds])

    def test_requires_stochastic_activation_method(self):
        with pytest.raises(ConfigError):
            exp.position_analysis(blob_config({"name": "mc_dropout"}), ["all"])

    def test_position_validation(self):
        base = blob_config({"name": "mc_droprelu", "retain_rate": 0.8})
        with pytest.raises(ConfigError):
            exp.position_analysis(base, [])
        with pytest.raises(ConfigError):
            exp.position_analysis(base, ["center"])


class TestQSweep:
    def test_grid_rows(self):
        base = blob_config({"name": "mc_droprelu", "retain_rate": 0.9})
        rep = exp.q_sweep(base, [0.8, 0.9])
        rows = rep.body["rows"]
        assert [r["q"] for r in rows] == [0.8, 0.9]
        assert all(set(r) == {"q", "accuracy", "ece"} for r in rows)

    def test_full_retention_matches_single_baseline(self):
        # q = 1 zeroes every negative slope, so training and the 4-pass MC
        # prediction coincide exactly with the deterministic ReLU baseline
        base = blob_config({"name": "mc_droprelu", "retain_rate": 0.9})
        rep = exp.q_sweep(base, [0.5, 1.0])
        single = exp.run_experiment(blob_config({"name": "single"}))
        row = rep.body["rows"][1]
        clean = single.body["evaluation"]["clean"]
        assert row["accuracy"] == pytest.approx(clean["accuracy"], abs=1e-12)
        assert row["ece"] == pytest.approx(clean["ece"], abs=1e-12)

    def test_validation(self):
        base = blob_config({"name": "mc_droprelu", "retain_rate": 0.9})
        with pytest.raises(ConfigError):
            exp.q_sweep(base, [0.9])
        with pytest.raises(ConfigError):
            exp.q_sweep(base, [0.5, 1.5])
        with pytest.raises(ConfigError):
            exp.q_sweep(blob_config({"name": "single"}), [0.5, 0.9])


class TestReportEmission:
    def test_json_round_trip(self, tmp_path):
        rep = exp.run_experiment(blob_config({"name": "single"}))
        path = tmp_path / "report.json"
        exp.emit_report(rep, "json", path)
        parsed = json.loads(path.read_text())
        assert parsed["schema"] == "rra-uq/report/v1"
        assert parsed["status"] == "ok"
        assert parsed["diversity"] is None
        assert parsed["evaluation"]["clean"]["accuracy"] == \
            rep.body["evaluation"]["clean"]["accuracy"]
        assert "timing" in parsed

    def test_csv_flattening_and_value_parity(self, tmp_path):
        rep = exp.run_experiment(blob_config({"name": "single"}))
        path = tmp_path / "report.csv"
        exp.emit_report(rep, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "field,value"
        cells = dict(line.split(",", 1) for line in lines[1:])
        assert cells["diversity"] == "null"
        acc = rep.body["evaluation"]["clean"]["accuracy"]
        assert float(cells["evaluation.clean.accuracy"]) == acc

    def test_unknown_format_rejected(self, tmp_path):
        rep = exp.run_suite([blob_config({"name": "single"})])
        with pytest.raises(ConfigError):
            exp.emit_report(rep, "xml", tmp_path / "r.xml")
