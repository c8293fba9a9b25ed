"""End-to-end command-line workflows, artifact layout, and exit codes."""

import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from rra_uq import cli
from rra_uq import data as datamod
from rra_uq import experiments as exp
from rra_uq.checkpoint import MAGIC, load_checkpoint
from rra_uq.cli import main
from rra_uq.errors import DimensionError
from rra_uq.inference import (PS_LAYOUT, PredictiveSet, load_predictive_set,
                              save_predictive_set)

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

RAW = {
    "method": {"name": "mc_droprelu", "retain_rate": 0.8},
    "architecture": "mlp-1x32",
    "dataset": {"name": "blobs", "train_size": 48, "test_size": 48,
                "centers": [[-2.0, 0.0], [2.0, 0.0]], "sigma": 0.4},
    "training": {"epochs": 5, "batch_size": 16, "learning_rate": 0.05},
    "n_passes": 4,
    "corruptions": ["gaussian_noise"],
    "severities": [1],
    "master_seed": 3,
}


def write_config(tmp_path, raw=RAW, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def stamp(raw=RAW):
    return exp.training_digest(exp.config_from_dict(raw))


def kept_rows(out_dir, raw=RAW):
    return load_checkpoint(os.path.join(out_dir, "members.ckpt"), stamp(raw))


def read_report(out_dir, stem):
    with open(os.path.join(out_dir, f"{stem}.json")) as fh:
        return json.load(fh)


class TestTrainPredictMetricsChain:
    def test_full_chain(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = str(tmp_path / "run")

        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        train_rep = read_report(out, "report-train")
        assert train_rep["schema"] == "rra-uq/train/v1"
        assert train_rep["status"] == "ok"
        assert train_rep["parameter_count"] == kept_rows(out).size > 0
        assert train_rep["checkpoint"] == "members.ckpt"
        assert train_rep["config_digest"] == stamp().hex()
        assert len(train_rep["members"][0]["loss_curve"]) == 5

        assert main(["predict", "--config", cfg_path, "--out", out]) == 0
        ps = load_predictive_set(os.path.join(out, "predictions.bin"), stamp())
        assert ps.probs.shape == (4, 48, 2)
        pred_rep = read_report(out, "report-predict")
        assert pred_rep["n_passes"] == 4
        assert pred_rep["n_samples"] == 48

        assert main(["metrics", "--config", cfg_path, "--out", out]) == 0
        with open(os.path.join(out, "reliability.csv")) as fh:
            assert fh.readline().strip() == "bin_lo,bin_hi,count,confidence,accuracy"
        met_rep = read_report(out, "report-metrics")
        assert met_rep["schema"] == "rra-uq/metrics/v1"

        # the chained artifacts must reproduce the library's clean metrics
        clean = exp.run_experiment(exp.config_from_dict(RAW)).body["evaluation"]["clean"]
        assert met_rep["accuracy"] == clean["accuracy"]
        assert met_rep["ece"] == clean["ece"]
        assert met_rep["mean_entropy"] == clean["mean_entropy"]
        assert met_rep["diversity"]["members"] == 4

    def test_loaded_members_fill_their_parameter_buffers(self, tmp_path):
        raw = {**RAW, "method": {"name": "deep_ensemble", "members": 2}}
        cfg_path = write_config(tmp_path, raw)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        cfg = exp.load_config(cfg_path)
        setup = exp.prepare_experiment(cfg)
        loaded = cli._load_members(cfg, setup, out, exp.training_digest(cfg))
        trained = exp.train_models(cfg, setup).nets
        for net, want in zip(loaded, trained):
            assert all(np.shares_memory(tensor, net.flat)
                       for entry in net.params.values() for tensor in entry.values())
            assert np.array_equal(net.flat, want.flat)
        x = setup.test_norm.features
        got = exp.predict_with_method(cfg, loaded, x, exp.inference_stream(setup)).probs
        want = exp.predict_with_method(cfg, trained, x, exp.inference_stream(setup)).probs
        assert np.array_equal(got, want)

    def test_csv_format_adds_flat_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out,
                     "--format", "csv"]) == 0
        assert os.path.exists(os.path.join(out, "report-train.csv"))
        assert main(["predict", "--config", cfg_path, "--out", out,
                     "--format", "csv"]) == 0
        csv_path = os.path.join(out, "predictions.csv")
        with open(csv_path) as fh:
            assert fh.readline().strip() == "pass,sample,class,prob"

    def test_seed_override_echoed(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out,
                     "--seed", "11"]) == 0
        rep = read_report(out, "report-train")
        assert rep["config"]["master_seed"] == 11

    def test_predict_without_checkpoint_is_io_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = str(tmp_path / "empty")
        assert main(["predict", "--config", cfg_path, "--out", out]) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_rerun_leaves_no_stale_member(self, tmp_path, capsys):
        # seed 8 at this rate keeps member 0 only (test_golden's diverged pins)
        raw = {**RAW, "method": {"name": "deep_ensemble", "members": 3}, "master_seed": 8}
        out = str(tmp_path / "run")
        assert main(["train", "--config", write_config(tmp_path, raw), "--out", out]) == 0
        assert main(["predict", "--config", write_config(tmp_path, raw), "--out", out]) == 0
        diverging = {**raw, "training": {"epochs": 30, "batch_size": 16,
                                         "learning_rate": 3000.0}}
        cfg_path = write_config(tmp_path, diverging, "diverging.json")
        assert main(["train", "--config", cfg_path, "--out", out]) == 3
        assert len(kept_rows(out, diverging)) == 1
        assert not os.path.exists(os.path.join(out, "predictions.bin"))
        capsys.readouterr()
        assert main(["predict", "--config", cfg_path, "--out", out]) == 4
        assert ("keeps 1 of the 3 members this config trains: member 1 diverged"
                in capsys.readouterr().err)

    def test_new_training_drops_old_predictions(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        assert main(["predict", "--config", cfg_path, "--out", out, "--format", "csv"]) == 0
        assert main(["train", "--config", cfg_path, "--out", out, "--seed", "5"]) == 0
        for name in ("predictions.bin", "predictions.csv"):
            assert not os.path.exists(os.path.join(out, name))
        assert main(["metrics", "--config", cfg_path, "--out", out, "--seed", "5"]) == 4

    def test_smaller_ensemble_drops_the_extra_checkpoints(self, tmp_path):
        out = str(tmp_path / "run")
        for members in (5, 3):
            raw = {**RAW, "method": {"name": "deep_ensemble", "members": members}}
            assert main(["train", "--config", write_config(tmp_path, raw), "--out", out]) == 0
        assert [name for name in os.listdir(out) if name.endswith(".ckpt")] == ["members.ckpt"]
        assert len(kept_rows(out, raw)) == 3

    def test_new_training_drops_every_later_report(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = str(tmp_path / "run")
        os.makedirs(out)
        (tmp_path / "run" / "notes.txt").write_text("mine")
        for stage in ("train", "predict", "metrics"):
            assert main([stage, "--config", cfg_path, "--out", out, "--format", "csv"]) == 0
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        assert sorted(os.listdir(out)) == ["members.ckpt", "notes.txt", "report-train.json"]

    def test_new_predictions_drop_the_old_metrics(self, tmp_path):
        out = str(tmp_path / "run")
        three = write_config(tmp_path, {**RAW, "n_passes": 3}, "three.json")
        for stage in ("train", "predict", "metrics"):
            assert main([stage, "--config", three, "--out", out]) == 0
        five = write_config(tmp_path, {**RAW, "n_passes": 5}, "five.json")
        assert main(["predict", "--config", five, "--out", out]) == 0
        assert sorted(os.listdir(out)) == ["members.ckpt", "predictions.bin",
                                           "report-predict.json", "report-train.json"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_each_stage_writes_only_what_it_clears(self, tmp_path, fmt):
        # a stage clears the names in cli._STAGE_FILES; an artifact outside
        # them would outlive the run that wrote it
        raw = {**RAW, "method": {"name": "deep_ensemble", "members": 2}}
        cfg_path = write_config(tmp_path, raw)
        out = str(tmp_path / "run")
        os.makedirs(out)
        for stage, pattern in cli._STAGE_FILES.items():
            before = set(os.listdir(out))
            assert main([stage, "--config", cfg_path, "--out", out, "--format", fmt]) == 0
            written = set(os.listdir(out)) - before
            assert written and all(re.fullmatch(pattern, name) for name in written)

    def test_corrupt_predictions_is_io_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        assert main(["predict", "--config", cfg_path, "--out", out]) == 0
        bin_path = os.path.join(out, "predictions.bin")
        blob = open(bin_path, "rb").read()
        with open(bin_path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        assert main(["metrics", "--config", cfg_path, "--out", out]) == 4

    @pytest.mark.parametrize("value,reason", [(np.nan, "non-finite"), (0.75, "deviate")],
                             ids=["nan", "row_off_1"])
    def test_predictions_that_are_no_predictive_set_exit_4(self, tmp_path, capsys, value,
                                                           reason):
        # the right size and stamp, but the first probability is NaN or its row
        # sums to 1.25: a malformed artifact
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        bin_path = out / "predictions.bin"
        probs = np.full((4, RAW["dataset"]["test_size"], 2), 0.5)
        save_predictive_set(PredictiveSet(probs), stamp(), bin_path)
        blob = bytearray(bin_path.read_bytes())
        at = struct.calcsize(PS_LAYOUT.head)
        blob[at:at + 8] = struct.pack("<d", value)
        bin_path.write_bytes(bytes(blob))
        assert main(["metrics", "--config", cfg_path, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert str(bin_path) in err and reason in err
        assert not (out / "report-metrics.json").exists()

    def test_metrics_rejects_class_count_mismatch(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = str(tmp_path / "run")
        os.makedirs(out)
        probs = np.full((4, RAW["dataset"]["test_size"], 5), 0.2)
        save_predictive_set(PredictiveSet(probs), stamp(), os.path.join(out, "predictions.bin"))
        assert main(["metrics", "--config", cfg_path, "--out", out]) == 2
        assert "5 classes but the dataset has 2" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "report-metrics.json"))

    @pytest.mark.parametrize("change,want", [({"method": {"name": "single"}}, 1),
                                             ({"n_passes": 50}, 50),
                                             ({"method": {"name": "deep_ensemble",
                                                          "members": 3}}, 3)],
                             ids=["single", "more-passes", "members"])
    def test_metrics_rejects_pass_count_mismatch(self, tmp_path, capsys, change, want):
        # a 4-pass mc_droprelu set read with a config that makes another count
        cfg_path = write_config(tmp_path, {**RAW, **change})
        out = str(tmp_path / "run")
        os.makedirs(out)
        probs = np.full((4, RAW["dataset"]["test_size"], 2), 0.5)
        save_predictive_set(PredictiveSet(probs), stamp({**RAW, **change}),
                            os.path.join(out, "predictions.bin"))
        assert main(["metrics", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "4 passes" in err and f"makes {want}" in err
        assert not os.path.exists(os.path.join(out, "report-metrics.json"))


# changes to RAW that train another network
STALE = {"dataset": {"dataset": {**RAW["dataset"], "sigma": 0.6}},
         "seed": {"master_seed": 5},
         "method": {"method": {"name": "mc_rrelu"}}}
# changes to RAW's eval-only fields
EVAL_ONLY = {"n_passes": {"n_passes": 7}, "ece_bins": {"ece_bins": 5},
             "corruptions": {"corruptions": ["rotation"]}, "severities": {"severities": [3]}}


class TestStaleArtifacts:
    """Each file is stamped with `exp.training_digest` of the config that
    trained its network, and a stage refuses another config's file."""

    @pytest.mark.parametrize("change", STALE.values(), ids=list(STALE))
    def test_checkpoint_of_another_config_exits_4(self, tmp_path, capsys, change):
        out = str(tmp_path / "run")
        assert main(["train", "--config", write_config(tmp_path), "--out", out]) == 0
        other = write_config(tmp_path, {**RAW, **change}, "other.json")
        capsys.readouterr()
        assert main(["predict", "--config", other, "--out", out]) == 4
        err = capsys.readouterr().err
        assert stamp().hex() in err and stamp({**RAW, **change}).hex() in err
        assert sorted(os.listdir(out)) == ["members.ckpt", "report-train.json"]

    def test_seed_flag_counts_as_the_config_seed(self, tmp_path):
        out = str(tmp_path / "run")
        cfg_path = write_config(tmp_path)
        assert main(["train", "--config", cfg_path, "--out", out, "--seed", "5"]) == 0
        assert main(["predict", "--config", cfg_path, "--out", out]) == 4
        assert main(["predict", "--config", cfg_path, "--out", out, "--seed", "5"]) == 0

    @pytest.mark.parametrize("change", STALE.values(), ids=list(STALE))
    def test_predictions_of_another_config_exit_4(self, tmp_path, capsys, change):
        out = str(tmp_path / "run")
        for stage in ("train", "predict"):
            assert main([stage, "--config", write_config(tmp_path), "--out", out]) == 0
        other = write_config(tmp_path, {**RAW, **change}, "other.json")
        capsys.readouterr()
        assert main(["metrics", "--config", other, "--out", out]) == 4
        err = capsys.readouterr().err
        assert stamp().hex() in err and stamp({**RAW, **change}).hex() in err
        assert not os.path.exists(os.path.join(out, "report-metrics.json"))

    @pytest.mark.parametrize("change", EVAL_ONLY.values(), ids=list(EVAL_ONLY))
    def test_eval_only_fields_keep_the_checkpoint(self, tmp_path, change):
        out = str(tmp_path / "run")
        assert main(["train", "--config", write_config(tmp_path), "--out", out]) == 0
        other = write_config(tmp_path, {**RAW, **change}, "other.json")
        for stage in ("predict", "metrics"):
            assert main([stage, "--config", other, "--out", out]) == 0

    def test_dataset_defaults_spelt_out_keep_the_checkpoint(self, tmp_path):
        out = str(tmp_path / "run")
        short = {**RAW, "dataset": {"name": "two_moons"}}
        spelt = {**RAW, "dataset": {"name": "two_moons", "train_size": 400,
                                    "test_size": 400, "noise": 0.12}}
        assert stamp(short) == stamp(spelt)
        assert main(["train", "--config", write_config(tmp_path, short), "--out", out]) == 0
        assert main(["predict", "--config", write_config(tmp_path, spelt, "spelt.json"),
                     "--out", out]) == 0

    def test_idx_images_rewritten_under_their_names_exit_4(self, tmp_path, capsys):
        # the stamp covers the files' contents, not only their paths
        pixels = (np.arange(8 * 6 * 6) % 256).reshape(8, 1, 6, 6) / 255.0
        paths = {key: str(tmp_path / key) for key in exp._IDX_FILES}
        for split in ("train", "test"):
            datamod.write_idx(datamod.Dataset(pixels, np.arange(8) % 2, "tiny", 2),
                              paths[f"{split}_images"], paths[f"{split}_labels"])
        raw = {**RAW, "dataset": {"name": "idx", **paths}, "corruptions": []}
        cfg_path, out = write_config(tmp_path, raw), str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        trained = stamp(raw)
        datamod.write_idx(datamod.Dataset(pixels[::-1], np.arange(8) % 2, "tiny", 2),
                          paths["train_images"], paths["train_labels"])
        assert stamp(raw) != trained
        capsys.readouterr()
        assert main(["predict", "--config", cfg_path, "--out", out]) == 4
        err = capsys.readouterr().err
        assert trained.hex() in err and stamp(raw).hex() in err

    @pytest.mark.parametrize("name", ["members.ckpt", "predictions.bin"])
    def test_version_1_file_exits_4(self, tmp_path, capsys, name):
        out = str(tmp_path / "run")
        cfg_path = write_config(tmp_path)
        for stage in ("train", "predict"):
            assert main([stage, "--config", cfg_path, "--out", out]) == 0
        path = os.path.join(out, name)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[12 if name == "members.ckpt" else 8] = 1  # the version field's low byte
        with open(path, "wb") as fh:
            fh.write(blob)
        stage = "predict" if name == "members.ckpt" else "metrics"
        capsys.readouterr()
        assert main([stage, "--config", cfg_path, "--out", out]) == 4
        assert "version 1" in capsys.readouterr().err

    def test_member_files_of_version_1_are_neither_read_nor_deleted(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        old = MAGIC + (1).to_bytes(4, "little") + bytes(8)  # a version-1 file, no records
        (out / "member0.ckpt").write_bytes(old)
        cfg_path = write_config(tmp_path)
        assert main(["predict", "--config", cfg_path, "--out", str(out)]) == 4
        assert "members.ckpt" in capsys.readouterr().err
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        assert (out / "member0.ckpt").read_bytes() == old


class TestErrorExits:
    @pytest.mark.parametrize("side", [2, 4])
    def test_cnn_small_on_too_small_images_exits_2(self, tmp_path, capsys, side):
        # its 3x3 conv, then its 3x3 stride-2 conv, need 5x5 images; an IDX
        # set's size is known only once its files are read
        pixels = (np.arange(8 * side * side) % 256).reshape(8, 1, side, side) / 255.0
        paths = {key: str(tmp_path / key) for key in
                 ("train_images", "train_labels", "test_images", "test_labels")}
        for split in ("train", "test"):
            datamod.write_idx(datamod.Dataset(pixels, np.arange(8) % 2, "tiny", 2),
                              paths[f"{split}_images"], paths[f"{split}_labels"])
        raw = {**RAW, "architecture": "cnn-small", "dataset": {"name": "idx", **paths}}
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "architecture 'cnn-small'" in err and f"(1, {side}, {side})" in err
        assert not (out / "members.ckpt").exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_oversize_idx_split_exits_2(self, tmp_path, capsys, split):
        pixels = (np.arange(8 * 6 * 6) % 256).reshape(8, 1, 6, 6) / 255.0
        paths = {key: str(tmp_path / key) for key in
                 ("train_images", "train_labels", "test_images", "test_labels")}
        for part in ("train", "test"):
            datamod.write_idx(datamod.Dataset(pixels, np.arange(8) % 2, "tiny", 2),
                              paths[f"{part}_images"], paths[f"{part}_labels"])
        raw = {**RAW, "dataset": {"name": "idx", **paths, f"{split}_size": 9}}
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 2
        assert f"dataset.{split}_size 9 exceeds the 8 samples" in capsys.readouterr().err
        assert not (out / "members.ckpt").exists()

    @pytest.mark.parametrize("stage", ["train", "predict", "metrics"])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_idx_split_exits_2(self, tmp_path, capsys, split, stage):
        # the stages before `stage` ran on full files; `stage` then reads a
        # config whose `split` files hold no images, and must write nothing
        pixels = (np.arange(8 * 6 * 6) % 256).reshape(8, 1, 6, 6) / 255.0
        paths = {key: str(tmp_path / key) for key in
                 ("train_images", "train_labels", "test_images", "test_labels")}
        for part in ("train", "test"):
            datamod.write_idx(datamod.Dataset(pixels, np.arange(8) % 2, "tiny", 2),
                              paths[f"{part}_images"], paths[f"{part}_labels"])
        empty = {f"{split}_images": str(tmp_path / "empty-img"),
                 f"{split}_labels": str(tmp_path / "empty-lab")}
        datamod.write_idx(datamod.Dataset(pixels[:0], np.arange(0), "empty", 2),
                          empty[f"{split}_images"], empty[f"{split}_labels"])
        full = write_config(tmp_path, {**RAW, "dataset": {"name": "idx", **paths}}, "full.json")
        bad = write_config(tmp_path, {**RAW, "dataset": {"name": "idx", **paths, **empty}},
                           "empty.json")
        out = tmp_path / "o"
        stages = list(cli._STAGE_FILES)
        for earlier in stages[:stages.index(stage)]:
            assert main([earlier, "--config", full, "--out", str(out)]) == 0
        os.makedirs(out, exist_ok=True)
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        capsys.readouterr()
        assert main([stage, "--config", bad, "--out", str(out)]) == 2
        assert f"dataset.{split}_images holds no images" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_test_labels_beyond_the_train_classes_exit_2(self, tmp_path, capsys):
        # without dataset.n_classes each file infers its own class count, and a
        # 2-output head could never score a test label of 2
        pixels = (np.arange(8 * 6 * 6) % 256).reshape(8, 1, 6, 6) / 255.0
        paths = {key: str(tmp_path / key) for key in
                 ("train_images", "train_labels", "test_images", "test_labels")}
        for split, classes in (("train", 2), ("test", 3)):
            datamod.write_idx(datamod.Dataset(pixels, np.arange(8) % classes, "tiny", classes),
                              paths[f"{split}_images"], paths[f"{split}_labels"])
        raw = {**RAW, "dataset": {"name": "idx", **paths}, "corruptions": []}
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 2
        assert "dataset.n_classes" in capsys.readouterr().err
        assert not (out / "members.ckpt").exists()
        raw["dataset"]["n_classes"] = 3
        assert main(["train", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0

    def test_every_library_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(args):
            raise DimensionError("layer 'conv0': 2x2 input smaller than 3x3 kernel")
        monkeypatch.setitem(cli._COMMANDS, "train", fail)
        assert main(["train", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: layer 'conv0': 2x2 input smaller than 3x3 kernel\n")

    @pytest.mark.parametrize("make", [
        MemoryError,
        lambda: array_memory_error((10 ** 12, 400, 2), np.dtype(np.float64)),
    ], ids=["MemoryError", "numpy"])
    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch, make):
        def fail(args):
            raise make()
        monkeypatch.setitem(cli._COMMANDS, "predict", fail)
        assert main(["predict", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    @pytest.mark.parametrize("change,field", [
        ({"n_passes": 2 ** 40}, "n_passes"),
        ({"ece_bins": 2 ** 40}, "ece_bins"),
        ({"method": {"name": "deep_ensemble", "members": 2 ** 40}}, "method.members"),
    ], ids=["n_passes", "ece_bins", "members"])
    @pytest.mark.parametrize("stage", ["train", "predict", "metrics"])
    def test_count_beyond_any_machine_exits_2(self, tmp_path, capsys, change, field, stage):
        # refused when the config loads, before anything allocates or is written
        out = tmp_path / "o"
        cfg_path = write_config(tmp_path, {**RAW, **change})
        assert main([stage, "--config", cfg_path, "--out", str(out)]) == 2
        assert f"{field} must be at most {2 ** 40 - 1}" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_malformed_json_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_method(self, tmp_path):
        cfg_path = write_config(tmp_path, {**RAW, "method": {"name": "bayes"}})
        assert main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("change", [
        {"method": {"name": "mc_droprelu", "retain_rate": "abc"}},
        {"training": {"epochs": "abc"}},
        {"training": {"schedule": [[0.5]]}},
        {"n_passes": True},
    ], ids=["retain_rate_text", "epochs_text", "schedule_pair_short", "n_passes_bool"])
    def test_wrong_type_config_exits_2(self, tmp_path, capsys, change):
        cfg_path = write_config(tmp_path, {**RAW, **change})
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "must be" in capsys.readouterr().err

    def test_dropout_rate_one_exits_2(self, tmp_path, capsys):
        raw = {**RAW, "method": {"name": "mc_dropout", "drop_rate": 1.0}}
        cfg_path = write_config(tmp_path, raw)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "[0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "suite", "variance-check"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        # --seed follows the configs' master_seed rule; RngStream would
        # silently mask -1 to the seed 2**64 - 1
        out = tmp_path / "o"
        raw = {"experiments": [RAW]} if command == "suite" else RAW
        config = [] if command == "variance-check" else ["--config", write_config(tmp_path, raw)]
        argv = [command, *config, "--out", str(out), "--seed", "-1"]
        assert main(argv) == 2
        assert "--seed must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_beyond_64_bits_exits_2(self, tmp_path, capsys):
        # 2**64 would run the streams of seed 0 and report another seed
        out = tmp_path / "o"
        argv = ["train", "--config", write_config(tmp_path), "--out", str(out),
                "--seed", "18446744073709551616"]
        assert main(argv) == 2
        assert "--seed must be at most 18446744073709551615" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "suite"])
    def test_non_utf8_config_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"method": {"name": "single"}, "architecture": "caf\xe9"}')
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "can't decode" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_and_report(self, tmp_path):
        raw = dict(RAW)
        raw["training"] = {"epochs": 30, "batch_size": 48, "learning_rate": 1e9}
        cfg_path = write_config(tmp_path, raw)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 3
        rep = read_report(out, "report-train")
        assert rep["status"] == "diverged"
        assert isinstance(rep["diverged_epoch"], int)
        # no usable member was kept
        assert len(kept_rows(out, raw)) == 0


class TestVarianceCheck:
    def test_report_and_scan_artifact(self, tmp_path):
        out = str(tmp_path / "var")
        assert main(["variance-check", "--out", out]) == 0
        rep = read_report(out, "report-variance")
        assert rep["schema"] == "rra-uq/variance/v1"
        assert rep["all_within_3se"] is True
        assert rep["scan_cells"] == 50
        assert rep["scan_dominant_in_region"] == rep["scan_cells_in_region"]
        with open(os.path.join(out, "dominance-scan.csv")) as fh:
            header = fh.readline().strip()
            n_rows = sum(1 for _ in fh)
        assert header == "p,q,var_dropout,se_dropout,var_droprelu,se_droprelu,dominant"
        assert n_rows == 50

    def test_seed_changes_numbers_not_verdict(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["variance-check", "--out", out_a, "--seed", "1"]) == 0
        assert main(["variance-check", "--out", out_b, "--seed", "2"]) == 0
        a = read_report(out_a, "report-variance")
        b = read_report(out_b, "report-variance")
        assert a["all_within_3se"] and b["all_within_3se"]
        assert a["checks"][0]["empirical"] != b["checks"][0]["empirical"]

    def test_config_refused(self, tmp_path):
        # it reads no config, so one passed was once silently ignored
        with pytest.raises(SystemExit) as exc:
            main(["variance-check", "--config", write_config(tmp_path),
                  "--out", str(tmp_path / "var")])
        assert exc.value.code == 2


class TestSweepAndPosition:
    def test_sweep_covers_reference_grid(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
        rep = read_report(out, "report-qsweep")
        assert rep["schema"] == "rra-uq/qsweep/v1"
        assert [r["q"] for r in rep["rows"]] == [0.8, 0.85, 0.9, 0.95]

    def test_sweep_requires_droprelu(self, tmp_path):
        cfg_path = write_config(tmp_path, {**RAW, "method": {"name": "single"}})
        assert main(["sweep", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2

    def test_position_reports_all_three(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = str(tmp_path / "pos")
        assert main(["position", "--config", cfg_path, "--out", out]) == 0
        rep = read_report(out, "report-position")
        assert rep["schema"] == "rra-uq/position/v1"
        rows = rep["rows"]
        assert [r["position"] for r in rows] == ["all", "first", "last"]
        # one hidden layer: every position realizes the same network
        assert rows[1]["duplicate_of"] == "all"
        assert rows[2]["duplicate_of"] == "all"

    def test_position_rejects_dropout_method(self, tmp_path):
        cfg_path = write_config(tmp_path, {**RAW, "method": {"name": "mc_dropout"}})
        assert main(["position", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,stem", [("sweep", "report-qsweep"),
                                              ("position", "report-position")])
    def test_diverged_rows_exit_3(self, tmp_path, command, stem):
        raw = {**RAW, "training": {"epochs": 30, "batch_size": 48, "learning_rate": 1e9}}
        cfg_path = write_config(tmp_path, raw)
        out = str(tmp_path / command)
        assert main([command, "--config", cfg_path, "--out", out]) == 3
        rows = read_report(out, stem)["rows"]  # still written
        assert rows and all(r["accuracy"] is None and r["ece"] is None for r in rows)


class TestSuiteCommand:
    def suite_raw(self):
        return {"experiments": [
            {**RAW, "method": {"name": "single"}},
            {**RAW, "method": {"name": "mc_droprelu", "retain_rate": 0.8}},
        ]}

    def test_suite_rows_and_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path, self.suite_raw(), "suite.json")
        out = str(tmp_path / "suite")
        assert main(["suite", "--config", cfg_path, "--out", out,
                     "--seed", "7"]) == 0
        rep = read_report(out, "report-suite")
        assert rep["schema"] == "rra-uq/suite/v1"
        assert [r["method"] for r in rep["rows"]] == ["single", "mc_droprelu(q=0.8)"]
        assert all(r["seed"] == 7 for r in rep["rows"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_suite_divergent_member_exits_3(self, tmp_path):
        raw = self.suite_raw()
        raw["experiments"][1] = {
            **RAW, "training": {"epochs": 30, "batch_size": 48,
                                "learning_rate": 1e9}}
        cfg_path = write_config(tmp_path, raw, "suite.json")
        out = str(tmp_path / "suite")
        assert main(["suite", "--config", cfg_path, "--out", out]) == 3
        rep = read_report(out, "report-suite")
        assert rep["rows"][0]["status"] == "ok"
        assert rep["rows"][1]["status"] == "diverged"
        assert rep["rows"][1]["accuracy"] is None

    def test_suite_config_must_list_experiments(self, tmp_path):
        cfg_path = write_config(tmp_path, {"runs": []}, "suite.json")
        assert main(["suite", "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2

    def test_suite_experiments_not_a_list_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"experiments": 5}, "suite.json")
        assert main(["suite", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "'experiments' list" in capsys.readouterr().err

    def test_suite_bad_row_is_named(self, tmp_path, capsys):
        raw = self.suite_raw()
        raw["experiments"][1] = {**raw["experiments"][1], "epoch": 1}
        cfg_path = write_config(tmp_path, raw, "suite.json")
        assert main(["suite", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "experiments[1]: unknown config fields: ['epoch']" in capsys.readouterr().err

    @pytest.mark.parametrize("change, rows, code", [
        ({"dataset": {"name": "idx", **dict.fromkeys(
            ("train_images", "train_labels", "test_images", "test_labels"), "missing.idx")}},
         (0, 1), 4),                                  # the rows of a suite share a dataset
        ({"architecture": "cnn-small"}, (1,), 2),     # cnn-small on 2-D points, refused at load
    ], ids=["missing_idx", "second_row_fails"])
    def test_row_error_same_through_workers(self, tmp_path, capsys, monkeypatch,
                                            change, rows, code):
        raw = self.suite_raw()
        for row in rows:
            raw["experiments"][row].update(change)
        cfg_path = write_config(tmp_path, raw, "suite.json")
        errors = []
        for cpus in (1, 2):  # rows in this process, then in worker processes
            monkeypatch.setattr(exp, "_usable_cpus", lambda: cpus)
            assert main(["suite", "--config", cfg_path, "--out", str(tmp_path / "o")]) == code
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] != ""

    def test_lost_worker_exits_5(self, tmp_path, capsys, monkeypatch):
        map_rows = exp._map_rows  # each worker exits at once, as if killed
        monkeypatch.setattr(exp, "_map_rows",
                            lambda fn, items: map_rows(os._exit, [1] * len(items)))
        monkeypatch.setattr(exp, "_usable_cpus", lambda: 2)
        cfg_path = write_config(tmp_path, self.suite_raw(), "suite.json")
        assert main(["suite", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 5
        assert "worker process ended abruptly" in capsys.readouterr().err

    def test_suite_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        raw = {**self.suite_raw(), "seed": 7}
        cfg_path = write_config(tmp_path, raw, "suite.json")
        assert main(["suite", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "unknown config fields: ['seed']" in capsys.readouterr().err


COLD_START = """
import json, sys
import numpy as np
import rra_uq, rra_uq.cli
from rra_uq import data, experiments as exp

out = sys.argv[1]
n = 24
pixels = (np.arange(n * 64) * 37 % 256).reshape(n, 1, 8, 8) / 255.0
ds = data.Dataset(pixels, np.arange(n) % 2, "tiny", 2)
paths = {key: f"{out}/{key}" for key in
         ("train_images", "train_labels", "test_images", "test_labels")}
data.write_idx(ds, paths["train_images"], paths["train_labels"])
data.write_idx(ds, paths["test_images"], paths["test_labels"])
cfg = exp.config_from_dict({
    "method": {"name": "mc_droprelu"}, "architecture": "cnn-small",
    "dataset": {"name": "idx", **paths},
    "training": {"epochs": 1, "batch_size": 8}, "n_passes": 2,
    "corruptions": ["rotation", "blur"], "severities": [1, 5]})
assert exp.run_experiment(cfg).status == "ok"
assert rra_uq.cli.main(["variance-check", "--out", out]) == 0
with open(f"{out}/bad.json", "w") as fh:
    json.dump({"method": {"name": "single"}, "corruptions": ["blur"]}, fh)
assert rra_uq.cli.main(["train", "--config", f"{out}/bad.json", "--out", out]) == 2
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


class TestColdStart:
    def test_runs_without_normal_draws_load_no_scipy(self, tmp_path):
        # SciPy is imported on the first normal draw only: an idx run with
        # rotation and blur, variance-check and a config error draw none
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []

    def test_import_loads_no_process_pool(self):
        # multiprocessing is imported only when rows go to worker processes
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        probe = ("import json, sys, rra_uq.cli; print(json.dumps(sorted(m for m in sys.modules"
                 " if m.split('.')[0] in ('multiprocessing', 'concurrent'))))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []


class TestParser:
    def test_out_is_required(self, tmp_path):
        cfg_path = write_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["train", "--config", cfg_path])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--out", "x"])


def array_memory_error(shape, dtype) -> MemoryError:
    """NumPy's MemoryError subclass for a failed array allocation, made
    without allocating."""
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # NumPy before 2.0
        from numpy.core._exceptions import _ArrayMemoryError
    return _ArrayMemoryError(shape, dtype)


def readme_config() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split("```json\n", 1)[1].split("```", 1)[0]


def table_defaults(fields) -> dict:
    return {f.key: table_defaults(f.fields) if f.fields else f.default for f in fields}


class TestReadme:
    def test_example_config_trains(self, tmp_path):
        cfg_path = tmp_path / "readme.json"
        cfg_path.write_text(readme_config())
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 0

    def test_example_config_is_the_schema_defaults(self):
        block = json.loads(readme_config())
        want = table_defaults(exp.CONFIG_FIELDS)
        want["method"] = exp.method_spec(block["method"]["name"]).to_dict()
        assert block == json.loads(json.dumps(want))  # tuples as lists
