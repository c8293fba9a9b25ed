"""The benchmark's workloads: inputs built from a seed, one run, its outputs.

Each workload is set up once per process (configs, synthetic files) and then
run repeatedly.  A run calls one public entry point of the package and
returns the bytes whose SHA-256 pins "same output" plus a sanity verdict that
holds for every seed.  All paths are relative to the checkout root, which is
the working directory, so report bodies that echo input paths hash the same
in every checkout.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from rra_uq import cli
from rra_uq import data as datamod
from rra_uq import experiments as exp

WORK_DIR = ".perfbench_work"

MOONS_METHODS = (
    {"name": "single"},
    {"name": "mc_dropout", "drop_rate": 0.2},
    {"name": "mc_droprelu", "retain_rate": 0.9},
    {"name": "mc_rrelu"},
    {"name": "deep_ensemble", "members": 4},
)

# synthetic 28x28 10-class IDX set for cnn_mc
CNN_DIR = os.path.join(WORK_DIR, "cnn_mc")
CNN_TRAIN, CNN_TEST, CNN_CLASSES, CNN_SIDE = 800, 200, 10, 28
CNN_CORRUPTIONS = ("rotation", "blur")
CNN_SEVERITIES = (1, 5)

VARIANCE_DIR = os.path.join(WORK_DIR, "variance_scan")
VARIANCE_OUTPUTS = ("report-variance.json", "dominance-scan.csv")
# cmd_variance_check: 5 vectors x (2 dropout + 2 droprelu + 1 epsilon) checks,
# then a 5 x 10 scan drawing 5 dropout + 3 x 10 droprelu-side estimates
VARIANCE_ESTIMATES = 5 * 5 + 5 + 3 * 10
VARIANCE_TRIALS = 100_000


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _eval_set_count(cfg: exp.ExperimentConfig) -> int:
    return 1 + len(cfg.corruptions) * len(cfg.severities)


def _inference_passes(cfg: exp.ExperimentConfig) -> int:
    if cfg.method.name == "single":
        return 1
    if cfg.method.name == "deep_ensemble":
        return cfg.method.members
    return cfg.n_passes


def _sample_passes(cfg: exp.ExperimentConfig, test_size: int) -> int:
    """Test-sample forward passes at inference over every eval set."""
    return _inference_passes(cfg) * test_size * _eval_set_count(cfg)


class MoonsSuite:
    """experiments.run_suite over the five methods on the default config."""

    name = "moons_suite"
    item_unit = "sample forward passes at inference"

    def __init__(self, seed: int):
        self.configs = [exp.config_from_dict({"method": dict(m), "master_seed": seed})
                        for m in MOONS_METHODS]
        self.items = sum(_sample_passes(c, int(c.dataset["test_size"]))
                         for c in self.configs)

    def run(self) -> dict:
        return {"suite-body": exp.run_suite(self.configs).body_text().encode()}

    def check(self, outputs: dict) -> tuple:
        rows = json.loads(outputs["suite-body"])["rows"]
        sane = (len(rows) == len(self.configs)
                and all(r["status"] == "ok" and r["accuracy"] >= 0.8 for r in rows))
        return sane, " ".join(f"{r['method']}={r['accuracy']}" for r in rows)


def synthetic_images(seed: int, n: int, rng: np.random.Generator,
                     prototypes: np.ndarray) -> datamod.Dataset:
    """Noisy, shifted copies of per-class prototypes, byte-quantized.

    Shifts, contrast and pixel noise overlap the classes, so the set is
    learnable but not separable.
    """
    labels = rng.integers(0, CNN_CLASSES, size=n)
    shifts = rng.integers(-2, 3, size=(n, 2))
    contrast = rng.uniform(0.5, 1.0, size=n)
    noise = rng.normal(0.0, 0.15, size=(n, CNN_SIDE, CNN_SIDE))
    images = np.empty((n, 1, CNN_SIDE, CNN_SIDE))
    for i in range(n):
        shifted = np.roll(prototypes[labels[i]], tuple(shifts[i]), axis=(0, 1))
        images[i, 0] = contrast[i] * shifted + noise[i]
    images = np.rint(np.clip(images, 0.0, 1.0) * 255.0) / 255.0
    return datamod.Dataset(images, labels, f"synthetic{seed}", CNN_CLASSES)


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    """One image per class: a bar through the centre at 18-degree steps.

    Neighbouring classes differ by one step, so they stay confusable under
    shifts and noise on every seed; the seed jitters angle and offset.
    """
    yy, xx = np.mgrid[0:CNN_SIDE, 0:CNN_SIDE] - (CNN_SIDE - 1) / 2.0
    protos = np.empty((CNN_CLASSES, CNN_SIDE, CNN_SIDE))
    for c in range(CNN_CLASSES):
        theta = np.pi * c / CNN_CLASSES + rng.uniform(-0.05, 0.05)
        oy, ox = rng.uniform(-1.5, 1.5, size=2)
        along = (yy - oy) * np.sin(theta) + (xx - ox) * np.cos(theta)
        across = -(yy - oy) * np.cos(theta) + (xx - ox) * np.sin(theta)
        protos[c] = np.exp(-across ** 2 / (2 * 1.5 ** 2)) * (np.abs(along) <= 10.0)
    return protos


def write_image_set(seed: int) -> dict:
    """Write the seed's train/test IDX files to fixed paths; return the dataset spec."""
    rng = np.random.default_rng(seed)
    protos = _prototypes(rng)
    os.makedirs(CNN_DIR, exist_ok=True)
    spec = {"name": "idx", "n_classes": CNN_CLASSES}
    for split, n in (("train", CNN_TRAIN), ("test", CNN_TEST)):
        images = os.path.join(CNN_DIR, f"{split}-images-idx3-ubyte")
        labels = os.path.join(CNN_DIR, f"{split}-labels-idx1-ubyte")
        datamod.write_idx(synthetic_images(seed, n, rng, protos), images, labels)
        spec[f"{split}_images"], spec[f"{split}_labels"] = images, labels
    return spec


class CnnMc:
    """experiments.run_experiment: mc_droprelu on cnn-small over a synthetic IDX set."""

    name = "cnn_mc"
    item_unit = "image forward passes at inference"

    def __init__(self, seed: int):
        self.config = exp.config_from_dict({
            "method": {"name": "mc_droprelu", "retain_rate": 0.9},
            "architecture": "cnn-small",
            "dataset": write_image_set(seed),
            "training": {"epochs": 2, "batch_size": 64, "learning_rate": 0.05},
            "n_passes": 10,
            "master_seed": seed,
            "corruptions": list(CNN_CORRUPTIONS),
            "severities": list(CNN_SEVERITIES),
        })
        self.items = _sample_passes(self.config, CNN_TEST)

    def run(self) -> dict:
        return {"report-body": exp.run_experiment(self.config).body_text().encode()}

    def check(self, outputs: dict) -> tuple:
        body = json.loads(outputs["report-body"])
        accuracy = body["evaluation"]["clean"]["accuracy"] if body["status"] == "ok" else None
        return accuracy is not None and accuracy >= 0.3, f"clean accuracy {accuracy}"


class VarianceScan:
    """cli.main(["variance-check", ...]) at its built-in settings."""

    name = "variance_scan"
    item_unit = "Monte-Carlo trials drawn"

    def __init__(self, seed: int):
        self.argv = ["variance-check", "--out", VARIANCE_DIR, "--seed", str(seed)]
        self.items = VARIANCE_ESTIMATES * VARIANCE_TRIALS

    def run(self) -> dict:
        for fname in VARIANCE_OUTPUTS:
            path = os.path.join(VARIANCE_DIR, fname)
            if os.path.exists(path):
                os.remove(path)
        code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"variance-check exited {code}")
        outputs = {}
        for fname in VARIANCE_OUTPUTS:
            with open(os.path.join(VARIANCE_DIR, fname), "rb") as fh:
                outputs[fname] = fh.read()
        return outputs

    def check(self, outputs: dict) -> tuple:
        body = json.loads(outputs["report-variance.json"])
        sane = len(body["checks"]) == 25 and body["scan_cells"] == 50
        return sane, f"all_within_3se {body['all_within_3se']}"


WORKLOADS = {w.name: w for w in (MoonsSuite, CnnMc, VarianceScan)}
