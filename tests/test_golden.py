"""Golden digests: SHA-256 pins of report bodies, CLI artifacts and RNG draws.

Each pin fixes the exact bytes a tiny, fast run produces.  A change that
moves a digest changes what the program reports; it must say which pin moved
and why.  Reports written by the CLI carry wall-clock `timing`, which is
dropped before hashing.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from rra_uq import data as datamod
from rra_uq import experiments as exp
from rra_uq import network as netmod
from rra_uq import serialize
from rra_uq import variance as var
from rra_uq.cli import main
from rra_uq.rng import RngStream

METHODS = {
    "single": {"name": "single"},
    "mc_dropout": {"name": "mc_dropout", "drop_rate": 0.2},
    "deep_ensemble": {"name": "deep_ensemble", "members": 3},
    "mc_droprelu": {"name": "mc_droprelu", "retain_rate": 0.8},
    "mc_rrelu": {"name": "mc_rrelu"},
}


def blob_raw(method):
    return {
        "method": dict(method),
        "architecture": "mlp-1x32",
        "dataset": {"name": "blobs", "train_size": 48, "test_size": 40,
                    "centers": [[-2.0, 0.0], [2.0, 0.0], [0.0, 2.0]], "sigma": 0.6},
        "training": {"epochs": 4, "batch_size": 16, "learning_rate": 0.05},
        "n_passes": 6,
        "corruptions": ["gaussian_noise", "rotation"],
        "severities": [1, 4],
        "master_seed": 11,
    }


def blob_config(method):
    return exp.config_from_dict(blob_raw(method))


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def report_digest(path) -> str:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("timing")
    return sha(serialize.dumps(report))


def cli_round_trip(tmp_path, method) -> dict:
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(blob_raw(method)))
    out = str(tmp_path / "run")
    for stage in ("train", "predict", "metrics"):
        assert main([stage, "--config", str(cfg_path), "--out", out]) == 0
    digests = {f"report-{s}": report_digest(os.path.join(out, f"report-{s}.json"))
               for s in ("train", "predict", "metrics")}
    for artifact in ("predictions.bin", "reliability.csv"):
        with open(os.path.join(out, artifact), "rb") as fh:
            digests[artifact] = sha(fh.read())
    return digests


def write_bars(hw, sizes, seed) -> dict:
    """Write an IDX set of noisy images, class 1 with a bright band of rows.

    The config echo carries the dataset paths, so they are kept relative.
    """
    rng = np.random.default_rng(seed)
    band = slice(hw // 3, hw // 3 + max(hw // 3, 1))
    paths = {}
    for split, n in zip(("train", "test"), sizes):
        labels = rng.integers(0, 2, size=n)
        images = rng.uniform(0.0, 0.4, size=(n, 1, hw, hw))
        images[labels == 1, :, band, :] += 0.5
        images = np.rint(images * 255.0) / 255.0
        ds = datamod.Dataset(images, labels, "synthetic-bars", 2)
        paths[f"{split}_images"] = f"{split}-images.idx"
        paths[f"{split}_labels"] = f"{split}-labels.idx"
        datamod.write_idx(ds, paths[f"{split}_images"], paths[f"{split}_labels"])
    return paths


def cnn_config():
    """cnn-small on a tiny 9x9 IDX set written to the working directory."""
    return exp.config_from_dict({
        "method": {"name": "mc_droprelu", "retain_rate": 0.9},
        "architecture": "cnn-small",
        "dataset": {"name": "idx", **write_bars(9, (40, 24), 5)},
        "training": {"epochs": 2, "batch_size": 8, "learning_rate": 0.05},
        "n_passes": 3,
        "corruptions": ["rotation", "blur"],
        "severities": [2],
        "master_seed": 4,
    })


def cnn_multi_block_config():
    """cnn-small on 28x28 images with 48 test images.

    Each Monte-Carlo pass's first activation then holds 48 * 8 * 26 * 26 =
    259,584 entries, more than three blocks of the lazy mask's hashing.
    """
    return exp.config_from_dict({
        "method": {"name": "mc_droprelu", "retain_rate": 0.7},
        "architecture": "cnn-small",
        "dataset": {"name": "idx", **write_bars(28, (32, 48), 6)},
        "training": {"epochs": 1, "batch_size": 16, "learning_rate": 0.05},
        "n_passes": 2,
        "corruptions": ["blur"],
        "severities": [1],
        "master_seed": 8,
    })


EXPERIMENT_PINS = {
    "single": "fce432cdda599371929fd38626e06bf93c7769bb854daf2251c3041e1f6d857e",
    "mc_dropout": "44a5df3c4c48975d052cc141aec5c910807910e0fb9ea4f8aca1297b87b71aa7",
    "deep_ensemble": "b97deb43386336b67dcb1f68789843072382acad223b7880f07bc76f139d7d9b",
    "mc_droprelu": "4bd9575e51bb23ffd9ca7bd41e5e0e79ee3cf368e1d55e8f13baef10020b33c1",
    "mc_rrelu": "8c2cd27499a7b5f7c147ec9df6af64afbe50bcc31fe6b578eeee3ef3c6e49e94",
}

MULTI_RUN_PINS = {
    "run_suite": "f42e7a0db2fe0a484e9700e60b1e9c6d743d2807d9760d64b81d75d6144c6036",
    "q_sweep": "be3602e380e256260715f409b3829546614a49281b1c2563ff3f233acd66196d",
    "position_analysis": "f5d7ddb3e2c57a094acfefa540ee4a0dc18d965c7209041eca28ea80f1efdfeb",
}

CNN_PIN = "1c53563c3f17ea91dd82c29eb5092677870d7cca2fb5be111cf17c52f9c014cc"

CNN_MULTI_BLOCK_PIN = "e91bbada6b6e6c1dbb4669cc897a0d3a4a9e47266af58d25cb405f2bb63c2486"

CLI_PINS = {
    "mc_droprelu": {
        "report-train":
            "4febaaf273769b48aca475798cab261f62bfeda49367239cab1f790bb90849d7",
        "report-predict":
            "4ecb9703efbf97b650a0309b7564ecfa08e14b92c166d2ba41be0f277f5ca3bf",
        "report-metrics":
            "3088546543c05f1f1a9997d8f9830c89708711b07f77a01508a6de5dc43021ba",
        "predictions.bin":
            "70a468f717510a41ddaeb21c5c7d6dbc0d020f765290d2b81c41c7927900de4e",
        "reliability.csv":
            "45f806178a87a6d3d1b102ca2f7477f54fcf584314d8a2023eb1933ad40d900c",
    },
    "deep_ensemble": {
        "report-train":
            "35d50aecfc40b9d425b63c0ac2ff8436334be621b13ce34a2be5fb1a31d22998",
        "report-predict":
            "93188cf14c2fe87951124c35720896cdfcb804d031dd701730e957048f979a77",
        "report-metrics":
            "c1e3ec7323cc5c816f7f84440584a491ee38e8f180d50f72fbb0bf6bc236331b",
        "predictions.bin":
            "641fa85910a8ce3ef375b6c14dfc3a6efa7f692cf591f290ac915922caebb09f",
        "reliability.csv":
            "3fb9bb87d24670d988b812a96c45fbb73d5821afa8c8617b5017247e276d16f0",
    },
}


@pytest.mark.parametrize("name", sorted(EXPERIMENT_PINS))
def test_experiment_body(name):
    body = exp.run_experiment(blob_config(METHODS[name])).body_text()
    assert sha(body) == EXPERIMENT_PINS[name]


def multi_run_body(name) -> str:
    if name == "run_suite":
        report = exp.run_suite([blob_config(m) for m in METHODS.values()])
    elif name == "q_sweep":
        report = exp.q_sweep(blob_config(METHODS["mc_droprelu"]), (0.7, 0.95))
    else:
        report = exp.position_analysis(blob_config(METHODS["mc_rrelu"]), exp.POSITIONS)
    return report.body_text()


@pytest.mark.parametrize("name", sorted(MULTI_RUN_PINS))
def test_multi_run_body(name, monkeypatch):
    monkeypatch.setattr(exp, "_usable_cpus", lambda: 2)  # suite rows in worker processes
    assert sha(multi_run_body(name)) == MULTI_RUN_PINS[name]


def test_suite_body_in_process(monkeypatch):
    monkeypatch.setattr(exp, "_usable_cpus", lambda: 1)  # suite rows in this process
    assert sha(multi_run_body("run_suite")) == MULTI_RUN_PINS["run_suite"]


def test_cnn_body(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert sha(exp.run_experiment(cnn_config()).body_text()) == CNN_PIN


def test_cnn_multi_block_body(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    body = exp.run_experiment(cnn_multi_block_config()).body_text()
    assert sha(body) == CNN_MULTI_BLOCK_PIN


@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_cli_round_trip(tmp_path, name):
    assert cli_round_trip(tmp_path, METHODS[name]) == CLI_PINS[name]


# `rra-uq train` of deep_ensemble members whose divergence epochs, each member
# trained alone, are out of index order: (members, seed) -> the report and the
# kept members' checkpoint, as members trained one after another would keep.
# Seed 1: member 1 diverges before member 0, so none is kept; seed 8: member 0
# trains through, member 2 diverges before member 1.
DIVERGED_TRAIN_PINS = {
    (2, 1): {
        "report-train": "207688fba57e643b0a86fa19e5ffebfa34e0e8233095bb0c2247c81724780139",
        "members.ckpt": "19430b1397df1673a80aa23c354541e1ecbab97b96f4d3a1676afa7af0b13eaf",
    },
    (3, 8): {
        "report-train": "d414ab895a2cbbce3e9703af4166cabc7c5f24b609fff3002451a346898e2c9e",
        "members.ckpt": "a3f366baadf054d23d94cee6a40444e6e53e43bfbd74dbd5b704c6aa2099345d",
    },
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("members,seed", sorted(DIVERGED_TRAIN_PINS))
def test_diverged_train_artifacts(tmp_path, members, seed):
    raw = {
        "method": {"name": "deep_ensemble", "members": members},
        "architecture": "mlp-1x32",
        "dataset": {"name": "blobs", "train_size": 48, "test_size": 48,
                    "centers": [[-2.0, 0.0], [2.0, 0.0]], "sigma": 0.4},
        "training": {"epochs": 30, "batch_size": 16, "learning_rate": 3000.0},
        "master_seed": seed,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 3
    digests = {"report-train": report_digest(out / "report-train.json")}
    for path in sorted(out.glob("*.ckpt")):
        digests[path.name] = sha(path.read_bytes())
    assert digests == DIVERGED_TRAIN_PINS[members, seed]


# (architecture, feature shape, method) of each finite-difference check
GRAD_CHECK_CASES = {
    "mlp-2x64/mc_droprelu": ("mlp-2x64", (2,), METHODS["mc_droprelu"]),
    "mlp-2x64/mc_rrelu": ("mlp-2x64", (2,), METHODS["mc_rrelu"]),
    "mlp-2x64/mc_dropout": ("mlp-2x64", (2,), METHODS["mc_dropout"]),
    "cnn-small/mc_droprelu": ("cnn-small", (1, 7, 7), METHODS["mc_droprelu"]),
    "cnn-small/mc_rrelu": ("cnn-small", (1, 7, 7), METHODS["mc_rrelu"]),
}

GRAD_CHECK_PIN = "fc8489c077789dd8f04545ae730f8b44a46e9b2f68d648fb1cdcc4028875669d"


def grad_check_text(arch, shape, method) -> str:
    """`grad_check`'s whole report, every error as a float hex string."""
    spec = exp.method_spec(**method)
    net = netmod.build_network(exp.build_architecture(arch, shape, 3, spec), shape,
                               RngStream(1))
    x = RngStream(2).normal(0.0, 1.0, (6, *shape))
    report = netmod.grad_check(net, x, np.array([0, 1, 2, 0, 1, 2]), RngStream(3))
    rows = [f"max_rel_error={report['max_rel_error'].hex()}"]
    rows += [f"{layer}.{key}={err.hex()}"
             for (layer, key), err in sorted(report["per_param"].items())]
    return "\n".join(rows)


def test_grad_check_report():
    text = "\n\n".join(f"{name}\n{grad_check_text(*case)}"
                         for name, case in sorted(GRAD_CHECK_CASES.items()))
    assert sha(text) == GRAD_CHECK_PIN


def variance_vector():
    return RngStream(21, stream_id=3).uniform(-2.0, 2.0, (13,))


def estimate_bytes(estimate) -> bytes:
    return np.array(estimate, dtype=np.float64).tobytes()


# 10^4 trials of a 13-entry vector: each estimate draws 130,000 words in one
# chunk, several hash blocks.  rrelu is the only bulk `uniform` path.
VARIANCE_RUNS = {
    "layer_dropout_unscaled":
        lambda x: var.empirical_layer_var("dropout_unscaled", x, 0.3, 10_000, 5),
    "layer_droprelu": lambda x: var.empirical_layer_var("droprelu", x, 0.8, 10_000, 6),
    "layer_rrelu":
        lambda x: var.empirical_layer_var("rrelu", x, (0.125, 1.0 / 3.0), 10_000, 7),
    "floor_term": lambda x: var.empirical_floor_term(x, 0.7, 10_000, 8),
    "epsilon": lambda x: var.empirical_epsilon(x, 0.7, 10_000, 9),
}

VARIANCE_PINS = {
    "layer_dropout_unscaled":
        "ed0bb206eed4d63c075e9f03d175a9ee3cd715793327b530d52442965e0e0131",
    "layer_droprelu": "842f8cca14970a24ff626c37ccff07cf68c67644804c05f0fcc32fb97dd092bd",
    "layer_rrelu": "bac5c61489ff5931a4f3be54c016b69431292ffd9459030ae9819b02101aed96",
    "floor_term": "ad2f25660f9a7bf534912f85f75c6a9d5429735e1cef89a08a66e051260480d4",
    "epsilon": "69a3536bec95c7b1756f4f33fb3e701d476235c949b5aab918005afc123f3bd0",
}

SCAN_PIN = "6aa3d1fed18465bcfd1175be5feca0b8ede6b71fe2e5820169fa7d37fa4139f8"


@pytest.mark.parametrize("name", sorted(VARIANCE_RUNS))
def test_variance_estimate(name):
    estimate = VARIANCE_RUNS[name](variance_vector())
    assert sha(estimate_bytes(estimate)) == VARIANCE_PINS[name]


def test_dominance_scan_rows():
    rows = var.dominance_scan(variance_vector(), [0.2, 0.5], [0.6, 0.9], trials=10_000, seed=3)
    assert sha(serialize.dumps(rows)) == SCAN_PIN


def draw_bytes(draw: np.ndarray) -> bytes:
    return f"{draw.dtype.str}{draw.shape}".encode() + draw.tobytes()


def stream():
    return RngStream(31, stream_id=4, counter=12_345)


# raw draws from a nonzero counter, each several hash blocks long
RAW_DRAWS = {
    "uniform": lambda: stream().uniform(-1.5, 2.5, (3, 50_001)),
    "bernoulli": lambda: stream().bernoulli(0.3, (100_003,)),
    "bernoulli_2d": lambda: stream().bernoulli(0.9, (257, 389)),
    "normal": lambda: stream().normal(0.5, 2.0, (100_003,)),
    "permutation": lambda: stream().permutation(100_003),
}

RAW_DRAW_PINS = {
    "uniform": "917d851238c26ad66eceb73c2b44316db7fc82b1f09fc9d2bccfcac1cbf50082",
    "bernoulli": "33f9224dd721e8909a7bb1fb500c5c92a5815a74f00c00b004ce957b26e676a5",
    "bernoulli_2d": "ea1b74b6c073a28ee5cc2bb3b7e0a0ff98fe2f445c9fef319f8d9dab8907a0e5",
    "normal": "33364274ff39ba144646d2b43e9efcc14fcbf590a16d50d2a7ce7c38776db582",
    "permutation": "a3bf49cddeaa35ceab5a07ff053391ceccb746c129187b98808dcff76ff28879",
}


@pytest.mark.parametrize("name", sorted(RAW_DRAWS))
def test_raw_draw(name):
    assert sha(draw_bytes(RAW_DRAWS[name]())) == RAW_DRAW_PINS[name]
