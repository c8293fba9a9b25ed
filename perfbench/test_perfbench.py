"""Self-checks of the benchmark: tracing changes nothing and counts repeat.

    python3 -m pytest perfbench -q      # about a minute on 2 cores

Each workload runs twice under the tracer at the default seed.  Both bodies
must match the pinned digests (so the wrappers change no output), and every
exact count must repeat between the two runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from worker import PINNED, _read_json  # noqa: E402

SEED = 0


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced_twice(request):
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        workload = workloads.WORKLOADS[request.param](SEED)
        runs = []
        for _ in range(2):
            with tr.traced() as tracer:
                outputs = tracer.run(workload.run)
            exact, timed = tr.layer_metrics(tracer)
            digests = {name: workloads.sha256(blob) for name, blob in outputs.items()}
            runs.append((digests, exact, timed))
        yield workload, runs
    finally:
        os.chdir(cwd)


def test_traced_bodies_match_pinned_digests(traced_twice):
    workload, runs = traced_twice
    pinned = _read_json(PINNED)[workload.name][str(SEED)]
    for digests, _, _ in runs:
        assert digests == pinned


def test_exact_counts_repeat_between_traced_runs(traced_twice):
    _, runs = traced_twice
    (_, first, _), (_, second, _) = runs
    assert first == second
    for key in ("rng.draws", "inference.sample_passes", "training.steps",
                "variance.trials", "network.forward_eval.flops"):
        assert key in first


def test_counts_agree_with_the_workload_size(traced_twice):
    workload, runs = traced_twice
    exact = runs[0][1]
    if workload.name == "variance_scan":
        assert exact["variance.trials"] == workload.items
        assert exact["network.forward_eval.calls"] == 0
        assert exact["training.steps"] == 0
    else:
        assert exact["inference.sample_passes"] == workload.items
        assert exact["variance.trials"] == 0
        assert exact["training.steps"] > 0
        assert exact["network.forward_eval.flops"] > 0
        assert 0.0 < exact["activations.negative_frac"] < 1.0
    assert exact["rng.draws"] > 0


def test_shares_cover_the_traced_run(traced_twice):
    _, runs = traced_twice
    timed = runs[0][2]
    shares = [v for k, v in timed.items() if k.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)


def test_every_computed_metric_has_a_unit(traced_twice):
    _, runs = traced_twice
    _, exact, timed = runs[0]
    assert set(exact) == set(tr.EXACT)
    assert set(exact) | set(timed) | set(tr.TRACE) == set(tr.UNITS)


def test_uninstall_restores_every_wrapped_name():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in tr._sites()]
    with tr.traced():
        assert any(getattr(owner, attr) is not fn for owner, attr, fn in originals)
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == tr.UNITS
    fake = {"walls": [1.0, 2.0], "items": 10, "peak_rss_mb": 50.0}
    reported = run.end_to_end(fake, [0.5])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: metric["unit"] for name, metric in reported.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cnn_mc",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
