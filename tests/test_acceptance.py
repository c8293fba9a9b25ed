"""Acceptance gates for the uncertainty framework.

Each test covers one frozen criterion: variance laws, gradient correctness,
metric oracles, degeneracy identities, the directional two-moons studies,
size accounting, and report determinism.  Every test prints exactly one
[PASS]/[FAIL] line (routed past capture) with its measured quantity and wall
time against the frozen runtime budget.
"""

import os
import sys
import time

import numpy as np
import pytest

from rra_uq import activations as act
from rra_uq import experiments as exp
from rra_uq import network as netmod
from rra_uq.metrics import disagreement, ece, jsd_pair
from rra_uq.rng import RngStream
from rra_uq.variance import (analytic_dropout_var, analytic_droprelu_var_floor,
                             dominance_scan, empirical_epsilon,
                             empirical_layer_var)

GRAD_TOL = 1e-5
ORACLE_TOL = 1e-12


def _report(name, ok, detail, elapsed, budget):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)",
          file=sys.__stdout__)
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} took {elapsed:.1f}s (budget {budget:.0f}s)"


def _mixed_sign(vec):
    # force at least one strictly negative and one strictly positive entry
    vec = vec.copy()
    vec[0] = -abs(vec[0]) - 0.05
    vec[1] = abs(vec[1]) + 0.05
    return vec


def test_dropout_variance_law():
    t0 = time.perf_counter()
    root = RngStream(2025, stream_id=7)
    hits, total, worst = 0, 0, 0.0
    for i in range(20):
        k = 3 + (i % 14)
        x = _mixed_sign(root.fork(i).uniform(-2.0, 2.0, (k,)))
        for j, p in enumerate((0.2, 0.5)):
            est, se = empirical_layer_var("dropout_unscaled", x, p, 1_000_000,
                                          root.fork(100 + 2 * i + j).stream_id)
            dev = abs(est - analytic_dropout_var(x, p)) / se
            worst = max(worst, dev)
            hits += dev <= 3.0
            total += 1
    _report("dropout-variance-law", hits == total,
            f"{hits}/{total} vectors within 3 SE of p(1-p)*sum(x^2), "
            f"worst deviation {worst:.2f} SE",
            time.perf_counter() - t0, 30.0)


def test_droprelu_floor_and_epsilon():
    t0 = time.perf_counter()
    root = RngStream(2026, stream_id=7)
    qs = (0.2, 0.5, 0.8, 0.9)
    floor_hits = eps_hits = 0
    for i in range(20):
        k = 3 + (i % 14)
        q = qs[i % 4]
        xneg = -np.abs(root.fork(i).uniform(0.3, 2.0, (k,))) - 0.05
        est, se = empirical_layer_var("droprelu", xneg, q, 1_000_000,
                                      root.fork(200 + i).stream_id)
        floor_hits += abs(est - analytic_droprelu_var_floor(xneg, q)) <= 3 * se
        xmix = _mixed_sign(root.fork(50 + i).uniform(-2.0, 2.0, (k,)))
        eps, eps_se = empirical_epsilon(xmix, q, 1_000_000,
                                        root.fork(300 + i).stream_id)
        eps_hits += eps >= -3 * eps_se
    _report("droprelu-floor-and-epsilon",
            floor_hits == 20 and eps_hits == 20,
            f"all-negative floor match {floor_hits}/20 within 3 SE, "
            f"epsilon nonnegative {eps_hits}/20",
            time.perf_counter() - t0, 60.0)


def test_dominance_scan_region():
    t0 = time.perf_counter()
    root = RngStream(2027, stream_id=7)
    p_grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    q_grid = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]
    in_region = dominant = 0
    for v in range(3):
        x = _mixed_sign(root.fork(v).uniform(-2.0, 2.0, (8,)))
        rows = dominance_scan(x, p_grid, q_grid, trials=100_000,
                              seed=root.fork(40 + v).stream_id)
        for r in rows:
            if r["region"] == "q<=1-p":
                in_region += 1
                dominant += bool(r["dominant"])
    _report("dominance-scan", dominant == in_region,
            f"{dominant}/{in_region} cells with q <= 1-p dominant "
            f"across 3 vectors",
            time.perf_counter() - t0, 300.0)


def _mlp_case(seed, kind=None, drop=None):
    rng = RngStream(seed, stream_id=40)
    layers = [netmod.dense(5, 8, "dense0")]
    if kind is not None:
        layers.append(netmod.activation(kind, "act0"))
    if drop is not None:
        layers.append(netmod.dropout_layer(drop, "drop0"))
    layers.append(netmod.dense(8, 3, "head"))
    net = netmod.build_network(layers, (5,), rng.fork(0))
    x = rng.fork(1).normal(0.0, 1.0, (6, 5))
    labels = (rng.fork(2).uniform(0.0, 3.0, (6,))).astype(np.int64)
    return net, x, labels, rng.fork(3)


_CONV_VARIANTS = ((1, "valid", 3), (2, "valid", 3), (1, "same", 3),
                  (2, "same", 3), (1, "same", 2))


def _conv_case(seed, variant):
    stride, padding, ksize = variant
    rng = RngStream(seed, stream_id=41)
    prefix = [netmod.conv2d(2, 3, ksize, stride, padding, "conv0"),
              netmod.activation(act.relu(), "act0"),
              netmod.flatten("flatten0")]
    flat = netmod.build_network(prefix, (2, 6, 6)).output_shape()[0]
    layers = prefix + [netmod.dense(flat, 3, "head")]
    net = netmod.build_network(layers, (2, 6, 6), rng.fork(0))
    x = rng.fork(1).normal(0.0, 1.0, (3, 2, 6, 6))
    labels = (rng.fork(2).uniform(0.0, 3.0, (3,))).astype(np.int64)
    return net, x, labels, rng.fork(3)


def _ce_rel_error(seed):
    rng = RngStream(seed, stream_id=42)
    logits = rng.fork(0).normal(0.0, 2.0, (6, 4))
    labels = (rng.fork(1).uniform(0.0, 4.0, (6,))).astype(np.int64)
    _, grad = netmod.softmax_cross_entropy(logits, labels)
    step = 1e-5
    worst = 0.0
    for idx in np.ndindex(*logits.shape):
        orig = logits[idx]
        logits[idx] = orig + step
        up = netmod.softmax_cross_entropy(logits, labels)[0]
        logits[idx] = orig - step
        down = netmod.softmax_cross_entropy(logits, labels)[0]
        logits[idx] = orig
        numeric = (up - down) / (2.0 * step)
        a = float(grad[idx])
        worst = max(worst, abs(a - numeric) / max(1e-8, abs(a) + abs(numeric)))
    return worst


def test_gradient_suite():
    t0 = time.perf_counter()
    families = {
        "dense": lambda s: _mlp_case(60 + s),
        "conv2d": lambda s: _conv_case(70 + s, _CONV_VARIANTS[s]),
        "relu": lambda s: _mlp_case(80 + s, kind=act.relu()),
        "droprelu": lambda s: _mlp_case(90 + s, kind=act.droprelu(0.7)),
        "rrelu": lambda s: _mlp_case(100 + s, kind=act.rrelu(0.125, 1.0 / 3.0)),
        "dropout": lambda s: _mlp_case(110 + s, kind=act.relu(), drop=0.3),
    }
    worst = 0.0
    for build in families.values():
        for s in range(5):
            net, x, labels, rng = build(s)
            worst = max(worst, netmod.grad_check(net, x, labels,
                                                 rng)["max_rel_error"])
    for s in range(5):
        worst = max(worst, _ce_rel_error(120 + s))
    _report("gradient-suite", worst < GRAD_TOL,
            f"max relative error {worst:.2e} over 7 op families x 5 nets "
            f"(tolerance {GRAD_TOL:.0e})",
            time.perf_counter() - t0, 60.0)


def _ece_oracle(confidences, correct, bin_count):
    n = len(confidences)
    sums_conf = [0.0] * bin_count
    sums_corr = [0.0] * bin_count
    counts = [0] * bin_count
    boundaries = [(m + 1) / bin_count for m in range(bin_count)]
    for c, okv in zip(confidences, correct):
        b = bin_count - 1
        for m, upper in enumerate(boundaries):
            if c <= upper:
                b = m
                break
        counts[b] += 1
        sums_conf[b] += float(c)
        sums_corr[b] += float(okv)
    total = 0.0
    for m in range(bin_count):
        if counts[m]:
            total += counts[m] / n * abs(sums_corr[m] / counts[m]
                                         - sums_conf[m] / counts[m])
    return total


def test_metric_oracles():
    t0 = time.perf_counter()
    rng = RngStream(2028, stream_id=7)
    bin_counts = (1, 2, 10, 30)
    worst_ece = 0.0
    for trial in range(100):
        r = rng.fork(trial)
        n = 1 + int(r.fork(0).uniform(0.0, 799.0, (1,))[0])
        m = bin_counts[trial % 4]
        conf = r.fork(1).uniform(0.0, 1.0, (n,))
        if trial % 3 == 0:
            conf = np.clip(np.round(conf * m) / m, 0.0, 1.0)
        correct = r.fork(2).bernoulli(0.5, (n,))
        got, _ = ece(conf, correct, m)
        worst_ece = max(worst_ece, abs(got - _ece_oracle(conf, correct, m)))
    ece_ok = worst_ece <= ORACLE_TOL

    jsd_ok = True
    log2 = float(np.log(2.0))
    for trial in range(25):
        r = rng.fork(1000 + trial)
        p = r.fork(0).uniform(0.01, 1.0, (7, 4))
        q = r.fork(1).uniform(0.01, 1.0, (7, 4))
        p /= p.sum(axis=1, keepdims=True)
        q /= q.sum(axis=1, keepdims=True)
        jsd_ok = jsd_ok and jsd_pair(p, p) == 0.0
        jsd_ok = jsd_ok and jsd_pair(p, q) == jsd_pair(q, p)
    one_hot_a = np.tile(np.array([[1.0, 0.0]]), (5, 1))
    one_hot_b = np.tile(np.array([[0.0, 1.0]]), (5, 1))
    jsd_ok = jsd_ok and abs(jsd_pair(one_hot_a, one_hot_b) - log2) <= ORACLE_TOL

    dis_ok = True
    for trial in range(100):
        r = rng.fork(2000 + trial)
        n = 1 + int(r.fork(0).uniform(0.0, 200.0, (1,))[0])
        a = (r.fork(1).uniform(0.0, 4.0, (n,))).astype(np.int64)
        b = (r.fork(2).uniform(0.0, 4.0, (n,))).astype(np.int64)
        c = (r.fork(3).uniform(0.0, 4.0, (n,))).astype(np.int64)
        dis_ok = dis_ok and disagreement(a, a) == 0.0
        dis_ok = dis_ok and disagreement(a, b) == disagreement(b, a)
        dis_ok = dis_ok and (disagreement(a, c)
                             <= disagreement(a, b) + disagreement(b, c) + 1e-15)
    _report("metric-oracles", ece_ok and jsd_ok and dis_ok,
            f"ECE worst gap {worst_ece:.1e} over 100 instances; JSD identities "
            f"and disagreement pseudometric hold",
            time.perf_counter() - t0, 10.0)


def test_degeneracy_chain():
    t0 = time.perf_counter()

    def stack(kind):
        return [netmod.dense(4, 16, "dense0"), netmod.activation(kind, "act0"),
                netmod.dense(16, 8, "dense1"), netmod.activation(kind, "act1"),
                netmod.dense(8, 3, "head")]

    init = RngStream(2029, stream_id=7)
    net_full = netmod.build_network(stack(act.droprelu(1.0)), (4,), init.fork(0))
    net_relu = netmod.build_network(stack(act.relu()), (4,), init.fork(0))
    net_zero = netmod.build_network(stack(act.droprelu(0.0)), (4,), init.fork(0))
    x = init.fork(1).normal(0.0, 1.0, (32, 4))
    lg_full, _ = netmod.forward(net_full, x, mode="train", rng=init.fork(2))
    lg_relu, _ = netmod.forward(net_relu, x, mode="train", rng=init.fork(2))
    lg_zero, _ = netmod.forward(net_zero, x, mode="train", rng=init.fork(2))
    p = net_zero.params
    h = x @ p["dense0"]["w"] + p["dense0"]["b"]
    h = h @ p["dense1"]["w"] + p["dense1"]["b"]
    affine = h @ p["head"]["w"] + p["head"]["b"]
    ok = np.array_equal(lg_full, lg_relu) and np.array_equal(lg_zero, affine)
    _report("degeneracy-chain", ok,
            "q=1 output bit-equals ReLU net; q=0 bit-equals the affine chain",
            time.perf_counter() - t0, 5.0)


def _moons_config(method, seed, n_passes, severities, position="all"):
    return exp.config_from_dict({
        "method": method,
        "architecture": "mlp-2x64",
        "dataset": {"name": "two_moons", "train_size": 400, "test_size": 400,
                    "noise": 0.12},
        "training": {"epochs": 100, "batch_size": 64, "learning_rate": 0.1},
        "n_passes": n_passes,
        "activation_position": position,
        "corruptions": ["rotation"],
        "severities": severities,
        "master_seed": seed,
    })


def test_calibration_under_shift():
    t0 = time.perf_counter()
    acc_wins = ece_wins = 0
    for seed in range(1, 11):
        rs = exp.run_experiment(_moons_config({"name": "single"},
                                              seed, 50, [3, 4, 5]))
        rd = exp.run_experiment(_moons_config(
            {"name": "mc_droprelu", "retain_rate": 0.9}, seed, 50, [3, 4, 5]))
        acc_s = rs.body["evaluation"]["clean"]["accuracy"]
        acc_d = rd.body["evaluation"]["clean"]["accuracy"]
        ece_s = float(np.mean([r["ece"] for r in rs.body["evaluation"]["corrupted"]]))
        ece_d = float(np.mean([r["ece"] for r in rd.body["evaluation"]["corrupted"]]))
        acc_wins += acc_d >= acc_s - 0.02
        ece_wins += ece_d < ece_s
    _report("calibration-under-shift", acc_wins >= 8 and ece_wins >= 8,
            f"accuracy within 0.02 of baseline in {acc_wins}/10 seeds, "
            f"lower rotated ECE in {ece_wins}/10 (need 8/10 each)",
            time.perf_counter() - t0, 600.0)


def test_diversity_ordering():
    t0 = time.perf_counter()
    wins = 0
    for seed in range(1, 11):
        ra = exp.run_experiment(_moons_config(
            {"name": "mc_droprelu", "retain_rate": 0.8}, seed, 4, [3], "all"))
        rb = exp.run_experiment(_moons_config(
            {"name": "mc_dropout", "drop_rate": 0.2}, seed, 4, [3], "last"))
        wins += (ra.body["diversity"]["mean_jsd"]
                 > rb.body["diversity"]["mean_jsd"])
    _report("diversity-ordering", wins >= 8,
            f"4-pass mean JSD higher for stochastic activations than dropout "
            f"in {wins}/10 seeds (need 8/10)",
            time.perf_counter() - t0, 600.0)


def _tiny_config(method, seed=0):
    return exp.config_from_dict({
        "method": method,
        "architecture": "mlp-1x32",
        "dataset": {"name": "blobs", "train_size": 16, "test_size": 16,
                    "centers": [[-2.0, 0.0], [2.0, 0.0]], "sigma": 0.3},
        "training": {"epochs": 1, "batch_size": 16, "learning_rate": 0.05},
        "n_passes": 2,
        "corruptions": ["gaussian_noise"],
        "severities": [1],
        "master_seed": seed,
    })


def test_model_size_accounting():
    t0 = time.perf_counter()
    single = exp.run_experiment(_tiny_config({"name": "single"})).body
    ens = exp.run_experiment(_tiny_config({"name": "deep_ensemble",
                                           "members": 4})).body
    ok = (ens["parameter_count"] == 4 * single["parameter_count"]
          and ens["size_multiplier"] == 4
          and single["size_multiplier"] == 1)
    for method in ({"name": "mc_dropout", "drop_rate": 0.2},
                   {"name": "mc_droprelu", "retain_rate": 0.9},
                   {"name": "mc_rrelu"}):
        body = exp.run_experiment(_tiny_config(method)).body
        ok = ok and body["size_multiplier"] == 1
        ok = ok and body["parameter_count"] == single["parameter_count"]
    _report("model-size-accounting", ok,
            "ensemble of 4 reports exactly 4x parameters, MC methods exactly 1x",
            time.perf_counter() - t0, 5.0)


def test_report_determinism():
    t0 = time.perf_counter()
    cfg = _tiny_config({"name": "mc_droprelu", "retain_rate": 0.8}, seed=3)
    same_exp = exp.run_experiment(cfg).body_text() == exp.run_experiment(cfg).body_text()
    suite = [_tiny_config({"name": "single"}, seed=3),
             _tiny_config({"name": "mc_droprelu", "retain_rate": 0.8}, seed=3)]
    same_suite = exp.run_suite(suite).body_text() == exp.run_suite(suite).body_text()
    ok = same_exp and same_suite
    _report("determinism", ok,
            "byte-identical experiment and suite report bodies across reruns",
            time.perf_counter() - t0, 120.0)


MNIST_DIR = os.environ.get("RRA_UQ_MNIST_DIR", "")


@pytest.mark.skipif(not MNIST_DIR, reason="set RRA_UQ_MNIST_DIR to an IDX "
                    "MNIST directory to enable")
def test_mnist_subset_directional():
    t0 = time.perf_counter()
    paths = {
        "train_images": os.path.join(MNIST_DIR, "train-images-idx3-ubyte"),
        "train_labels": os.path.join(MNIST_DIR, "train-labels-idx1-ubyte"),
        "test_images": os.path.join(MNIST_DIR, "t10k-images-idx3-ubyte"),
        "test_labels": os.path.join(MNIST_DIR, "t10k-labels-idx1-ubyte"),
    }

    def cfg(method, seed):
        return exp.config_from_dict({
            "method": method,
            "architecture": "cnn-small",
            "dataset": {"name": "idx", "train_size": 10000, "test_size": 2000,
                        **paths},
            "training": {"epochs": 4, "batch_size": 64, "learning_rate": 0.05},
            "n_passes": 50,
            "corruptions": ["gaussian_noise"],
            "severities": [3],
            "master_seed": seed,
        })

    wins = 0
    min_acc = 1.0
    for seed in range(1, 11):
        rs = exp.run_experiment(cfg({"name": "single"}, seed))
        rd = exp.run_experiment(cfg({"name": "mc_droprelu", "retain_rate": 0.9},
                                    seed))
        acc_d = rd.body["evaluation"]["clean"]["accuracy"]
        ece_s = rs.body["evaluation"]["corrupted"][0]["ece"]
        ece_d = rd.body["evaluation"]["corrupted"][0]["ece"]
        min_acc = min(min_acc, acc_d)
        wins += (acc_d >= 0.95) and (ece_d < ece_s)
    _report("mnist-directional", wins >= 7,
            f"{wins}/10 seeds reach accuracy >= 0.95 with lower noisy ECE "
            f"(min accuracy {min_acc:.3f}, need 7/10)",
            time.perf_counter() - t0, 2700.0)
