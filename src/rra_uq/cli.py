"""Command-line entry point.

Subcommands share one workspace convention: `--out` names a directory where
each stage reads its predecessor's artifacts (train writes the kept members
to `members.ckpt`, predict reads them and writes `predictions.bin`, metrics
reads that).  Both files carry `experiments.training_digest` of the config
that trained the members, which ignores n_passes, ece_bins, corruptions and
severities and counts an idx set by its files' contents, and a stage refuses
another config's file.  Before a stage writes, it deletes whatever it and
the later stages wrote there; the old `member<k>.ckpt` files are neither
read nor deleted.  Exit codes: 0 success,
2 configuration/usage error (any other library error, or out of memory),
3 training divergence (from train, suite, sweep and position, whose reports
are still written), 4 I/O or file-format error (a stale or malformed
artifact among them), 5 a worker process was lost.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import experiments as exp
from . import network as netmod
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ContractError, DataFormatError, RraError, WorkerLost
from .inference import load_predictive_set, predictive_set_to_csv, save_predictive_set
from .serialize import write_text
from .variance import (analytic_dropout_var, analytic_droprelu_var_floor,
                       dominance_scan, empirical_epsilon, empirical_layer_var,
                       scan_to_csv)

PAPER_Q_GRID = (0.8, 0.85, 0.9, 0.95)


def _add_common(parser, takes_config=True):
    if takes_config:
        parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's master seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rra-uq",
        description="Uncertainty estimation via randomized ReLU activations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "predict", "metrics", "variance-check", "sweep", "position",
                 "suite"):
        _add_common(sub.add_parser(name), takes_config=name != "variance-check")
    return parser


def _load_config(args) -> exp.ExperimentConfig:
    cfg = exp.load_config(args.config)
    if args.seed is not None:
        cfg.master_seed = args.seed
    return cfg


def _emit(report: exp.Report, args, stem: str) -> str:
    path = os.path.join(args.out, f"{stem}.{args.format}")
    exp.emit_report(report, args.format, path)
    return path


# the files each stage writes in --out (full-match patterns), in stage order
_STAGE_FILES = {
    "train": r"members\.ckpt|report-train\.(json|csv)",
    "predict": r"predictions\.(bin|csv)|report-predict\.(json|csv)",
    "metrics": r"reliability\.csv|report-metrics\.(json|csv)",
}


def _clear_from(out_dir: str, stage: str) -> None:
    """Delete every file in `out_dir` that `stage` or a later stage writes, so
    no artifact of an earlier run sits beside this stage's new results:
    predictions of old checkpoints, reports and reliability bins of old
    predictions.  Other files are left alone."""
    stages = list(_STAGE_FILES)
    pattern = "|".join(_STAGE_FILES[s] for s in stages[stages.index(stage):])
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        if re.fullmatch(pattern, name) and os.path.isfile(path):
            os.remove(path)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    stamp = exp.training_digest(cfg)
    setup = exp.prepare_experiment(cfg)
    trained = exp.train_models(cfg, setup)
    body = {
        "schema": "rra-uq/train/v1",
        "kind": "training",
        "status": trained.status,
        "method": cfg.method.label(),
        "config": cfg.to_dict(),
        "config_digest": stamp.hex(),
        "parameter_count": trained.rows.size or None,
        "checkpoint": "members.ckpt",
        "members": exp.member_curves(trained),
    }
    if trained.status != "ok":
        body["diverged_epoch"] = trained.training.diverged_epoch
    _clear_from(args.out, "train")
    save_checkpoint(trained.rows, stamp, os.path.join(args.out, "members.ckpt"))
    _emit(exp.Report(body, {"train_seconds": trained.seconds}), args, "report-train")
    return 0 if trained.status == "ok" else 3


def _load_members(cfg: exp.ExperimentConfig, setup: exp.ExperimentSetup, out_dir: str,
                  stamp: bytes):
    path = os.path.join(out_dir, "members.ckpt")
    rows = load_checkpoint(path, stamp)
    if len(rows) < cfg.method.members:
        raise DataFormatError(
            f"{path} keeps {len(rows)} of the {cfg.method.members} members this config "
            f"trains: member {len(rows)} diverged in training")
    net = netmod.build_network(setup.layers, setup.input_shape)
    if rows.shape[1] != net.parameter_count():
        raise DataFormatError(f"{path} holds {rows.shape[1]} parameters per member, "
                              f"the network takes {net.parameter_count()}")
    return [net.with_parameters(row) for row in rows[:cfg.method.members]]


def cmd_predict(args) -> int:
    cfg = _load_config(args)
    stamp = exp.training_digest(cfg)
    setup = exp.prepare_experiment(cfg)
    nets = _load_members(cfg, setup, args.out, stamp)
    ps = exp.predict_with_method(cfg, nets, setup.test_norm.features,
                                 exp.inference_stream(setup))
    _clear_from(args.out, "predict")
    save_predictive_set(ps, stamp, os.path.join(args.out, "predictions.bin"))
    if args.format == "csv":
        write_text(os.path.join(args.out, "predictions.csv"),
                   predictive_set_to_csv(ps))
    body = {
        "schema": "rra-uq/predict/v1",
        "kind": "prediction",
        "method": cfg.method.label(),
        "n_passes": ps.n_passes,
        "n_samples": int(ps.probs.shape[1]),
        "n_classes": int(ps.probs.shape[2]),
        "artifact": "predictions.bin",
    }
    _emit(exp.Report(body), args, "report-predict")
    return 0


def cmd_metrics(args) -> int:
    cfg = _load_config(args)
    stamp = exp.training_digest(cfg)
    setup = exp.prepare_experiment(cfg)
    ps = load_predictive_set(os.path.join(args.out, "predictions.bin"), stamp)
    want = (cfg.method.passes(cfg.n_passes), len(setup.test_norm), setup.train_norm.n_classes)
    if ps.probs.shape != want:
        raise ContractError(
            f"predictions have shape {ps.probs.shape} (passes, samples, classes), "
            f"but the config '{cfg.method.label()}' makes {want}")
    m, bins = exp.eval_metrics(cfg, ps, setup.test_norm.labels)
    body = {
        "schema": "rra-uq/metrics/v1",
        "kind": "metrics",
        "method": cfg.method.label(),
        "accuracy": m["accuracy"],
        "ece": m["ece"],
        "ece_bins": cfg.ece_bins,
        "mean_entropy": m["mean_entropy"],
        "mean_variance": m["mean_variance"],
        "diversity": exp.diversity_summary(cfg, ps),
    }
    _clear_from(args.out, "metrics")
    write_text(os.path.join(args.out, "reliability.csv"), bins.to_csv())
    _emit(exp.Report(body), args, "report-metrics")
    return 0


def cmd_variance_check(args) -> int:
    seed = args.seed if args.seed is not None else 0
    from .rng import RngStream
    vec_rng = RngStream(seed, stream_id=99)
    checks = []
    for i in range(5):
        x = vec_rng.uniform(-2.0, 2.0, (8,))
        for p in (0.2, 0.5):
            est, se = empirical_layer_var("dropout_unscaled", x, p, 100_000,
                                          vec_rng.fork(10 + i).stream_id)
            checks.append({"kind": "dropout_unscaled", "p": p,
                           "analytic": analytic_dropout_var(x, p),
                           "empirical": est, "se": se,
                           "within_3se": abs(est - analytic_dropout_var(x, p)) <= 3 * se})
        xneg = -np.abs(x)
        for q in (0.8, 0.9):
            est, se = empirical_layer_var("droprelu", xneg, q, 100_000,
                                          vec_rng.fork(20 + i).stream_id)
            floor = analytic_droprelu_var_floor(xneg, q)
            checks.append({"kind": "droprelu_all_negative", "q": q,
                           "analytic": floor, "empirical": est, "se": se,
                           "within_3se": abs(est - floor) <= 3 * se})
        eps, eps_se = empirical_epsilon(x, 0.8, 100_000,
                                        vec_rng.fork(30 + i).stream_id)
        checks.append({"kind": "epsilon", "q": 0.8, "empirical": eps,
                       "se": eps_se, "nonnegative": eps >= -3 * eps_se})
    scan_x = vec_rng.uniform(-2.0, 2.0, (8,))
    rows = dominance_scan(scan_x, [0.1, 0.2, 0.3, 0.4, 0.5],
                          [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95],
                          trials=100_000, seed=seed)
    write_text(os.path.join(args.out, "dominance-scan.csv"), scan_to_csv(rows))
    in_region = [r for r in rows if r["region"] == "q<=1-p"]
    body = {
        "schema": "rra-uq/variance/v1",
        "kind": "variance_check",
        "seed": seed,
        "checks": checks,
        "all_within_3se": all(c.get("within_3se", c.get("nonnegative", True))
                              for c in checks),
        "scan_cells": len(rows),
        "scan_cells_in_region": len(in_region),
        "scan_dominant_in_region": sum(1 for r in in_region if r["dominant"]),
        "scan_artifact": "dominance-scan.csv",
    }
    _emit(exp.Report(body), args, "report-variance")
    return 0


def _emit_rows(report: exp.Report, args, stem: str) -> int:
    """Write a multi-run report; exit 3 if any row diverged, which is when
    its accuracy is null."""
    _emit(report, args, stem)
    return 3 if any(row["accuracy"] is None for row in report.body["rows"]) else 0


def cmd_sweep(args) -> int:
    return _emit_rows(exp.q_sweep(_load_config(args), PAPER_Q_GRID), args, "report-qsweep")


def cmd_position(args) -> int:
    return _emit_rows(exp.position_analysis(_load_config(args), exp.POSITIONS), args,
                      "report-position")


def cmd_suite(args) -> int:
    configs = exp.load_suite(args.config)
    if args.seed is not None:
        for cfg in configs:
            cfg.master_seed = args.seed
    return _emit_rows(exp.run_suite(configs), args, "report-suite")


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "metrics": cmd_metrics,
    "variance-check": cmd_variance_check,
    "sweep": cmd_sweep,
    "position": cmd_position,
    "suite": cmd_suite,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:  # the configs' master_seed rule
            args.seed = exp.MASTER_SEED.read(args.seed, "--seed")
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](args)
    except (OSError, DataFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except WorkerLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:  # NumPy's _ArrayMemoryError among them
        print(f"error: out of memory ({' '.join(str(exc).split()) or 'no detail'}); "
              "lower the config's counts or sizes", file=sys.stderr)
        return 2
    except RraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
