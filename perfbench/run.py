"""rra-uq benchmark: one workload per call, end-to-end or traced per-layer.

    python3 perfbench/run.py --workload moons_suite --seed 0 --seconds 40 --trace 0

Workloads: moons_suite, cnn_mc, variance_scan (see perfbench/README.md), or
``all`` to run the three in turn, with metric names prefixed by workload.
With ``--trace 0`` the workload runs untraced for ``--seconds`` in one worker
process, after set-up probes in fresh processes, and the end-to-end metrics
are printed; with ``--trace 1`` untraced and traced runs alternate and the
per-layer metrics are printed.  Every run's output is checked against the
pinned SHA-256 digests (perfbench/digests.json).  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Exit code 0
means the benchmark ran (whether or not every run was correct); any other
code means it could not run and no result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("moons_suite", "cnn_mc", "variance_scan")
SETUP_SAMPLES = 5           # set-up probes plus the measuring process
SETUP_TIMEOUT_S = 60
RESULT_GRACE_S = 120        # beyond --seconds, for the last run to finish


class BenchError(Exception):
    pass


def _worker(args, *extra) -> subprocess.Popen:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker and return its remaining stdout; kill it on timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _start_until_ready(args, *extra):
    """Start a worker and time it from launch until it reports ready."""
    t0 = time.perf_counter()
    proc = _worker(args, *extra)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, SETUP_TIMEOUT_S)
        raise BenchError("worker failed during set-up")
    return proc, setup_s


def measure(args) -> tuple:
    """(worker result, set-up seconds of every process)."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s = _start_until_ready(args, "--setup-only")
            _finish(proc, SETUP_TIMEOUT_S)
            setups.append(setup_s)
    proc, setup_s = _start_until_ready(args)
    setups.append(setup_s)
    out = _finish(proc, args.seconds + RESULT_GRACE_S)
    return json.loads(out.strip().splitlines()[-1]), setups


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(result: dict, setups: list) -> dict:
    wall = statistics.median(result["walls"])
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "items_per_s": {"value": result["items"] / wall, "unit": "items/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
    }


def report(args, result: dict, setups: list) -> dict:
    metrics = result["layers"] if args.trace else end_to_end(result, setups)
    walls = result["walls"]
    q1, q3 = _quartiles(walls)
    fail_frac = result["failed"] / result["attempted"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"items/run={result['items']} ({result['item_unit']})")
    print(f"  wall_s      median {statistics.median(walls):.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
          f"runs {len(walls)}")
    if not args.trace:
        for name in ("items_per_s", "setup_s", "peak_rss_mb"):
            print(f"  {name:<11} {metrics[name]['value']:.4f} {metrics[name]['unit']}")
    print(f"  fail_frac   {fail_frac:.4f} ratio  ({result['failed']}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wall_s": {"median": statistics.median(walls), "q1": q1, "q3": q3,
                   "runs": len(walls), "values": walls},
        "setup_s": setups,
        "fail_frac": fail_frac,
        "digests": result["digests"], "digest_source": result["digest_source"],
        "environment": result["environment"],
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def combine(results: dict) -> dict:
    """One result for several workloads; metric names get a workload prefix."""
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rra_uq", "__init__.py")):
        print(f"perfbench: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            results[name] = report(one, *measure(one))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    final = results[names[0]] if len(names) == 1 else combine(results)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
