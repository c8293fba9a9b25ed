"""One benchmark process: set up a workload, say "ready", run it, report.

``run.py`` starts this file once per set-up probe and once for the measured
runs, so that set-up time covers interpreter start and peak memory belongs to
one workload.  The last line on stdout is a JSON object for ``run.py``.

    python3 perfbench/worker.py --workload cnn_mc --seed 0 --seconds 30
    python3 perfbench/worker.py --workload cnn_mc --seed 0 --pin   # record digests
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED = os.path.join(HERE, "digests.json")


def import_package() -> None:
    """Put the checkout's src/ first on the path and refuse any other copy."""
    package = os.path.join(SRC, "rra_uq")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {package}")
    sys.path.insert(0, SRC)
    import rra_uq
    if os.path.dirname(os.path.abspath(rra_uq.__file__)) != package:
        raise SystemExit(f"perfbench: imported rra_uq from {rra_uq.__file__}, not {package}")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _write_json(path: str, obj: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _command_output(*cmd, env=None):
    """Stripped stdout of a short command, or None if it fails."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10,
                              check=False, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cache_bytes(level: int):
    out = _command_output("getconf", f"LEVEL{level}_CACHE_SIZE")
    return int(out) if out and out.isdigit() else None


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return _command_output("git", "-C", ROOT, "rev-parse", "HEAD", env=env)


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return None
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "cpu_count": os.cpu_count(),
        "l2_cache_bytes": _cache_bytes(2),
        "l3_cache_bytes": _cache_bytes(3),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RRA_UQ_THREADS")},
        "git_commit": _git_commit(),
    }


class Judge:
    """Checks each run: sanity first, then digests against the expected ones.

    The expected digests are the pinned ones for the seed if any, else those
    of the first sane run in this call (printed in the result's detail line).
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.expected = _read_json(PINNED).get(workload.name, {}).get(str(seed))
        self.source = "pinned" if self.expected else None
        self.failures = []

    def judge(self, outputs: dict) -> bool:
        from workloads import sha256
        sane, note = self.workload.check(outputs)
        if not sane:
            self.failures.append(f"sanity check failed: {note}")
            return False
        digests = {name: sha256(blob) for name, blob in outputs.items()}
        if self.expected is None:
            self.expected, self.source = digests, "first run"
        if digests != self.expected:
            self.failures.append(f"digest mismatch: {digests} != {self.expected} ({self.source})")
            return False
        return True

    def error(self, exc: BaseException) -> None:
        self.failures.append("".join(traceback.format_exception_only(type(exc), exc)).strip())


def _one_run(workload, judge: Judge, tracer=None):
    """(wall seconds, passed) for one run; an error counts as not passed."""
    t0 = time.perf_counter()
    try:
        outputs = workload.run() if tracer is None else tracer.run(workload.run)
    except Exception as exc:  # a failed run is counted, not fatal
        judge.error(exc)
        return time.perf_counter() - t0, False
    wall = time.perf_counter() - t0
    return wall, judge.judge(outputs)


def _out_of_time(start: float, seconds: float, walls: list) -> bool:
    """True once another run of median length would end past the budget."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(walls) > seconds


def measure(workload, judge: Judge, seconds: float) -> dict:
    """Untimed warm-up run, then timed runs until the budget is spent.

    The first run in a process measured 15-25% slower than the rest on a
    2-core VM; a library caller pays that once, not on every run.
    """
    start = time.perf_counter()
    _, passed = _one_run(workload, judge)
    walls = []
    while True:
        wall, ok = _one_run(workload, judge)
        walls.append(wall)
        passed += ok
        if _out_of_time(start, seconds, walls):
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"walls": walls, "attempted": len(walls) + 1, "failed": len(walls) + 1 - passed,
            "peak_rss_mb": peak_kib / 1024.0}


def measure_traced(workload, judge: Judge, seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced runs; per-layer times are traced medians.

    As in ``measure``, an untimed warm-up run comes first.
    """
    from tracer import UNITS, layer_metrics, traced
    walls, traced_walls, timed_runs = [], [], []
    exact = None
    start = time.perf_counter()
    _, passed = _one_run(workload, judge)
    attempted = 1
    while True:
        # alternate which side runs first so drift within the call favours neither
        if len(walls) % 2:
            with traced() as tracer:
                twall, tok = _one_run(workload, judge, tracer)
            wall, ok = _one_run(workload, judge)
        else:
            wall, ok = _one_run(workload, judge)
            with traced() as tracer:
                twall, tok = _one_run(workload, judge, tracer)
        walls.append(wall)
        traced_walls.append(twall)
        run_exact, run_timed = layer_metrics(tracer)
        timed_runs.append(run_timed)
        if exact is None:
            exact = run_exact
        elif run_exact != exact:
            judge.failures.append(f"exact counts differ between traced runs: {run_exact} != {exact}")
            tok = False
        attempted += 2
        passed += ok + tok
        pair = [a + b for a, b in zip(walls, traced_walls)]
        if _out_of_time(start, seconds, pair):
            break
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(tracer.spans_json())
    layers = dict(exact)
    for name in timed_runs[0]:
        layers[name] = statistics.median(run[name] for run in timed_runs)
    untraced, traced_wall = statistics.median(walls), statistics.median(traced_walls)
    layers.update({
        "trace.runs": len(traced_walls),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced_wall - untraced,
        "trace.overhead_frac": (traced_wall - untraced) / untraced,
    })
    return {"walls": walls, "traced_walls": traced_walls, "attempted": attempted,
            "failed": attempted - passed,
            "layers": {name: {"value": v, "unit": UNITS[name]} for name, v in layers.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up (a set-up time probe)")
    parser.add_argument("--pin", action="store_true",
                        help="run once and pin the digests of this seed")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    import_package()
    from workloads import WORK_DIR, WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload '{args.workload}' "
                         f"(expected one of {sorted(WORKLOADS)})")
    os.makedirs(WORK_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.pin:
        from workloads import sha256
        outputs = workload.run()
        sane, note = workload.check(outputs)
        if not sane:
            raise SystemExit(f"perfbench: refusing to pin a run that fails its sanity check: {note}")
        pins = _read_json(PINNED)
        pins.setdefault(workload.name, {})[str(args.seed)] = {
            name: sha256(blob) for name, blob in outputs.items()}
        _write_json(PINNED, pins)
        print(json.dumps(pins[workload.name][str(args.seed)]))
        return 0

    judge = Judge(workload, args.seed)
    if args.trace:
        spans = os.path.join(WORK_DIR, f"spans-{workload.name}-seed{args.seed}.json")
        result = measure_traced(workload, judge, args.seconds, spans)
    else:
        result = measure(workload, judge, args.seconds)
    result.update({
        "items": workload.items,
        "item_unit": workload.item_unit,
        "digests": judge.expected,
        "digest_source": judge.source,
        "failures": judge.failures[:5],
        "environment": environment(),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
