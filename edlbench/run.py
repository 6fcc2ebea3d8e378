"""Benchmark of the nine `edl` experiments, grouped into three workloads.

    python3 edlbench/run.py --workload field --seed 1 --seconds 25 --trace 0
    python3 edlbench/run.py --quick          # every workload, reduced configs

A run makes passes until `--seconds` have gone by, and at least MIN_PASSES.
Each pass is a fresh child process, started after the previous one exited,
that runs the workload's experiments one at a time through `edl.cli.main`
(a closed loop). After each pass the artifacts are checked (checks.py); an
operation (one experiment in one pass) that exits non-zero or fails a check
is counted as failed and the run goes on.

The last line of standard output is one JSON object: with `--trace 0` the
end-to-end metrics (medians over passes; peak RSS is the maximum), with
`--trace 1` the per-layer metrics of tracing.py (medians over passes).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".edlbench-out")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = {
    "field": ("modes", "bg-check"),
    "circle": ("deform-op", "nash-moser", "continuation"),
    "radial": ("obstruction", "conormal", "gram", "decay"),
}

# Reduced configs for --quick: the same code paths and the same checks, in seconds.
QUICK_CONFIGS = {
    "modes": {"l_max": 3},
    "bg-check": {"l_min": 8, "l_max": 32},
    "deform-op": {"n_modes": 24, "samples": 2},
    "nash-moser": {"n_modes": 48},
    "continuation": {"n_modes": 12},
    "obstruction": {"l_max": 8, "n_modes": 8},
    "conormal": {"l_max": 64},
    "gram": {"l_max": 32},
    "decay": {"l_max": 16, "samples": 20},
}

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))
MIN_PASSES = 2
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # one BLAS thread: the plain single-threaded baseline, and far steadier
    # on a small shared machine than OpenBLAS's default pool
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("EDL_THREADS", None)
    return env


def run_child(spec):
    """Run one child to completion and return the result it wrote."""
    try:
        os.remove(spec["result"])
    except FileNotFoundError:
        pass
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        raise BenchError(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(spec["result"]) as handle:
        return json.load(handle)


def write_quick_configs(run_dir, experiments):
    paths = {}
    for command in experiments:
        path = os.path.join(run_dir, f"{command}.cfg")
        with open(path, "w") as handle:
            handle.writelines(f"{k} = {v}\n" for k, v in QUICK_CONFIGS[command].items())
        paths[command] = path
    return paths


def pass_spec(run_dir, name, experiments, seed, configs, trace, setup_only=False):
    """What child.py needs for one pass (or one set-up sample) named `name`."""
    return {
        "experiments": list(experiments), "seed": seed, "configs": configs,
        "out": os.path.join(run_dir, name), "trace": bool(trace),
        "setup_only": setup_only,
        "result": os.path.join(run_dir, f"{name}.result.json"),
        "spans": os.path.join(run_dir, f"{name}.spans.json"),
    }


def pass_failures(result, out_dir):
    """Failure messages per operation of one pass, in experiment order."""
    per_op = []
    for op in result["ops"]:
        command = op["experiment"]
        if op["error"] is not None:
            failures = [op["error"].strip().splitlines()[-1]]
        else:
            failures = [] if op["rc"] == 0 else [f"edl {command} exited {op['rc']}"]
            failures += checks.check_artifacts(
                command, os.path.join(out_dir, command), result["configs"][command]
            )
        per_op.append((command, failures))
    return per_op


def run(workload, seed, seconds, trace, quick=False):
    """Make the passes of one run and return its result object."""
    experiments = WORKLOADS[workload]
    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    configs = write_quick_configs(run_dir, experiments) if quick else {}
    min_passes, setup_samples = (1, 1) if quick else (MIN_PASSES, SETUP_SAMPLES)

    def spec(name, setup_only=False):
        return pass_spec(run_dir, name, experiments, seed, configs, trace, setup_only)

    attempted = failed = 0
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        name = f"pass{len(passes)}"
        result = run_child(spec(name))
        for command, failures in pass_failures(result, os.path.join(run_dir, name)):
            attempted += 1
            if failures:
                failed += 1
                print(f"FAILED {workload}/{name}/{command}: {'; '.join(failures)}", file=sys.stderr)
        shutil.rmtree(os.path.join(run_dir, name), ignore_errors=True)
        passes.append(result)
        print(f"{workload} {name}: wall {result['wall_s']:.3f} s, setup "
              f"{result['setup_s']:.3f} s, peak {result['peak_rss_mb']:.0f} MiB", file=sys.stderr)
    setups = [p["setup_s"] for p in passes]
    while not trace and len(setups) < setup_samples:
        setups.append(run_child(spec(f"setup{len(setups)}", setup_only=True))["setup_s"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_of(passes, setups, trace),
    }


def metrics_of(passes, setups, trace):
    if trace:
        units = {metric: unit for metric, unit, _, _ in tracing.PER_LAYER}
        values = {m: statistics.median(p["layers"][m] for p in passes) for m in units}
    else:
        units = dict(END_TO_END)
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setups),
        }
    return {m: {"value": values[m], "unit": units[m]} for m in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20260815,
                        help="workload seed, passed to every experiment as --seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass per workload at reduced configs, traced and not")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "edl", "cli.py")):
        print(f"edlbench: no edl sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.quick:
            bad = 0
            for workload in [args.workload] if args.workload else list(WORKLOADS):
                for trace in (0, 1):
                    out = run(workload, args.seed, 0.0, trace, quick=True)
                    bad += out["failed"]
                    print(json.dumps({"workload": workload, "trace": trace, **out}))
            return 1 if bad else 0
        if args.workload is None:
            parser.error("--workload is required")
        out = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"edlbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
