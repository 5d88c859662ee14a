#!/usr/bin/env python3
"""Repo benchmark: run one seeded workload, check its outputs, print metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_lm --seed 1 --seconds 30 --trace 0

It builds the library and perfbench_runner from the checkout's sources into
.bench_build/, runs the workload, and prints every metric by name and unit.
--trace 0 reports the end-to-end metrics; --trace 1 runs the workload
untraced and then traced and reports the per-layer metrics and the tracing
overhead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when an
output check fails, a metric cannot be computed, or a YF_* variable is set.
"""

import argparse
import io
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("train_lm", "train_cnn", "async_socket", "serve_lm")

sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def refuse_library_knobs():
    # YF_FAULT_PLAN arms fault injection in every client; YF_TAPE_FUSION,
    # YF_BACKWARD_THREADS, YF_KERNEL_BACKEND and YF_THREADS change code
    # paths. The benchmark measures library defaults only.
    knobs = sorted(k for k in os.environ if k.startswith("YF_"))
    if knobs:
        sys.exit("perfbench: refusing to run with library knobs set: " + ", ".join(knobs))


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    log = io.StringIO()
    if not unittest.TextTestRunner(stream=log, verbosity=0).run(suite).wasSuccessful():
        sys.stderr.write(log.getvalue())
        sys.exit("perfbench: self-tests failed")


def build():
    """Configure once, then build the runner incrementally."""
    steps = []
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_runner", "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            sys.exit("perfbench: build failed")
    return BUILD / "perfbench_runner"


def run_workload(runner, args):
    out = BUILD / f"result-{args.workload}-{args.trace}.json"
    out.unlink(missing_ok=True)
    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, timeout=4 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish in time")
    if proc.returncode != 0:
        sys.exit(f"perfbench: runner exited with {proc.returncode}")
    with open(out) as f:
        return json.load(f)


def host_fingerprint(backend):
    sha = "unknown"
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
        sha = proc.stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": model,
            "kernel_backend": backend}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    refuse_library_knobs()
    self_test()
    raw = run_workload(build(), args)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("host " + json.dumps(host_fingerprint(raw["kernel_backend"])))
    try:
        metrics = stats.per_layer(raw) if args.trace else stats.end_to_end(raw)
        ungated = {} if args.trace else stats.ungated(raw)
    except ValueError as e:
        sys.exit(f"perfbench: {e}")
    for name, (value, unit, note) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown:>12s} {unit:9s} {note}")
    for name, (value, unit, note) in ungated.items():
        print(f"  {name:28s} {value:12.6g} {unit:9s} {note} (not gated)")
    if raw["spans_dropped"]:
        print(f"  spans dropped: {raw['spans_dropped']}")

    checks = dict(raw["checks"])
    checks["metrics_finite"] = all(v is not None and math.isfinite(v)
                                   for v, _, _ in metrics.values())
    for name, ok in checks.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    print(f"operations attempted={raw['attempted']} failed={raw['failed']}")
    correct = all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
